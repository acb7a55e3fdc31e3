# Golden-output check: runs BIN, writes its stdout to OUT and fails unless
# it is byte-identical to the committed GOLDEN file, printing the first line
# that differs. Invoked by ctest with -DBIN=<binary> -DGOLDEN=<file>
# -DOUT=<file>. A change that moves the output on purpose replaces GOLDEN
# with OUT and says in CHANGES.md which lines moved and why.

cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake)

execute_process(COMMAND "${BIN}" RESULT_VARIABLE rc OUTPUT_VARIABLE actual
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} failed (${rc}):\n${err}")
endif()
file(WRITE "${OUT}" "${actual}")
file(READ "${GOLDEN}" expected)
first_difference("${expected}" "${actual}" diff)
if(diff)
  message(FATAL_ERROR "${BIN} output differs from ${GOLDEN} at ${diff}\n"
                      "full output: ${OUT}")
endif()
