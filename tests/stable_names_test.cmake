# Test-name stability check: lists every gtest binary's tests twice and
# fails if the two listings differ. ctest names parameterized tests after
# gtest's printed parameter, so a parameter printed as raw bytes (pointers
# under ASLR) would register new names on every run. Invoked by ctest with
# -DBINS=<comma-separated binaries>.

cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake)

string(REPLACE "," ";" bins "${BINS}")
foreach(bin IN LISTS bins)
  foreach(run first second)
    execute_process(COMMAND "${bin}" --gtest_list_tests
                    RESULT_VARIABLE rc OUTPUT_VARIABLE ${run})
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${bin} --gtest_list_tests failed (${rc})")
    endif()
  endforeach()
  first_difference("${first}" "${second}" diff)
  if(diff)
    message(FATAL_ERROR "${bin}: two --gtest_list_tests runs differ at ${diff}")
  endif()
endforeach()
