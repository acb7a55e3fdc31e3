// weberbench: the WEBER benchmark's measuring binary. perfbench/run.py
// builds it and calls one subcommand per step:
//
//   weberbench generate --preset=www05|large|tiny --seed=N --out=DIR
//                       [--backends=2]
//   weberbench resolve  --dir=DIR --seed=N --seconds=S --trace=0|1
//   weberbench serve    --dir=DIR --seed=N --seconds=S
//                       --router_port=P --backend_ports=P0,P1
//
// resolve and serve print one JSON line: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}, ...}. Exit code 0 means
// the line was printed; a failed operation is reported in it, not by the
// exit code.

#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/string_util.h"
#include "workloads.h"

namespace {

using namespace weber;
using perfbench::RunResult;

int Usage() {
  std::cerr << "usage: weberbench generate|resolve|serve --flag=value ...\n";
  return 2;
}

int Fail(const Status& status) {
  std::cerr << "weberbench: " << status << "\n";
  return 1;
}

int Print(const RunResult& result) {
  for (const std::string& e : result.errors) {
    std::cerr << "weberbench: failed: " << e << "\n";
  }
  std::cout << result.ToJson() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  FlagParser flags;
  flags.AddString("dir", "", "corpus directory");
  flags.AddString("out", "", "output directory (generate)");
  flags.AddString("preset", "www05", "www05 | large | tiny (generate)");
  flags.AddInt("backends", 0, "also split the corpus for N backends");
  flags.AddInt("seed", 1, "workload seed");
  flags.AddDouble("seconds", 10.0, "measurement budget");
  flags.AddInt("trace", 0, "1 = per-layer traced run");
  flags.AddInt("router_port", 0, "weber_router port (serve)");
  flags.AddString("backend_ports", "", "weber_serve ports (serve)");
  if (Status st = flags.Parse(argc - 1, argv + 1); !st.ok()) return Fail(st);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  if (command == "generate") {
    Status st = perfbench::GenerateCorpus(flags.GetString("preset"), seed,
                                          flags.GetString("out"),
                                          flags.GetInt("backends"));
    return st.ok() ? 0 : Fail(st);
  }
  if (command == "resolve") {
    perfbench::ResolveArgs args;
    args.dir = flags.GetString("dir");
    args.seed = seed;
    args.seconds = flags.GetDouble("seconds");
    args.trace = flags.GetInt("trace") != 0;
    return Print(perfbench::RunResolve(args));
  }
  if (command == "serve") {
    perfbench::ServeArgs args;
    args.dir = flags.GetString("dir");
    args.seed = seed;
    args.seconds = flags.GetDouble("seconds");
    args.router_port = flags.GetInt("router_port");
    for (const std::string& port :
         Split(flags.GetString("backend_ports"), ',')) {
      if (!port.empty()) args.backend_ports.push_back(std::stoi(port));
    }
    if (args.router_port <= 0 || args.backend_ports.empty()) {
      return Fail(Status::InvalidArgument("serve needs --router_port and "
                                          "--backend_ports"));
    }
    return Print(perfbench::RunServeClient(args));
  }
  return Usage();
}
