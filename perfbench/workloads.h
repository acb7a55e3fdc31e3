// The WEBER benchmark's workloads, driven only through the library's public
// entry points (corpus loaders, core::EntityResolver, eval::Evaluate,
// serve::ResolutionService, and the weber_serve / weber_router binaries
// over loopback TCP). See README.md in this directory for what each
// workload measures and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/document.h"
#include "extract/gazetteer.h"
#include "graph/clustering.h"
#include "span.h"

namespace perfbench {

/// A corpus loaded from a generated directory (dataset.txt +
/// gazetteer.txt). The gazetteer sits behind a pointer so resolvers that
/// keep its address stay valid when the Corpus moves.
struct Corpus {
  weber::corpus::Dataset dataset;
  std::unique_ptr<weber::extract::Gazetteer> gazetteer;
};

weber::Result<Corpus> LoadCorpus(const std::string& dataset_path,
                                 const std::string& gazetteer_path);

/// Writes the `preset` corpus ("www05", "large" = www05 with every name's
/// documents and entities x4, or "tiny") at `seed` into `out_dir` as
/// dataset.txt + gazetteer.txt. With `backends` > 0 it also writes
/// backend<i>.txt: the blocks whose rendezvous owner among that many
/// backends is i, the split a weber_router in front of them routes by.
weber::Status GenerateCorpus(const std::string& preset, uint64_t seed,
                             const std::string& out_dir, int backends);

/// The partition a quiesced, compacted serving shard must publish for
/// every block of `dataset` (the dataset the service was created from, so
/// block indices drive the same calibration samples): single-threaded
/// IncrementalResolver::BatchResolve over all documents in canonical
/// order, with the service's default calibration.
weber::Result<std::vector<weber::graph::Clustering>> ReferencePartitions(
    const weber::corpus::Dataset& dataset,
    const weber::extract::Gazetteer* gazetteer);

struct ResolveArgs {
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// resolve_www05 / resolve_large: the `weber resolve` loop.
RunResult RunResolve(const ResolveArgs& args);

struct ServeArgs {
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  int router_port = 0;
  std::vector<int> backend_ports;
};

/// The fleet client of resolve_www05's traced run: ingest, compact and
/// read phases through a running weber_router in front of weber_serve
/// backends, then paired direct/routed round trips and each backend's
/// `stats` before and after them.
RunResult RunServeClient(const ServeArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
