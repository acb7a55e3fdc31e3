// Timing and reporting helpers of the WEBER benchmark.
//
// A Span measures one call into a library layer from the benchmark's own
// code: wall time on the steady clock next to CLOCK_THREAD_CPUTIME_ID, so
// a reader can tell contended wall time from work done. Spans add into a
// Ledger keyed by layer name. MetricSet collects the named, unit-carrying
// numbers a subcommand prints as its one-line JSON result.

#ifndef PERFBENCH_SPAN_H_
#define PERFBENCH_SPAN_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock (arbitrary epoch).
double WallNowMs();

/// CPU milliseconds consumed by the calling thread.
double ThreadCpuNowMs();

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb();

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// Linearly interpolated percentile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

/// The median over windows of each window's q-quantile: a statistic of
/// samples taken in several windows spread over a run, robust to a
/// minority of windows slowed by a noisy neighbour. Consecutive windows
/// are pooled until each group holds at least `min_samples`, so that a
/// high quantile is read from enough samples.
double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double q, size_t min_samples = 1);

/// Samples per group for a p99. A few stalls from the host (a descheduled
/// CPU, a busy neighbour) move a p99 pooled over a whole run from one run
/// to the next; the median of the p99s of groups this large does not move
/// with them, and the run still holds at least ten samples beyond it.
inline constexpr size_t kP99Samples = 250;

struct SpanTotal {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  long long count = 0;
};

/// Moves the calling thread round-robin over the CPUs the process may use.
/// Single-threaded measurements step it between units of work, so a run
/// samples every CPU alike: on a shared host one CPU is often slowed by a
/// neighbour for seconds at a time, and then weighs on a share of the
/// windows only instead of on a whole run.
class CpuRotor {
 public:
  CpuRotor();
  /// Pins the calling thread to the next CPU.
  void Next();
  /// Lets the calling thread run anywhere again (threads it creates
  /// inherit its CPU set, so release before starting any).
  void Release();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Accumulated span time per layer name.
class Ledger {
 public:
  void Add(const std::string& name, double wall_ms, double cpu_ms);
  /// The totals of `name` (all zero when it never ran).
  SpanTotal Get(const std::string& name) const;

 private:
  std::map<std::string, SpanTotal> totals_;
};

/// Times its scope (or until End) into a ledger. A null ledger makes the
/// span a no-op apart from the two clock reads.
class Span {
 public:
  Span(Ledger* ledger, std::string name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Stops the span and returns its wall milliseconds; later calls return
  /// the same value without adding again.
  double End();

 private:
  Ledger* ledger_;
  std::string name_;
  double wall_start_;
  double cpu_start_;
  double wall_ms_ = -1.0;
};

/// Named metrics in insertion order, printed as the benchmark's
/// {"metrics": {name: {"value": v, "unit": u}}} object.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// The result line of a subcommand: counts, the metrics, and optional raw
/// JSON sections (already-serialized objects keyed by name).
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  MetricSet metrics;
  std::vector<std::pair<std::string, std::string>> raw_sections;
  std::vector<std::string> errors;

  /// Records one failed operation with a message (kept for stderr).
  void Fail(const std::string& message);
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_H_
