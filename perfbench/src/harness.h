// Shared plumbing of the vdt benchmark: run options, exact latency samples
// with ceiling nearest-rank percentiles, per-operation attempted/failed
// accounting, correctness-check bookkeeping, the in-memory span tracer used
// by traced runs, and the metric report printed as the run's last line.
#ifndef VDT_PERFBENCH_HARNESS_H_
#define VDT_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/datasets.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for durable engines and probe files (created and
  /// removed by the run).
  std::string work_dir = ".bench_work";
  /// Where a traced run writes its spans.
  std::string trace_dir = ".bench_trace";
  /// Every thread/connection count of the run; set by main() to
  /// min(kThreads, nproc), not a flag.
  size_t threads = 1;
};

/// The input set a workload runs every phase over.
struct WorkloadSpec {
  const char* name;
  vdt::DatasetProfile profile;
};

/// Known workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Exact sample set (no bucketing). Percentiles use ceiling nearest-rank:
/// rank = ceil(p * n), 1-based, clamped to [1, n].
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

/// Median of a small vector (copied, sorted; mean of the middle pair).
double MedianOf(std::vector<double> values);

/// Events per second in consecutive `window_s` windows of [0, span_s),
/// median across windows; `at_s` are the events' times in seconds.
double WindowedRate(const std::vector<double>& at_s, double span_s,
                    double window_s);

/// The smallest of repeated measurements of the same work: other tenants of
/// the host only ever add time.
double Best(const std::vector<double>& values);

/// Sum over positions i of the smallest runs[r][i]: the time of a repeated,
/// identical sequence of steps with each step's disturbances dropped. Every
/// run must have the same length.
double SumOfBestSteps(const std::vector<std::vector<double>>& runs);

/// "a b c" with three significant digits, for the human-readable lines.
std::string Join(const std::vector<double>& values);

/// Per-operation attempted/failed counts. BUSY and Timeout replies count as
/// failed operations; every other error aborts the run (see Fatal).
class OpCounter {
 public:
  void Attempt(const std::string& op, bool ok);
  /// Records a status: OK -> success; BUSY/Timeout -> failed; anything
  /// else is a transport/protocol/engine error and aborts the run.
  void Record(const std::string& op, const vdt::Status& status);
  uint64_t attempted() const;
  uint64_t failed() const;
  void Print() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_;
};

/// Prints `what` and exits non-zero without a result line: the run cannot
/// be trusted (transport error, engine error, unexpected state).
[[noreturn]] void Fatal(const std::string& what);

/// Correctness bookkeeping: every violated check is printed (the first few
/// of each kind) and makes the run fail.
class Checks {
 public:
  /// `what` is a string literal, so a passing check allocates nothing.
  void Expect(bool ok, const char* what);
  bool all_ok() const { return violations_.load() == 0; }
  uint64_t violations() const { return violations_.load(); }
  uint64_t checked() const { return checked_.load(); }

 private:
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> violations_{0};
  std::mutex mu_;
  std::map<std::string, int> printed_;
};

/// In-memory span recorder for traced runs. Spans are recorded from the
/// benchmark's own code around calls into each layer's public functions;
/// nothing inside the library is instrumented. Disabled (the default), a
/// Span costs one relaxed load.
class Tracer {
 public:
  struct Record {
    uint64_t id;
    uint64_t parent;  // 0 = root
    uint32_t thread;
    const char* layer;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };

  static Tracer& Get();
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;
  /// Per layer: sum over its spans of (duration - time covered by direct
  /// children), in seconds.
  std::map<std::string, double> SelfSeconds() const;
  size_t size() const;

 private:
  friend class Span;
  void Add(const Record& record);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> records_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span: `layer` and `name` must be string literals.
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  const char* layer_ = nullptr;
  const char* name_ = nullptr;
  Clock::time_point start_{};
};

/// Named metric values of one run, printed in the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// One human-readable "name = value unit" line per metric.
  void PrintHuman(const char* heading) const;
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string Json() const;
  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // VDT_PERFBENCH_HARNESS_H_
