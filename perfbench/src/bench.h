// Shared pieces of the SinClave benchmark program: options, exact sample
// statistics, process counters, the span log of traced runs, and the
// result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Nominal run length; each workload turns it into a fixed operation
  /// count, so a slow host runs longer instead of doing less.
  int seconds = 0;
  bool trace = false;
  /// Where a traced run writes its spans and self-time table.
  std::string out_dir;
};

/// Exact quantile of the samples: linear interpolation between adjacent
/// order statistics (0 for an empty set).
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
/// Splits the samples, in the order given, into `blocks` consecutive runs of
/// near-equal size and returns each run's quantile `q`.
std::vector<double> block_quantiles(const std::vector<double>& samples,
                                    double q, std::size_t blocks);
/// The median of block_quantiles. A slow spell of the host that covers
/// fewer than half of the blocks does not move it, where it moves the
/// quantile of the whole set once it covers more than 1 - q of the samples.
inline double block_median_quantile(const std::vector<double>& samples,
                                    double q, std::size_t blocks) {
  return median(block_quantiles(samples, q, blocks));
}

/// User + system CPU time of the whole process, in seconds.
double process_cpu_seconds();
/// Peak resident set of the process, in MiB.
double peak_rss_mib();

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();
/// Moves the calling thread onto `cpu`; a refusal leaves it where it is.
void move_to_cpu(int cpu);
/// Lets every thread of the process, including threads started while their
/// creator was pinned, run on all of `cpus` again.
void release_all_threads(const std::vector<int>& cpus);

/// A fixed integer kernel in benchmark code. Its time drifts with the host
/// and is recorded as a diagnostic only; no metric is rescaled by it.
double ref_kernel_ms();

/// One timed call into one layer, inside one operation.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same log; -1 for an operation root.
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span log of one client thread (not thread-safe: every thread
/// owns its log). Spans nest by scope; the root of each operation is the
/// span named "op".
class SpanLog {
 public:
  /// RAII span. With a null log nothing is recorded and no clock is read,
  /// so untraced operations pay one branch per call site.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  SpanLog() { spans_.reserve(1 << 14); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// What a workload run reports back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Typed exceptions and untyped throws caught around operations.
  std::uint64_t exceptions = 0;

  struct Check {
    std::string name;
    bool ok = false;
  };
  std::vector<Check> checks;

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void check(const std::string& name, bool ok) { checks.push_back({name, ok}); }
  void set(const std::string& name, double value, const std::string& unit);
};

/// One operation of a closed loop.
struct OpRecord {
  std::int64_t start_ns = 0;
  double latency_ms = 0;
  bool ok = false;
  bool traced = false;
};

/// What a closed loop measured: every operation in start order, the
/// window from the first start to the last completion, and the process
/// CPU time spent in it.
struct LoopResult {
  std::vector<OpRecord> ops;
  std::uint64_t exceptions = 0;
  double window_s = 0;
  double cpu_s = 0;

  std::uint64_t ok_count() const;
  /// Latencies in start order; `traced` selects traced or untraced ops.
  std::vector<double> latencies(bool traced) const;
  std::vector<double> all_latencies() const;
  /// Adds a loop that ran after this one: its operations follow, and its
  /// window and CPU time add to this one's.
  void append(const LoopResult& later);
};

/// One operation: `thread` is the client, `index` its per-thread sequence
/// number, and `log` the thread's span log when this operation is traced
/// (null otherwise). Returns whether the operation and its checks passed.
using OpFn = std::function<bool(std::size_t thread, std::uint64_t index,
                                SpanLog* log)>;

/// Runs `ops` operations split over `threads` closed-loop clients that
/// start together; each client issues its next operation only after the
/// previous one returned. In a traced run every second operation of each
/// client is traced, so traced and untraced operations share the host's
/// conditions. An exception counts the operation as failed.
///
/// A loop with a single client moves it to the next CPU the process may use
/// after every second operation (so a traced run's traced and untraced
/// operations share each CPU). On a shared guest the vCPUs run at different
/// speeds (one at about 1.5x the time of the others on the 4-vCPU KVM
/// guest this was tuned on) and the scheduler leaves a lone thread on one
/// of them for seconds, so an unpinned run measures whichever it landed
/// on; rotating makes every run sample each CPU equally. Loops with more
/// clients stay with the scheduler: pinning them there was slower and no
/// steadier, as they share the CPUs with the server's or cluster's threads.
LoopResult run_closed_loop(std::size_t threads, std::uint64_t ops, bool trace,
                           std::vector<SpanLog>& logs, const OpFn& op);

/// Copies the loop's operation and exception counts into the report.
void report_loop(Report& report, const LoopResult& loop);

/// Fills the seven end-to-end metrics (untraced run) from a loop and the
/// set-up times. The latency quantiles are block medians:
/// block_median_quantile over `blocks` blocks of operations in start order.
inline constexpr std::size_t kLatencyBlocks = 10;
void report_end_to_end(Report& report, const LoopResult& loop,
                       const std::vector<double>& setup_s,
                       std::size_t blocks = kLatencyBlocks);

/// Fills the per-layer figures of a traced run from the clients' span logs:
/// the median per-operation time of every span name as `<name>_ms`, the
/// time no span covers, the span coverage and the tracing overhead. Writes
/// every span (with its self time) and a per-name self-time table under
/// options.out_dir. Checks that the spans cover at least 90% of an
/// operation and that the traced operations measured the untraced path:
/// their p50 must lie within the spread of the untraced operations' block
/// medians.
void report_trace(Report& report, const LoopResult& loop,
                  const std::vector<SpanLog>& logs, const Options& options);

}  // namespace perfbench
