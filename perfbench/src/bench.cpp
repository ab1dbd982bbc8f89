#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::vector<double> block_quantiles(const std::vector<double>& samples,
                                    double q, std::size_t blocks) {
  blocks = std::max<std::size_t>(1, std::min(blocks, samples.size()));
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto from = static_cast<std::ptrdiff_t>(samples.size() * b / blocks);
    const auto to =
        static_cast<std::ptrdiff_t>(samples.size() * (b + 1) / blocks);
    per_block.push_back(quantile(
        std::vector<double>(samples.begin() + from, samples.begin() + to), q));
  }
  return per_block;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ref_kernel_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0xff51afd7ed558ccdull;
  }
  asm volatile("" : : "r"(acc));  // keep the loop
  return ms_between(start, now_ns());
}

// --- spans -------------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::uint64_t op)
    : log_(log) {
  if (log_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = log_->open_.empty() ? -1 : log_->open_.back();
  span.op = log_->open_.empty() ? op : log_->spans_[log_->open_.back()].op;
  index_ = log_->spans_.size();
  log_->open_.push_back(static_cast<std::int32_t>(index_));
  span.start_ns = now_ns();
  log_->spans_.push_back(span);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = now_ns();
  log_->open_.pop_back();
}

namespace {

/// Per-layer figures derived from the spans of all threads.
struct TraceSummary {
  /// Median over operations of (root duration - time covered by the
  /// root's direct children).
  double unattributed_ms = 0;
  /// Median over operations of the share of the root covered by children.
  double coverage = 0;
  /// Per span name, its summed duration in each operation that has it.
  std::map<std::string, std::vector<double>> per_op_ms;
};

TraceSummary summarise_and_write(const std::vector<SpanLog>& logs,
                                 const Options& options) {
  std::filesystem::create_directories(options.out_dir);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  const std::string spans_path = stem + ".spans.csv";
  std::FILE* csv = std::fopen(spans_path.c_str(), "w");
  if (csv == nullptr) throw std::runtime_error("cannot write " + spans_path);
  std::fprintf(csv, "op,thread,index,parent,name,start_ns,end_ns,self_ns\n");

  TraceSummary summary;
  std::vector<double> unattributed_ms, coverage;
  std::map<std::string, std::vector<double>> self_ms;  // per span

  for (std::size_t thread = 0; thread < logs.size(); ++thread) {
    const std::vector<Span>& spans = logs[thread].spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans)
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;

    std::map<std::string, double> this_op;
    auto close_op = [&] {
      for (const auto& [name, ms] : this_op)
        summary.per_op_ms[name].push_back(ms);
      this_op.clear();
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::int64_t self = span.end_ns - span.start_ns - child_ns[i];
      std::fprintf(csv, "%llu,%zu,%zu,%d,%s,%lld,%lld,%lld\n",
                   static_cast<unsigned long long>(span.op), thread, i,
                   span.parent, span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(self));
      self_ms[span.name].push_back(static_cast<double>(self) / 1e6);
      if (span.parent < 0) {
        close_op();
        const double total = ms_between(span.start_ns, span.end_ns);
        unattributed_ms.push_back(static_cast<double>(self) / 1e6);
        coverage.push_back(
            total > 0 ? 1.0 - static_cast<double>(self) / 1e6 / total : 0);
      } else {
        this_op[span.name] += ms_between(span.start_ns, span.end_ns);
      }
    }
    close_op();
  }
  std::fclose(csv);

  const std::string self_path = stem + ".selftime.json";
  if (std::FILE* out = std::fopen(self_path.c_str(), "w")) {
    std::fprintf(out, "[\n");
    std::size_t written = 0;
    for (const auto& [name, samples] : self_ms) {
      double total = 0;
      for (double v : samples) total += v;
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"spans\": %zu, "
                   "\"self_ms_p50\": %.6f, \"self_ms_total\": %.6f}%s\n",
                   name.c_str(), samples.size(), median(samples), total,
                   ++written < self_ms.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
  }

  summary.unattributed_ms = median(unattributed_ms);
  summary.coverage = median(coverage);
  return summary;
}

}  // namespace

// --- closed loop ---------------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void move_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

void release_all_threads(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    // A thread that ended since the listing (ESRCH) needs nothing.
    if (tid > 0 && sched_setaffinity(tid, sizeof set, &set) != 0 &&
        errno != ESRCH)
      throw std::runtime_error("cannot release thread " + std::to_string(tid));
  }
  if (error) throw std::runtime_error("cannot list /proc/self/task");
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

std::uint64_t LoopResult::ok_count() const {
  return static_cast<std::uint64_t>(std::count_if(
      ops.begin(), ops.end(), [](const OpRecord& op) { return op.ok; }));
}

std::vector<double> LoopResult::latencies(bool traced) const {
  std::vector<double> out;
  for (const OpRecord& op : ops)
    if (op.traced == traced) out.push_back(op.latency_ms);
  return out;
}

std::vector<double> LoopResult::all_latencies() const {
  std::vector<double> out;
  for (const OpRecord& op : ops) out.push_back(op.latency_ms);
  return out;
}

void LoopResult::append(const LoopResult& later) {
  ops.insert(ops.end(), later.ops.begin(), later.ops.end());
  exceptions += later.exceptions;
  window_s += later.window_s;
  cpu_s += later.cpu_s;
}

LoopResult run_closed_loop(std::size_t threads, std::uint64_t ops, bool trace,
                           std::vector<SpanLog>& logs, const OpFn& op) {
  logs = std::vector<SpanLog>(threads);
  std::vector<std::vector<OpRecord>> records(threads);
  std::atomic<std::uint64_t> exceptions{0};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  const std::vector<int> rotation =
      threads == 1 ? allowed_cpus() : std::vector<int>{};

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::uint64_t count = ops / threads + (t < ops % threads ? 1 : 0);
    clients.emplace_back([&, t, count] {
      records[t].reserve(count);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < count; ++i) {
        OpRecord record;
        record.traced = trace && i % 2 == 1;
        SpanLog* log = record.traced ? &logs[t] : nullptr;
        if (!rotation.empty())
          move_to_cpu(rotation[(i / 2) % rotation.size()]);
        record.start_ns = now_ns();
        try {
          SpanLog::Scope root(log, "op", (std::uint64_t{t} << 32) | i);
          record.ok = op(t, i, log);
        } catch (...) {
          exceptions.fetch_add(1);
        }
        record.latency_ms = ms_between(record.start_ns, now_ns());
        records[t].push_back(record);
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const double cpu_start = process_cpu_seconds();
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  const std::int64_t end = now_ns();

  LoopResult result;
  result.cpu_s = process_cpu_seconds() - cpu_start;
  result.window_s = static_cast<double>(end - start) / 1e9;
  result.exceptions = exceptions.load();
  for (auto& per_thread : records)
    result.ops.insert(result.ops.end(), per_thread.begin(), per_thread.end());
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return result;
}

void report_loop(Report& report, const LoopResult& loop) {
  report.attempted = loop.ops.size();
  report.failed = loop.ops.size() - loop.ok_count();
  report.exceptions = loop.exceptions;
}

void report_end_to_end(Report& report, const LoopResult& loop,
                       const std::vector<double>& setup_s,
                       std::size_t blocks) {
  const std::vector<double> latency = loop.latencies(false);
  const double ops = static_cast<double>(loop.ops.size());
  report.set("throughput_ops_s",
             static_cast<double>(loop.ok_count()) / loop.window_s, "1/s");
  report.set("latency_p50_ms",
             block_median_quantile(latency, 0.5, blocks), "ms");
  report.set("latency_p90_ms",
             block_median_quantile(latency, 0.9, blocks), "ms");
  report.set("cpu_ms_per_op", loop.cpu_s * 1000.0 / ops, "ms");
  report.set("ok_frac", static_cast<double>(loop.ok_count()) / ops, "ratio");
  report.set("setup_s", median(setup_s), "s");
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
}

void report_trace(Report& report, const LoopResult& loop,
                  const std::vector<SpanLog>& logs, const Options& options) {
  const TraceSummary trace = summarise_and_write(logs, options);
  for (const auto& [name, per_op] : trace.per_op_ms)
    report.set(name + "_ms", median(per_op), "ms");
  const std::vector<double> untraced = loop.latencies(false);
  const std::vector<double> traced = loop.latencies(true);
  const std::vector<double> band = block_quantiles(untraced, 0.5, 8);
  const auto [lo, hi] = std::minmax_element(band.begin(), band.end());
  const double traced_p50 = median(traced);
  const double untraced_p50 = median(untraced);
  report.set("trace.overhead_ratio",
             untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0, "ratio");
  report.set("trace.unattributed_ms", trace.unattributed_ms, "ms");
  report.set("trace.span_coverage_ratio", trace.coverage, "ratio");
  report.check("spans cover at least 90% of each operation's latency",
               trace.coverage >= 0.9);
  report.check("traced p50 within the untraced block-median band",
               !traced.empty() && traced_p50 >= *lo && traced_p50 <= *hi);
}

}  // namespace perfbench
