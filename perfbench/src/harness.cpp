#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

using mmsoc::mpsoc::TaskFiring;
using mmsoc::mpsoc::TaskGraph;
using mmsoc::mpsoc::TaskId;

Ns now_ns() {
  return static_cast<Ns>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count());
}

void sleep_until_ns(Ns deadline) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline)));
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SessionProbe::SessionProbe(const TaskGraph& graph, std::uint64_t units,
                           unsigned shift, bool traced)
    : shift_(shift), mask_((std::uint64_t{1} << shift) - 1), traced_(traced) {
  const std::size_t slots = static_cast<std::size_t>((units + mask_) >> shift_);
  const std::size_t n = graph.task_count();
  names_.resize(n);
  preds_.resize(n);
  for (TaskId t = 0; t < n; ++t) {
    names_[t] = graph.task(t).name;
    preds_[t] = graph.predecessors(t);
    if (graph.successors(t).empty()) sinks_.push_back(t);
  }
  begin_.assign(slots, 0);
  end_.assign(std::max<std::size_t>(1, sinks_.size()), std::vector<Ns>(slots, 0));
  if (traced_) {
    start_span_.assign(n, std::vector<Ns>(slots, 0));
    end_span_.assign(n, std::vector<Ns>(slots, 0));
    read_start_.assign(slots, 0);
    read_end_.assign(slots, 0);
  }
}

void SessionProbe::instrument(TaskGraph& graph, bool begin_at_sources,
                              bool end_at_sinks) {
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const bool source = preds_[t].empty() && begin_at_sources;
    const auto sink_it = std::find(sinks_.begin(), sinks_.end(), t);
    const bool sink = sink_it != sinks_.end() && end_at_sinks;
    if (!traced_ && !source && !sink) continue;
    const std::size_t row = static_cast<std::size_t>(sink_it - sinks_.begin());
    graph.set_body(t, [this, t, source, sink, row,
                       inner = graph.task(t).body](TaskFiring& f) {
      if ((f.iteration & mask_) != 0) {
        inner(f);
        return;
      }
      const Ns t0 = now_ns();
      inner(f);
      const Ns t1 = now_ns();
      const std::size_t i = static_cast<std::size_t>(f.iteration >> shift_);
      if (source) begin_[i] = t0;
      if (sink) end_[row][i] = t1;
      if (traced_) {
        start_span_[t][i] = t0;
        end_span_[t][i] = t1;
      }
    });
  }
}

double SessionProbe::latency_ms(std::size_t i) const {
  Ns last = 0;
  for (const auto& row : end_) {
    if (row[i] == 0) return -1.0;
    last = std::max(last, row[i]);
  }
  if (begin_[i] == 0) return -1.0;
  return last >= begin_[i] ? static_cast<double>(last - begin_[i]) * 1e-6 : 0.0;
}

void SessionProbe::fold_spans(std::map<std::string, StageAgg>& stages,
                              std::vector<double>& gate_wait_ms,
                              bool arrival_at_begin) const {
  if (!traced_) return;
  for (std::size_t t = 0; t < names_.size(); ++t) {
    StageAgg& agg = stages[names_[t]];
    for (std::size_t i = 0; i < begin_.size(); ++i) {
      const Ns s = start_span_[t][i];
      const Ns e = end_span_[t][i];
      if (s == 0 || e < s) continue;
      ++agg.firings;
      agg.service_ns += static_cast<double>(e - s);
      if (preds_[t].empty()) {
        const Ns arrival =
            arrival_at_begin ? std::max(read_end_[i], begin_[i]) : read_end_[i];
        if (read_end_[i] != 0 && s >= arrival) {
          gate_wait_ms.push_back(static_cast<double>(s - arrival) * 1e-6);
        }
        continue;
      }
      Ns ready = 0;
      for (const TaskId p : preds_[t]) ready = std::max(ready, end_span_[p][i]);
      if (ready == 0) continue;
      ++agg.waits;
      agg.queue_wait_ns += s > ready ? static_cast<double>(s - ready) : 0.0;
    }
  }
}

void SessionProbe::dump_spans(std::FILE* out, std::size_t session) const {
  if (!traced_ || out == nullptr) return;
  const auto line = [&](const char* name, std::size_t i, Ns start, Ns end) {
    if (start == 0) return;
    std::fprintf(out, "%zu,%s,%llu,%llu,%llu\n", session, name,
                 static_cast<unsigned long long>(i << shift_),
                 static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(end));
  };
  for (std::size_t i = 0; i < begin_.size(); ++i) {
    for (std::size_t t = 0; t < names_.size(); ++t) {
      line(names_[t].c_str(), i, start_span_[t][i], end_span_[t][i]);
    }
    line("device-read", i, read_start_[i], read_end_[i]);
    Ns last = 0;
    for (const auto& row : end_) last = std::max(last, row[i]);
    line("unit", i, begin_[i], last);
  }
}

void Accum::add_report(const mmsoc::runtime::SessionReport& report,
                       std::size_t edges) {
  for (const auto& task : report.tasks) {
    busy_s += task.busy_s;
    io_stall_s += task.io_stall_s;
  }
  recycled += static_cast<double>(report.payloads_recycled);
  recycle_base += static_cast<double>(report.iterations * edges);
  migrations += static_cast<double>(report.task_migrations);
}

void account_session(Accum& acc, const SessionProbe& probe,
                     std::uint64_t units, bool ok, double limit_ms) {
  acc.attempted += units;
  acc.sampled += probe.slots();
  if (!ok) {
    acc.failed += units;
    acc.missed += probe.slots();
    return;
  }
  for (std::size_t i = 0; i < probe.slots(); ++i) {
    const double ms = probe.latency_ms(i);
    if (ms < 0.0 || ms > limit_ms) ++acc.missed;
    if (ms >= 0.0) acc.latency_ms.push_back(ms);
  }
}

}  // namespace perfbench
