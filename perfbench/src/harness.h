// Benchmark harness shared by the four workloads: clocks, sample
// statistics, the per-session probe that times calls into the program
// from outside, and the accumulators a run reports from.
//
// Nothing here reaches into the program: a probe wraps task bodies with
// TaskGraph::set_body, wraps device read/write functions before they are
// handed to the boundary adapters, and the workloads time their own
// submit calls. Spans live in memory and are written out after the run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpsoc/taskgraph.h"
#include "runtime/engine.h"

namespace perfbench {

using Ns = std::uint64_t;

[[nodiscard]] Ns now_ns();
void sleep_until_ns(Ns deadline);
/// Process CPU time (user + system, every thread) from getrusage.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// 64-bit mixer used to derive every per-session input from the seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Per-stage span aggregate of a traced run (sums over sampled units).
struct StageAgg {
  std::uint64_t firings = 0;
  double service_ns = 0.0;
  std::uint64_t waits = 0;
  double queue_wait_ns = 0.0;
};

/// Outside-in instrumentation of one session. Unit u is sampled when
/// u % 2^shift == 0; sampled units get a begin stamp (source firing start,
/// or the due time in an open loop) and one end stamp per sink (the sink
/// body's return, or the device write's return at a boundary sink).
/// Traced probes additionally keep a span (start, end) for every task
/// firing of every sampled unit. Every slot is written by exactly one
/// thread (the task's current owner, or the boundary's I/O thread) and
/// read only after the engine drained.
class SessionProbe {
 public:
  SessionProbe(const mmsoc::mpsoc::TaskGraph& graph, std::uint64_t units,
               unsigned shift, bool traced);

  /// Wrap task bodies: every task when traced; otherwise the sources
  /// (when `begin_at_sources`) and the sinks (when `end_at_sinks`).
  void instrument(mmsoc::mpsoc::TaskGraph& graph, bool begin_at_sources,
                  bool end_at_sinks);

  [[nodiscard]] bool sampled(std::uint64_t unit) const {
    return (unit & mask_) == 0;
  }
  void set_begin(std::uint64_t unit, Ns t) { begin_[unit >> shift_] = t; }
  void set_end(std::uint64_t unit, Ns t) { end_[0][unit >> shift_] = t; }
  /// Device-read call of a sampled unit (traced probes only).
  void set_read(std::uint64_t unit, Ns start, Ns end) {
    if (!traced_) return;
    read_start_[unit >> shift_] = start;
    read_end_[unit >> shift_] = end;
  }

  /// Sampled units of this session.
  [[nodiscard]] std::size_t slots() const { return begin_.size(); }
  /// End-to-end latency of sampled unit slot `i` in ms (last sink end
  /// minus begin); negative when the unit never completed.
  [[nodiscard]] double latency_ms(std::size_t i) const;

  /// Fold the spans of a traced session into per-stage aggregates keyed
  /// by task name, plus the boundary gate wait of sampled units: source
  /// firing start minus the unit's arrival, which is the device-read
  /// completion or, in an open loop (`arrival_at_begin`), the later of
  /// that and the unit's due time.
  void fold_spans(std::map<std::string, StageAgg>& stages,
                  std::vector<double>& gate_wait_ms, bool arrival_at_begin) const;
  /// Append "session,task,unit,start_ns,end_ns" span lines: one per task
  /// firing, plus "device-read" (the read call) and "unit" (begin to last
  /// end) per sampled unit.
  void dump_spans(std::FILE* out, std::size_t session) const;

 private:
  unsigned shift_;
  std::uint64_t mask_;
  bool traced_;
  std::vector<std::string> names_;
  std::vector<std::vector<mmsoc::mpsoc::TaskId>> preds_;
  std::vector<mmsoc::mpsoc::TaskId> sinks_;
  std::vector<Ns> begin_;
  std::vector<std::vector<Ns>> end_;  ///< per sink (one slot row when boundary)
  std::vector<std::vector<Ns>> start_span_, end_span_;  ///< per task (traced)
  std::vector<Ns> read_start_, read_end_;  ///< device-read call (traced boundary)
};

/// Timed calls into a device function (read or write) of one direction.
struct CallLog {
  std::vector<double> call_us;  ///< every call's duration
  double busy_ms = 0.0;
};

/// Everything one run accumulates over its rounds.
struct Accum {
  // End-to-end (untraced rounds).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t missed = 0;     ///< sampled units over the latency limit or lost
  std::uint64_t sampled = 0;    ///< sampled units attempted
  double wall_s = 0.0;          ///< timed wall across rounds
  std::vector<double> round_units_per_s;   ///< completed units / round wall
  std::vector<double> round_cpu_ms_per_unit;  ///< process CPU / completed unit
  std::vector<double> latency_ms;
  std::vector<std::size_t> round_ends;  ///< latency_ms.size() after each round
  std::vector<double> setup_s;  ///< one per round built
  bool outputs_match = true;
  std::vector<std::string> mismatches;

  // Per-layer (traced rounds).
  double worker_s = 0.0, busy_s = 0.0, io_stall_s = 0.0;
  double recycled = 0.0, recycle_base = 0.0;
  double migrations = 0.0;
  std::vector<double> submit_us;        ///< Engine::submit / submit_to(Engine&)
  std::vector<double> shard_submit_us;  ///< submit_to(ShardedEngine&)
  std::map<std::string, StageAgg> stages;
  std::vector<double> gate_wait_ms;
  CallLog reads, writes;
  double max_buffered = 0.0;
  double fault_injected = 0.0, fault_retries = 0.0, fault_recovered = 0.0,
         fault_errors = 0.0;
  double shard_accepted = 0.0, shard_rejected = 0.0;
  double fs_reads = 0.0, fs_writes = 0.0, fs_seeks = 0.0, fs_modeled_ms = 0.0;
  double net_packets = 0.0, net_concealed = 0.0, net_units = 0.0,
         net_bytes = 0.0;
  std::vector<double> net_jitter_us;
  std::vector<double> gen_late_ms;
  std::vector<double> model_ii_rel_error, model_rank_corr;

  /// Fold one session report's engine accounting into the shares.
  void add_report(const mmsoc::runtime::SessionReport& report,
                  std::size_t edges);
};

/// Record one session's outcome: units attempted/failed, sampled latency
/// and deadline misses. `ok` is false for a failed, refused, quarantined
/// or mismatching session, whose units all count as failed and missed.
void account_session(Accum& acc, const SessionProbe& probe,
                     std::uint64_t units, bool ok, double limit_ms);

}  // namespace perfbench
