#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "core/profiles.h"
#include "dsp/dispatch.h"
#include "mpsoc/mapping.h"
#include "mpsoc/schedule.h"
#include "runtime/fault.h"
#include "runtime/io.h"
#include "runtime/pipelines.h"
#include "runtime/shard.h"
#include "runtime/trace.h"

namespace perfbench {
namespace {

using mmsoc::Telemetry;
using mmsoc::mpsoc::Payload;
using mmsoc::mpsoc::TaskGraph;
namespace rt = mmsoc::runtime;
namespace mp = mmsoc::mpsoc;

constexpr std::size_t kNoSession = static_cast<std::size_t>(-1);

std::string hex_digest(std::initializer_list<std::uint64_t> words) {
  std::string out;
  char buf[24];
  for (const std::uint64_t w : words) {
    std::snprintf(buf, sizeof buf, "%s%llx", out.empty() ? "" : "/",
                  static_cast<unsigned long long>(w));
    out += buf;
  }
  return out;
}

/// The analytic side of the model-vs-measured comparison: the platform a
/// graph is modeled on, the mapping its sessions run under, and the
/// predicted schedule of that mapping.
struct Model {
  mp::Platform platform;
  mp::Mapping mapping;
  mp::Schedule schedule;
};

Model heft_model(const TaskGraph& graph) {
  Model m;
  m.platform = mmsoc::core::device_platform(mmsoc::core::DeviceClass::kVideoCamera);
  auto mapped = mp::map_graph(graph, m.platform, mp::MapperKind::kHeft);
  m.mapping = std::move(mapped.mapping);
  m.schedule = std::move(mapped.schedule);
  return m;
}

/// Round-robin over the platform's two programmable PEs (host RISC and
/// DSP) — the placement the two-worker boundary workloads run under.
Model round_robin_model(const TaskGraph& graph) {
  Model m;
  m.platform = mmsoc::core::device_platform(mmsoc::core::DeviceClass::kVideoCamera);
  m.mapping = rt::round_robin_mapping(graph, 2);
  m.schedule = mp::list_schedule(graph, m.platform, m.mapping);
  return m;
}

void fold_model(Accum& layers, const rt::SessionReport& report,
                const TaskGraph& graph, const Model& model) {
  const auto cmp = rt::compare_with_schedule(report, graph, model.platform,
                                             model.mapping, model.schedule);
  if (cmp.ii_error_ratio > 0.0) {
    layers.model_ii_rel_error.push_back(std::abs(cmp.ii_error_ratio - 1.0));
  }
  layers.model_rank_corr.push_back(cmp.stage_rank_correlation);
}

void fold_calls(CallLog& into, const std::vector<double>& call_us) {
  for (const double us : call_us) {
    into.call_us.push_back(us);
    into.busy_ms += us * 1e-3;
  }
}

/// Per-session device-call logs, written only by the I/O thread that
/// serves the session's boundary and read after the round drained.
struct BoundaryLog {
  std::vector<double> read_us, write_us;
};

rt::EngineOptions engine_options(std::size_t workers, Telemetry* telemetry) {
  rt::EngineOptions eo;
  eo.workers = workers;
  eo.telemetry = telemetry;
  return eo;
}

std::unique_ptr<rt::IoContext> new_io(Telemetry* telemetry, std::string prefix) {
  rt::IoContextOptions o;
  o.threads = 1;
  o.telemetry = telemetry;
  o.telemetry_prefix = std::move(prefix);
  return std::make_unique<rt::IoContext>(o);
}

// ---------------------------------------------------------------------------
// fig1_encode_cif: 4 concurrent Fig. 1 encoders at CIF, closed batch.
// ---------------------------------------------------------------------------
class Fig1 final : public Workload {
 public:
  Fig1(std::uint64_t seed, bool smoke)
      : seed_(seed), frames_(smoke ? 2 : 20) {
    info_ = {"fig1_encode_cif", 500.0, smoke ? 1u : 6u};
    config_.width = smoke ? 64 : 352;
    config_.height = smoke ? 64 : 288;
    model_ = heft_model(rt::make_video_encoder_pipeline(config_).graph);
  }
  const WorkloadInfo& info() const override { return info_; }

  void build(bool reference, bool traced, Telemetry* telemetry) override {
    reference_ = reference;
    traced_ = traced;
    telemetry_ = telemetry;
    pipes_.reserve(kSessions);  // engines hold graph references
    for (std::size_t s = 0; s < kSessions; ++s) {
      rt::VideoPipelineConfig cfg = config_;
      cfg.seed = mix(seed_, s);
      pipes_.push_back(rt::make_video_encoder_pipeline(cfg));
      probes_.push_back(std::make_unique<SessionProbe>(pipes_.back().graph,
                                                       frames_, 0, traced));
      probes_.back()->instrument(pipes_.back().graph, true, true);
    }
  }

  RoundResult run(Accum& layers) override {
    const std::size_t workers = reference_ ? 1 : kWorkers;
    engine_ = std::make_unique<rt::Engine>(engine_options(workers, telemetry_));
    std::vector<std::size_t> ids;
    for (auto& pipe : pipes_) {
      const Ns t0 = now_ns();
      auto id = engine_->submit(pipe.graph, model_.mapping, frames_);
      if (traced_) layers.submit_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ids.push_back(id.is_ok() ? id.value() : kNoSession);
    }
    RoundResult r;
    const Ns t0 = now_ns();
    const bool ran = engine_->run().is_ok();
    r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (traced_) layers.worker_s += static_cast<double>(workers) * r.wall_s;
    for (std::size_t s = 0; s < pipes_.size(); ++s) {
      SessionResult sr;
      sr.units = frames_;
      sr.probe = probes_[s].get();
      const auto& sink = *pipes_[s].sink;
      sr.digest = hex_digest({sink.bitstream_crc, sink.recon_crc,
                              sink.frames_coded, sink.frames_reconstructed,
                              sink.bitstream_bytes});
      if (ran && ids[s] != kNoSession) {
        const auto& rep = engine_->report(ids[s]);
        sr.ok = rep.outcome == rt::SessionOutcome::kCompleted;
        if (traced_) {
          layers.add_report(rep, pipes_[s].graph.edges().size());
          fold_model(layers, rep, pipes_[s].graph, model_);
          probes_[s]->fold_spans(layers.stages, layers.gate_wait_ms, false);
        }
      }
      r.sessions.push_back(sr);
    }
    return r;
  }

  void dump_spans(std::FILE* out) const override {
    for (std::size_t s = 0; s < probes_.size(); ++s) probes_[s]->dump_spans(out, s);
  }

  void teardown() override {
    engine_.reset();
    pipes_.clear();
    probes_.clear();
  }

 private:
  static constexpr std::size_t kSessions = 4;
  static constexpr std::size_t kWorkers = 4;
  WorkloadInfo info_;
  std::uint64_t seed_;
  std::uint64_t frames_;
  rt::VideoPipelineConfig config_;
  Model model_;
  bool reference_ = false, traced_ = false;
  Telemetry* telemetry_ = nullptr;
  std::vector<rt::VideoPipeline> pipes_;
  std::vector<std::unique_ptr<SessionProbe>> probes_;
  std::unique_ptr<rt::Engine> engine_;
};

// ---------------------------------------------------------------------------
// engine_hot_chain: 4 synthetic 8-stage chains with near-free bodies.
// ---------------------------------------------------------------------------
class HotChain final : public Workload {
 public:
  HotChain(std::uint64_t seed, bool smoke)
      : seed_(seed), base_iterations_(smoke ? 256 : 25000) {
    info_ = {"engine_hot_chain", 20.0, smoke ? 1u : 20u};
  }
  const WorkloadInfo& info() const override { return info_; }

  void build(bool reference, bool traced, Telemetry* telemetry) override {
    reference_ = reference;
    traced_ = traced;
    telemetry_ = telemetry;
    chains_.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      chains_.push_back(rt::make_synthetic_chain(kStages, kStageOps));
      probes_.push_back(std::make_unique<SessionProbe>(
          chains_.back().graph, iterations(s), kSampleShift, traced));
      probes_.back()->instrument(chains_.back().graph, true, true);
    }
  }

  RoundResult run(Accum& layers) override {
    const std::size_t workers = reference_ ? 1 : kWorkers;
    rt::EngineOptions eo = engine_options(workers, telemetry_);
    eo.channel_capacity = kCapacity;
    engine_ = std::make_unique<rt::Engine>(eo);
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < chains_.size(); ++s) {
      const Ns t0 = now_ns();
      auto id = engine_->submit(chains_[s].graph,
                                rt::round_robin_mapping(chains_[s].graph, kWorkers),
                                iterations(s));
      if (traced_) layers.submit_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ids.push_back(id.is_ok() ? id.value() : kNoSession);
    }
    RoundResult r;
    const Ns t0 = now_ns();
    const bool ran = engine_->run().is_ok();
    r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (traced_) layers.worker_s += static_cast<double>(workers) * r.wall_s;
    for (std::size_t s = 0; s < chains_.size(); ++s) {
      SessionResult sr;
      sr.units = iterations(s);
      sr.probe = probes_[s].get();
      sr.digest = hex_digest({chains_[s].sink->digest.load(),
                              chains_[s].sink->tokens.load()});
      if (ran && ids[s] != kNoSession) {
        const auto& rep = engine_->report(ids[s]);
        sr.ok = rep.outcome == rt::SessionOutcome::kCompleted;
        if (traced_) {
          layers.add_report(rep, chains_[s].graph.edges().size());
          probes_[s]->fold_spans(layers.stages, layers.gate_wait_ms, false);
        }
      }
      r.sessions.push_back(sr);
    }
    return r;
  }

  void dump_spans(std::FILE* out) const override {
    for (std::size_t s = 0; s < probes_.size(); ++s) probes_[s]->dump_spans(out, s);
  }

  void teardown() override {
    engine_.reset();
    chains_.clear();
    probes_.clear();
  }

 private:
  static constexpr std::size_t kSessions = 4;
  static constexpr std::size_t kWorkers = 4;
  static constexpr std::size_t kStages = 8;
  static constexpr double kStageOps = 25.0;
  static constexpr std::size_t kCapacity = 16;
  /// Latency is stamped on every 64th unit: two clock reads per unit would
  /// cost as much as the chain's bodies.
  static constexpr unsigned kSampleShift = 6;

  /// The chain's only input is its iteration count; the seed varies it
  /// per session by under 4% so the digests depend on the seed.
  [[nodiscard]] std::uint64_t iterations(std::size_t s) const {
    return base_iterations_ + mix(seed_, s) % (base_iterations_ / 32 + 1);
  }

  WorkloadInfo info_;
  std::uint64_t seed_;
  std::uint64_t base_iterations_;
  bool reference_ = false, traced_ = false;
  Telemetry* telemetry_ = nullptr;
  std::vector<rt::SyntheticPipeline> chains_;
  std::vector<std::unique_ptr<SessionProbe>> probes_;
  std::unique_ptr<rt::Engine> engine_;
};

// ---------------------------------------------------------------------------
// rtp_relay_open_loop: RTP in -> decode -> display -> RTP out relays fed
// by a paced generator (open loop).
// ---------------------------------------------------------------------------
class RtpRelay final : public Workload {
 public:
  RtpRelay(std::uint64_t seed, bool smoke)
      : seed_(seed), frames_(smoke ? 8 : 64), interval_ns_(16'666'667) {
    info_ = {"rtp_relay_open_loop", 16.7, 1};
    config_.width = 64;
    config_.height = 64;
    config_.frames = frames_;
    config_.loss_probability = 0.05;
    config_.reorder_span = 2;
    config_.frame_interval_us = static_cast<double>(interval_ns_) * 1e-3;
    rt::IoContext io;
    auto one = config_;
    one.frames = 1;
    model_ = round_robin_model(rt::make_streaming_session(io, one).graph);
  }
  const WorkloadInfo& info() const override { return info_; }

  void build(bool reference, bool traced, Telemetry* telemetry) override {
    reference_ = reference;
    traced_ = traced;
    telemetry_ = telemetry;
    io_ = new_io(telemetry, "io");
    ingress_io_ = new_io(telemetry, "ingress");
    logs_.assign(kSessions, BoundaryLog{});
    sessions_.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      rt::StreamingSessionConfig cfg = config_;
      cfg.seed = mix(seed_, s);
      sessions_.push_back(rt::make_streaming_session(*io_, cfg));
      auto& ss = sessions_.back();
      probes_.push_back(std::make_unique<SessionProbe>(ss.graph, frames_, 0, traced));
      SessionProbe* probe = probes_.back().get();
      BoundaryLog* log = &logs_[s];
      log->read_us.reserve(frames_);
      log->write_us.reserve(frames_);
      auto timed_read = [probe, log, ingress = ss.ingress](
                            std::uint64_t k) -> std::optional<Payload> {
        const Ns r0 = now_ns();
        auto unit = ingress->read(k);
        const Ns r1 = now_ns();
        log->read_us.push_back(static_cast<double>(r1 - r0) * 1e-3);
        if (probe->sampled(k)) probe->set_read(k, r0, r1);
        return unit;
      };
      auto timed_write = [probe, log, egress = ss.egress](std::uint64_t i,
                                                          const Payload& p) {
        const Ns w0 = now_ns();
        egress->write(i, p);
        const Ns w1 = now_ns();
        log->write_us.push_back(static_cast<double>(w1 - w0) * 1e-3);
        if (probe->sampled(i)) probe->set_end(i, w1);
      };
      auto source = std::make_unique<rt::AsyncSource>(*ingress_io_, std::move(timed_read),
                                                      cfg.io_depth, ss.pool);
      source->bind(ss.graph, ss.ingress_task);
      ss.source = std::move(source);
      auto sink = std::make_unique<rt::AsyncSink>(*io_, std::move(timed_write),
                                                  cfg.io_depth, ss.pool);
      sink->bind(ss.graph, ss.egress_task);
      ss.sink = std::move(sink);
      // Arrival gate: the network delivers unit k at its due time. The
      // ingress adapter may have read it ahead (its prefetch ring), but
      // the ingress task sees it only once the clock released frame k;
      // the clock thread then calls the task's waker.
      std::atomic<std::uint64_t>* next = &next_unit_[s];
      next->store(0, std::memory_order_relaxed);
      ss.graph.set_gate(ss.ingress_task, [this, next, inner = ss.graph.task(ss.ingress_task).gate] {
        return released_.load(std::memory_order_acquire) >
                   next->load(std::memory_order_acquire) &&
               inner();
      });
      ss.graph.set_body(ss.ingress_task, [next, inner = ss.graph.task(ss.ingress_task).body](
                                             mmsoc::mpsoc::TaskFiring& f) {
        inner(f);
        next->store(f.iteration + 1, std::memory_order_release);
      });
      probe->instrument(ss.graph, false, false);
    }
  }

  RoundResult run(Accum& layers) override {
    const std::size_t workers = reference_ ? 1 : kWorkers;
    engine_ = std::make_unique<rt::Engine>(engine_options(workers, telemetry_));
    RoundResult r;
    if (!engine_->start().is_ok()) throw std::runtime_error("relay engine start failed");
    // The reference run takes every frame as soon as it is read.
    released_.store(reference_ ? frames_ : 0, std::memory_order_release);
    std::vector<std::size_t> ids;
    std::vector<std::function<void()>> wakers;
    for (auto& ss : sessions_) {
      const Ns t0 = now_ns();
      auto id = ss.submit_to(*engine_, model_.mapping);
      if (traced_) layers.submit_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ids.push_back(id.is_ok() ? id.value() : kNoSession);
      if (id.is_ok()) {
        auto waker = engine_->task_waker(id.value(), ss.ingress_task);
        if (waker.is_ok()) wakers.push_back(std::move(waker.value()));
      }
    }
    // The frame clock: one thread releases frame k of every relay at
    // t0 + k*interval. Latency counts from that due time; how late the
    // clock itself woke is gen.late.
    const Ns t0 = now_ns() + kLeadNs;
    std::vector<double> late_ms;
    std::thread clock;
    if (!reference_) {
      clock = std::thread([&] {
        for (std::uint64_t k = 0; k < frames_; ++k) {
          const Ns due = t0 + k * interval_ns_;
          sleep_until_ns(due);
          late_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
          for (auto& probe : probes_) {
            if (probe->sampled(k)) probe->set_begin(k, due);
          }
          released_.store(k + 1, std::memory_order_release);
          for (auto& wake : wakers) wake();
        }
      });
    }
    const bool ran = engine_->wait().is_ok();
    if (clock.joinable()) clock.join();
    for (auto& ss : sessions_) ss.finish();
    r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (traced_) layers.gen_late_ms.insert(layers.gen_late_ms.end(), late_ms.begin(), late_ms.end());
    if (traced_) layers.worker_s += static_cast<double>(workers) * r.wall_s;
    for (std::size_t s = 0; s < sessions_.size(); ++s) {
      auto& ss = sessions_[s];
      SessionResult sr;
      sr.units = frames_;
      sr.probe = probes_[s].get();
      sr.digest = hex_digest({ss.state->luma_crc, ss.state->frames_decoded,
                              ss.state->decode_conceals, ss.state->luma_bytes});
      if (ran && ids[s] != kNoSession) {
        const auto& rep = engine_->report(ids[s]);
        sr.ok = rep.outcome == rt::SessionOutcome::kCompleted;
        if (traced_) {
          layers.add_report(rep, ss.graph.edges().size());
          fold_model(layers, rep, ss.graph, model_);
          probes_[s]->fold_spans(layers.stages, layers.gate_wait_ms, true);
          fold_calls(layers.reads, logs_[s].read_us);
          fold_calls(layers.writes, logs_[s].write_us);
          layers.max_buffered = std::max(
              layers.max_buffered, static_cast<double>(ss.source->stats().max_buffered));
          layers.net_packets += static_cast<double>(ss.ingress->packets_received());
          layers.net_concealed += static_cast<double>(ss.ingress->concealed());
          layers.net_units += static_cast<double>(frames_);
          layers.net_bytes += static_cast<double>(ss.egress->bytes_sent());
          layers.net_jitter_us.push_back(ss.ingress->jitter_us());
        }
      }
      r.sessions.push_back(sr);
    }
    return r;
  }

  void dump_spans(std::FILE* out) const override {
    for (std::size_t s = 0; s < probes_.size(); ++s) probes_[s]->dump_spans(out, s);
  }

  void teardown() override {
    sessions_.clear();  // adapters quiesce before their contexts stop
    engine_.reset();
    probes_.clear();
    io_.reset();
    ingress_io_.reset();
  }

 private:
  static constexpr std::size_t kSessions = 16;
  static constexpr std::size_t kWorkers = 2;
  static constexpr Ns kLeadNs = 5'000'000;
  WorkloadInfo info_;
  std::uint64_t seed_;
  std::uint64_t frames_;
  Ns interval_ns_;
  rt::StreamingSessionConfig config_;
  Model model_;
  bool reference_ = false, traced_ = false;
  Telemetry* telemetry_ = nullptr;
  /// Frames released by the clock so far (all of them in the reference).
  std::atomic<std::uint64_t> released_{0};
  /// Per relay: the next unit its ingress task will pop.
  std::array<std::atomic<std::uint64_t>, kSessions> next_unit_{};
  std::unique_ptr<rt::IoContext> io_, ingress_io_;
  std::vector<BoundaryLog> logs_;
  std::vector<rt::StreamingSession> sessions_;
  std::vector<std::unique_ptr<SessionProbe>> probes_;
  std::unique_ptr<rt::Engine> engine_;
};

// ---------------------------------------------------------------------------
// dvr_transcode_chaos: file transcodes on a sharded front-end, 8 closed-
// loop clients, modeled disk in real time, seeded transient faults.
// ---------------------------------------------------------------------------
class DvrChaos final : public Workload {
 public:
  DvrChaos(std::uint64_t seed, bool smoke)
      : seed_(seed), frames_(smoke ? 4 : 24), per_client_(smoke ? 1 : 2) {
    info_ = {"dvr_transcode_chaos", 100.0, smoke ? 1u : 4u};
    config_.width = 64;
    config_.height = 64;
    config_.frames = frames_;
    config_.fallible_boundaries = true;
    read_plan_.read_error_rate = 0.15;
    read_plan_.burst_length = 2;
    read_plan_.latency_spike_rate = 0.05;
    read_plan_.latency_spike_us = 300.0;
    write_plan_.write_error_rate = 0.10;
    // 8 attempts: a unit exhausts its budget with probability 0.15^8.
    retry_.max_attempts = 8;
    rt::IoContext io;
    auto one = config_;
    one.frames = 1;
    auto probe_session = rt::make_file_transcode_session(io, one);
    if (!probe_session.is_ok()) throw std::runtime_error("transcode session build failed");
    model_ = round_robin_model(probe_session.value().graph);
  }
  const WorkloadInfo& info() const override { return info_; }

  void build(bool reference, bool traced, Telemetry* telemetry) override {
    reference_ = reference;
    traced_ = traced;
    telemetry_ = telemetry;
    io_ = new_io(telemetry, "io");
    // Every round draws a fresh fault schedule (and backoff jitter) from
    // the seed, so a run averages over many schedules; recovered faults
    // never change the output, so every round still matches the clean
    // reference.
    round_retry_ = retry_;
    if (!reference) {
      round_retry_.seed = mix(seed_, 0xFA17 + rounds_built_++);
      injector_ = std::make_unique<rt::FaultInjector>(round_retry_.seed, telemetry);
    }
    const std::size_t total = kClients * per_client_;
    logs_.assign(total, BoundaryLog{});
    sessions_.reserve(total);
    for (std::size_t idx = 0; idx < total; ++idx) {
      rt::TranscodeSessionConfig cfg = config_;
      cfg.seed = mix(seed_, idx);
      cfg.time_scale = reference ? 0.0 : 1.0;
      cfg.retry = round_retry_;
      auto made = rt::make_file_transcode_session(*io_, cfg);
      if (!made.is_ok()) throw std::runtime_error("transcode session build failed");
      sessions_.push_back(std::move(made.value()));
      auto& ss = sessions_.back();
      probes_.push_back(std::make_unique<SessionProbe>(ss.graph, frames_, 0, traced));
      SessionProbe* probe = probes_.back().get();
      BoundaryLog* log = &logs_[idx];
      log->read_us.reserve(frames_ * 2);
      log->write_us.reserve(frames_ * 2);
      // Same wiring as the builder's own fault path (read endpoint first:
      // registration order keys the fault schedule), with each device call
      // timed as the adapter sees it.
      rt::TryReadFn read = ss.reader_endpoint->try_reader();
      rt::TryWriteFn write = ss.writer_endpoint->try_writer();
      if (injector_) {
        read = injector_->wrap_read(injector_->add_endpoint("file.read", read_plan_),
                                    std::move(read));
        write = injector_->wrap_write(
            injector_->add_endpoint("file.write", write_plan_), std::move(write));
      }
      auto timed_read = [probe, log, read = std::move(read)](std::uint64_t k) {
        const Ns r0 = now_ns();
        auto unit = read(k);
        const Ns r1 = now_ns();
        log->read_us.push_back(static_cast<double>(r1 - r0) * 1e-3);
        if (unit.is_ok() && probe->sampled(k)) probe->set_read(k, r0, r1);
        return unit;
      };
      auto timed_write = [this, idx, probe, log, write = std::move(write)](
                             std::uint64_t i, const Payload& p) {
        const Ns w0 = now_ns();
        auto st = write(i, p);
        const Ns w1 = now_ns();
        log->write_us.push_back(static_cast<double>(w1 - w0) * 1e-3);
        if (st.is_ok()) {
          if (probe->sampled(i)) probe->set_end(i, w1);
          if (i + 1 == frames_) session_done(idx);
        }
        return st;
      };
      auto source = std::make_unique<rt::AsyncSource>(*io_, std::move(timed_read),
                                                      round_retry_, cfg.io_depth, ss.pool);
      source->bind(ss.graph, ss.read_task);
      ss.source = std::move(source);
      auto sink = std::make_unique<rt::AsyncSink>(*io_, std::move(timed_write),
                                                  round_retry_, cfg.io_depth, ss.pool);
      sink->bind(ss.graph, ss.write_task);
      ss.sink = std::move(sink);
      probe->instrument(ss.graph, true, false);
    }
  }

  RoundResult run(Accum& layers) override {
    rt::ShardedEngineOptions so;
    so.shards = reference_ ? 1 : kShards;
    so.max_sessions_per_shard = kMaxPerShard;
    so.engine = engine_options(1, telemetry_);
    so.engine.telemetry_prefix = "shard";
    sharded_ = std::make_unique<rt::ShardedEngine>(so);
    const std::size_t total = sessions_.size();
    tickets_.assign(total, std::nullopt);
    {
      std::lock_guard lock(mu_);
      done_.clear();
    }
    RoundResult r;
    if (!sharded_->start().is_ok()) throw std::runtime_error("sharded engine start failed");
    const Ns t0 = now_ns();
    std::vector<bool> finished(total, false);
    std::size_t finished_count = 0;
    const auto submit = [&](std::size_t idx) {
      const Ns s0 = now_ns();
      auto ticket = sessions_[idx].submit_to(*sharded_, model_.mapping);
      if (traced_) layers.shard_submit_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
      if (ticket.is_ok()) {
        tickets_[idx] = ticket.value();
      } else {
        session_done(idx);  // refused: the client moves on
      }
    };
    // Closed loop: client c runs sessions c*per_client_ .. in sequence,
    // submitting the next one when the previous one's last unit is on disk.
    for (std::size_t c = 0; c < kClients; ++c) submit(c * per_client_);
    while (finished_count < total) {
      std::vector<std::size_t> done;
      {
        std::unique_lock lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(20), [&] { return !done_.empty(); });
        done.assign(done_.begin(), done_.end());
        done_.clear();
      }
      if (done.empty()) {
        // A session that failed never writes its last unit: detect it from
        // the adapters' terminal failure instead.
        for (std::size_t idx = 0; idx < total; ++idx) {
          const auto& ss = sessions_[idx];
          if (!finished[idx] && tickets_[idx] &&
              (!ss.source->failure().is_ok() || !ss.sink->failure().is_ok())) {
            done.push_back(idx);
          }
        }
      }
      for (const std::size_t idx : done) {
        if (finished[idx]) continue;
        finished[idx] = true;
        ++finished_count;
        if ((idx + 1) % per_client_ != 0) submit(idx + 1);
      }
    }
    const bool ran = sharded_->wait().is_ok();
    for (auto& ss : sessions_) ss.finish();
    r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (traced_) {
      layers.worker_s += static_cast<double>(so.shards) * r.wall_s;
      const auto adm = sharded_->stats();
      layers.shard_accepted += static_cast<double>(adm.accepted);
      layers.shard_rejected += static_cast<double>(adm.rejected);
      if (injector_) {
        layers.fault_injected += static_cast<double>(injector_->total_stats().injected());
      }
    }
    for (std::size_t idx = 0; idx < total; ++idx) {
      auto& ss = sessions_[idx];
      SessionResult sr;
      sr.units = frames_;
      sr.probe = probes_[idx].get();
      sr.digest = hex_digest({ss.state->out_crc, ss.state->frames_encoded,
                              ss.state->bytes_out, ss.state->decode_conceals});
      if (ran && tickets_[idx]) {
        const auto& rep = sharded_->report(*tickets_[idx]);
        sr.ok = rep.outcome == rt::SessionOutcome::kCompleted;
        if (traced_) {
          layers.add_report(rep, ss.graph.edges().size());
          fold_model(layers, rep, ss.graph, model_);
          probes_[idx]->fold_spans(layers.stages, layers.gate_wait_ms, false);
          fold_calls(layers.reads, logs_[idx].read_us);
          fold_calls(layers.writes, logs_[idx].write_us);
          const auto in = ss.source->stats();
          const auto out = ss.sink->stats();
          layers.max_buffered = std::max(layers.max_buffered,
                                         static_cast<double>(in.max_buffered));
          layers.fault_retries += static_cast<double>(in.retries + out.retries);
          layers.fault_recovered += static_cast<double>(in.recovered + out.recovered);
          layers.fault_errors += static_cast<double>(in.errors + out.errors);
          layers.fs_reads += static_cast<double>(ss.device->reads());
          layers.fs_writes += static_cast<double>(ss.device->writes());
          layers.fs_seeks += static_cast<double>(ss.device->seek_distance());
          layers.fs_modeled_ms += ss.device->modeled_time_us(config_.timing) * 1e-3;
        }
      }
      r.sessions.push_back(sr);
    }
    return r;
  }

  void dump_spans(std::FILE* out) const override {
    for (std::size_t s = 0; s < probes_.size(); ++s) probes_[s]->dump_spans(out, s);
  }

  void teardown() override {
    sessions_.clear();
    sharded_.reset();
    probes_.clear();
    injector_.reset();
    io_.reset();
  }

 private:
  static constexpr std::size_t kClients = 8;
  static constexpr std::size_t kShards = 2;
  /// Twice the client count, so even the one-shard reference never
  /// refuses: a client submits its next session when the last unit is on
  /// disk, and the engine may not yet have returned the finished
  /// session's slot (it does so after the sink firing's batch, which can
  /// trail the write).
  static constexpr std::size_t kMaxPerShard = 2 * kClients;

  void session_done(std::size_t idx) {
    {
      std::lock_guard lock(mu_);
      done_.push_back(idx);
    }
    cv_.notify_one();
  }

  WorkloadInfo info_;
  std::uint64_t seed_;
  std::uint64_t frames_;
  std::size_t per_client_;
  std::uint64_t rounds_built_ = 0;
  rt::RetryPolicy round_retry_;
  rt::TranscodeSessionConfig config_;
  rt::FaultPlan read_plan_, write_plan_;
  rt::RetryPolicy retry_;
  Model model_;
  bool reference_ = false, traced_ = false;
  Telemetry* telemetry_ = nullptr;
  std::unique_ptr<rt::IoContext> io_;
  std::unique_ptr<rt::FaultInjector> injector_;
  std::vector<BoundaryLog> logs_;
  std::vector<rt::FileTranscodeSession> sessions_;
  std::vector<std::unique_ptr<SessionProbe>> probes_;
  std::vector<std::optional<rt::SessionTicket>> tickets_;
  std::unique_ptr<rt::ShardedEngine> sharded_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> done_;  ///< sessions whose last unit was written
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"fig1_encode_cif", "engine_hot_chain", "rtp_relay_open_loop",
          "dvr_transcode_chaos"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "fig1_encode_cif") return std::make_unique<Fig1>(seed, smoke);
  if (name == "engine_hot_chain") return std::make_unique<HotChain>(seed, smoke);
  if (name == "rtp_relay_open_loop") return std::make_unique<RtpRelay>(seed, smoke);
  if (name == "dvr_transcode_chaos") return std::make_unique<DvrChaos>(seed, smoke);
  return nullptr;
}

KernelTimes time_kernels(std::uint64_t seed, bool smoke) {
  const auto& k = mmsoc::dsp::kernels();
  mmsoc::common::Rng rng(seed);
  alignas(64) std::uint8_t a[48 * 48], b[48 * 48];
  alignas(64) float block[64], out[64], steps[64];
  alignas(64) std::int16_t levels[64];
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.next());
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next());
  for (int i = 0; i < 64; ++i) {
    block[i] = static_cast<float>(static_cast<int>(rng.next() % 511) - 255);
    steps[i] = 4.0f + static_cast<float>(i % 8);
  }
  const int calls = smoke ? 256 : 20000;
  const auto time_ns = [&](auto&& body) {
    std::vector<double> reps;
    for (int rep = 0; rep < 7; ++rep) {
      const Ns t0 = now_ns();
      for (int i = 0; i < calls; ++i) body(i);
      reps.push_back(static_cast<double>(now_ns() - t0) / calls);
    }
    return median(reps);
  };
  volatile std::uint32_t sink = 0;
  KernelTimes t;
  t.sad16_ns = time_ns([&](int i) {
    const int off = i % 32;
    sink = sink + k.sad16(a + off, 48, b + (31 - off), 48);
  });
  t.fdct8x8_ns = time_ns([&](int) { k.fdct8x8_f32(block, out); sink = sink + static_cast<std::uint32_t>(out[0]); });
  t.idct8x8_ns = time_ns([&](int) { k.idct8x8_f32(block, out); sink = sink + static_cast<std::uint32_t>(out[1]); });
  t.quantize64_ns = time_ns([&](int) {
    k.quantize64(block, steps, levels);
    sink = sink + static_cast<std::uint32_t>(levels[3]);
  });
  t.simd_level = static_cast<int>(mmsoc::dsp::active_simd_level());
  return t;
}

}  // namespace perfbench
