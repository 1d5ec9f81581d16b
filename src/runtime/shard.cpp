#include "runtime/shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mmsoc::runtime {

using common::Result;
using common::Status;
using common::StatusCode;

struct ShardedEngine::Impl {
  /// Overload-policy bookkeeping for one admitted session that the
  /// policy might act on (it carries a deadline, a degrade hook, or
  /// both). Guarded by live_mu — a mutex *separate* from `mu` so the
  /// engine completion callback may mark retirement without touching
  /// the admission lock (lock order: mu -> live_mu; the callback only
  /// ever takes live_mu).
  struct LiveSession {
    std::size_t shard = 0;
    std::size_t session = 0;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::function<void(std::size_t)> on_degrade;
    bool degraded = false;  ///< hook fired (at most once per session)
    bool shed = false;      ///< cancelled by the load shedder
    bool done = false;      ///< retired; record is garbage-collectable
  };

  ShardedEngineOptions options;
  mutable std::mutex mu;  // guards admission decisions and stats
  AdmissionStats admission;
  bool running = false;
  bool done = false;
  std::mutex live_mu;  // guards `live` (see LiveSession)
  std::vector<LiveSession> live;
  // Lock-free load accounting: decremented from worker threads via the
  // engine completion callback, so it must never take `mu` (submit holds
  // mu while calling into the engine). Declared before `engines` so the
  // counters outlive the engines' destructor-time callbacks.
  std::unique_ptr<std::atomic<std::size_t>[]> inflight;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::unique_ptr<Engine>> engines;

  // Front-end telemetry (null when disabled): admission instants land on
  // a dedicated "<prefix>.admission" track; counters mirror
  // AdmissionStats so the registry and stats() read the same story.
  EventRing* adm_ring = nullptr;
  Counter* m_submitted = nullptr;
  Counter* m_accepted = nullptr;
  Counter* m_rejected = nullptr;
  Counter* m_failed = nullptr;
  Counter* m_completed = nullptr;
  Counter* m_degraded = nullptr;
  Counter* m_shed = nullptr;
  Gauge* g_inflight = nullptr;

  void emit_admission(EventKind kind, std::size_t shard_index) {
    if (adm_ring == nullptr) return;
    TelemetryEvent ev;
    ev.word0 = TelemetryEvent::pack0(kind, 0, 0);
    ev.begin_ns = ev.end_ns = Telemetry::now_ns();
    ev.arg0 = shard_index;
    adm_ring->emit(ev);
  }

  /// Fire every live session's on_degrade that has not fired yet.
  /// Called under mu; the hooks themselves run outside live_mu so a
  /// hook can never deadlock against the completion callback.
  void degrade_live() {
    std::vector<std::pair<std::function<void(std::size_t)>, std::size_t>> fire;
    {
      std::lock_guard lk(live_mu);
      for (auto& r : live) {
        if (r.done || r.degraded || !r.on_degrade) continue;
        r.degraded = true;
        fire.emplace_back(r.on_degrade, r.session);
      }
    }
    for (auto& [hook, session] : fire) hook(session);
    admission.degraded += fire.size();
    if (m_degraded != nullptr && !fire.empty()) m_degraded->add(fire.size());
  }

  /// Cancel the live deadline-bearing session closest to missing its
  /// deadline. Called under mu. Returns the victim's shard, or
  /// SIZE_MAX when no sheddable session exists.
  std::size_t shed_one() {
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t victim_shard = kNone;
    std::size_t victim_session = 0;
    {
      std::lock_guard lk(live_mu);
      LiveSession* best_victim = nullptr;
      for (auto& r : live) {
        if (r.done || r.shed || !r.has_deadline) continue;
        if (best_victim == nullptr || r.deadline < best_victim->deadline) {
          best_victim = &r;
        }
      }
      if (best_victim != nullptr) {
        best_victim->shed = true;
        victim_shard = best_victim->shard;
        victim_session = best_victim->session;
      }
    }
    if (victim_shard == kNone) return kNone;
    engines[victim_shard]->cancel(victim_session);
    ++admission.shed;
    if (m_shed != nullptr) m_shed->add(1);
    return victim_shard;
  }
};

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  if (impl_->options.shards == 0) impl_->options.shards = 1;
  if (impl_->options.max_sessions_per_shard == 0) {
    impl_->options.max_sessions_per_shard = 1;
  }
  const std::size_t shards = impl_->options.shards;
  impl_->inflight = std::make_unique<std::atomic<std::size_t>[]>(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    impl_->inflight[i].store(0, std::memory_order_relaxed);
  }
  if (impl_->options.engine.telemetry != nullptr) {
    Telemetry& tel = *impl_->options.engine.telemetry;
    const std::string p = impl_->options.engine.telemetry_prefix;
    impl_->adm_ring = tel.register_track(p + ".admission");
    auto& m = tel.metrics();
    impl_->m_submitted = m.counter(p + ".admission.submitted");
    impl_->m_accepted = m.counter(p + ".admission.accepted");
    impl_->m_rejected = m.counter(p + ".admission.rejected");
    impl_->m_failed = m.counter(p + ".admission.failed");
    impl_->m_completed = m.counter(p + ".admission.completed");
    impl_->m_degraded = m.counter(p + ".admission.degrades");
    impl_->m_shed = m.counter(p + ".admission.sheds");
    impl_->g_inflight = m.gauge(p + ".admission.inflight");
  }
  impl_->engines.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    EngineOptions engine_options = impl_->options.engine;
    // Shared sink, per-shard namespace: shard i's worker tracks and
    // metric names carry the "<prefix><i>" prefix.
    if (engine_options.telemetry != nullptr) {
      engine_options.telemetry_prefix += std::to_string(i);
    }
    // Per-socket layout: shard i owns the CPU range starting at
    // i * workers, so shard pools never share a core. Width must be
    // explicit — a 0 (auto) pool size is unknowable here.
    if (impl_->options.pin_shard_cpu_ranges && engine_options.workers > 0) {
      engine_options.pin_workers = true;
      engine_options.pin_cpu_offset = i * engine_options.workers;
    }
    // Retire-on-complete load accounting: the slot frees the moment the
    // session stops consuming capacity, whether it completed or was
    // cancelled and fully retired.
    engine_options.on_session_complete = [impl = impl_.get(), i](std::size_t s) {
      {
        // Retire the overload-policy record so the shedder / degrader
        // skips it. live_mu only — never `mu` (see LiveSession).
        std::lock_guard lk(impl->live_mu);
        for (auto& r : impl->live) {
          if (r.shard == i && r.session == s) {
            r.done = true;
            break;
          }
        }
      }
      impl->inflight[i].fetch_sub(1, std::memory_order_acq_rel);
      impl->completed.fetch_add(1, std::memory_order_relaxed);
      if (impl->m_completed != nullptr) {
        impl->m_completed->add(1);
        impl->g_inflight->add(-1);
      }
    };
    impl_->engines.push_back(
        std::make_unique<Engine>(std::move(engine_options)));
  }
}

ShardedEngine::~ShardedEngine() = default;  // shard Engines cancel+join

Result<SessionTicket> ShardedEngine::submit(const mpsoc::TaskGraph& graph,
                                            mpsoc::Mapping mapping,
                                            std::uint64_t iterations,
                                            SessionOptions session_options) {
  std::lock_guard lock(impl_->mu);
  ++impl_->admission.submitted;
  if (impl_->m_submitted != nullptr) impl_->m_submitted->add(1);
  if (impl_->done) {
    ++impl_->admission.failed;
    if (impl_->m_failed != nullptr) impl_->m_failed->add(1);
    return Result<SessionTicket>(StatusCode::kInternal,
                                 "sharded engine already drained");
  }
  // Least-loaded placement over *live* in-flight counts (admissions
  // minus completions/retirements).
  const std::size_t shards = impl_->options.shards;
  const std::size_t per_shard = impl_->options.max_sessions_per_shard;
  const auto& policy = impl_->options.overload;
  std::size_t best = 0;
  std::size_t best_load = 0;
  const auto least_loaded = [&] {
    best = 0;
    best_load = impl_->inflight[0].load(std::memory_order_acquire);
    std::size_t total = best_load;
    for (std::size_t i = 1; i < shards; ++i) {
      const std::size_t load =
          impl_->inflight[i].load(std::memory_order_acquire);
      total += load;
      if (load < best_load) {
        best = i;
        best_load = load;
      }
    }
    return total;
  };
  const std::size_t total_inflight = least_loaded();
  // Graceful degradation, stage 1: once the aggregate load crosses the
  // watermark (or admission is about to reject), ask every live session
  // to shrink its footprint — each hook fires at most once.
  if (best_load >= per_shard ||
      static_cast<double>(total_inflight + 1) >=
          policy.degrade_watermark * static_cast<double>(shards * per_shard)) {
    impl_->degrade_live();
  }
  // Stage 2: deadline-aware shedding. The victim — the live session
  // closest to missing its deadline, i.e. least likely to finish useful
  // work — is cancelled and its slot (returned when the cancel fully
  // retires it) goes to the new arrival.
  if (best_load >= per_shard && policy.shed_earliest_deadline) {
    const std::size_t victim_shard = impl_->shed_one();
    if (victim_shard != ~std::size_t{0}) {
      const auto give_up =
          std::chrono::steady_clock::now() + policy.shed_grace;
      while (impl_->inflight[victim_shard].load(std::memory_order_acquire) >=
             per_shard) {
        if (std::chrono::steady_clock::now() >= give_up) break;
        std::this_thread::yield();
      }
      least_loaded();
    }
  }
  if (best_load >= per_shard) {
    ++impl_->admission.rejected;
    if (impl_->m_rejected != nullptr) impl_->m_rejected->add(1);
    impl_->emit_admission(EventKind::kReject, best);
    return Result<SessionTicket>(
        StatusCode::kResourceExhausted,
        "admission reject: all " + std::to_string(impl_->options.shards) +
            " shards at " +
            std::to_string(impl_->options.max_sessions_per_shard) +
            " in-flight sessions");
  }
  // Reserve the slot before the engine can possibly run the session to
  // completion (the callback's decrement must never precede this).
  impl_->inflight[best].fetch_add(1, std::memory_order_acq_rel);
  auto added = impl_->engines[best]->submit(graph, std::move(mapping),
                                            iterations, session_options);
  if (!added.is_ok()) {
    impl_->inflight[best].fetch_sub(1, std::memory_order_acq_rel);
    ++impl_->admission.failed;  // invalid graph/mapping, not overload
    if (impl_->m_failed != nullptr) impl_->m_failed->add(1);
    return Result<SessionTicket>(added.status());
  }
  ++impl_->admission.accepted;
  if (impl_->m_accepted != nullptr) {
    impl_->m_accepted->add(1);
    impl_->g_inflight->add(1);
  }
  // Sessions the overload policy can act on (deadline to shed against,
  // hook to fire) get a live record; pure best-effort sessions don't
  // need one. Retired records are GC'd here, so the list stays bounded
  // by the in-flight count.
  if (session_options.timeout.count() > 0 || session_options.on_degrade) {
    std::lock_guard lk(impl_->live_mu);
    impl_->live.erase(
        std::remove_if(impl_->live.begin(), impl_->live.end(),
                       [](const Impl::LiveSession& r) { return r.done; }),
        impl_->live.end());
    Impl::LiveSession rec;
    rec.shard = best;
    rec.session = added.value();
    rec.has_deadline = session_options.timeout.count() > 0;
    if (rec.has_deadline) {
      rec.deadline = std::chrono::steady_clock::now() + session_options.timeout;
    }
    rec.on_degrade = std::move(session_options.on_degrade);
    impl_->live.push_back(std::move(rec));
  }
  impl_->emit_admission(EventKind::kAdmit, best);
  return SessionTicket{best, added.value()};
}

Status ShardedEngine::start() {
  std::lock_guard lock(impl_->mu);
  if (impl_->running || impl_->done) {
    return Status(StatusCode::kInternal, "sharded engine already started");
  }
  if (impl_->options.pin_shard_cpu_ranges && impl_->options.engine.workers == 0) {
    // Fail loudly, matching the EngineOptions pinning contract: an auto
    // pool size makes the per-shard CPU range width unknowable, and
    // silently running unpinned is exactly what pinning forbids.
    return Status(StatusCode::kInvalidArgument,
                  "pin_shard_cpu_ranges requires an explicit "
                  "engine.workers (> 0) so each shard's CPU range is known");
  }
  impl_->running = true;
  // Every shard launches, traffic or not: an idle pool parks at zero CPU
  // and dynamic admission may route to it at any moment.
  for (auto& engine : impl_->engines) {
    const Status st = engine->start();
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

Status ShardedEngine::wait() {
  {
    std::lock_guard lock(impl_->mu);
    if (!impl_->running && !impl_->done) {
      return Status(StatusCode::kInternal, "sharded engine not started");
    }
  }
  Status first = Status::ok();
  for (auto& engine : impl_->engines) {
    const Status st = engine->wait();
    if (first.is_ok() && !st.is_ok()) first = st;
  }
  std::lock_guard lock(impl_->mu);
  impl_->running = false;
  impl_->done = true;
  return first;
}

Status ShardedEngine::run() {
  {
    std::lock_guard lock(impl_->mu);
    if (impl_->admission.accepted == 0 && !impl_->running) {
      return Status(StatusCode::kInvalidArgument, "no sessions admitted");
    }
  }
  const Status started = start();
  if (!started.is_ok()) return started;
  return wait();
}

void ShardedEngine::cancel(SessionTicket ticket) {
  // Engine::cancel is thread-safe against concurrent submits; no
  // front-end lock needed.
  if (ticket.shard >= impl_->engines.size()) return;
  impl_->engines[ticket.shard]->cancel(ticket.session);
}

void ShardedEngine::cancel_all() {
  for (auto& engine : impl_->engines) engine->cancel_all();
}

std::size_t ShardedEngine::shard_count() const noexcept {
  return impl_->engines.size();
}

std::size_t ShardedEngine::session_count(std::size_t shard) const {
  return impl_->engines.at(shard)->session_count();
}

std::size_t ShardedEngine::total_sessions() const noexcept {
  std::size_t n = 0;
  for (const auto& engine : impl_->engines) n += engine->session_count();
  return n;
}

std::size_t ShardedEngine::inflight(std::size_t shard) const {
  if (shard >= impl_->options.shards) return 0;
  return impl_->inflight[shard].load(std::memory_order_acquire);
}

AdmissionStats ShardedEngine::stats() const noexcept {
  std::lock_guard lock(impl_->mu);
  // mu freezes the admission counters (submit holds it), but completions
  // land from worker threads lock-free: the callback decrements a shard's
  // inflight and *then* increments completed, so independent reads can
  // catch the instant in between and under-count by the sessions mid-
  // callback. Re-read until the books balance — the window is two
  // adjacent atomic ops, so this converges almost immediately.
  AdmissionStats out = impl_->admission;
  for (int attempt = 0; attempt < 1024; ++attempt) {
    const std::uint64_t completed_before =
        impl_->completed.load(std::memory_order_acquire);
    std::uint64_t infl = 0;
    for (std::size_t i = 0; i < impl_->options.shards; ++i) {
      infl += impl_->inflight[i].load(std::memory_order_acquire);
    }
    const std::uint64_t completed_after =
        impl_->completed.load(std::memory_order_acquire);
    if (completed_before == completed_after &&
        completed_before + infl == out.accepted) {
      out.completed = completed_before;
      out.inflight = infl;
      return out;
    }
    std::this_thread::yield();
  }
  // A callback thread is parked mid-hand-off: report its session as
  // still in flight (it has not finished returning the slot), keeping
  // the snapshot balanced by construction.
  out.completed = impl_->completed.load(std::memory_order_acquire);
  out.inflight = out.accepted - std::min(out.accepted, out.completed);
  return out;
}

const SessionReport& ShardedEngine::report(SessionTicket ticket) const {
  // .at(): a stale/forged ticket is a defined out_of_range, not UB.
  return impl_->engines.at(ticket.shard)->report(ticket.session);
}

const Engine& ShardedEngine::shard(std::size_t index) const {
  return *impl_->engines.at(index);
}

Engine& ShardedEngine::shard(std::size_t index) {
  return *impl_->engines.at(index);
}

}  // namespace mmsoc::runtime
