// Async I/O boundary subsystem: IoContext, AsyncSource/AsyncSink
// adapters, RTP/block endpoints, and the two boundary session types.
// Runs in the ThreadSanitizer matrix: the IoContext <-> worker hand-off
// (gate publish, task_waker, buffer mutation) is exactly the kind of
// race that never crashes an ordinary run.
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/engine.h"
#include "runtime/io.h"
#include "runtime/payload_pool.h"
#include "runtime/pipelines.h"
#include "runtime/shard.h"

namespace {

using namespace mmsoc;
using namespace mmsoc::runtime;
using mpsoc::Payload;
using mpsoc::TaskFiring;
using mpsoc::TaskGraph;
using mpsoc::TaskId;

Payload unit_payload(std::uint64_t i, std::size_t size = 32) {
  Payload p(size);
  for (std::size_t k = 0; k < size; ++k) {
    p[k] = static_cast<std::uint8_t>(i * 131 + k);
  }
  return p;
}

mpsoc::Task task(const char* name, double work_ops) {
  mpsoc::Task t;
  t.name = name;
  t.work_ops = work_ops;
  return t;
}

TEST(IoContext, ExecutesJobsThenStopsIdempotently) {
  IoContext io(IoContextOptions{.threads = 2, .queue_capacity = 64});
  EXPECT_EQ(io.thread_count(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(io.post([&ran] { ran.fetch_add(1); }));
  }
  io.stop();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_GE(io.stats().jobs, 50u);
  EXPECT_FALSE(io.post([] {})) << "post after stop must be rejected";
  io.stop();  // idempotent
}

// The timer thread sleeps until the heap's earliest deadline while other
// threads keep pushing earlier ones: every push may reallocate the heap
// under the sleeping timer and wakes it to re-arm. Each delayed job must
// still run exactly once. Under ASan this also catches the timer reading
// a deadline out of a reallocated heap.
TEST(IoContext, DelayedJobsRunOnceWhileEarlierDeadlinesArrive) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr int kJobs = kThreads * kPerThread + 1;
  IoContext io(IoContextOptions{.threads = 2, .queue_capacity = 64});
  std::vector<std::atomic<int>> runs(kJobs);
  std::atomic<int> done{0};
  const auto job = [&](int id) {
    return [&runs, &done, id] {
      runs[id].fetch_add(1);
      done.fetch_add(1);
    };
  };
  // The first deadline is the latest, so the timer parks on it first.
  ASSERT_TRUE(io.post_after(std::chrono::milliseconds(200), job(0)));
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const auto delay = std::chrono::microseconds(100 * (kPerThread - k));
        ASSERT_TRUE(io.post_after(delay, job(1 + t * kPerThread + k)));
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : posters) th.join();
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kJobs && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kJobs) << "delayed jobs still pending 10 s after their deadlines";
  io.stop();
  for (int id = 0; id < kJobs; ++id) EXPECT_EQ(runs[id].load(), 1) << "job " << id;
  EXPECT_EQ(io.stats().delayed_jobs, static_cast<std::uint64_t>(kJobs));
}

// Minimal boundary graph: gated source -> collecting sink.
struct Collector {
  std::vector<Payload> got;
};

TEST(AsyncBoundary, SourceDeliversInOrderAndEngineAccountsStalls) {
  constexpr std::uint64_t kUnits = 24;
  IoContext io;
  // A deliberately slow device: every read sleeps 1 ms on the I/O
  // thread, so the pipeline must stall at the gate (and the engine must
  // bill that as io_stall, not compute).
  AsyncSource source(
      io,
      [](std::uint64_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::optional<Payload>(unit_payload(i));
      },
      /*depth=*/2);

  TaskGraph g("gated-source");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  source.bind(g, src);
  auto collector = std::make_shared<Collector>();
  g.set_body(snk, [collector](TaskFiring& f) {
    collector->got.push_back(*f.inputs[0]);
  });

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, kUnits);
  ASSERT_TRUE(sid.is_ok()) << sid.status().to_text();
  auto waker = engine.task_waker(sid.value(), src);
  ASSERT_TRUE(waker.is_ok()) << waker.status().to_text();
  source.attach(kUnits, std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());

  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(collector->got.size(), kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(collector->got[i], unit_payload(i)) << "unit " << i;
  }
  // The 1 ms device latency dominates the ~free compute, so the source
  // must have been seen gate-closed and the wait must be attributed.
  EXPECT_GT(rep.tasks[src].io_stalls, 0u);
  EXPECT_GT(rep.tasks[src].io_stall_s, 0.0);
  EXPECT_GT(rep.io_stall_s, 0.0);
  EXPECT_GT(rep.tasks[src].mean_io_stall_s(), 0.0);
  const auto stats = source.stats();
  EXPECT_EQ(stats.units, kUnits);
  EXPECT_EQ(stats.underruns, 0u);
  EXPECT_GT(stats.io_busy_s, 0.0);
}

TEST(AsyncBoundary, SinkBackpressuresOrderedWritesAndFlushes) {
  constexpr std::uint64_t kUnits = 16;
  IoContext io;
  std::mutex written_mu;
  std::vector<std::pair<std::uint64_t, Payload>> written;
  AsyncSink sink(
      io,
      [&](std::uint64_t i, Payload p) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard lock(written_mu);
        written.emplace_back(i, std::move(p));
      },
      /*depth=*/2);

  TaskGraph g("gated-sink");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  g.set_body(src, [](TaskFiring& f) { f.outputs[0] = unit_payload(f.iteration); });
  sink.bind(g, snk);

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto waker = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(waker.is_ok());
  sink.attach(std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();  // engine drained the graph; drain the device side too

  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  std::lock_guard lock(written_mu);
  ASSERT_EQ(written.size(), kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(written[i].first, i);
    EXPECT_EQ(written[i].second, unit_payload(i));
  }
  // The fast producer must have found the depth-2 device buffer full.
  EXPECT_GT(rep.tasks[snk].io_stalls, 0u);
  EXPECT_EQ(sink.stats().units, kUnits);
}

// An ungated upstream fires as soon as the session is submitted, so the
// sink banks units before it is wired. Its device I/O waits for
// attach(): an error on the very first write must still find the error
// observer installed and land in the SessionReport.
TEST(AsyncBoundary, SinkErrorsBeforeWiringReachTheSessionReport) {
  constexpr std::uint64_t kUnits = 8;
  IoContext io;
  std::atomic<int> writes{0};
  std::atomic<bool> refused{false};
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_us = 50.0;
  retry.max_backoff_us = 400.0;
  // Declared before the sink: the adapter quiesces before the engine its
  // handlers capture goes away.
  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  AsyncSink sink(io,
                 TryWriteFn([&](std::uint64_t i, const Payload&) {
                   writes.fetch_add(1);
                   if (i == 0 && !refused.exchange(true)) {
                     return common::Status(common::StatusCode::kUnavailable,
                                           "unit 0 refused once");
                   }
                   return common::Status::ok();
                 }),
                 retry, /*depth=*/2);

  TaskGraph g("early-sink");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  g.set_body(src, [](TaskFiring& f) { f.outputs[0] = unit_payload(f.iteration); });
  sink.bind(g, snk);

  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  // Give a sink that writes before attach() every chance to do so.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (writes.load() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sink.set_failure_handler(
      [&engine, s = sid.value()](std::uint64_t unit,
                                 const common::Status& status) {
        engine.fail_session(s, unit, status);
      });
  sink.set_error_observer([&engine, s = sid.value()](
                              std::uint64_t unit, const common::Status& status,
                              bool will_retry) {
    engine.record_io_error(s, unit, status, will_retry);
  });
  auto waker = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(waker.is_ok());
  sink.attach(std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();

  const auto& rep = engine.report(sid.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kCompleted);
  const auto stats = sink.stats();
  EXPECT_EQ(stats.units, kUnits);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(rep.io_errors.errors, stats.errors)
      << "a write error before wiring must reach the SessionReport";
  EXPECT_EQ(rep.io_errors.retries, stats.retries);
}

TEST(AsyncBoundary, TruncatedStreamUnderrunsInsteadOfWedging) {
  constexpr std::uint64_t kUnits = 12;
  constexpr std::uint64_t kAvailable = 7;
  IoContext io;
  AsyncSource source(io, [](std::uint64_t i) {
    return i < kAvailable ? std::optional<Payload>(unit_payload(i))
                          : std::nullopt;
  });
  TaskGraph g("truncated");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  source.bind(g, src);
  std::atomic<std::uint64_t> empties{0};
  g.set_body(snk, [&empties](TaskFiring& f) {
    if (f.inputs[0]->empty()) empties.fetch_add(1);
  });

  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto waker = engine.task_waker(sid.value(), src);
  ASSERT_TRUE(waker.is_ok());
  source.attach(kUnits, std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  EXPECT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(empties.load(), kUnits - kAvailable);
  EXPECT_EQ(source.stats().underruns, kUnits - kAvailable);
}

TEST(AsyncBoundary, StoppedContextFailsOpenInsteadOfWedging) {
  constexpr std::uint64_t kUnits = 6;
  IoContext io;
  io.stop();  // the pathological ordering: context dies before the session
  AsyncSource source(io, [](std::uint64_t i) {
    return std::optional<Payload>(unit_payload(i));
  });
  std::mutex sink_mu;
  std::uint64_t sunk = 0;
  AsyncSink sink(io, [&](std::uint64_t, Payload) {
    std::lock_guard lock(sink_mu);
    ++sunk;
  });
  TaskGraph g("dead-context");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 8).is_ok());
  source.bind(g, src);
  sink.bind(g, snk);

  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto w1 = engine.task_waker(sid.value(), src);
  auto w2 = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(w1.is_ok() && w2.is_ok());
  source.attach(kUnits, std::move(w1.value()));
  sink.attach(std::move(w2.value()));
  // The whole point: wait() must return (fail-open), not wedge forever.
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();  // must also return
  EXPECT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(source.stats().underruns, kUnits);
  EXPECT_EQ(sink.stats().dropped, kUnits);
  std::lock_guard lock(sink_mu);
  EXPECT_EQ(sunk, 0u);
}

TEST(AsyncBoundary, AdapterDestructionQuiescesInflightIo) {
  // A cancelled session leaves the drain job sleeping inside a slow
  // read; destroying the adapter right after wait() must block until
  // that job retires (it would otherwise lock a destroyed mutex).
  IoContext io;
  std::atomic<bool> read_done{false};
  {
    AsyncSource source(io, [&read_done](std::uint64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      read_done.store(true);
      return std::optional<Payload>(unit_payload(i));
    });
    TaskGraph g("cancel-quiesce");
    const TaskId src = g.add_task(task("src", 10));
    const TaskId snk = g.add_task(task("snk", 10));
    ASSERT_TRUE(g.add_edge(src, snk, 8).is_ok());
    source.bind(g, src);
    g.set_body(snk, [](TaskFiring&) {});
    EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
    ASSERT_TRUE(engine.start().is_ok());
    auto sid = engine.submit(g, {0, 0}, 100);
    ASSERT_TRUE(sid.is_ok());
    auto waker = engine.task_waker(sid.value(), src);
    ASSERT_TRUE(waker.is_ok());
    source.attach(100, std::move(waker.value()));
    engine.cancel(sid.value());
    ASSERT_TRUE(engine.wait().is_ok());
    // source goes out of scope here, likely with the read mid-sleep
  }
  EXPECT_TRUE(read_done.load())
      << "destructor returned before the in-flight read retired";
}

// Prefetch shares an I/O thread with sink writes. A source job reads one
// unit and re-posts itself behind whatever was queued meanwhile, so a
// write queued mid-prefetch waits for at most one more read (the one in
// progress, or one already queued), not for a depth-sized burst.
TEST(AsyncBoundary, PrefetchReadsYieldToQueuedWrites) {
  IoContext io;  // one I/O thread serves the source and the write
  std::atomic<int> reads{0};
  std::atomic<int> reads_before_write{-1};
  {
    AsyncSource source(
        io,
        [&reads](std::uint64_t i) {
          reads.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return std::optional<Payload>(unit_payload(i));
        },
        /*depth=*/4);
    source.attach(/*total_units=*/16, [] {});
    while (reads.load() == 0) std::this_thread::yield();
    const int reads_when_queued = reads.load();
    // What an AsyncSink posts for a banked unit: one write job.
    ASSERT_TRUE(io.post([&] { reads_before_write.store(reads.load()); }));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((reads_before_write.load() < 0 || source.stats().units < 4) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(reads_before_write.load(), 0) << "write never ran";
    EXPECT_LE(reads_before_write.load(), reads_when_queued + 1)
        << "write waited behind the prefetch burst";
    EXPECT_EQ(source.stats().units, 4u) << "prefetch must still fill the ring";
  }
  io.stop();
}

TEST(PayloadPool, AcquireReleaseReusesStorageWithinBound) {
  PayloadPool pool(2);
  Payload a(100, 0x11);
  const std::uint8_t* storage = a.data();
  pool.release(std::move(a));
  Payload b = pool.acquire();
  EXPECT_EQ(b.data(), storage) << "pooled storage must be reused";
  EXPECT_TRUE(b.empty()) << "pooled buffers are handed back cleared";
  EXPECT_GE(b.capacity(), 100u);
  // Bound: a third banked buffer is dropped, not hoarded.
  pool.release(Payload(8, 1));
  pool.release(Payload(8, 2));
  pool.release(Payload(8, 3));
  EXPECT_EQ(pool.size(), 2u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.released, 4u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.reused, 1u);
  // Oversized buffers are freed, never banked at peak capacity.
  Payload huge;
  huge.reserve(PayloadPool::kMaxBankedCapacity + 1);
  huge.push_back(1);
  PayloadPool fresh(4);
  fresh.release(std::move(huge));
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_EQ(fresh.stats().dropped, 1u);
}

namespace spare {

Payload sized(std::size_t cap) {
  Payload p;
  p.reserve(cap);
  p.push_back(0x5A);
  return p;
}

void offer(SparePayloads& bank, std::vector<Payload>& retired) {
  bank.restock([&](auto&& give) {
    for (Payload& p : retired) give(std::move(p));
  });
}

}  // namespace spare

TEST(SparePayloads, BanksWhatBodiesAskedForAndHandsBackTheSmallestFit) {
  SparePayloads bank;
  // No body has asked yet: nothing is banked, the caller keeps the buffer.
  std::vector<Payload> unasked;
  unasked.push_back(spare::sized(256));
  spare::offer(bank, unasked);
  EXPECT_EQ(bank.banked_bytes(), 0u);
  EXPECT_EQ(unasked[0].capacity(), 256u);

  // Cold outputs ask for 100, 400 and 900 bytes (1400 in all); all miss.
  Payload miss;
  for (const std::size_t bytes : {100u, 400u, 900u}) bank.take_for(miss, bytes);
  EXPECT_EQ(miss.capacity(), 0u);
  std::vector<Payload> retired;
  for (const std::size_t cap : {64u, 128u, 1000u, 3000u}) {
    retired.push_back(spare::sized(cap));
  }
  const std::uint8_t* storage128 = retired[1].data();
  spare::offer(bank, retired);
  // 64 fits no size asked for and 3000 is more than twice 900: both stay
  // with the caller.
  EXPECT_EQ(bank.banked_bytes(), 128u + 1000u);
  EXPECT_EQ(retired[0].capacity(), 64u);
  EXPECT_EQ(retired[3].capacity(), 3000u);

  Payload a;
  bank.take_for(a, 100);  // smallest fit: 128
  EXPECT_EQ(a.data(), storage128);
  EXPECT_TRUE(a.empty()) << "banked buffers are handed back cleared";
  Payload b;
  bank.take_for(b, 400);  // 1000 is more than twice 400
  EXPECT_EQ(b.capacity(), 0u);
  Payload c;
  bank.take_for(c, 600);
  EXPECT_EQ(c.capacity(), 1000u);
  Payload roomy;
  roomy.reserve(50);
  bank.take_for(roomy, 40);  // already fits: untouched
  EXPECT_EQ(roomy.capacity(), 50u);
  EXPECT_EQ(bank.banked_bytes(), 0u);

  // The takes above asked for 600, so a 600 buffer is banked; with
  // nothing asked since, the next restock frees it and banks nothing.
  std::vector<Payload> again;
  again.push_back(spare::sized(600));
  spare::offer(bank, again);
  EXPECT_EQ(bank.banked_bytes(), 600u);
  std::vector<Payload> idle;
  idle.push_back(spare::sized(600));
  spare::offer(bank, idle);
  EXPECT_EQ(bank.banked_bytes(), 0u);
  EXPECT_EQ(idle[0].capacity(), 600u);
}

TEST(SparePayloads, RetiringBuffersComeBeforeLeftovers) {
  SparePayloads bank;
  Payload miss;
  bank.take_for(miss, 1000);
  bank.take_for(miss, 1000);  // budget 2000
  std::vector<Payload> first;
  first.push_back(spare::sized(1000));
  first.push_back(spare::sized(1000));
  spare::offer(bank, first);
  ASSERT_EQ(bank.banked_bytes(), 2000u);
  Payload taken;
  bank.take_for(taken, 1000);  // one left over, untaken
  ASSERT_EQ(bank.banked_bytes(), 1000u);

  std::vector<Payload> second;
  second.push_back(spare::sized(1000));
  second.push_back(spare::sized(1000));
  const std::uint8_t* c = second[0].data();
  const std::uint8_t* d = second[1].data();
  spare::offer(bank, second);
  EXPECT_EQ(bank.banked_bytes(), 2000u) << "the leftover must not fit too";
  for (int i = 0; i < 2; ++i) {
    Payload out;
    bank.take_for(out, 1000);
    EXPECT_TRUE(out.data() == c || out.data() == d)
        << "a leftover was banked before the retiring engine's buffers";
  }
}

TEST(AsyncBoundary, SharedPoolRecyclesUnitBuffersAcrossSourceAndSink) {
  // source -> relay -> sink with one shared pool: the source retires
  // every unit buffer into the pool, the sink draws its per-unit banked
  // copies from it. After a short warm-up the boundary stops allocating:
  // pool reuse must dominate and the written stream stay exact.
  constexpr std::uint64_t kUnits = 32;
  IoContext io;
  auto pool = std::make_shared<PayloadPool>(16);
  AsyncSource source(
      io, [](std::uint64_t i) { return std::optional<Payload>(unit_payload(i)); },
      /*depth=*/4, pool);
  std::mutex written_mu;
  std::vector<Payload> written;
  AsyncSink sink(
      io,
      [&](std::uint64_t, const Payload& p) {
        std::lock_guard lock(written_mu);
        written.push_back(p);
      },
      /*depth=*/4, pool);

  TaskGraph g("pooled-boundary");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId mid = g.add_task(task("relay", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, mid, 32).is_ok());
  ASSERT_TRUE(g.add_edge(mid, snk, 32).is_ok());
  source.bind(g, src);
  g.set_body(mid, [](TaskFiring& f) {
    f.store(0, f.inputs[0]->data(), f.inputs[0]->size());
  });
  sink.bind(g, snk);

  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto w1 = engine.task_waker(sid.value(), src);
  auto w2 = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(w1.is_ok() && w2.is_ok());
  source.attach(kUnits, std::move(w1.value()));
  sink.attach(std::move(w2.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();

  ASSERT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
  std::lock_guard lock(written_mu);
  ASSERT_EQ(written.size(), kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(written[i], unit_payload(i)) << "unit " << i;
  }
  const auto stats = pool.get()->stats();
  EXPECT_EQ(stats.released, 2 * kUnits)  // source retires + sink returns
      << "every unit must pass through the pool on both ends";
  // The sink's kUnits banked copies are the only acquires; once the
  // source seeds the pool they must be served from it.
  EXPECT_EQ(stats.acquired, kUnits);
  EXPECT_GT(stats.reused, kUnits / 2)
      << "steady state must reuse, not allocate";
}

TEST(RtpIngress, TailGapFlushesReceivedPacketsInsteadOfDroppingThem) {
  // Units 0..5; packet 3 lost; 4 and 5 arrive, then the feed ends. With
  // playout_delay 3 the gap never ages, so without the flush path units
  // 4 and 5 would be replaced by stale repeats of unit 2.
  net::RtpSender sender;
  std::vector<std::vector<std::uint8_t>> packets;
  for (std::uint64_t i = 0; i < 6; ++i) {
    packets.push_back(sender.packetize(unit_payload(i, 16),
                                       static_cast<std::uint32_t>(i) * 100));
  }
  packets.erase(packets.begin() + 3);
  RtpIngress ingress(make_timed_feed(std::move(packets), 1000.0),
                     RtpIngressOptions{.playout_delay_units = 3});
  std::vector<Payload> played;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto unit = ingress.read(i);
    ASSERT_TRUE(unit.has_value());
    played.push_back(std::move(*unit));
  }
  EXPECT_EQ(played[2], unit_payload(2, 16));
  EXPECT_EQ(played[3], unit_payload(2, 16)) << "lost unit concealed as repeat";
  EXPECT_EQ(played[4], unit_payload(4, 16)) << "tail packet must still play";
  EXPECT_EQ(played[5], unit_payload(5, 16)) << "tail packet must still play";
  EXPECT_EQ(ingress.concealed(), 1u);
}

TEST(TaskWaker, LifecycleErrorsAndSpuriousCallsAreSafe) {
  auto pipe = make_synthetic_chain(2, 100.0);
  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  // Pre-start sessions are not wired yet: no waker to hand out.
  auto sid = engine.add_session(pipe.graph, {0, 0}, 4);
  ASSERT_TRUE(sid.is_ok());
  EXPECT_FALSE(engine.task_waker(sid.value(), 0).is_ok());
  ASSERT_TRUE(engine.start().is_ok());
  EXPECT_FALSE(engine.task_waker(99, 0).is_ok());
  EXPECT_FALSE(engine.task_waker(sid.value(), 99).is_ok());
  auto waker = engine.task_waker(sid.value(), 0);
  ASSERT_TRUE(waker.is_ok());
  waker.value()();  // spurious wake while running: harmless
  ASSERT_TRUE(engine.wait().is_ok());
  waker.value()();  // after drain: harmless
}

// ---------------------------------------------------------------------------
// Streaming session (RTP in -> decode -> RTP out)
// ---------------------------------------------------------------------------

StreamingSessionConfig small_stream(std::uint64_t frames) {
  StreamingSessionConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.frames = frames;
  cfg.seed = 7;
  return cfg;
}

struct StreamRun {
  std::uint32_t luma_crc = 0;
  std::uint64_t concealed = 0;
  std::uint64_t packets_out = 0;
  SessionOutcome outcome = SessionOutcome::kPending;
  double io_stall_s = 0.0;
};

StreamRun run_stream(const StreamingSessionConfig& cfg, std::size_t workers) {
  IoContext io;
  StreamingSession session = make_streaming_session(io, cfg);
  EngineOptions eopts;
  eopts.workers = workers;
  Engine engine(eopts);
  EXPECT_TRUE(engine.start().is_ok());
  auto sid = session.submit_to(
      engine, round_robin_mapping(session.graph, workers));
  EXPECT_TRUE(sid.is_ok()) << sid.status().to_text();
  EXPECT_TRUE(engine.wait().is_ok());
  session.finish();
  StreamRun r;
  r.outcome = engine.report(sid.value()).outcome;
  r.io_stall_s = engine.report(sid.value()).io_stall_s;
  r.luma_crc = session.state->luma_crc;
  r.concealed = session.ingress->concealed();
  r.packets_out = session.egress->packets_sent();
  EXPECT_EQ(session.state->frames_decoded, cfg.frames);
  return r;
}

TEST(StreamingSession, CleanStreamBitIdenticalAcrossWorkerCounts) {
  const auto cfg = small_stream(16);
  const StreamRun one = run_stream(cfg, 1);
  const StreamRun four = run_stream(cfg, 4);
  ASSERT_EQ(one.outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(four.outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(one.concealed, 0u);
  EXPECT_EQ(one.luma_crc, four.luma_crc)
      << "streamed decode must not depend on worker count";
  EXPECT_EQ(one.packets_out, cfg.frames);
  EXPECT_EQ(four.packets_out, cfg.frames);
}

TEST(StreamingSession, LossAndReorderConcealedDeterministically) {
  auto cfg = small_stream(30);
  cfg.loss_probability = 0.15;
  cfg.reorder_span = 2;
  cfg.playout_delay_units = 3;
  const StreamRun a = run_stream(cfg, 2);
  const StreamRun b = run_stream(cfg, 3);
  ASSERT_EQ(a.outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(b.outcome, SessionOutcome::kCompleted);
  // The drop policy delivers exactly `frames` units: losses become
  // concealed repeats, never missing iterations.
  EXPECT_GT(a.concealed, 0u) << "15% loss must conceal something";
  EXPECT_EQ(a.packets_out, cfg.frames);
  // Same seed, same shaped feed -> bit-identical displayed sequence,
  // regardless of worker count.
  EXPECT_EQ(a.luma_crc, b.luma_crc);
  EXPECT_EQ(a.concealed, b.concealed);
  // And the lossy sequence must differ from the clean one.
  StreamingSessionConfig clean = small_stream(30);
  EXPECT_NE(a.luma_crc, run_stream(clean, 2).luma_crc);
}

// ---------------------------------------------------------------------------
// File transcode session (block read -> decode -> encode -> block write)
// ---------------------------------------------------------------------------

TranscodeSessionConfig small_transcode(std::uint64_t frames) {
  TranscodeSessionConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.frames = frames;
  cfg.seed = 11;
  return cfg;
}

TEST(TranscodeSession, AsyncMatchesInlineBitstreamExactly) {
  auto run_one = [](bool async) {
    auto cfg = small_transcode(10);
    cfg.async_boundaries = async;
    IoContext io;
    auto made = make_file_transcode_session(io, cfg);
    EXPECT_TRUE(made.is_ok()) << made.status().to_text();
    FileTranscodeSession session = std::move(made.value());
    EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
    EXPECT_TRUE(engine.start().is_ok());
    auto sid = session.submit_to(engine,
                                 round_robin_mapping(session.graph, 2));
    EXPECT_TRUE(sid.is_ok()) << sid.status().to_text();
    EXPECT_TRUE(engine.wait().is_ok());
    session.finish();
    EXPECT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
    EXPECT_TRUE(session.writer_endpoint->status().is_ok());
    // The re-encoded stream really landed on the FAT volume.
    auto out = session.volume->read_file(session.out_path);
    EXPECT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().size(), session.state->bytes_out);
    return std::pair(session.state->out_crc, session.state->bytes_out);
  };
  const auto async = run_one(true);
  const auto inline_ = run_one(false);
  EXPECT_GT(async.second, 0u);
  EXPECT_EQ(async.first, inline_.first)
      << "async boundaries must not change the transcoded bitstream";
  EXPECT_EQ(async.second, inline_.second);
}

TEST(TranscodeSession, SlowDeviceShowsUpAsIoStallNotCompute) {
  auto cfg = small_transcode(8);
  cfg.time_scale = 1.0;  // charge the modeled seek/transfer time for real
  IoContext io;
  auto made = make_file_transcode_session(io, cfg);
  ASSERT_TRUE(made.is_ok());
  FileTranscodeSession session = std::move(made.value());
  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = session.submit_to(engine, round_robin_mapping(session.graph, 2));
  ASSERT_TRUE(sid.is_ok());
  ASSERT_TRUE(engine.wait().is_ok());
  session.finish();
  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  EXPECT_GT(session.reader_endpoint->modeled_io_us(), 0.0);
  EXPECT_GT(session.writer_endpoint->modeled_io_us(), 0.0);
  // The read boundary waits on the disk; that time must be in io_stall.
  EXPECT_GT(rep.io_stall_s, 0.0);
  EXPECT_GT(rep.tasks[session.read_task].io_stalls, 0u);
}

// ---------------------------------------------------------------------------
// TSan stress: shared IoContext, many sessions, cancel + dynamic submit
// ---------------------------------------------------------------------------

TEST(IoStress, SharedContextManySessionsWithCancelAndDynamicSubmit) {
  IoContext io(IoContextOptions{.threads = 2});
  EngineOptions eopts;
  eopts.workers = 3;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());

  constexpr std::size_t kInitial = 4;
  std::vector<FileTranscodeSession> sessions;
  sessions.reserve(kInitial + 2);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < kInitial; ++i) {
    auto cfg = small_transcode(8);
    cfg.seed = 100 + i;
    cfg.io_depth = 2;
    auto made = make_file_transcode_session(io, cfg);
    ASSERT_TRUE(made.is_ok());
    sessions.push_back(std::move(made.value()));
  }
  for (auto& session : sessions) {
    auto sid = session.submit_to(engine, round_robin_mapping(session.graph, 3));
    ASSERT_TRUE(sid.is_ok());
    ids.push_back(sid.value());
  }
  // Concurrently: cancel two sessions mid-flight and admit two more.
  std::thread chaos([&] {
    engine.cancel(ids[1]);
    for (std::size_t i = 0; i < 2; ++i) {
      auto cfg = small_transcode(6);
      cfg.seed = 200 + i;
      auto made = make_file_transcode_session(io, cfg);
      ASSERT_TRUE(made.is_ok());
      sessions.push_back(std::move(made.value()));
      auto sid = sessions.back().submit_to(
          engine, round_robin_mapping(sessions.back().graph, 3));
      ASSERT_TRUE(sid.is_ok());
      ids.push_back(sid.value());
    }
    engine.cancel(ids[2]);
  });
  chaos.join();
  ASSERT_TRUE(engine.wait().is_ok());
  for (auto& session : sessions) session.finish();
  io.stop();

  std::size_t completed = 0;
  for (const std::size_t id : ids) {
    const auto& rep = engine.report(id);
    EXPECT_TRUE(rep.outcome == SessionOutcome::kCompleted ||
                rep.outcome == SessionOutcome::kCancelled)
        << to_string(rep.outcome);
    if (rep.outcome == SessionOutcome::kCompleted) ++completed;
  }
  EXPECT_GE(completed, ids.size() - 2);
}

}  // namespace
