// Property-based suites cutting across modules: parameterized sweeps over
// configuration spaces, checking invariants rather than point values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dsp/wavelet.h"
#include "entropy/huffman.h"
#include "mpsoc/mapping.h"
#include "runtime/queue.h"
#include "runtime/telemetry.h"
#include "video/codec.h"
#include "video/metrics.h"
#include "video/source.h"

namespace mmsoc {
namespace {

// --------------------------------------------- rate-distortion monotonicity

class QscaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(QscaleSweep, RoundTripQualityAndSizeWellOrdered) {
  // Property: for any qscale, the codec round-trips losslessly enough to
  // decode, and quality/size are sane. Cross-qscale monotonicity is
  // checked in the _Monotone test below.
  const int q = GetParam();
  video::EncoderConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  cfg.gop_size = 3;
  cfg.qscale = q;
  video::VideoEncoder enc(cfg);
  video::VideoDecoder dec;
  const auto scene = video::scene_high_detail(31);
  for (int i = 0; i < 3; ++i) {
    const auto frame = video::SyntheticVideo::render(64, 64, scene, i);
    const auto e = enc.encode(frame);
    auto d = dec.decode(e.bytes);
    ASSERT_TRUE(d.is_ok()) << "qscale " << q;
    EXPECT_EQ(d.value(), enc.reconstructed());
    EXPECT_GT(video::psnr_luma(frame, d.value()), 18.0) << "qscale " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScales, QscaleSweep,
                         ::testing::Values(1, 2, 4, 8, 12, 16, 24, 31));

TEST(RateDistortion, MonotoneAcrossQscale) {
  const auto scene = video::scene_high_detail(32);
  std::vector<video::Frame> frames;
  for (int i = 0; i < 3; ++i)
    frames.push_back(video::SyntheticVideo::render(64, 64, scene, i));

  double prev_bits = 1e18;
  double prev_psnr = 1e18;
  for (const int q : {2, 6, 12, 24}) {
    video::EncoderConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.gop_size = 1;
    cfg.qscale = q;
    video::VideoEncoder enc(cfg);
    video::VideoDecoder dec;
    double bits = 0.0, psnr = 0.0;
    for (const auto& f : frames) {
      const auto e = enc.encode(f);
      bits += static_cast<double>(e.bytes.size()) * 8;
      psnr += video::psnr_luma(f, dec.decode(e.bytes).value());
    }
    // Coarser quantization never costs more bits nor gains quality.
    EXPECT_LT(bits, prev_bits) << "q=" << q;
    EXPECT_LT(psnr, prev_psnr + 1e-9) << "q=" << q;
    prev_bits = bits;
    prev_psnr = psnr;
  }
}

// -------------------------------------------------- Huffman across sources

class HuffmanDistribution
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(HuffmanDistribution, RoundTripAndNearEntropy) {
  // Property: for geometric-ish sources of any size/skew, the code round
  // trips and its expected length is within 1 bit of the entropy bound.
  const auto [alphabet, decay] = GetParam();
  std::vector<std::uint64_t> freqs(static_cast<std::size_t>(alphabet));
  double p = 1e9;
  for (auto& f : freqs) {
    f = static_cast<std::uint64_t>(p) + 1;
    p *= decay;
  }
  auto built = entropy::HuffmanCode::from_frequencies(freqs);
  ASSERT_TRUE(built.is_ok());
  const auto& code = built.value();
  const double h = entropy::entropy_bits(freqs);
  const double l = code.expected_length(freqs);
  EXPECT_GE(l, h - 1e-9);
  EXPECT_LE(l, h + 1.0);

  common::Rng rng(static_cast<std::uint64_t>(alphabet) * 131 + 7);
  common::BitWriter w;
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 2000; ++i) {
    const auto s = rng.next_below(freqs.size());
    symbols.push_back(s);
    ASSERT_TRUE(code.encode(s, w));
  }
  const auto bytes = w.take();
  common::BitReader r(bytes);
  for (const auto s : symbols) {
    ASSERT_EQ(code.decode(r), static_cast<int>(s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, HuffmanDistribution,
    ::testing::Combine(::testing::Values(2, 5, 17, 64, 257),
                       ::testing::Values(0.5, 0.8, 0.95, 1.0)));

// ------------------------------------------------------- wavelet 2-D sweep

class Dwt2dSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Dwt2dSweep, IntegerTransformExactlyInvertible) {
  const auto [w, h, levels] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(w) * 1000 + static_cast<std::uint64_t>(h));
  std::vector<std::int32_t> img(static_cast<std::size_t>(w) * h);
  for (auto& v : img) v = static_cast<std::int32_t>(rng.next_in(-512, 512));
  const auto original = img;
  dsp::dwt53_2d_forward(img, w, h, levels);
  if (levels > 0) {
    EXPECT_NE(img, original);
  }
  dsp::dwt53_2d_inverse(img, w, h, levels);
  EXPECT_EQ(img, original);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Dwt2dSweep,
    ::testing::Values(std::tuple{8, 8, 1}, std::tuple{16, 16, 2},
                      std::tuple{32, 16, 2}, std::tuple{64, 64, 3},
                      std::tuple{128, 32, 2}, std::tuple{16, 64, 4}));

// -------------------------------------------------- schedule invariants

mpsoc::TaskGraph random_dag(std::uint64_t seed, std::size_t tasks) {
  common::Rng rng(seed);
  mpsoc::TaskGraph g("random");
  for (std::size_t t = 0; t < tasks; ++t) {
    mpsoc::Task task;
    task.name = "t" + std::to_string(t);
    task.work_ops = rng.next_double_in(1e4, 1e6);
    if (rng.next_bool(0.5)) {
      task.affinity[mpsoc::PeKind::kDsp] = rng.next_double_in(1.5, 6.0);
    }
    g.add_task(std::move(task));
  }
  // Forward edges only: guaranteed acyclic.
  for (std::size_t t = 1; t < tasks; ++t) {
    const auto preds = 1 + rng.next_below(std::min<std::size_t>(t, 3));
    for (std::size_t k = 0; k < preds; ++k) {
      (void)g.add_edge(rng.next_below(t), t, rng.next_double_in(0, 1e5));
    }
  }
  return g;
}

mpsoc::Platform random_platform(std::uint64_t seed) {
  common::Rng rng(seed);
  mpsoc::Platform p;
  p.name = "random";
  const auto n = 2 + rng.next_below(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    mpsoc::ProcessingElement pe;
    pe.name = "pe" + std::to_string(i);
    pe.kind = rng.next_bool(0.5) ? mpsoc::PeKind::kRisc : mpsoc::PeKind::kDsp;
    pe.clock_hz = rng.next_double_in(50e6, 400e6);
    pe.ops_per_cycle = pe.kind == mpsoc::PeKind::kDsp ? 2.0 : 1.0;
    pe.active_power_w = rng.next_double_in(0.05, 0.5);
    pe.idle_power_w = pe.active_power_w * 0.1;
    p.pes.push_back(pe);
  }
  p.interconnect.bandwidth_bytes_per_s = rng.next_double_in(50e6, 1e9);
  return p;
}

class ScheduleInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleInvariants, HoldForAllMappers) {
  const auto seed = GetParam();
  const auto graph = random_dag(seed, 12);
  const auto platform = random_platform(seed ^ 0xABCD);
  for (const auto kind :
       {mpsoc::MapperKind::kRoundRobin, mpsoc::MapperKind::kGreedyLoadBalance,
        mpsoc::MapperKind::kHeft, mpsoc::MapperKind::kSimulatedAnnealing}) {
    const auto r = mpsoc::map_graph(graph, platform, kind);
    ASSERT_TRUE(r.schedule.feasible) << mpsoc::to_string(kind);

    // Invariant 1: precedence — no task starts before all predecessors end.
    for (const auto& e : graph.edges()) {
      EXPECT_GE(r.schedule.intervals[e.dst].start_s,
                r.schedule.intervals[e.src].finish_s - 1e-12)
          << mpsoc::to_string(kind) << " seed " << seed;
    }
    // Invariant 2: PE exclusivity — intervals on one PE never overlap.
    for (std::size_t p = 0; p < platform.pes.size(); ++p) {
      std::vector<mpsoc::TaskInterval> on_pe;
      for (const auto& iv : r.schedule.intervals) {
        if (iv.pe == p) on_pe.push_back(iv);
      }
      std::sort(on_pe.begin(), on_pe.end(),
                [](const auto& a, const auto& b) { return a.start_s < b.start_s; });
      for (std::size_t i = 1; i < on_pe.size(); ++i) {
        EXPECT_GE(on_pe[i].start_s, on_pe[i - 1].finish_s - 1e-12);
      }
    }
    // Invariant 3: makespan is the max finish time.
    double max_finish = 0.0;
    for (const auto& iv : r.schedule.intervals) {
      max_finish = std::max(max_finish, iv.finish_s);
    }
    EXPECT_NEAR(r.schedule.makespan_s, max_finish, 1e-12);
    // Invariant 4: II <= makespan, energy positive, utilization in (0,1].
    EXPECT_LE(r.schedule.initiation_interval_s(), r.schedule.makespan_s + 1e-12);
    EXPECT_GT(r.schedule.energy_j, 0.0);
    EXPECT_GT(r.schedule.mean_utilization(), 0.0);
    EXPECT_LE(r.schedule.mean_utilization(), 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleInvariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// -------------------------------------------------- SpscQueue fuzzing

// Model-based fuzz: drive the ring with a randomized operation sequence
// and mirror every step in a std::deque oracle. Catches FIFO violations,
// capacity-bound violations, and lost/duplicated/phantom tokens.
class SpscModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpscModelFuzz, MatchesDequeOracleOver10kOps) {
  common::Rng rng(GetParam());
  const auto capacity = static_cast<std::size_t>(1 + rng.next_below(7));
  runtime::SpscQueue<std::uint64_t> q(capacity);
  std::deque<std::uint64_t> oracle;
  std::uint64_t next_token = 0;

  for (int op = 0; op < 10000; ++op) {
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // push
        const bool pushed = q.try_push(std::uint64_t{next_token});
        EXPECT_EQ(pushed, oracle.size() < capacity) << "op " << op;
        if (pushed) oracle.push_back(next_token++);
        break;
      }
      case 2: {  // pop
        const auto got = q.try_pop();
        ASSERT_EQ(got.has_value(), !oracle.empty()) << "op " << op;
        if (got) {
          EXPECT_EQ(*got, oracle.front()) << "FIFO violated at op " << op;
          oracle.pop_front();
        }
        break;
      }
      case 3: {  // peek
        auto* f = q.front();
        ASSERT_EQ(f != nullptr, !oracle.empty()) << "op " << op;
        if (f) {
          EXPECT_EQ(*f, oracle.front());
        }
        break;
      }
      case 4: {  // occasional bulk drain (the cancellation path)
        if (rng.next_below(50) == 0) {
          q.clear();
          oracle.clear();
        }
        break;
      }
    }
    ASSERT_EQ(q.size(), oracle.size()) << "op " << op;
    EXPECT_EQ(q.empty(), oracle.empty());
    EXPECT_EQ(q.full(), oracle.size() == capacity);
    EXPECT_LE(q.max_occupancy(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpscModelFuzz,
                         ::testing::Values(0x1u, 0x2u, 0x3u, 0x5eedu, 0xfu,
                                           0xabcdefu, 0x123456789u, 0x42u));

class SpscConcurrentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpscConcurrentFuzz, RandomInterleavingsLoseNothingDuplicateNothing) {
  // Producer and consumer run with randomized burst lengths and yields so
  // the interleaving differs per seed and per run. The consumer must see
  // exactly 0..N-1 in order: any lost, duplicated, reordered, or phantom
  // token fails; occupancy must never exceed capacity.
  const std::uint64_t seed = GetParam();
  common::Rng setup(seed);
  const auto capacity = static_cast<std::size_t>(1 + setup.next_below(7));
  constexpr std::uint64_t kTokens = 10000;
  runtime::SpscQueue<std::uint64_t> q(capacity);

  std::thread producer([&q, seed] {
    common::Rng rng(seed ^ 0xBADC0FFEEull);
    std::uint64_t i = 0;
    while (i < kTokens) {
      const std::uint64_t burst = 1 + rng.next_below(8);
      for (std::uint64_t b = 0; b < burst && i < kTokens;) {
        if (q.try_push(std::uint64_t{i})) {
          ++i;
          ++b;
        } else {
          std::this_thread::yield();
        }
      }
      if (rng.next_below(4) == 0) std::this_thread::yield();
    }
  });

  common::Rng rng(seed ^ 0xF00Dull);
  std::uint64_t expected = 0;
  while (expected < kTokens) {
    const std::uint64_t burst = 1 + rng.next_below(8);
    for (std::uint64_t b = 0; b < burst && expected < kTokens; ++b) {
      if (auto v = q.try_pop()) {
        ASSERT_EQ(*v, expected) << "token lost/duplicated/reordered";
        ++expected;
      } else {
        std::this_thread::yield();
        break;
      }
    }
    if (rng.next_below(4) == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_FALSE(q.try_pop().has_value()) << "phantom token after drain";
  EXPECT_LE(q.max_occupancy(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpscConcurrentFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// -------------------------------------------------- EventRing fuzzing

// Model-based fuzz for the telemetry ring's drop-oldest discipline.
// Single-threaded, so every outcome is deterministic: the oracle is a
// deque that, when the ring is full, evicts the oldest
// min(kDropChunk, capacity) entries in one go and charges them to the
// drop counter — exactly the producer's claim-drop. Catches FIFO
// violations, mis-sized drop chunks, and drop-counter drift.
class EventRingModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventRingModelFuzz, MatchesChunkDroppingDequeOracle) {
  common::Rng rng(GetParam());
  // Capacities straddling kDropChunk: below it a full ring evicts its
  // whole contents at once; above it, one chunk at a time.
  static constexpr std::size_t kCaps[] = {2, 8, 64, 128};
  const std::size_t capacity = kCaps[rng.next_below(4)];
  EventRing ring(capacity);
  ASSERT_EQ(ring.capacity(), capacity);
  const std::uint64_t chunk =
      std::min<std::uint64_t>(EventRing::kDropChunk, capacity);

  std::deque<std::uint64_t> oracle;
  std::uint64_t next_seq = 0;
  std::uint64_t dropped = 0;

  for (int op = 0; op < 20000; ++op) {
    if (rng.next_below(3) != 0) {  // emit 2:1 over pop — overflow is the point
      if (oracle.size() == capacity) {
        for (std::uint64_t k = 0; k < chunk; ++k) oracle.pop_front();
        dropped += chunk;
      }
      TelemetryEvent ev;
      ev.word0 = TelemetryEvent::pack0(EventKind::kFiringBatch, /*name_id=*/3,
                                       /*session=*/7);
      ev.begin_ns = next_seq;
      ev.end_ns = next_seq + 1;
      ev.arg0 = next_seq;
      ring.emit(ev);  // must always succeed: emit never blocks, never fails
      oracle.push_back(next_seq++);
    } else {
      TelemetryEvent out;
      const bool got = ring.try_pop(out);
      ASSERT_EQ(got, !oracle.empty()) << "op " << op;
      if (got) {
        EXPECT_EQ(out.arg0, oracle.front()) << "FIFO violated at op " << op;
        EXPECT_EQ(out.kind(), EventKind::kFiringBatch);
        EXPECT_EQ(out.name_id(), 3u);
        EXPECT_EQ(out.session(), 7u);
        oracle.pop_front();
      }
    }
    ASSERT_EQ(ring.size(), oracle.size()) << "op " << op;
    ASSERT_EQ(ring.dropped(), dropped) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventRingModelFuzz,
                         ::testing::Values(0x1u, 0x2u, 0x3u, 0x5eedu, 0xfu,
                                           0xabcdefu, 0x123456789u, 0x42u));

class EventRingConcurrentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventRingConcurrentFuzz, ProducerNeverBlocksConsumerSeesSubsequence) {
  // A producer that outruns the consumer must never block, never spin on
  // a full ring, and never fabricate data: whatever the consumer gets is
  // an untorn strict subsequence of what was emitted, and the books
  // balance exactly — delivered + dropped == emitted, with drops in
  // whole claim chunks.
  const std::uint64_t seed = GetParam();
  common::Rng setup(seed);
  const std::size_t capacity = std::size_t{8} << setup.next_below(4);  // 8..64
  constexpr std::uint64_t kEvents = 60000;
  EventRing ring(capacity);
  const std::uint64_t chunk =
      std::min<std::uint64_t>(EventRing::kDropChunk, capacity);

  std::atomic<bool> done{false};
  std::thread producer([&ring, &done, seed] {
    common::Rng rng(seed ^ 0xBADC0FFEEull);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      TelemetryEvent ev;
      ev.word0 = TelemetryEvent::pack0(
          EventKind::kSteal, static_cast<std::uint16_t>(i & 0xffffu),
          static_cast<std::uint32_t>(i));
      ev.begin_ns = i;
      ev.end_ns = i;
      ev.arg0 = i;
      ev.arg1 = ~i;
      ring.emit(ev);  // unconditionally: a full ring drops, never stalls
      if (rng.next_below(64) == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  common::Rng rng(seed ^ 0xF00Dull);
  std::uint64_t received = 0;
  bool have_prev = false;
  std::uint64_t prev = 0;
  const auto consume_one = [&](const TelemetryEvent& ev) {
    const std::uint64_t i = ev.arg0;
    if (have_prev) {
      ASSERT_GT(i, prev) << "duplicated or reordered event";
    }
    have_prev = true;
    prev = i;
    // Untorn: every word of a delivered event must describe the same i.
    ASSERT_EQ(ev.kind(), EventKind::kSteal);
    ASSERT_EQ(ev.name_id(), static_cast<std::uint16_t>(i & 0xffffu));
    ASSERT_EQ(ev.session(), static_cast<std::uint32_t>(i));
    ASSERT_EQ(ev.begin_ns, i);
    ASSERT_EQ(ev.end_ns, i);
    ASSERT_EQ(ev.arg1, ~i) << "torn read delivered";
    ++received;
  };

  TelemetryEvent out;
  while (!done.load(std::memory_order_acquire)) {
    if (ring.try_pop(out)) {
      consume_one(out);
      if (::testing::Test::HasFatalFailure()) break;
    } else {
      std::this_thread::yield();
    }
    ASSERT_LE(ring.size(), capacity);
    if (rng.next_below(8) == 0) std::this_thread::yield();
  }
  producer.join();
  while (ring.try_pop(out)) {
    consume_one(out);
    if (::testing::Test::HasFatalFailure()) break;
  }

  // Exact conservation: every head advance was either one delivery or one
  // counted claim-drop chunk, so nothing is lost twice or invented.
  EXPECT_EQ(received + ring.dropped(), kEvents);
  EXPECT_EQ(ring.dropped() % chunk, 0u) << "drops not in whole chunks";
  EXPECT_EQ(ring.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventRingConcurrentFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ------------------------------------------- SpscQueue payload recycling

using BytePayload = std::vector<std::uint8_t>;

TEST(SpscRecycle, AcquireHandsBackTheConsumedBufferStorage) {
  runtime::SpscQueue<BytePayload> q(4, /*recycle=*/true);
  BytePayload p(64, 0xAB);
  const std::uint8_t* storage = p.data();
  ASSERT_TRUE(q.try_push(std::move(p)));
  ASSERT_NE(q.front(), nullptr);
  q.pop();
  // The buffer the consumer finished with comes back to the producer —
  // same heap storage, capacity intact, contents whatever the consumer
  // left (the engine clears before reuse).
  BytePayload r = q.acquire();
  EXPECT_EQ(r.data(), storage) << "storage was not recycled";
  EXPECT_GE(r.capacity(), 64u);
  EXPECT_EQ(q.recycle_hits(), 1u);
  // Bank is empty now: the next acquire falls back to a fresh buffer.
  EXPECT_EQ(q.acquire().capacity(), 0u);
  EXPECT_EQ(q.recycle_hits(), 1u);
}

TEST(SpscRecycle, OversizedBuffersAreFreedNotBanked) {
  // One pathological payload must not pin peak-sized storage in the
  // ring for the session's lifetime: above the cap it is freed on pop.
  runtime::SpscQueue<BytePayload> q(2, /*recycle=*/true);
  BytePayload huge;
  huge.reserve(runtime::SpscQueue<BytePayload>::kMaxRecycledCapacity + 1);
  huge.push_back(0x5A);
  ASSERT_TRUE(q.try_push(std::move(huge)));
  q.pop();
  EXPECT_EQ(q.acquire().capacity(), 0u) << "oversized buffer was banked";
  EXPECT_EQ(q.recycle_hits(), 0u);
}

TEST(SpscRecycle, RecyclingOffNeverBanksAndNeverReuses) {
  runtime::SpscQueue<BytePayload> q(2, /*recycle=*/false);
  ASSERT_TRUE(q.try_push(BytePayload(16, 1)));
  q.pop();
  EXPECT_EQ(q.acquire().capacity(), 0u);
  EXPECT_EQ(q.recycle_hits(), 0u);
}

TEST(SpscRecycle, DrainOffersQueuedAndBankedBuffers) {
  runtime::SpscQueue<BytePayload> q(4, /*recycle=*/true);
  BytePayload banked(16, 1), queued(32, 2);
  const std::uint8_t* banked_storage = banked.data();
  const std::uint8_t* queued_storage = queued.data();
  ASSERT_TRUE(q.try_push(std::move(banked)));
  q.pop();  // into the free ring
  ASSERT_TRUE(q.try_push(std::move(queued)));
  std::vector<const std::uint8_t*> offered;
  q.drain([&](BytePayload&& p) {
    if (p.capacity() == 0) return;
    offered.push_back(p.data());
    BytePayload taken = std::move(p);
  });
  EXPECT_EQ(offered.size(), 2u);
  EXPECT_NE(std::find(offered.begin(), offered.end(), banked_storage), offered.end());
  EXPECT_NE(std::find(offered.begin(), offered.end(), queued_storage), offered.end());
}

TEST(SpscRecycle, SteadyStateReusesAFixedBufferSet) {
  // Producer always acquires before pushing: after the warm-up at most
  // `capacity + 1` distinct buffers may circulate, so the set of storage
  // pointers must saturate — the zero-allocation property in miniature.
  constexpr std::size_t kCapacity = 3;
  runtime::SpscQueue<BytePayload> q(kCapacity, /*recycle=*/true);
  std::vector<const std::uint8_t*> seen;
  std::uint64_t tokens = 0;
  for (int round = 0; round < 200; ++round) {
    while (!q.full()) {
      BytePayload buf = q.acquire();
      buf.clear();
      buf.resize(32);
      buf[0] = static_cast<std::uint8_t>(tokens++);
      if (std::find(seen.begin(), seen.end(), buf.data()) == seen.end()) {
        seen.push_back(buf.data());
      }
      ASSERT_TRUE(q.try_push(std::move(buf)));
    }
    while (!q.empty()) q.pop();
  }
  EXPECT_LE(seen.size(), kCapacity + 1)
      << "steady state must cycle a bounded buffer set";
  EXPECT_GT(q.recycle_hits(), 500u);
}

// Concurrent recycle fuzz (TSan target): the free ring crosses the same
// two threads as the data ring, in the opposite direction. Tokens carry
// their index so loss/duplication/reordering is still detected while
// both rings churn.
class SpscRecycleConcurrentFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpscRecycleConcurrentFuzz, BothRingsSurviveRandomInterleavings) {
  const std::uint64_t seed = GetParam();
  common::Rng setup(seed);
  const auto capacity = static_cast<std::size_t>(1 + setup.next_below(7));
  constexpr std::uint64_t kTokens = 10000;
  runtime::SpscQueue<BytePayload> q(capacity, /*recycle=*/true);

  std::thread producer([&q, seed] {
    common::Rng rng(seed ^ 0xBADC0FFEEull);
    std::uint64_t i = 0;
    while (i < kTokens) {
      BytePayload buf = q.acquire();
      buf.clear();
      buf.resize(8);
      for (int b = 0; b < 8; ++b) {
        buf[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(i >> (8 * b));
      }
      while (!q.try_push(std::move(buf))) std::this_thread::yield();
      ++i;
      if (rng.next_below(8) == 0) std::this_thread::yield();
    }
  });

  common::Rng rng(seed ^ 0xF00Dull);
  std::uint64_t expected = 0;
  while (expected < kTokens) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(v->size(), 8u);
      std::uint64_t token = 0;
      for (int b = 0; b < 8; ++b) {
        token |= static_cast<std::uint64_t>((*v)[static_cast<std::size_t>(b)])
                 << (8 * b);
      }
      ASSERT_EQ(token, expected) << "token lost/duplicated/reordered";
      ++expected;
    } else {
      std::this_thread::yield();
    }
    if (rng.next_below(8) == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_LE(q.max_occupancy(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpscRecycleConcurrentFuzz,
                         ::testing::Values(7u, 77u, 777u, 0xACEDu));

// ---------------------------------------- encoder determinism across runs

TEST(Determinism, EncoderBitstreamsReproducible) {
  // Property: everything in the pipeline is deterministic — two fresh
  // encoders over the same synthetic input emit identical bytes.
  const auto run = [] {
    video::EncoderConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.gop_size = 4;
    cfg.rate_control = true;
    video::VideoEncoder enc(cfg);
    const auto scene = video::scene_high_motion(55);
    std::vector<std::uint8_t> all;
    for (int i = 0; i < 8; ++i) {
      const auto e = enc.encode(video::SyntheticVideo::render(64, 64, scene, i));
      all.insert(all.end(), e.bytes.begin(), e.bytes.end());
    }
    return all;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mmsoc
