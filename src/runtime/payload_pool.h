// Bounded payload buffer pool for the I/O boundary.
//
// The engine's per-edge free-list rings (SpscQueue recycling) cover the
// graph-interior data plane, but boundary adapters copy payloads across
// the engine/device frontier: an AsyncSink banks a copy of each unit for
// its I/O thread, an AsyncSource retires the unit buffer its endpoint
// produced. Those buffers cross *threads* (worker <-> I/O pool), so the
// wait-free ring discipline does not apply — this pool is the fallback:
// a small mutex-guarded stack of retired buffers. acquire() hands back a
// cleared buffer with warmed-up capacity (or a fresh empty one when the
// pool is dry); release() banks a buffer up to the bound and drops the
// surplus, so the pool can never hoard memory. The mutex is fine here:
// the boundary runs per *unit* (per frame), not per engine firing, and
// the same adapters already take their own mutex per unit.
//
// Frame-journey note: pooled buffers carry *bytes only* — recycling
// deliberately erases any association between a buffer and the unit it
// last held. Unit identity and timing for the tracing layer travel in
// the channel-slot ledgers (SpscQueue::stamp_next/front_ledger) and the
// AsyncSource origin stamps, never with the storage, so buffer reuse
// can't alias one unit's journey onto another's.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "mpsoc/taskgraph.h"
#include "runtime/queue.h"

namespace mmsoc::runtime {

class PayloadPool {
 public:
  /// `capacity`: most buffers banked at once (excess releases are freed).
  explicit PayloadPool(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// A cleared buffer: pooled (capacity warm) when one is banked, fresh
  /// otherwise.
  [[nodiscard]] mpsoc::Payload acquire() {
    std::lock_guard lock(mu_);
    ++stats_.acquired;
    if (free_.empty()) {
      ++stats_.misses;
      return {};
    }
    ++stats_.reused;
    mpsoc::Payload out = std::move(free_.back());
    free_.pop_back();
    out.clear();
    return out;
  }

  /// Pooled buffers keep their high-water capacity (that is the reuse),
  /// but one pathological unit must not pin peak-sized storage forever:
  /// buffers above this capacity are freed on release(). Shares the
  /// channel free rings' cap so the interior data plane and the I/O
  /// boundary enforce one consistent memory bound.
  static constexpr std::size_t kMaxBankedCapacity =
      SpscQueue<mpsoc::Payload>::kMaxRecycledCapacity;

  /// Bank a finished buffer's storage for a later acquire(). Buffers
  /// beyond the bound, above the per-buffer capacity cap, or with no
  /// storage to save are simply freed.
  void release(mpsoc::Payload&& payload) {
    std::lock_guard lock(mu_);
    ++stats_.released;
    if (payload.capacity() == 0 || payload.capacity() > kMaxBankedCapacity ||
        free_.size() >= capacity_) {
      ++stats_.dropped;
      return;
    }
    free_.push_back(std::move(payload));
  }

  struct Stats {
    std::uint64_t acquired = 0;  ///< acquire() calls
    std::uint64_t reused = 0;    ///< acquires served from the pool
    std::uint64_t misses = 0;    ///< acquires that fell back to a fresh buffer
    std::uint64_t released = 0;  ///< release() calls
    std::uint64_t dropped = 0;   ///< releases freed (pool full / no storage)
  };
  [[nodiscard]] Stats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return free_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<mpsoc::Payload> free_;
  Stats stats_;
};

/// Channel buffers of destroyed engines, banked process-wide for the
/// cold start of later sessions.
///
/// A session's channels start empty: until each edge's free ring warms
/// up, bodies size their outputs from scratch on whichever worker fires
/// them, in that thread's malloc arena. Freed with their engine, those
/// buffers sat in arenas that glibc hands to whatever threads start
/// next, so a caller that builds an engine per batch faulted in fresh
/// pages every batch, and its footprint swung with which stale arenas
/// the new workers drew. Instead ~Engine restocks the bank with its
/// channel buffers, and a body whose recycled output is too small takes
/// the best-fitting one (take_for).
///
/// The bank keeps at most the most bytes bodies ever asked it for
/// between two restocks (capped at kMaxBankedBytes), and only buffers
/// take_for would hand to a size asked for since the last restock:
/// buffers no body takes are freed, not hoarded. A
/// restock banks the retiring engine's buffers first; what the previous
/// one banked and no body took fills the rest of the budget and is
/// freed past it. The index is reserved up front: banking and taking
/// allocate nothing.
class SparePayloads {
 public:
  /// The bank every engine and pipeline body of this process shares.
  static SparePayloads& process() {
    static SparePayloads bank;
    return bank;
  }

  static constexpr std::size_t kMaxBankedBytes = 64u << 20;  // 64 MiB
  static constexpr std::size_t kMaxBankedBuffers = 1024;

  SparePayloads() {
    bank_.reserve(kMaxBankedBuffers);
    held_.reserve(kMaxBankedBuffers);
  }

  /// Restock from a retiring engine: `each(bank)` must call `bank` with
  /// every buffer on offer. bank(p) moves `p` in while it fits the budget
  /// and leaves it with the caller otherwise.
  template <typename Each>
  void restock(Each&& each) {
    std::lock_guard lock(mu_);
    budget_ = std::min(kMaxBankedBytes, std::max(budget_, asked_));
    asked_ = 0;
    bank_.swap(held_);
    bytes_ = 0;
    const auto bank = [this](mpsoc::Payload&& p) {
      const std::size_t cap = p.capacity();
      if (cap == 0 || cap > PayloadPool::kMaxBankedCapacity ||
          bytes_ + cap > budget_ || bank_.size() == kMaxBankedBuffers ||
          !wanted(cap)) {
        return;
      }
      bytes_ += cap;
      bank_.insert(std::upper_bound(bank_.begin(), bank_.end(), cap, by_cap),
                   std::move(p));
    };
    each(bank);
    for (mpsoc::Payload& p : held_) bank(std::move(p));
    held_.clear();
    n_sizes_ = 0;
  }

  /// If `out` holds less than `bytes` of capacity, replace it with the
  /// smallest banked buffer of at least `bytes` and at most twice that
  /// (a small output never pins a frame-sized buffer), cleared. Leaves
  /// `out` as it was when nothing fits.
  void take_for(mpsoc::Payload& out, std::size_t bytes) {
    if (out.capacity() >= bytes) return;
    mpsoc::Payload old;  // freed after the unlock
    {
      std::lock_guard lock(mu_);
      asked_ += bytes;
      if (n_sizes_ <= sizes_.size() &&
          std::find(sizes_.begin(), sizes_.begin() + n_sizes_, bytes) ==
              sizes_.begin() + n_sizes_) {
        if (n_sizes_ < sizes_.size()) sizes_[n_sizes_] = bytes;
        ++n_sizes_;  // past the array: every size counts as asked for
      }
      const auto it = std::lower_bound(
          bank_.begin(), bank_.end(), bytes,
          [](const mpsoc::Payload& p, std::size_t b) { return p.capacity() < b; });
      if (it == bank_.end() || it->capacity() / 2 > bytes) return;
      bytes_ -= it->capacity();
      old = std::exchange(out, std::move(*it));
      bank_.erase(it);
    }
    out.clear();
  }

  [[nodiscard]] std::size_t banked_bytes() const {
    std::lock_guard lock(mu_);
    return bytes_;
  }

 private:
  static bool by_cap(std::size_t cap, const mpsoc::Payload& p) {
    return cap < p.capacity();
  }

  // Would take_for hand a buffer of capacity `cap` to a size asked for?
  [[nodiscard]] bool wanted(std::size_t cap) const {
    if (n_sizes_ > sizes_.size()) return true;
    return std::any_of(sizes_.begin(), sizes_.begin() + n_sizes_,
                       [cap](std::size_t b) { return b <= cap && cap / 2 <= b; });
  }

  mutable std::mutex mu_;
  std::vector<mpsoc::Payload> bank_;  // ascending capacity
  std::vector<mpsoc::Payload> held_;  // the previous bank, during a restock
  std::size_t bytes_ = 0;             // capacity banked
  std::size_t asked_ = 0;   // bytes take_for was asked for since restock
  std::size_t budget_ = 0;  // high-water of asked_ at restock
  std::array<std::size_t, 32> sizes_{};  // distinct sizes asked for
  std::size_t n_sizes_ = 0;
};

}  // namespace mmsoc::runtime
