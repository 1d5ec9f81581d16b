// Bounded queues for the dataflow runtime.
//
// SpscQueue is the inter-task channel primitive: each task-graph edge has
// exactly one producer task and one consumer task, and every task is
// owned by exactly one worker thread, so single-producer/single-consumer
// holds by construction. The ring uses only two atomics (classic
// Lamport), giving wait-free push/pop without locks — the queue *is* the
// back-pressure: a full ring stalls the producer task, never grows. An
// optional free-list ring flows consumed buffers back to the producer
// (same protocol, opposite direction), making the steady-state data
// plane allocation-free.
//
// MpmcQueue trades the lock-free property for generality (any number of
// producers/consumers, blocking semantics, close()). The engine itself
// coordinates purely via SpscQueue + park/notify; MpmcQueue is the
// building block for the planned asynchronous boundary tasks (net/fs
// sources and sinks feeding a running engine — see ROADMAP).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace mmsoc::runtime {

/// Per-unit frame-journey stamp carried alongside a channel element (see
/// README "Observability"). `origin_ns` is when the unit entered the
/// pipeline (I/O ingress completion or first-task firing); `enqueue_ns`
/// is when the producing stage finished the firing that pushed this
/// element — the consumer's queue-wait for the unit is its own firing
/// start minus enqueue_ns. Zero-initialised slots mean "not stamped"
/// (sampling skipped this unit).
struct UnitLedger {
  std::uint64_t origin_ns = 0;
  std::uint64_t enqueue_ns = 0;
};

/// Bounded single-producer/single-consumer ring buffer.
///
/// One thread may call the producer side (try_push / full / acquire),
/// one thread the consumer side (front / pop / try_pop / empty). size()
/// (and so empty()/full()) is exact from the owning threads; from any
/// other thread it is a racy snapshot (head and tail are read
/// separately) and must be treated as approximate. max_occupancy() is
/// exact once the producer has quiesced.
///
/// Payload recycling (opt-in): with `recycle` set, pop() does not
/// destroy the consumed element — it moves it into a second, equally
/// bounded free-list ring flowing the *opposite* way, and the producer
/// reclaims it with acquire(). For heap-backed T (mpsoc::Payload =
/// std::vector<uint8_t>) the element's storage therefore circulates
/// producer -> consumer -> producer forever: after a warm-up of at most
/// `capacity` allocations per edge, the steady-state data plane
/// allocates nothing. The free ring can never overflow (at most
/// `capacity` buffers are ever in flight), and if the producer ignores
/// acquire() the ring simply sits full while pop() destroys the surplus
/// — recycling is an optimization, never a correctness dependency.
/// Unit tracing (opt-in): with `track_ledgers` set the queue keeps a
/// parallel per-slot UnitLedger array. The producer stamps the *next*
/// slot with stamp_next() immediately before try_push(); because the
/// stamp lands before try_push's tail release store, the consumer's
/// acquire load of tail_ makes front_ledger() race-free under the same
/// Lamport pairing that covers the element itself. Unstamped slots may
/// hold a stale ledger from a previous lap — consumers must only read
/// ledgers for units they know were stamped (the engine's sampling rule
/// is locally computable from the iteration index, so producer and
/// consumer always agree).
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity, bool recycle = false,
                     bool track_ledgers = false)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(capacity_ + 1),  // one empty slot distinguishes full/empty
        recycle_(recycle) {
    if (recycle_) free_slots_.resize(capacity_ + 1);
    if (track_ledgers) ledgers_.resize(capacity_ + 1);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] std::size_t size() const noexcept {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return t >= h ? t - h : slots_.size() - (h - t);
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] bool full() const noexcept { return size() == capacity_; }

  /// Highest size() ever observed by the producer after a push — lets the
  /// back-pressure tests prove occupancy never exceeded capacity.
  [[nodiscard]] std::size_t max_occupancy() const noexcept {
    return max_occupancy_.load(std::memory_order_relaxed);
  }

  /// Producer side. False when the ring is full (back-pressure).
  bool try_push(T&& value) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t next = advance(t);
    if (next == head_.load(std::memory_order_acquire)) return false;
    slots_[t] = std::move(value);
    tail_.store(next, std::memory_order_release);
    const std::size_t occ = size();
    if (occ > max_occupancy_.load(std::memory_order_relaxed)) {
      max_occupancy_.store(occ, std::memory_order_relaxed);
    }
    return true;
  }

  /// Consumer side: the oldest element, or nullptr when empty. The
  /// pointer stays valid until the matching pop().
  [[nodiscard]] T* front() noexcept {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return nullptr;
    return &slots_[h];
  }

  /// True when the queue was built with per-slot unit ledgers.
  [[nodiscard]] bool tracks_ledgers() const noexcept {
    return !ledgers_.empty();
  }

  /// Producer side: stamp the slot the *next* try_push() will fill. Call
  /// immediately before try_push; the tail release store publishes both
  /// the element and the stamp. No-op when ledgers are off. If the push
  /// then fails (ring full) the stamp is simply overwritten by the next
  /// attempt — nothing is published.
  void stamp_next(const UnitLedger& ledger) noexcept {
    if (ledgers_.empty()) return;
    ledgers_[tail_.load(std::memory_order_relaxed)] = ledger;
  }

  /// Consumer side: ledger of the oldest element (front() must be valid,
  /// ledgers must be on). Only meaningful for units the producer stamped.
  [[nodiscard]] const UnitLedger& front_ledger() const noexcept {
    return ledgers_[head_.load(std::memory_order_relaxed)];
  }

  /// Recycled buffers deliberately stay at their high-water capacity —
  /// that is what makes steady-state refills allocation-free — but one
  /// pathological payload must not pin peak-sized storage in the ring
  /// for the session's lifetime: buffers above this capacity are freed
  /// on pop() instead of banked (only meaningful for element types with
  /// a capacity(); scalars are never oversized).
  static constexpr std::size_t kMaxRecycledCapacity = 4u << 20;  // 4 MiB

  /// Consumer side: discard the oldest element (front() must be valid).
  /// In recycle mode the element's storage is handed back to the
  /// producer through the free ring instead of being destroyed.
  void pop() noexcept {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (recycle_ && !oversized(slots_[h])) {
      const std::size_t t = free_tail_.load(std::memory_order_relaxed);
      const std::size_t next = advance(t);
      if (next != free_head_.load(std::memory_order_acquire)) {
        free_slots_[t] = std::move(slots_[h]);
        free_tail_.store(next, std::memory_order_release);
      }
    }
    slots_[h] = T{};  // release (or detach moved-from) storage eagerly
    head_.store(advance(h), std::memory_order_release);
  }

  /// Producer side: reclaim a buffer the consumer finished with, or T{}
  /// when none is banked yet (cold start / recycling off). The returned
  /// object keeps whatever state the consumer left; for payloads the
  /// caller clears it and reuses the capacity.
  [[nodiscard]] T acquire() {
    if (!recycle_) return T{};
    const std::size_t h = free_head_.load(std::memory_order_relaxed);
    if (h == free_tail_.load(std::memory_order_acquire)) return T{};
    T out = std::move(free_slots_[h]);
    free_head_.store(advance(h), std::memory_order_release);
    recycle_hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  /// Successful acquire() reclaims — how often the producer reused a
  /// consumed buffer instead of allocating. Exact once quiesced.
  [[nodiscard]] std::uint64_t recycle_hits() const noexcept {
    return recycle_hits_.load(std::memory_order_relaxed);
  }

  /// Consumer side: discard everything currently buffered. Used by
  /// session cancellation to unblock a back-pressured producer without
  /// handing the tokens to a dead consumer. Safe against a concurrent
  /// producer; the ring may be non-empty again afterwards if the
  /// producer kept pushing.
  void clear() noexcept {
    while (front() != nullptr) pop();
  }

  /// Offer every element still held — queued or banked in the free
  /// ring — to `sink` as an rvalue; the sink may move it out. Teardown
  /// only: both sides must have quiesced.
  template <typename Sink>
  void drain(Sink&& sink) {
    for (T& v : slots_) sink(std::move(v));
    for (T& v : free_slots_) sink(std::move(v));
  }

  /// Consumer side: move out the oldest element if any.
  std::optional<T> try_pop() {
    T* f = front();
    if (f == nullptr) return std::nullopt;
    std::optional<T> out(std::move(*f));
    pop();
    return out;
  }

 private:
  [[nodiscard]] std::size_t advance(std::size_t i) const noexcept {
    return i + 1 == slots_.size() ? 0 : i + 1;
  }

  [[nodiscard]] static bool oversized(const T& v) noexcept {
    if constexpr (requires(const T& u) { u.capacity(); }) {
      return v.capacity() > kMaxRecycledCapacity;
    } else {
      return false;
    }
  }

  std::size_t capacity_;
  std::vector<T> slots_;
  bool recycle_;
  /// Reverse free ring: consumer pushes consumed buffers (free_tail_),
  /// producer reclaims them (free_head_). Same Lamport protocol as the
  /// data ring, roles swapped. Sized slots_ + 1 so it can bank every
  /// buffer that can possibly be in flight.
  std::vector<T> free_slots_;
  /// Parallel per-slot unit stamps (empty when tracing is off). Written
  /// by the producer before the tail release store, read by the consumer
  /// after the tail acquire load — covered by the data ring's protocol.
  std::vector<UnitLedger> ledgers_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> free_head_{0};
  alignas(64) std::atomic<std::size_t> free_tail_{0};
  alignas(64) std::atomic<std::size_t> max_occupancy_{0};
  std::atomic<std::uint64_t> recycle_hits_{0};
};

/// Bounded multi-producer/multi-consumer queue (mutex + condvars).
/// close() wakes all waiters; pop() then drains the backlog and finally
/// returns nullopt.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocking push; false if the queue was closed.
  bool push(T value) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T value) {
    std::lock_guard lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt once closed *and* drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.erase(items_.begin());
    not_full_.notify_one();
    return out;
  }

  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.erase(items_.begin());
    not_full_.notify_one();
    return out;
  }

  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> items_;
  bool closed_ = false;
};

}  // namespace mmsoc::runtime
