// Frontier policies of the exploration core.
//
// Every engine in this repository is a loop over (frontier, visited set,
// proviso): pop a work item, expand it, admit successors. The engines used
// to own four private frontier implementations; this header is the single
// one they all consume now:
//
//   * FifoFrontier<T>       — plain FIFO. Breadth-first orders (witness
//     search wants shortest schedules) and the absem fixpoint worklist.
//   * WorkStealingFrontier<T> — the parallel engine's frontier. Per-worker
//     Chase–Lev-style deques: the owner pushes and pops at the back (LIFO,
//     depth-first-ish locality), thieves take a batch of half the victim's
//     items from the front (the oldest, widest subtrees). Each deque has
//     its own mutex — the owner's fast path contends only with an active
//     thief on the same deque, never with the rest of the pool (the old
//     engine funneled every push and pop through one global mutex).
//
// Work-stealing termination protocol (active count + empty rounds): a
// worker is *active* from the moment it claims an item until done() — an
// active worker may still push, so an empty pool does not mean finished.
// A worker that completes an empty round (local pop failed, every victim
// empty) goes idle on a condition variable; exploration terminates when
// the pool is empty and no worker is active. Pushes wake idle workers only
// when someone is actually idle, so the hot path stays condvar-free.
//
// Counters (per worker, merged by the engine into the StatRegistry):
// steals / stolen_items measure how much the pool rebalanced,
// steal_misses counts empty rounds (workers starving), and contention
// counts mutex acquisitions that had to wait. See docs/PARALLEL.md for how
// to read them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/support/telemetry.h"

namespace copar::explore {

/// Plain FIFO frontier (breadth-first exploration order).
template <typename T>
class FifoFrontier {
 public:
  void push(T item) { items_.push_back(std::move(item)); }

  std::optional<T> pop() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

 private:
  std::deque<T> items_;
};

/// Per-worker frontier statistics (merged into the engine's StatRegistry).
struct FrontierCounters {
  std::uint64_t steals = 0;        // successful steal operations
  std::uint64_t stolen_items = 0;  // items moved by those steals
  std::uint64_t steal_misses = 0;  // empty rounds (local + every victim dry)
  std::uint64_t contention = 0;    // deque mutex acquisitions that blocked
};

template <typename T>
class WorkStealingFrontier {
 public:
  explicit WorkStealingFrontier(unsigned workers)
      : deques_(workers), counters_(workers) {
    for (auto& d : deques_) d = std::make_unique<Deque>();
  }

  /// Enqueues onto `worker`'s own deque (back / LIFO end).
  void push(unsigned worker, T&& item) {
    Deque& d = *deques_[worker];
    {
      std::unique_lock lock(d.mu, std::try_to_lock);
      if (!lock.owns_lock()) {
        counters_[worker].contention += 1;
        lock.lock();
      }
      d.items.push_back(std::move(item));
    }
    size_.fetch_add(1);
    // size_/idle_/active_ stay seq_cst: the pusher's "anyone idle?" check
    // races against an idler's "any work?" predicate (Dekker pattern), and
    // weaker orders could let both read stale zeros — a lost wakeup.
    if (idle_.load() > 0) {
      // Empty critical section: pairs the notify with the waiter's
      // predicate check so a wakeup between check and sleep is not lost.
      { const std::scoped_lock lock(idle_mu_); }
      idle_cv_.notify_one();
    }
  }

  /// Claims an item: local LIFO pop, then a steal round over the victims,
  /// then idle wait. Returns nullopt exactly when the exploration has
  /// terminated (pool empty, no active worker) or abort() was called.
  /// A successful pop marks the caller active; pair it with done().
  std::optional<T> pop(unsigned worker) {
    for (;;) {
      if (aborted_.load()) return std::nullopt;
      // Active before claiming: once this worker might hold the last item,
      // no other worker may observe "empty pool, nobody active".
      active_.fetch_add(1);
      if (auto item = pop_local(worker)) return item;
      if (auto item = steal(worker)) return item;
      active_.fetch_sub(1);
      counters_[worker].steal_misses += 1;

      std::unique_lock lock(idle_mu_);
      idle_.fetch_add(1);
      idle_cv_.wait(lock, [&] {
        return size_.load() > 0 ||
               active_.load() == 0 ||
               aborted_.load();
      });
      idle_.fetch_sub(1);
      if (aborted_.load() ||
          (size_.load() == 0 &&
           active_.load() == 0)) {
        lock.unlock();
        idle_cv_.notify_all();  // cascade termination to the other sleepers
        return std::nullopt;
      }
    }
  }

  /// Marks the expansion of the last popped item finished.
  void done(unsigned /*worker*/) {
    active_.fetch_sub(1);
    if (size_.load() == 0 &&
        active_.load() == 0) {
      { const std::scoped_lock lock(idle_mu_); }
      idle_cv_.notify_all();
    }
  }

  /// Wakes every worker and makes all subsequent pops return nullopt
  /// (error propagation path).
  void abort() {
    aborted_.store(true);
    { const std::scoped_lock lock(idle_mu_); }
    idle_cv_.notify_all();
  }

  [[nodiscard]] const FrontierCounters& counters(unsigned worker) const {
    return counters_[worker];
  }

  /// Queued items across all deques (approximate while workers run; the
  /// progress heartbeat and the sampler read it as the frontier gauge).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(size_.load(std::memory_order_relaxed));
  }

 private:
  struct Deque {
    std::mutex mu;
    std::deque<T> items;
  };

  std::optional<T> pop_local(unsigned worker) {
    Deque& d = *deques_[worker];
    std::unique_lock lock(d.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      counters_[worker].contention += 1;
      lock.lock();
    }
    if (d.items.empty()) return std::nullopt;
    T item = std::move(d.items.back());
    d.items.pop_back();
    size_.fetch_sub(1);
    return item;
  }

  /// One round over the victims (rotating order starting after the thief).
  /// Takes half of the first non-empty victim's items from the front; the
  /// oldest item is returned, the rest land on the thief's own deque. At
  /// most one deque mutex is held at a time (no lock-order cycles between
  /// two workers stealing from each other).
  std::optional<T> steal(unsigned worker) {
    const unsigned n = static_cast<unsigned>(deques_.size());
    for (unsigned k = 1; k < n; ++k) {
      Deque& victim = *deques_[(worker + k) % n];
      std::vector<T> batch;
      {
        std::unique_lock lock(victim.mu, std::try_to_lock);
        if (!lock.owns_lock()) {
          counters_[worker].contention += 1;
          lock.lock();
        }
        if (victim.items.empty()) continue;
        const std::size_t take = (victim.items.size() + 1) / 2;
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(victim.items.front()));
          victim.items.pop_front();
        }
      }
      counters_[worker].steals += 1;
      counters_[worker].stolen_items += batch.size();
      {
        auto& tel = telemetry::Telemetry::global();
        if (tel.live_enabled()) tel.add_live(telemetry::Gauge::Steals, 1);
        if (tel.trace_enabled()) tel.record_instant("steal");
      }
      T item = std::move(batch.front());
      size_.fetch_sub(1);
      if (batch.size() > 1) {
        Deque& own = *deques_[worker];
        const std::scoped_lock lock(own.mu);
        for (std::size_t i = 1; i < batch.size(); ++i) {
          own.items.push_back(std::move(batch[i]));
        }
      }
      return item;
    }
    return std::nullopt;
  }

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<FrontierCounters> counters_;
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint32_t> active_{0};
  std::atomic<std::uint32_t> idle_{0};
  std::atomic<bool> aborted_{false};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

}  // namespace copar::explore
