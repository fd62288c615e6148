#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/snapshot.hpp"

namespace tero::serve {

/// RCU-style snapshot publication: readers grab the current snapshot (a
/// refcount bump under a mutex held for two pointer writes) and keep using
/// it for as long as they hold the pointer — every query after that runs
/// lock-free against the immutable snapshot; writers build the next epoch
/// off to the side and install it with one pointer swap. No reader ever
/// observes a half-built snapshot and no epoch is freed while a reader
/// still holds it (shared_ptr refcount is the grace period).
///
/// The pointer slot is guarded by a plain mutex rather than
/// std::atomic<shared_ptr> deliberately: libstdc++ 12's _Sp_atomic unlocks
/// its reader-side spinlock with memory_order_relaxed, so the internal raw
/// pointer accesses have no formal happens-before edge and TSan (correctly,
/// per the ISO model) reports them as a race. The mutex is uncontended
/// outside of publish and its critical section is tiny.
///
/// Epoch numbers increase monotonically from 1; epoch 0 means "nothing
/// published yet" (current() returns null until the first publish).
class EpochPublisher {
 public:
  EpochPublisher() = default;
  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  /// The latest published snapshot; null before the first publish. Safe to
  /// call from any thread at any time.
  [[nodiscard]] SnapshotPtr current() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Latest published epoch number; 0 before the first publish.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Reserve the next epoch number for a snapshot the caller builds and
  /// then installs with publish(SnapshotPtr). Every call returns a distinct
  /// number.
  [[nodiscard]] std::uint64_t next_epoch() noexcept {
    return next_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Build a snapshot from `entries` under the next epoch number and install
  /// it. Returns the new epoch. Publishers may race; each gets a distinct
  /// epoch but only the last installer wins the pointer (see publish()).
  std::uint64_t publish(std::vector<SnapshotEntry> entries);

  /// Install an externally built snapshot (e.g. one restored from disk).
  /// The snapshot's own epoch is preserved and becomes the published epoch.
  void publish(SnapshotPtr snapshot);

 private:
  std::atomic<std::uint64_t> next_epoch_{1};
  std::atomic<std::uint64_t> published_epoch_{0};
  mutable std::mutex mutex_;  // guards current_
  SnapshotPtr current_;
};

}  // namespace tero::serve
