#include "serve/epoch.hpp"

#include <utility>

namespace tero::serve {

std::uint64_t EpochPublisher::publish(std::vector<SnapshotEntry> entries) {
  const std::uint64_t epoch = next_epoch();
  publish(std::make_shared<const Snapshot>(epoch, std::move(entries)));
  return epoch;
}

void EpochPublisher::publish(SnapshotPtr snapshot) {
  const std::uint64_t epoch = snapshot != nullptr ? snapshot->epoch() : 0;
  {
    // Drop the previous snapshot's refcount outside the lock: if we hold the
    // last reference, its destruction should not extend the critical section.
    SnapshotPtr previous;
    const std::lock_guard<std::mutex> lock(mutex_);
    previous = std::exchange(current_, std::move(snapshot));
  }
  published_epoch_.store(epoch, std::memory_order_release);
  // Keep next_epoch_ ahead of any externally assigned epoch (restored
  // snapshots carry their original number).
  std::uint64_t next = next_epoch_.load(std::memory_order_relaxed);
  while (next <= epoch && !next_epoch_.compare_exchange_weak(
                              next, epoch + 1, std::memory_order_relaxed)) {
  }
}

}  // namespace tero::serve
