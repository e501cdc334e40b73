#ifndef WAVEBATCH_UTIL_EPOCH_PTR_H_
#define WAVEBATCH_UTIL_EPOCH_PTR_H_

#include <memory>
#include <mutex>
#include <utility>

namespace wavebatch {

/// Publication slot for an immutable, epoch-swapped snapshot — the
/// pin-once-per-call idiom behind the versioned coefficient plane's read
/// snapshot.
///
/// The protocol: a writer builds a fully-formed immutable object off to the
/// side and installs it with Store() (or Exchange()); readers Pin() the
/// current snapshot once per logical operation and use only that pinned
/// object for the operation's duration. Because snapshots are immutable and
/// shared_ptr-owned, a swap can never tear a read — in-flight operations
/// keep the snapshot they pinned alive, new operations see the successor,
/// and the last pin to drop frees the old snapshot.
///
/// The slot itself is a mutex-guarded shared_ptr copy: one uncontended lock
/// per Pin(), no atomics on the hot data, and no reliance on
/// atomic<shared_ptr> support. Pin() may return null when nothing has been
/// published yet (callers treat "no snapshot" as their pre-publication fast
/// path).
template <typename T>
class EpochPtr {
 public:
  EpochPtr() = default;
  explicit EpochPtr(std::shared_ptr<const T> initial)
      : ptr_(std::move(initial)) {}

  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  /// Pins the current snapshot (null if none published). The returned
  /// pointer stays valid — and its object immutable — for as long as the
  /// caller holds it, regardless of concurrent Store() calls.
  std::shared_ptr<const T> Pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  /// Publishes `next` as the new snapshot. Readers that already pinned the
  /// predecessor are unaffected.
  void Store(std::shared_ptr<const T> next) {
    std::lock_guard<std::mutex> lock(mu_);
    ptr_ = std::move(next);
  }

  /// Publishes `next` and returns the snapshot it replaced.
  std::shared_ptr<const T> Exchange(std::shared_ptr<const T> next) {
    std::lock_guard<std::mutex> lock(mu_);
    ptr_.swap(next);
    return next;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> ptr_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_UTIL_EPOCH_PTR_H_
