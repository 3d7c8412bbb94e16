// The repo's one blessed locking vocabulary: an annotated Mutex, an RAII
// MutexLock, and a CondVar that waits on a Mutex. Everything concurrent in
// the tree locks through these three types — tools/graphite_lint.py
// rejects raw std::mutex / std::lock_guard / std::condition_variable
// anywhere else — so Clang's -Wthread-safety analysis (see
// util/thread_annotations.h) can verify the whole tree's lock discipline
// at compile time: guarded members, REQUIRES contracts, scoped
// acquire/release. Under GCC the annotations vanish and this is a
// zero-cost veneer over the std primitives.
//
// Condition waits are written as explicit loops at the call site,
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(mu_);
//
// rather than predicate lambdas: the analysis checks the guarded reads in
// the loop condition against the held capability, which a lambda body
// (analyzed as a separate function) would defeat.
#ifndef GRAPHITE_UTIL_MUTEX_H_
#define GRAPHITE_UTIL_MUTEX_H_

#include <condition_variable>  // lint:allow(mutex: the wrapped primitives)
#include <mutex>               // lint:allow(mutex: the wrapped primitives)

#include "util/thread_annotations.h"

namespace graphite {

/// Annotated exclusive lock. Prefer MutexLock over manual Lock/Unlock.
class GRAPHITE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GRAPHITE_ACQUIRE() { mu_.lock(); }
  void Unlock() GRAPHITE_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;  // lint:allow(mutex: the one wrapped instance)
};

/// RAII scoped lock over Mutex (the std::lock_guard shape, annotated so
/// the analysis knows the capability is held for the scope's extent).
class GRAPHITE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GRAPHITE_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() GRAPHITE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex at each Wait. Waiters must hold the
/// Mutex; Wait atomically releases it, blocks, and reacquires before
/// returning — invisible to the analysis, which (correctly) still
/// considers the capability held across the call, so guarded state read
/// in the re-checked loop condition type-checks.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One shot of the wait loop: unlock, block until notified, relock.
  /// Spurious wakeups happen — always re-check the condition in a loop.
  void Wait(Mutex& mu) GRAPHITE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock without unlocking: ownership stays with the caller's
    // MutexLock, exactly as the annotations describe.
    std::unique_lock<std::mutex> native(  // lint:allow(mutex: adapter)
        mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // lint:allow(mutex: the wrapped primitive)
};

}  // namespace graphite

#endif  // GRAPHITE_UTIL_MUTEX_H_
