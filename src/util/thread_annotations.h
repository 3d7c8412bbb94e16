// Clang thread-safety-analysis attribute macros (no-ops elsewhere).
//
// These let the compiler *prove* the lock discipline the concurrent
// classes (engine/thread_pool.h, src/server/) otherwise only promise in
// comments: a member declared GRAPHITE_GUARDED_BY(mu_) may only be touched
// while mu_ is held, a function annotated GRAPHITE_REQUIRES(mu_) may only
// be called with mu_ held, and a scoped lock type (util/mutex.h) tells the
// analysis where capabilities are acquired and released. Under Clang the
// analysis runs as part of normal compilation via -Wthread-safety (added
// automatically by the top-level CMakeLists.txt; promoted to an error by
// the GRAPHITE_WERROR knob). GCC has no such analysis, so every macro
// expands to nothing there and the annotated code compiles unchanged.
//
// Naming follows the "capability" vocabulary of the Clang docs
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), prefixed
// GRAPHITE_ to stay out of other headers' way.
#ifndef GRAPHITE_UTIL_THREAD_ANNOTATIONS_H_
#define GRAPHITE_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define GRAPHITE_THREAD_ATTR_(x) __attribute__((x))
#else
#define GRAPHITE_THREAD_ATTR_(x)  // GCC/MSVC: no analysis, no attribute.
#endif

/// Declares a type to be a capability ("mutex" in diagnostics).
#define GRAPHITE_CAPABILITY(x) GRAPHITE_THREAD_ATTR_(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define GRAPHITE_SCOPED_CAPABILITY GRAPHITE_THREAD_ATTR_(scoped_lockable)

/// Data member readable/writable only while the given lock is held.
#define GRAPHITE_GUARDED_BY(x) GRAPHITE_THREAD_ATTR_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given lock.
#define GRAPHITE_PT_GUARDED_BY(x) GRAPHITE_THREAD_ATTR_(pt_guarded_by(x))

/// Function callable only while holding the given lock(s).
#define GRAPHITE_REQUIRES(...) \
  GRAPHITE_THREAD_ATTR_(requires_capability(__VA_ARGS__))

/// Function callable only while holding the lock(s) in shared mode.
#define GRAPHITE_REQUIRES_SHARED(...) \
  GRAPHITE_THREAD_ATTR_(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the capability and holds it on return.
#define GRAPHITE_ACQUIRE(...) \
  GRAPHITE_THREAD_ATTR_(acquire_capability(__VA_ARGS__))

/// Function that releases the capability.
#define GRAPHITE_RELEASE(...) \
  GRAPHITE_THREAD_ATTR_(release_capability(__VA_ARGS__))

/// Function callable only while NOT holding the given lock(s).
#define GRAPHITE_EXCLUDES(...) \
  GRAPHITE_THREAD_ATTR_(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held (no acquire/release).
#define GRAPHITE_ASSERT_CAPABILITY(x) \
  GRAPHITE_THREAD_ATTR_(assert_capability(x))

/// Function returning a reference to the given capability.
#define GRAPHITE_RETURN_CAPABILITY(x) \
  GRAPHITE_THREAD_ATTR_(lock_returned(x))

/// Escape hatch: the function's locking is deliberately invisible to the
/// analysis (e.g. CondVar::Wait, which unlocks and relocks internally).
#define GRAPHITE_NO_THREAD_SAFETY_ANALYSIS \
  GRAPHITE_THREAD_ATTR_(no_thread_safety_analysis)

#endif  // GRAPHITE_UTIL_THREAD_ANNOTATIONS_H_
