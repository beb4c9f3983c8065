// Copyright 2026 The gpssn Authors.
//
// The capability-annotated synchronization layer: every mutex and condition
// variable in the library lives behind these wrappers, which carry Clang
// Thread-Safety-Analysis attributes so a wrong lock discipline is a BUILD
// ERROR under -Wthread-safety (cmake -DGPSSN_THREAD_SAFETY=ON, preset
// "tsa"), not a flaky TSAN stress failure. On non-Clang compilers every
// attribute expands to nothing and the wrappers compile down to the plain
// std primitives they hold — zero runtime cost either way.
//
// Vocabulary (see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//
//   * Mutex      — an exclusive capability (wraps std::mutex).
//   * MutexLock  — scoped exclusive hold of a Mutex.
//   * CondVar    — condition variable whose Wait() REQUIRES the Mutex.
//
// Annotate the protected state, not the call sites:
//
//   Mutex mu_;
//   std::vector<Task> queue_ GPSSN_GUARDED_BY(mu_);
//   void Push(Task t) GPSSN_EXCLUDES(mu_) {
//     MutexLock lock(mu_);
//     queue_.push_back(std::move(t));   // OK: mu_ held.
//   }
//
// Waiting on a predicate over guarded state must be an explicit loop in the
// annotated function body (a predicate lambda is analyzed as a separate
// unannotated function and would trip the analysis):
//
//   MutexLock lock(mu_);
//   while (queue_.empty()) cv_.Wait(mu_);
//
// The repo-wide lint (scripts/lint.py, rule `naked-mutex`) confines the raw
// std primitives to this file; lock-acquisition order across named mutexes
// is declared with `gpssn-lock-order:` comments (rule `lock-order`).

#ifndef GPSSN_COMMON_SYNC_H_
#define GPSSN_COMMON_SYNC_H_

#include <condition_variable>  // gpssn-lint: allow(naked-mutex)
#include <mutex>               // gpssn-lint: allow(naked-mutex)

#include "common/macros.h"

// ---------------------------------------------------------------------------
// Attribute macros. Clang-only; no-ops elsewhere (GCC parses but does not
// understand the capability attribute family).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define GPSSN_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define GPSSN_THREAD_ANNOTATION__(x)  // no-op
#endif

/// Declares a class to be a capability (lockable resource); `x` names it in
/// diagnostics, e.g. GPSSN_CAPABILITY("mutex").
#define GPSSN_CAPABILITY(x) GPSSN_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define GPSSN_SCOPED_CAPABILITY GPSSN_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define GPSSN_GUARDED_BY(x) GPSSN_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose POINTEE is protected by `x` (the pointer itself may
/// be read freely).
#define GPSSN_PT_GUARDED_BY(x) GPSSN_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Declared acquisition order between capabilities (deadlock detection).
#define GPSSN_ACQUIRED_BEFORE(...) \
  GPSSN_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define GPSSN_ACQUIRED_AFTER(...) \
  GPSSN_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// The function may only be called while holding the capabilities; it
/// does not acquire or release them.
#define GPSSN_REQUIRES(...) \
  GPSSN_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The function acquires (and holds past return) / releases the capability.
#define GPSSN_ACQUIRE(...) \
  GPSSN_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define GPSSN_RELEASE(...) \
  GPSSN_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The function must NOT be called while holding the capabilities (it will
/// acquire them itself; catches self-deadlock).
#define GPSSN_EXCLUDES(...) \
  GPSSN_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion to the analysis that the capability is held.
#define GPSSN_ASSERT_CAPABILITY(x) \
  GPSSN_THREAD_ANNOTATION__(assert_capability(x))

/// The function returns a reference to the capability guarding its result.
#define GPSSN_RETURN_CAPABILITY(x) GPSSN_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Use only with a comment
/// explaining why the analysis cannot see the invariant.
#define GPSSN_NO_THREAD_SAFETY_ANALYSIS \
  GPSSN_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace gpssn {

class CondVar;

/// Exclusive capability over std::mutex. Prefer the scoped MutexLock; the
/// raw Lock/Unlock surface exists for the analysis annotations themselves
/// and for adapters (CondVar).
class GPSSN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  GPSSN_DISALLOW_COPY_AND_MOVE(Mutex);

  void Lock() GPSSN_ACQUIRE() { mu_.lock(); }
  void Unlock() GPSSN_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;  // gpssn-lint: allow(naked-mutex)
};

/// Scoped exclusive hold of a Mutex (the std::lock_guard of this layer).
class GPSSN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GPSSN_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() GPSSN_RELEASE() { mu_.Unlock(); }

  GPSSN_DISALLOW_COPY_AND_MOVE(MutexLock);

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. Wait() atomically releases the held
/// Mutex and reacquires it before returning, exactly like
/// std::condition_variable over the wrapped std::mutex. Predicate re-checks
/// must be explicit loops in the caller so the analysis sees the guarded
/// reads under the capability (see the header comment).
class CondVar {
 public:
  CondVar() = default;
  GPSSN_DISALLOW_COPY_AND_MOVE(CondVar);

  /// Blocks until notified (spurious wakeups possible — always loop).
  /// The caller must hold `mu`; it is released while blocked and held
  /// again on return.
  void Wait(Mutex& mu) GPSSN_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // gpssn-lint: allow(naked-mutex)
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_SYNC_H_
