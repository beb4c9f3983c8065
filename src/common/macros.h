// Copyright 2026 The gpssn Authors.
//
// Project-wide helper macros: checked assertions and class decorations.

#ifndef GPSSN_COMMON_MACROS_H_
#define GPSSN_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

// GPSSN_CHECK(cond): aborts with a diagnostic when `cond` is false. Used for
// programming errors (broken invariants), never for recoverable conditions —
// those go through Status/Result (see status.h).
#define GPSSN_CHECK(cond)                                                    \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "GPSSN_CHECK failed at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// GPSSN_DCHECK(cond): GPSSN_CHECK in debug and GPSSN_AUDIT builds, for
// invariants on paths too hot for an always-on check. Elsewhere `cond` is
// still compiled but never evaluated.
#if !defined(NDEBUG) || defined(GPSSN_AUDIT)
#define GPSSN_DCHECK(cond) GPSSN_CHECK(cond)
#else
#define GPSSN_DCHECK(cond) \
  do {                     \
    if (false) (void)(cond); \
  } while (0)
#endif

// Materializes a copy: binding a reference here would dangle when `expr` is
// `result.status()` of a temporary Result (the temporary dies at the end of
// the declaration statement, before the ok() test below).
#define GPSSN_CHECK_OK(expr)                                                 \
  do {                                                                       \
    const ::gpssn::Status _gpssn_st = (expr);                                \
    if (!_gpssn_st.ok()) {                                                   \
      std::fprintf(stderr, "GPSSN_CHECK_OK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, _gpssn_st.ToString().c_str());                  \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// Declares a class non-copyable and non-movable.
#define GPSSN_DISALLOW_COPY_AND_MOVE(TypeName)       \
  TypeName(const TypeName&) = delete;                \
  TypeName& operator=(const TypeName&) = delete;     \
  TypeName(TypeName&&) = delete;                     \
  TypeName& operator=(TypeName&&) = delete

// Propagates a non-OK Status from an expression (Arrow-style).
#define GPSSN_RETURN_NOT_OK(expr)              \
  do {                                         \
    ::gpssn::Status _gpssn_st = (expr);        \
    if (!_gpssn_st.ok()) return _gpssn_st;     \
  } while (0)

#endif  // GPSSN_COMMON_MACROS_H_
