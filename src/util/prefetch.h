#ifndef WAVEBATCH_UTIL_PREFETCH_H_
#define WAVEBATCH_UTIL_PREFETCH_H_

/// Software-prefetch hint shared by the hot gather/apply loops. Feature-gated
/// rather than vendor-gated: a compiler that reports __has_builtin but lacks
/// __builtin_prefetch (or reports neither) gets a no-op, so the loops build
/// everywhere.
#if defined(__has_builtin)
#if __has_builtin(__builtin_prefetch)
#define WB_PREFETCH(addr) __builtin_prefetch(addr)
#endif
#elif defined(__GNUC__)
#define WB_PREFETCH(addr) __builtin_prefetch(addr)
#endif

#ifndef WB_PREFETCH
#define WB_PREFETCH(addr) ((void)0)
#endif

#endif  // WAVEBATCH_UTIL_PREFETCH_H_
