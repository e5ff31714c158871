// Portable fixed-width SIMD abstraction for the solver's lane kernels.
//
// DVec<W> is a W-wide double vector. On GNU/Clang it wraps the compiler's
// native vector type (vector_size), so every arithmetic op, compare, and
// blend lowers directly to one vector instruction in whichever TU
// instantiates it — no reliance on the autovectorizer recognizing per-lane
// loops. Each kernel translation unit is compiled for a specific target
// (-mavx2 -mfma, -mavx512f ...); the same template at W=1 is the guaranteed
// scalar fallback, so exactly one kernel source exists per algorithm and
// every width computes the same IEEE operation sequence. On other compilers
// DVec falls back to a plain array with per-lane loops (those builds never
// enable the vector tier; see CMake gating). The per-target TUs are built
// with -ffp-contract=off: lane ops are then plain vmulpd/vaddpd/vsqrtpd —
// bit-identical per lane to the scalar code — which is what makes kernel
// results independent of the dispatched width (asserted in test_ekv_batch).
//
// Runtime dispatch: cpu_caps() probes the running CPU once (cpuid via
// __builtin_cpu_supports on x86-64; everything false elsewhere) and
// pick_width() turns caps + environment into a lane width:
//   MCSM_NO_SIMD=1        force the scalar fallback (width 1)
//   MCSM_SIMD_WIDTH=1|4|8 pin a width, clamped down to what the CPU and
//                         the build support
// Auto dispatch takes the widest compiled width the CPU supports. Width
// resolution is a pure function so the policy is unit-testable without
// faking cpuid.
//
// Build gating: -DMCSM_SIMD=OFF compiles the vector TUs out entirely;
// compiled_in() reports which flavor this build is.
#ifndef MCSM_COMMON_SIMD_H
#define MCSM_COMMON_SIMD_H

#include <cmath>

#if defined(__GNUC__) || defined(__clang__)
#define MCSM_SIMD_INLINE inline __attribute__((always_inline))
#define MCSM_SIMD_NATIVE_VEC 1
#else
#define MCSM_SIMD_INLINE inline
#define MCSM_SIMD_NATIVE_VEC 0
#endif

#if MCSM_SIMD_NATIVE_VEC && (defined(__AVX__) || defined(__AVX512F__))
#include <immintrin.h>
#endif

namespace mcsm::simd {

// True when the vector lane kernels are part of this build (MCSM_SIMD=ON,
// x86-64 toolchain with AVX2 support available).
constexpr bool compiled_in() {
#ifdef MCSM_SIMD_ENABLED
    return true;
#else
    return false;
#endif
}

// ---- width abstraction -------------------------------------------------

template <int W>
struct DVec {
    static_assert(W == 1 || W == 4 || W == 8, "supported widths: 1, 4, 8");
#if MCSM_SIMD_NATIVE_VEC
    typedef double vec __attribute__((vector_size(W * 8)));
    // Same-size signed-integer vector: comparison results and bit masks.
    typedef long long ivec __attribute__((vector_size(W * 8)));
    vec v;
#else
    alignas(W * 8) double v[W];
#endif
};

template <int W>
MCSM_SIMD_INLINE DVec<W> broadcast(double x) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = x - typename DVec<W>::vec{};  // scalar broadcasts over the vector
#else
    for (int k = 0; k < W; ++k) r.v[k] = x;
#endif
    return r;
}

template <int W>
MCSM_SIMD_INLINE DVec<W> load(const double* p) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    // aligned(8): the lane scratch arrays are only element-aligned, so the
    // load must not assume the vector's natural alignment.
    typedef double uvec
        __attribute__((vector_size(W * 8), aligned(8), may_alias));
    r.v = (typename DVec<W>::vec)(*reinterpret_cast<const uvec*>(p));
#else
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
#endif
    return r;
}

template <int W>
MCSM_SIMD_INLINE void store(double* p, DVec<W> a) {
#if MCSM_SIMD_NATIVE_VEC
    typedef double uvec
        __attribute__((vector_size(W * 8), aligned(8), may_alias));
    *reinterpret_cast<uvec*>(p) = (uvec)a.v;
#else
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
#endif
}

template <int W>
MCSM_SIMD_INLINE DVec<W> operator+(DVec<W> a, DVec<W> b) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = a.v + b.v;
#else
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] + b.v[k];
#endif
    return r;
}

template <int W>
MCSM_SIMD_INLINE DVec<W> operator-(DVec<W> a, DVec<W> b) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = a.v - b.v;
#else
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] - b.v[k];
#endif
    return r;
}

template <int W>
MCSM_SIMD_INLINE DVec<W> operator*(DVec<W> a, DVec<W> b) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = a.v * b.v;
#else
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] * b.v[k];
#endif
    return r;
}

template <int W>
MCSM_SIMD_INLINE DVec<W> operator/(DVec<W> a, DVec<W> b) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = a.v / b.v;
#else
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] / b.v[k];
#endif
    return r;
}

template <int W>
MCSM_SIMD_INLINE DVec<W> operator-(DVec<W> a) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = -a.v;
#else
    for (int k = 0; k < W; ++k) r.v[k] = -a.v[k];
#endif
    return r;
}

// Per-lane a < b ? t : f (compare + blend). NaN compares false, so NaN
// operands select f — the same outcome as the scalar ternary.
template <int W>
MCSM_SIMD_INLINE DVec<W> select_lt(DVec<W> a, DVec<W> b, DVec<W> t,
                                   DVec<W> f) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = a.v < b.v ? t.v : f.v;
#else
    for (int k = 0; k < W; ++k)
        r.v[k] = a.v[k] < b.v[k] ? t.v[k] : f.v[k];
#endif
    return r;
}

// Per-lane a >= b ? t : f.
template <int W>
MCSM_SIMD_INLINE DVec<W> select_ge(DVec<W> a, DVec<W> b, DVec<W> t,
                                   DVec<W> f) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = a.v >= b.v ? t.v : f.v;
#else
    for (int k = 0; k < W; ++k)
        r.v[k] = a.v[k] >= b.v[k] ? t.v[k] : f.v[k];
#endif
    return r;
}

// Per-lane isnan(x) ? t : f.
template <int W>
MCSM_SIMD_INLINE DVec<W> select_nan(DVec<W> x, DVec<W> t, DVec<W> f) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = x.v != x.v ? t.v : f.v;
#else
    for (int k = 0; k < W; ++k)
        r.v[k] = x.v[k] != x.v[k] ? t.v[k] : f.v[k];
#endif
    return r;
}

// std::min semantics per lane: (b < a) ? b : a (keeps a when b is NaN and
// returns b when a is NaN, exactly like the scalar kernel's std::min).
template <int W>
MCSM_SIMD_INLINE DVec<W> vmin(DVec<W> a, DVec<W> b) {
    return select_lt(b, a, b, a);
}

// |a| by clearing the sign bit: bit-identical to std::fabs on every input
// including NaN payloads and -0.0.
template <int W>
MCSM_SIMD_INLINE DVec<W> vabs(DVec<W> a) {
    DVec<W> r;
#if MCSM_SIMD_NATIVE_VEC
    r.v = (typename DVec<W>::vec)((typename DVec<W>::ivec)a.v &
                                  0x7FFFFFFFFFFFFFFFll);
#else
    for (int k = 0; k < W; ++k) r.v[k] = std::fabs(a.v[k]);
#endif
    return r;
}

// floor / sqrt have no native vector operator; the x86 vector widths get
// intrinsic definitions below, everything else takes the per-lane loop
// (exact: both the library calls and the instructions are correctly
// rounded / exact IEEE operations).
template <int W>
MCSM_SIMD_INLINE DVec<W> vfloor(DVec<W> a) {
    DVec<W> r;
    for (int k = 0; k < W; ++k) r.v[k] = std::floor(a.v[k]);
    return r;
}

template <int W>
MCSM_SIMD_INLINE DVec<W> vsqrt(DVec<W> a) {
    DVec<W> r;
    for (int k = 0; k < W; ++k) r.v[k] = std::sqrt(a.v[k]);
    return r;
}

#if MCSM_SIMD_NATIVE_VEC && defined(__AVX__)
template <>
MCSM_SIMD_INLINE DVec<4> vfloor<4>(DVec<4> a) {
    return {(DVec<4>::vec)_mm256_floor_pd((__m256d)a.v)};
}

template <>
MCSM_SIMD_INLINE DVec<4> vsqrt<4>(DVec<4> a) {
    return {(DVec<4>::vec)_mm256_sqrt_pd((__m256d)a.v)};
}
#endif

#if MCSM_SIMD_NATIVE_VEC && defined(__AVX512F__)
template <>
MCSM_SIMD_INLINE DVec<8> vfloor<8>(DVec<8> a) {
    // roundscale imm 0x01: round toward -inf, scale 2^0 — exact floor.
    return {(DVec<8>::vec)_mm512_roundscale_pd((__m512d)a.v, 0x01)};
}

template <>
MCSM_SIMD_INLINE DVec<8> vsqrt<8>(DVec<8> a) {
    return {(DVec<8>::vec)_mm512_sqrt_pd((__m512d)a.v)};
}
#endif

// ---- runtime dispatch --------------------------------------------------

struct Caps {
    bool avx2_fma = false;  // AVX2 + FMA: the 4-wide tier
    bool avx512 = false;    // AVX-512 F/DQ/VL: the 8-wide tier
};

// Capabilities of the running CPU (probed once, cached).
const Caps& cpu_caps();

// Widths compiled into this binary (scalar is always available).
bool width_compiled(int w);

// Pure dispatch policy: the widest compiled width the CPU supports, capped
// by the env knobs. `no_simd_env` / `width_env` are the raw values of
// MCSM_NO_SIMD / MCSM_SIMD_WIDTH (nullptr when unset). Unsupported or
// malformed requests clamp down to the next available width, never up.
int pick_width(const Caps& caps, const char* no_simd_env,
               const char* width_env);

// pick_width over the real environment and cpu_caps(), cached per process
// so every batch in the process dispatches the same kernel (the fixed
// kernel config the determinism contract is stated over).
int default_width();

}  // namespace mcsm::simd

#endif  // MCSM_COMMON_SIMD_H
