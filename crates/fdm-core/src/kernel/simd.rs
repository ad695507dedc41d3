//! Explicit SIMD kernels (`std::arch`, x86_64 SSE2/AVX2).
//!
//! Each kernel reproduces its scalar reference in
//! [`crate::metric::kernels`] **bit for bit**: the vector lanes *are* the
//! scalar kernels' four accumulator lanes, blocks reduce in the same
//! `(acc0 + acc1) + (acc2 + acc3)` order, multiplies and adds stay separate
//! instructions (FMA would contract the rounding), and the 16-block /
//! 4-chunk / scalar-tail structure is identical. The AVX2 path keeps the
//! four lanes in one 4-wide `f64` vector; the SSE2 path splits them across
//! two 2-wide vectors (`(acc0, acc1)` and `(acc2, acc3)`).
//!
//! Inputs are assumed finite (the arena and dataset builders validate
//! coordinates); `max` lane semantics for NaN differ between `vmaxpd` and
//! `f64::max`, but no other operation here is input-sensitive.
//!
//! This file is the only place in the workspace allowed to contain
//! `unsafe` (CI greps for strays): raw-pointer vector loads plus calls into
//! `#[target_feature]` functions after runtime detection. The
//! `*_level` entries trust the caller's resolved backend level, which
//! [`super::active_level`](super) only sets to AVX2 after
//! `is_x86_feature_detected!` succeeds; SSE2 is unconditionally part of the
//! x86_64 baseline. The `force_*` wrappers re-detect on every call and are
//! meant for parity tests, not hot paths.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{
    dot_level, max_abs_diff_level, norm_sq_level, sum_abs_diff_at_least_level, sum_abs_diff_level,
    sum_sq_diff_at_least_level, sum_sq_diff_level,
};

/// Generates the public forced-backend wrappers used by the parity suite:
/// `None` when the backend is unavailable on this machine.
macro_rules! force_wrappers {
    ($(#[$doc:meta])* $force_avx2:ident, $force_sse2:ident, $inner:ident,
     ($($arg:ident : $ty:ty),*) -> $ret:ty) => {
        $(#[$doc])*
        ///
        /// Forced AVX2 evaluation; `None` off x86_64 or when the CPU lacks
        /// AVX2. Slices must have equal length.
        pub fn $force_avx2($($arg: $ty),*) -> Option<$ret> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Some(unsafe { x86::avx2::$inner($($arg),*) });
            }
            $(let _ = $arg;)*
            None
        }

        $(#[$doc])*
        ///
        /// Forced SSE2 evaluation; `None` off x86_64 (SSE2 is always
        /// available on x86_64). Slices must have equal length.
        pub fn $force_sse2($($arg: $ty),*) -> Option<$ret> {
            #[cfg(target_arch = "x86_64")]
            return Some(unsafe { x86::sse2::$inner($($arg),*) });
            #[cfg(not(target_arch = "x86_64"))]
            {
                $(let _ = $arg;)*
                None
            }
        }
    };
}

force_wrappers!(
    /// `Σ (a_i − b_i)²`, bit-identical to the scalar kernel.
    force_avx2_sum_sq_diff,
    force_sse2_sum_sq_diff,
    sum_sq_diff,
    (a: &[f64], b: &[f64]) -> f64
);
force_wrappers!(
    /// `Σ |a_i − b_i|`, bit-identical to the scalar kernel.
    force_avx2_sum_abs_diff,
    force_sse2_sum_abs_diff,
    sum_abs_diff,
    (a: &[f64], b: &[f64]) -> f64
);
force_wrappers!(
    /// `max |a_i − b_i|`, bit-identical to the scalar kernel.
    force_avx2_max_abs_diff,
    force_sse2_max_abs_diff,
    max_abs_diff,
    (a: &[f64], b: &[f64]) -> f64
);
force_wrappers!(
    /// Inner product, bit-identical to the scalar kernel.
    force_avx2_dot,
    force_sse2_dot,
    dot,
    (a: &[f64], b: &[f64]) -> f64
);
force_wrappers!(
    /// Squared L2 norm, bit-identical to the scalar kernel.
    force_avx2_norm_sq,
    force_sse2_norm_sq,
    norm_sq,
    (a: &[f64]) -> f64
);
force_wrappers!(
    /// Bounded `Σ (a_i − b_i)² ≥ bound` scan, decision-identical to the
    /// scalar kernel (same blockwise early exits).
    force_avx2_sum_sq_diff_at_least,
    force_sse2_sum_sq_diff_at_least,
    sum_sq_diff_at_least,
    (a: &[f64], b: &[f64], bound: f64) -> bool
);
force_wrappers!(
    /// Bounded `Σ |a_i − b_i| ≥ bound` scan, decision-identical to the
    /// scalar kernel.
    force_avx2_sum_abs_diff_at_least,
    force_sse2_sum_abs_diff_at_least,
    sum_abs_diff_at_least,
    (a: &[f64], b: &[f64], bound: f64) -> bool
);
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::{LEVEL_AVX2, LEVEL_SSE2};

    macro_rules! level_entry {
        ($name:ident, $inner:ident, ($($arg:ident : $ty:ty),*) -> $ret:ty) => {
            /// Dispatches on a backend level already resolved by the
            /// caller (AVX2 levels are only produced after runtime
            /// detection; SSE2 is the x86_64 baseline).
            #[inline]
            pub(crate) fn $name(level: u8, $($arg: $ty),*) -> $ret {
                debug_assert!(level == LEVEL_SSE2 || level == LEVEL_AVX2);
                if level >= LEVEL_AVX2 {
                    unsafe { avx2::$inner($($arg),*) }
                } else {
                    unsafe { sse2::$inner($($arg),*) }
                }
            }
        };
    }

    level_entry!(sum_sq_diff_level, sum_sq_diff, (a: &[f64], b: &[f64]) -> f64);
    level_entry!(sum_abs_diff_level, sum_abs_diff, (a: &[f64], b: &[f64]) -> f64);
    level_entry!(max_abs_diff_level, max_abs_diff, (a: &[f64], b: &[f64]) -> f64);
    level_entry!(dot_level, dot, (a: &[f64], b: &[f64]) -> f64);
    level_entry!(norm_sq_level, norm_sq, (a: &[f64]) -> f64);
    level_entry!(
        sum_sq_diff_at_least_level,
        sum_sq_diff_at_least,
        (a: &[f64], b: &[f64], bound: f64) -> bool
    );
    level_entry!(
        sum_abs_diff_at_least_level,
        sum_abs_diff_at_least,
        (a: &[f64], b: &[f64], bound: f64) -> bool
    );
    /// The per-term operation, shared between ISAs by token: `sq` squares
    /// the difference, `abs` clears its sign bit (`andnot` with `-0.0`).
    macro_rules! term256 {
        (sq, $d:expr) => {
            _mm256_mul_pd($d, $d)
        };
        (abs, $d:expr) => {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), $d)
        };
    }
    macro_rules! term128 {
        (sq, $d:expr) => {
            _mm_mul_pd($d, $d)
        };
        (abs, $d:expr) => {
            _mm_andnot_pd(_mm_set1_pd(-0.0), $d)
        };
    }
    macro_rules! term_scalar {
        (sq, $d:expr) => {{
            let d = $d;
            d * d
        }};
        (abs, $d:expr) => {
            ($d).abs()
        };
    }

    pub(super) mod avx2 {
        use core::arch::x86_64::*;

        /// `(lane0 + lane1) + (lane2 + lane3)` — exactly the scalar
        /// kernels' four-accumulator reduction order.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn hsum4(v: __m256d) -> f64 {
            let lo = _mm256_castpd256_pd128(v); // (lane0, lane1)
            let hi = _mm256_extractf128_pd(v, 1); // (lane2, lane3)
            let s01 = _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
            let s23 = _mm_cvtsd_f64(_mm_add_sd(hi, _mm_unpackhi_pd(hi, hi)));
            s01 + s23
        }

        /// `(lane0 max lane1) max (lane2 max lane3)`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn hmax4(v: __m256d) -> f64 {
            let lo = _mm256_castpd256_pd128(v);
            let hi = _mm256_extractf128_pd(v, 1);
            let m01 = _mm_cvtsd_f64(lo).max(_mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
            let m23 = _mm_cvtsd_f64(hi).max(_mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
            m01.max(m23)
        }

        /// Generates the full-sum and bounded-scan kernels for one
        /// accumulation op; structure mirrors the scalar kernels exactly
        /// (16-blocks, 4-chunk middle, scalar tail).
        macro_rules! lp_kernels_avx2 {
            ($op:tt, $full:ident, $bounded:ident) => {
                #[target_feature(enable = "avx2")]
                pub(in super::super) unsafe fn $full(a: &[f64], b: &[f64]) -> f64 {
                    debug_assert_eq!(a.len(), b.len());
                    let n = a.len();
                    let (split16, split4) = (n - n % 16, n - n % 4);
                    let (pa, pb) = (a.as_ptr(), b.as_ptr());
                    let mut total = 0.0f64;
                    let mut i = 0;
                    while i < split16 {
                        let mut vacc = _mm256_setzero_pd();
                        let mut q = i;
                        while q < i + 16 {
                            let d = _mm256_sub_pd(
                                _mm256_loadu_pd(pa.add(q)),
                                _mm256_loadu_pd(pb.add(q)),
                            );
                            vacc = _mm256_add_pd(vacc, term256!($op, d));
                            q += 4;
                        }
                        total += hsum4(vacc);
                        i += 16;
                    }
                    let mut vacc = _mm256_setzero_pd();
                    while i < split4 {
                        let d =
                            _mm256_sub_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)));
                        vacc = _mm256_add_pd(vacc, term256!($op, d));
                        i += 4;
                    }
                    total += hsum4(vacc);
                    while i < n {
                        let d = *pa.add(i) - *pb.add(i);
                        total += term_scalar!($op, d);
                        i += 1;
                    }
                    total
                }

                #[target_feature(enable = "avx2")]
                pub(in super::super) unsafe fn $bounded(a: &[f64], b: &[f64], bound: f64) -> bool {
                    debug_assert_eq!(a.len(), b.len());
                    let n = a.len();
                    let (split16, split4) = (n - n % 16, n - n % 4);
                    let (pa, pb) = (a.as_ptr(), b.as_ptr());
                    let mut total = 0.0f64;
                    let mut i = 0;
                    while i < split16 {
                        let mut vacc = _mm256_setzero_pd();
                        let mut q = i;
                        while q < i + 16 {
                            let d = _mm256_sub_pd(
                                _mm256_loadu_pd(pa.add(q)),
                                _mm256_loadu_pd(pb.add(q)),
                            );
                            vacc = _mm256_add_pd(vacc, term256!($op, d));
                            q += 4;
                        }
                        total += hsum4(vacc);
                        // One hoisted check per 16-dim block, same as the
                        // scalar bounded scan: the running total is
                        // monotone, so crossing the bound proves the
                        // answer.
                        if total >= bound {
                            return true;
                        }
                        i += 16;
                    }
                    let mut vacc = _mm256_setzero_pd();
                    while i < split4 {
                        let d =
                            _mm256_sub_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)));
                        vacc = _mm256_add_pd(vacc, term256!($op, d));
                        i += 4;
                    }
                    total += hsum4(vacc);
                    while i < n {
                        let d = *pa.add(i) - *pb.add(i);
                        total += term_scalar!($op, d);
                        i += 1;
                    }
                    total >= bound
                }
            };
        }

        lp_kernels_avx2!(sq, sum_sq_diff, sum_sq_diff_at_least);
        lp_kernels_avx2!(abs, sum_abs_diff, sum_abs_diff_at_least);

        #[target_feature(enable = "avx2")]
        pub(in super::super) unsafe fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let split4 = n - n % 4;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut vmax = _mm256_setzero_pd();
            let mut i = 0;
            while i < split4 {
                let d = _mm256_sub_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)));
                vmax = _mm256_max_pd(vmax, term256!(abs, d));
                i += 4;
            }
            let mut total = hmax4(vmax);
            while i < n {
                total = total.max((*pa.add(i) - *pb.add(i)).abs());
                i += 1;
            }
            total
        }

        #[target_feature(enable = "avx2")]
        pub(in super::super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let split4 = n - n % 4;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut vacc = _mm256_setzero_pd();
            let mut i = 0;
            while i < split4 {
                // Separate mul + add: FMA would change the rounding and
                // break bit-identity with the scalar kernel.
                let prod = _mm256_mul_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)));
                vacc = _mm256_add_pd(vacc, prod);
                i += 4;
            }
            let mut total = hsum4(vacc);
            while i < n {
                total += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            total
        }

        #[target_feature(enable = "avx2")]
        pub(in super::super) unsafe fn norm_sq(a: &[f64]) -> f64 {
            let n = a.len();
            let split4 = n - n % 4;
            let pa = a.as_ptr();
            let mut vacc = _mm256_setzero_pd();
            let mut i = 0;
            while i < split4 {
                let v = _mm256_loadu_pd(pa.add(i));
                vacc = _mm256_add_pd(vacc, _mm256_mul_pd(v, v));
                i += 4;
            }
            let mut total = hsum4(vacc);
            while i < n {
                let x = *pa.add(i);
                total += x * x;
                i += 1;
            }
            total
        }
    }

    pub(super) mod sse2 {
        use core::arch::x86_64::*;

        /// `lane0 + lane1` of one 2-wide vector.
        #[inline]
        unsafe fn hsum2(v: __m128d) -> f64 {
            _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)))
        }

        /// `lane0 max lane1` of one 2-wide vector.
        #[inline]
        unsafe fn hmax2(v: __m128d) -> f64 {
            _mm_cvtsd_f64(v).max(_mm_cvtsd_f64(_mm_unpackhi_pd(v, v)))
        }

        /// SSE2 twin of the AVX2 generator: the four scalar lanes live in
        /// two 2-wide accumulators, `v01 = (acc0, acc1)` and
        /// `v23 = (acc2, acc3)`, reduced as
        /// `(acc0 + acc1) + (acc2 + acc3)`.
        macro_rules! lp_kernels_sse2 {
            ($op:tt, $full:ident, $bounded:ident) => {
                pub(in super::super) unsafe fn $full(a: &[f64], b: &[f64]) -> f64 {
                    debug_assert_eq!(a.len(), b.len());
                    let n = a.len();
                    let (split16, split4) = (n - n % 16, n - n % 4);
                    let (pa, pb) = (a.as_ptr(), b.as_ptr());
                    let mut total = 0.0f64;
                    let mut i = 0;
                    while i < split16 {
                        let mut v01 = _mm_setzero_pd();
                        let mut v23 = _mm_setzero_pd();
                        let mut q = i;
                        while q < i + 16 {
                            let d01 = _mm_sub_pd(_mm_loadu_pd(pa.add(q)), _mm_loadu_pd(pb.add(q)));
                            v01 = _mm_add_pd(v01, term128!($op, d01));
                            let d23 = _mm_sub_pd(
                                _mm_loadu_pd(pa.add(q + 2)),
                                _mm_loadu_pd(pb.add(q + 2)),
                            );
                            v23 = _mm_add_pd(v23, term128!($op, d23));
                            q += 4;
                        }
                        total += hsum2(v01) + hsum2(v23);
                        i += 16;
                    }
                    let mut v01 = _mm_setzero_pd();
                    let mut v23 = _mm_setzero_pd();
                    while i < split4 {
                        let d01 = _mm_sub_pd(_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pb.add(i)));
                        v01 = _mm_add_pd(v01, term128!($op, d01));
                        let d23 =
                            _mm_sub_pd(_mm_loadu_pd(pa.add(i + 2)), _mm_loadu_pd(pb.add(i + 2)));
                        v23 = _mm_add_pd(v23, term128!($op, d23));
                        i += 4;
                    }
                    total += hsum2(v01) + hsum2(v23);
                    while i < n {
                        let d = *pa.add(i) - *pb.add(i);
                        total += term_scalar!($op, d);
                        i += 1;
                    }
                    total
                }

                pub(in super::super) unsafe fn $bounded(a: &[f64], b: &[f64], bound: f64) -> bool {
                    debug_assert_eq!(a.len(), b.len());
                    let n = a.len();
                    let (split16, split4) = (n - n % 16, n - n % 4);
                    let (pa, pb) = (a.as_ptr(), b.as_ptr());
                    let mut total = 0.0f64;
                    let mut i = 0;
                    while i < split16 {
                        let mut v01 = _mm_setzero_pd();
                        let mut v23 = _mm_setzero_pd();
                        let mut q = i;
                        while q < i + 16 {
                            let d01 = _mm_sub_pd(_mm_loadu_pd(pa.add(q)), _mm_loadu_pd(pb.add(q)));
                            v01 = _mm_add_pd(v01, term128!($op, d01));
                            let d23 = _mm_sub_pd(
                                _mm_loadu_pd(pa.add(q + 2)),
                                _mm_loadu_pd(pb.add(q + 2)),
                            );
                            v23 = _mm_add_pd(v23, term128!($op, d23));
                            q += 4;
                        }
                        total += hsum2(v01) + hsum2(v23);
                        if total >= bound {
                            return true;
                        }
                        i += 16;
                    }
                    let mut v01 = _mm_setzero_pd();
                    let mut v23 = _mm_setzero_pd();
                    while i < split4 {
                        let d01 = _mm_sub_pd(_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pb.add(i)));
                        v01 = _mm_add_pd(v01, term128!($op, d01));
                        let d23 =
                            _mm_sub_pd(_mm_loadu_pd(pa.add(i + 2)), _mm_loadu_pd(pb.add(i + 2)));
                        v23 = _mm_add_pd(v23, term128!($op, d23));
                        i += 4;
                    }
                    total += hsum2(v01) + hsum2(v23);
                    while i < n {
                        let d = *pa.add(i) - *pb.add(i);
                        total += term_scalar!($op, d);
                        i += 1;
                    }
                    total >= bound
                }
            };
        }

        lp_kernels_sse2!(sq, sum_sq_diff, sum_sq_diff_at_least);
        lp_kernels_sse2!(abs, sum_abs_diff, sum_abs_diff_at_least);

        pub(in super::super) unsafe fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let split4 = n - n % 4;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut v01 = _mm_setzero_pd();
            let mut v23 = _mm_setzero_pd();
            let mut i = 0;
            while i < split4 {
                let d01 = _mm_sub_pd(_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pb.add(i)));
                v01 = _mm_max_pd(v01, term128!(abs, d01));
                let d23 = _mm_sub_pd(_mm_loadu_pd(pa.add(i + 2)), _mm_loadu_pd(pb.add(i + 2)));
                v23 = _mm_max_pd(v23, term128!(abs, d23));
                i += 4;
            }
            let mut total = hmax2(v01).max(hmax2(v23));
            while i < n {
                total = total.max((*pa.add(i) - *pb.add(i)).abs());
                i += 1;
            }
            total
        }

        pub(in super::super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let split4 = n - n % 4;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut v01 = _mm_setzero_pd();
            let mut v23 = _mm_setzero_pd();
            let mut i = 0;
            while i < split4 {
                let p01 = _mm_mul_pd(_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pb.add(i)));
                v01 = _mm_add_pd(v01, p01);
                let p23 = _mm_mul_pd(_mm_loadu_pd(pa.add(i + 2)), _mm_loadu_pd(pb.add(i + 2)));
                v23 = _mm_add_pd(v23, p23);
                i += 4;
            }
            let mut total = hsum2(v01) + hsum2(v23);
            while i < n {
                total += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            total
        }

        pub(in super::super) unsafe fn norm_sq(a: &[f64]) -> f64 {
            let n = a.len();
            let split4 = n - n % 4;
            let pa = a.as_ptr();
            let mut v01 = _mm_setzero_pd();
            let mut v23 = _mm_setzero_pd();
            let mut i = 0;
            while i < split4 {
                let x01 = _mm_loadu_pd(pa.add(i));
                v01 = _mm_add_pd(v01, _mm_mul_pd(x01, x01));
                let x23 = _mm_loadu_pd(pa.add(i + 2));
                v23 = _mm_add_pd(v23, _mm_mul_pd(x23, x23));
                i += 4;
            }
            let mut total = hsum2(v01) + hsum2(v23);
            while i < n {
                let x = *pa.add(i);
                total += x * x;
                i += 1;
            }
            total
        }
    }
}
