//! Runtime kernel dispatch: scalar reference and explicit SIMD.
//!
//! Every distance evaluation in this crate funnels through the scalar
//! kernels in [`crate::metric::kernels`]. This module is the layer above
//! them: callers invoke [`sum_sq_diff`], [`dot`], … here, and the call is
//! routed at runtime to one of
//!
//! * the **scalar reference** kernels (always available, the semantics
//!   every other backend must reproduce),
//! * an **explicit SIMD** backend (`std::arch` on x86_64: AVX2 when the CPU
//!   reports it, SSE2 otherwise — SSE2 is part of the x86_64 baseline), or
//! * nothing else — on other architectures the scalar kernels run as-is.
//!
//! # Bit-identical by construction
//!
//! The SIMD kernels are not merely "close": they reproduce the scalar
//! kernels' exact association — 16-dim blocks with four block-local lanes,
//! reduced as `(acc0 + acc1) + (acc2 + acc3)`, then a 4-chunk middle region
//! and a scalar tail — using vector lanes as the accumulator lanes and no
//! FMA contraction (which would change rounding). A summary ingesting the
//! same stream therefore retains the same elements on every backend, which
//! is what lets golden fixtures, snapshots, and replicated deployments mix
//! hosts freely. `tests/kernel_parity.rs`
//! pins exact equality across dimensions 1–257.
//!
//! # Selection
//!
//! The backend is detected once, on first use: the best one the
//! architecture offers. There is no setting; the scalar reference stays
//! reachable in process through [`force_mode`], which is how the parity
//! and dispatch tests pin it. The resolved backend is one relaxed atomic
//! load per kernel call ([`active_kernel`] reports it for `STATS`).

use std::sync::atomic::{AtomicU8, Ordering};

use crate::metric::kernels;

pub mod simd;

/// Kernel selection policy for [`force_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Scalar reference kernels only.
    Scalar,
    /// Use the best backend the architecture offers (the default).
    Auto,
}

/// Resolved backend, cached after first use: 0 = uninitialized,
/// 1 = scalar, 2 = SSE2, 3 = AVX2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

const LEVEL_SCALAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const LEVEL_SSE2: u8 = 2;
#[cfg(target_arch = "x86_64")]
const LEVEL_AVX2: u8 = 3;

fn resolve_level(mode: KernelMode) -> u8 {
    match mode {
        KernelMode::Scalar => LEVEL_SCALAR,
        KernelMode::Auto => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    LEVEL_AVX2
                } else {
                    LEVEL_SSE2
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            LEVEL_SCALAR
        }
    }
}

#[cold]
fn init_level() -> u8 {
    let level = resolve_level(KernelMode::Auto);
    ACTIVE.store(level, Ordering::Relaxed);
    level
}

#[inline]
fn active_level() -> u8 {
    let level = ACTIVE.load(Ordering::Relaxed);
    if level != 0 {
        level
    } else {
        init_level()
    }
}

/// The backend kernel calls currently execute on: `"scalar"`, `"sse2"`, or
/// `"avx2"` (surfaced per stream by `fdm-serve`'s `STATS`).
pub fn active_kernel() -> &'static str {
    match active_level() {
        LEVEL_SCALAR => "scalar",
        #[cfg(target_arch = "x86_64")]
        LEVEL_SSE2 => "sse2",
        #[cfg(target_arch = "x86_64")]
        LEVEL_AVX2 => "avx2",
        _ => unreachable!("active_level returns a resolved backend"),
    }
}

/// Overrides (or with `None`, re-detects on next use) the cached backend
/// decision. Test-only plumbing: lets one process compare backends without
/// re-exec; production always auto-detects.
#[doc(hidden)]
pub fn force_mode(mode: Option<KernelMode>) {
    match mode {
        Some(mode) => ACTIVE.store(resolve_level(mode), Ordering::Relaxed),
        None => ACTIVE.store(0, Ordering::Relaxed),
    }
}

macro_rules! dispatch2 {
    ($(#[$doc:meta])* $name:ident, $level_fn:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(a: &[f64], b: &[f64]) -> f64 {
            #[cfg(target_arch = "x86_64")]
            {
                let level = active_level();
                // SIMD assumes equal lengths; the scalar kernels' zip
                // semantics (shorter slice wins) cover the mismatch case.
                if level >= LEVEL_SSE2 && a.len() == b.len() {
                    return simd::$level_fn(level, a, b);
                }
            }
            kernels::$name(a, b)
        }
    };
}

dispatch2!(
    /// Dispatched `Σ (a_i − b_i)²` (see [`kernels::sum_sq_diff`]).
    sum_sq_diff,
    sum_sq_diff_level
);
dispatch2!(
    /// Dispatched `Σ |a_i − b_i|` (see [`kernels::sum_abs_diff`]).
    sum_abs_diff,
    sum_abs_diff_level
);
dispatch2!(
    /// Dispatched `max |a_i − b_i|` (see [`kernels::max_abs_diff`]).
    max_abs_diff,
    max_abs_diff_level
);
dispatch2!(
    /// Dispatched inner product (see [`kernels::dot`]).
    dot,
    dot_level
);

/// Dispatched squared L2 norm (see [`kernels::norm_sq`]).
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        let level = active_level();
        if level >= LEVEL_SSE2 {
            return simd::norm_sq_level(level, a);
        }
    }
    kernels::norm_sq(a)
}

/// Dispatched bounded threshold scan for the squared-L2 proxy (see
/// [`kernels::sum_sq_diff_at_least`]); decisions are bit-identical to
/// comparing the full dispatched sum.
#[inline]
pub fn sum_sq_diff_at_least(a: &[f64], b: &[f64], bound: f64) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let level = active_level();
        if level >= LEVEL_SSE2 && a.len() == b.len() {
            return simd::sum_sq_diff_at_least_level(level, a, b, bound);
        }
    }
    kernels::sum_sq_diff_at_least(a, b, bound)
}

/// Dispatched bounded threshold scan for the L1 proxy (see
/// [`kernels::sum_abs_diff_at_least`]).
#[inline]
pub fn sum_abs_diff_at_least(a: &[f64], b: &[f64], bound: f64) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let level = active_level();
        if level >= LEVEL_SSE2 && a.len() == b.len() {
            return simd::sum_abs_diff_at_least_level(level, a, b, bound);
        }
    }
    kernels::sum_abs_diff_at_least(a, b, bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_mode_resolves_to_scalar_everywhere() {
        assert_eq!(resolve_level(KernelMode::Scalar), LEVEL_SCALAR);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn auto_mode_never_resolves_to_scalar_on_x86_64() {
        // SSE2 is baseline on x86_64, so auto always finds a SIMD backend.
        assert!(resolve_level(KernelMode::Auto) >= LEVEL_SSE2);
    }

    #[test]
    fn active_kernel_names_are_known() {
        assert!(["scalar", "sse2", "avx2"].contains(&active_kernel()));
    }
}
