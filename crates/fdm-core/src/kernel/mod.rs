//! Runtime kernel dispatch: one kernel source, compiled for two targets.
//!
//! Every distance evaluation in this crate funnels through the kernels in
//! [`crate::metric::kernels`], which are the only arithmetic source. This
//! module is the layer above them: callers invoke [`sum_sq_diff`], [`dot`],
//! … here, and the call runs one of two builds of the same body:
//!
//! * the **baseline** build, as the crate is compiled for the target
//!   (always available), kept out of line;
//! * the **AVX2** build on x86_64 CPUs that report AVX2: a
//!   `#[target_feature(enable = "avx2")]` entry whose body is the scalar
//!   kernel, force-inlined (`#[inline(always)]`), so the compiler keeps the
//!   kernels' four accumulator lanes in one `ymm` register.
//!
//! On an x86_64 CPU without AVX2, and on every other architecture, the
//! baseline build runs.
//!
//! # Bit-identical by construction
//!
//! Both builds compile one source. Rust never contracts `a * b + c` into an
//! FMA and never reassociates floating-point operations, whatever target
//! features are enabled, so the AVX2 build performs the same operations in
//! the same order as the baseline build. A summary ingesting the same
//! stream therefore retains the same elements on every host, which is what
//! lets golden fixtures, snapshots and replicated deployments mix hosts
//! freely. `tests/kernel_parity.rs` pins exact equality across dimensions
//! 1–257.
//!
//! # Selection
//!
//! The backend is detected once, on first use. There is no setting; the
//! baseline build stays reachable in process through [`force_mode`], which
//! is how the parity and dispatch tests pin it. The resolved backend is one
//! relaxed atomic load per kernel call ([`active_kernel`] reports it for
//! `STATS`).
//!
//! The only `unsafe` here is the call into an AVX2 entry, made after
//! `is_x86_feature_detected!("avx2")` succeeded.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::metric::kernels;

/// Kernel selection policy for [`force_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The baseline build of the kernels only.
    Scalar,
    /// Use the best build the CPU supports (the default).
    Auto,
}

/// Resolved backend, cached after first use: 0 = uninitialized,
/// 1 = scalar, 2 = AVX2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

const LEVEL_SCALAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const LEVEL_AVX2: u8 = 2;

fn resolve_level(mode: KernelMode) -> u8 {
    #[cfg(target_arch = "x86_64")]
    if mode == KernelMode::Auto && std::arch::is_x86_feature_detected!("avx2") {
        return LEVEL_AVX2;
    }
    let _ = mode;
    LEVEL_SCALAR
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

/// The backend kernel calls currently execute on: `"scalar"` or `"avx2"`
/// (surfaced per stream by `fdm-serve`'s `STATS`).
pub fn active_kernel() -> &'static str {
    match active_level() {
        LEVEL_SCALAR => "scalar",
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

/// Generates, per kernel, its two builds (`baseline::*`, out of line, and
/// `avx2::*`, the same body compiled with AVX2 enabled), the dispatched
/// public kernel, and the forced-AVX2 wrapper the parity suite compares
/// against the baseline build. An optional `if` condition must also hold
/// for the dispatch to take the AVX2 entry. Both builds are out of line,
/// so the dispatched kernel stays a few instructions long wherever it
/// inlines.
macro_rules! dispatched {
    ($(
        $(#[$doc:meta])*
        $name:ident / $force:ident ($($arg:ident: $ty:ty),*) -> $ret:ty $(, if $guard:expr)?;
    )*) => {
        mod baseline {
            $(
                #[inline(never)]
                pub(super) fn $name($($arg: $ty),*) -> $ret {
                    super::kernels::$name($($arg),*)
                }
            )*
        }

        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            $(
                #[target_feature(enable = "avx2")]
                pub(super) fn $name($($arg: $ty),*) -> $ret {
                    super::kernels::$name($($arg),*)
                }
            )*
        }

        $(
            $(#[$doc])*
            #[inline]
            pub fn $name($($arg: $ty),*) -> $ret {
                #[cfg(target_arch = "x86_64")]
                if active_level() == LEVEL_AVX2 $(&& $guard)? {
                    // SAFETY: the level is AVX2 only after runtime detection.
                    return unsafe { avx2::$name($($arg),*) };
                }
                baseline::$name($($arg),*)
            }

            #[doc = concat!(
                "The AVX2 build of [`kernels::", stringify!($name), "`], forced; `None` off ",
                "x86_64 or when the CPU lacks AVX2."
            )]
            pub fn $force($($arg: $ty),*) -> Option<$ret> {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 was detected just above.
                    return Some(unsafe { avx2::$name($($arg),*) });
                }
                $(let _ = $arg;)*
                None
            }
        )*
    };
}

// The two-slice kernels are defined for rows of equal length (they
// debug-assert it); a mismatched pair stays on the baseline build.
dispatched! {
    /// Dispatched `Σ (a_i − b_i)²` (see [`kernels::sum_sq_diff`]).
    sum_sq_diff / force_avx2_sum_sq_diff
        (a: &[f64], b: &[f64]) -> f64, if a.len() == b.len();
    /// Dispatched `Σ |a_i − b_i|` (see [`kernels::sum_abs_diff`]).
    sum_abs_diff / force_avx2_sum_abs_diff
        (a: &[f64], b: &[f64]) -> f64, if a.len() == b.len();
    /// Dispatched `max |a_i − b_i|` (see [`kernels::max_abs_diff`]).
    max_abs_diff / force_avx2_max_abs_diff
        (a: &[f64], b: &[f64]) -> f64, if a.len() == b.len();
    /// Dispatched inner product (see [`kernels::dot`]).
    dot / force_avx2_dot
        (a: &[f64], b: &[f64]) -> f64, if a.len() == b.len();
    /// Dispatched squared L2 norm (see [`kernels::norm_sq`]).
    norm_sq / force_avx2_norm_sq
        (a: &[f64]) -> f64;
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
    fn auto_mode_resolves_to_avx2_iff_the_cpu_has_it() {
        let expected = if std::arch::is_x86_feature_detected!("avx2") {
            LEVEL_AVX2
        } else {
            LEVEL_SCALAR
        };
        assert_eq!(resolve_level(KernelMode::Auto), expected);
    }

    #[test]
    fn active_kernel_names_are_known() {
        assert!(["scalar", "avx2"].contains(&active_kernel()));
    }
}
