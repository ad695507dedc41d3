//! Distance metrics and their vectorized kernels.
//!
//! Every algorithm in this crate interacts with the data exclusively through
//! a [`Metric`], mirroring the paper's metric-space formulation (§III-A): the
//! distance function must be non-negative, symmetric, and satisfy the
//! triangle inequality. The paper's experiments use Euclidean (Adult,
//! Synthetic), Manhattan (CelebA, Census), and Angular (Lyrics) distances;
//! Chebyshev and general Minkowski are provided for completeness.
//!
//! The metric is an enum rather than a trait object or a generic parameter:
//! distance evaluation is the single hot operation of every algorithm, and a
//! small enum match compiles to a perfectly predicted branch while keeping
//! the public API object-safe and serializable.
//!
//! # Kernels and proxy distances
//!
//! Two layers serve the hot path:
//!
//! * The [`kernels`] module accumulates in four independent lanes over
//!   `chunks_exact(4)` so LLVM can keep several FP additions in flight (and
//!   auto-vectorize); a single-accumulator `f64` loop cannot be reordered
//!   and serializes on add latency. It is the only source of the
//!   accumulation arithmetic. [`Metric`]'s methods do not call it directly:
//!   they go through [`crate::kernel`], which runs either the baseline
//!   build of these kernels or, on CPUs with AVX2, the same source compiled
//!   for AVX2 (bit-identical by construction; see the `kernel` module
//!   docs).
//! * *Proxy* distances ([`Metric::proxy`]) are monotone stand-ins that skip
//!   the final `sqrt`/`powf`/`acos`: squared distance for Euclidean, the
//!   `p`-th power sum for Minkowski, negated cosine for Angular. Threshold
//!   tests (`d(x, S) ≥ µ`) compare full proxies against
//!   [`Metric::proxy_from_dist`]`(µ)` — bit-identical decisions, no
//!   transcendental per candidate member; the streaming candidates' test
//!   has one implementation,
//!   [`ArrivalProxies::offer`](crate::streaming::candidate::ArrivalProxies::offer).
//!   [`Metric::dist_from_proxy`] maps a winning proxy back to a real
//!   distance once per query.

use serde::{Deserialize, Serialize};

use crate::error::{FdmError, Result};
use crate::kernel;
use crate::point;

/// Four-lane accumulator kernels over contiguous `f64` rows.
///
/// All kernels debug-assert equal slice lengths. They are the only source
/// of the accumulation arithmetic: [`crate::kernel`] runs them as compiled
/// for the baseline target or, on CPUs with AVX2, the same bodies compiled
/// for AVX2, so the dispatched kernels are `#[inline(always)]` and written
/// for the vectorizer. Inputs are finite (the arena and dataset builders
/// validate coordinates).
pub mod kernels {
    /// The end of [`dot`] and [`norm_sq`]: the four lanes reduced as
    /// `(l0 + l1) + (l2 + l3)`, then `Σ a_i · b_i` over the tail, one term
    /// at a time. Kept out of line on purpose: when LLVM sees this
    /// reduction after a lane loop, it pairs its operands two-wide and
    /// keeps the lanes in two-wide registers for the whole loop (about half
    /// the AVX2 speed); out of line, the lanes stay in one 256-bit
    /// register, and taking the tail too makes the call the caller's last
    /// step. The association is the same either way.
    #[inline(never)]
    fn finish_lanes(l0: f64, l1: f64, l2: f64, l3: f64, a_tail: &[f64], b_tail: &[f64]) -> f64 {
        let mut total = (l0 + l1) + (l2 + l3);
        for (x, y) in a_tail.iter().zip(b_tail.iter()) {
            total += x * y;
        }
        total
    }

    /// `b` if `b > a`, else `a`: the lane maximum of [`max_abs_diff`].
    /// Unlike `f64::max` it needs no NaN handling, so it compiles to one
    /// `maxpd`/`maxsd`; the kernel's inputs are finite, where the two agree.
    #[inline(always)]
    fn larger(a: f64, b: f64) -> f64 {
        if b > a {
            b
        } else {
            a
        }
    }

    /// `Σ (a_i − b_i)²` — squared Euclidean distance.
    ///
    /// Accumulates 16-dim blocks with block-local four-lane accumulators
    /// (independent dependency chains per block), then a 4-chunk middle
    /// region and a scalar tail.
    #[inline(always)]
    pub fn sum_sq_diff(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let split16 = a.len() - a.len() % 16;
        let split4 = a.len() - a.len() % 4;
        let mut total = 0.0f64;
        for (ca, cb) in a[..split16]
            .chunks_exact(16)
            .zip(b[..split16].chunks_exact(16))
        {
            let mut acc = [0.0f64; 4];
            for (qa, qb) in ca.chunks_exact(4).zip(cb.chunks_exact(4)) {
                for lane in 0..4 {
                    let d = qa[lane] - qb[lane];
                    acc[lane] += d * d;
                }
            }
            total += (acc[0] + acc[1]) + (acc[2] + acc[3]);
        }
        let mut acc = [0.0f64; 4];
        for (qa, qb) in a[split16..split4]
            .chunks_exact(4)
            .zip(b[split16..split4].chunks_exact(4))
        {
            for lane in 0..4 {
                let d = qa[lane] - qb[lane];
                acc[lane] += d * d;
            }
        }
        total += (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (x, y) in a[split4..].iter().zip(b[split4..].iter()) {
            let d = x - y;
            total += d * d;
        }
        total
    }

    /// `Σ |a_i − b_i|` — Manhattan distance (same block structure as
    /// [`sum_sq_diff`]).
    #[inline(always)]
    pub fn sum_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let split16 = a.len() - a.len() % 16;
        let split4 = a.len() - a.len() % 4;
        let mut total = 0.0f64;
        for (ca, cb) in a[..split16]
            .chunks_exact(16)
            .zip(b[..split16].chunks_exact(16))
        {
            let mut acc = [0.0f64; 4];
            for (qa, qb) in ca.chunks_exact(4).zip(cb.chunks_exact(4)) {
                for lane in 0..4 {
                    acc[lane] += (qa[lane] - qb[lane]).abs();
                }
            }
            total += (acc[0] + acc[1]) + (acc[2] + acc[3]);
        }
        let mut acc = [0.0f64; 4];
        for (qa, qb) in a[split16..split4]
            .chunks_exact(4)
            .zip(b[split16..split4].chunks_exact(4))
        {
            for lane in 0..4 {
                acc[lane] += (qa[lane] - qb[lane]).abs();
            }
        }
        total += (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (x, y) in a[split4..].iter().zip(b[split4..].iter()) {
            total += (x - y).abs();
        }
        total
    }

    /// `max |a_i − b_i|` — Chebyshev distance.
    #[inline(always)]
    pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f64; 4];
        let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
        let (b4, b_tail) = b.split_at(b.len() - b.len() % 4);
        for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
            for lane in 0..4 {
                acc[lane] = larger(acc[lane], (ca[lane] - cb[lane]).abs());
            }
        }
        let mut total = larger(larger(acc[0], acc[1]), larger(acc[2], acc[3]));
        for (x, y) in a_tail.iter().zip(b_tail.iter()) {
            total = larger(total, (x - y).abs());
        }
        total
    }

    /// `Σ |a_i − b_i|^p` for general `p` (callers special-case `p = 1, 2`).
    #[inline]
    pub fn sum_pow_diff(a: &[f64], b: &[f64], p: f64) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        // `powf` dominates here; lane-splitting buys nothing.
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            acc += (x - y).abs().powf(p);
        }
        acc
    }

    /// `Σ a_i · b_i` — inner product (for Angular with cached norms).
    #[inline(always)]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f64; 4];
        let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
        let (b4, b_tail) = b.split_at(b.len() - b.len() % 4);
        for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
            for lane in 0..4 {
                acc[lane] += ca[lane] * cb[lane];
            }
        }
        finish_lanes(acc[0], acc[1], acc[2], acc[3], a_tail, b_tail)
    }

    /// `Σ a_i²` — squared L2 norm (cached per row by the point arena).
    #[inline(always)]
    pub fn norm_sq(a: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
        for ca in a4.chunks_exact(4) {
            for lane in 0..4 {
                acc[lane] += ca[lane] * ca[lane];
            }
        }
        finish_lanes(acc[0], acc[1], acc[2], acc[3], a_tail, a_tail)
    }
}

/// A distance metric over `&[f64]` points.
///
/// All variants are proper metrics (or, for [`Metric::Angular`], a metric on
/// the subspace of non-zero vectors): non-negative, symmetric, zero iff the
/// points coincide (up to floating-point), and triangle-inequality compliant.
///
/// # Examples
///
/// ```
/// use fdm_core::metric::Metric;
/// let a = [0.0, 0.0];
/// let b = [3.0, 4.0];
/// assert_eq!(Metric::Euclidean.dist(&a, &b), 5.0);
/// assert_eq!(Metric::Manhattan.dist(&a, &b), 7.0);
/// assert_eq!(Metric::Chebyshev.dist(&a, &b), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Metric {
    /// L2 distance: `sqrt(Σ (a_i − b_i)²)`.
    Euclidean,
    /// L1 distance: `Σ |a_i − b_i|`.
    Manhattan,
    /// L∞ distance: `max |a_i − b_i|`.
    Chebyshev,
    /// General Lp distance for `p ≥ 1`: `(Σ |a_i − b_i|^p)^(1/p)`.
    Minkowski(
        /// The order `p ≥ 1`.
        f64,
    ),
    /// Angular distance: `arccos(cos_sim(a, b)) ∈ [0, π]`.
    ///
    /// This is the metric used by the paper for the Lyrics dataset (LDA topic
    /// vectors). For vectors with non-negative coordinates the distance is at
    /// most `π/2`. Unlike raw cosine *dissimilarity*, the angle itself is a
    /// true metric.
    Angular,
}

impl Metric {
    /// Validates metric parameters (only [`Metric::Minkowski`] carries any).
    pub fn validate(&self) -> Result<()> {
        match self {
            Metric::Minkowski(p) if !(p.is_finite() && *p >= 1.0) => {
                Err(FdmError::InvalidMinkowskiOrder { p: *p })
            }
            _ => Ok(()),
        }
    }

    /// Computes the distance between two points.
    ///
    /// `a` and `b` must have equal length. That is the caller's
    /// precondition, not checked here: this is the hot path of every
    /// algorithm, and the point arena and each stream fix one dimension
    /// before any distance is taken.
    ///
    /// # Panics
    ///
    /// A debug build asserts equal length. A release build does not check
    /// it, and rows of different lengths give no meaningful answer:
    /// depending on the metric and on which row is longer, the kernel
    /// panics (a slice index out of range) or returns a number computed from
    /// only some of the coordinates. For example, Euclidean panics when `a`
    /// is the longer row and sums over `a`'s coordinates when `b` is.
    #[inline]
    pub fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "points must have equal dimension");
        match self {
            Metric::Euclidean => kernel::sum_sq_diff(a, b).sqrt(),
            Metric::Manhattan => kernel::sum_abs_diff(a, b),
            Metric::Chebyshev => kernel::max_abs_diff(a, b),
            // The L1/L2 special cases skip `powf` entirely — the dominant
            // cost for the two most common Minkowski orders.
            Metric::Minkowski(p) if *p == 1.0 => kernel::sum_abs_diff(a, b),
            Metric::Minkowski(p) if *p == 2.0 => kernel::sum_sq_diff(a, b).sqrt(),
            Metric::Minkowski(p) => kernels::sum_pow_diff(a, b, *p).powf(1.0 / *p),
            Metric::Angular => self.dist_from_proxy(self.proxy(a, b)),
        }
    }

    /// A *monotone proxy* for the distance: cheaper than [`Metric::dist`]
    /// and order-preserving, so comparisons and argmin/argmax over proxies
    /// agree exactly with comparisons over true distances.
    ///
    /// | metric | proxy |
    /// |---|---|
    /// | Euclidean / Minkowski(2) | squared distance |
    /// | Manhattan / Minkowski(1) / Chebyshev | the distance itself |
    /// | Minkowski(p) | `Σ \|a_i − b_i\|^p` |
    /// | Angular | `−cos(a, b)` |
    ///
    /// Same equal-length precondition as [`Metric::dist`].
    #[inline]
    pub fn proxy(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Metric::Angular => self.proxy_with_sqrt_norms(a, b, point::norm(a), point::norm(b)),
            _ => self.proxy_with_sqrt_norms(a, b, 0.0, 0.0),
        }
    }

    /// [`Metric::proxy`] with precomputed L2 norms (`√(Σ a_i²)`, *not*
    /// squared) — the form the point arena caches alongside each row. Only
    /// Angular reads them; pass anything for the other metrics. The cached
    /// norms save two of the three inner products and both square roots per
    /// Angular pair on the hot path.
    #[inline]
    pub fn proxy_with_sqrt_norms(&self, a: &[f64], b: &[f64], na: f64, nb: f64) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "points must have equal dimension");
        match self {
            Metric::Euclidean => kernel::sum_sq_diff(a, b),
            Metric::Manhattan => kernel::sum_abs_diff(a, b),
            Metric::Chebyshev => kernel::max_abs_diff(a, b),
            Metric::Minkowski(p) if *p == 1.0 => kernel::sum_abs_diff(a, b),
            Metric::Minkowski(p) if *p == 2.0 => kernel::sum_sq_diff(a, b),
            Metric::Minkowski(p) => kernels::sum_pow_diff(a, b, *p),
            Metric::Angular => {
                if na == 0.0 || nb == 0.0 {
                    // The angle is undefined for the zero vector; treat it as
                    // orthogonal to everything so degenerate inputs do not
                    // poison min-distances with NaN. −cos(π/2) = 0.
                    return 0.0;
                }
                let cos = (kernel::dot(a, b) / (na * nb)).clamp(-1.0, 1.0);
                -cos
            }
        }
    }

    /// Maps a distance threshold into proxy space: `d(a, b) ≥ t` holds iff
    /// `proxy(a, b) ≥ proxy_from_dist(t)` (for finite `t ≥ 0`).
    #[inline]
    pub fn proxy_from_dist(&self, d: f64) -> f64 {
        match self {
            Metric::Euclidean => d * d,
            Metric::Manhattan | Metric::Chebyshev => d,
            Metric::Minkowski(p) if *p == 1.0 => d,
            Metric::Minkowski(p) if *p == 2.0 => d * d,
            Metric::Minkowski(p) => d.powf(*p),
            Metric::Angular => {
                // Angular distances cannot exceed π, so a threshold beyond π
                // is unsatisfiable — map it above every reachable proxy
                // (clamping to −cos(π) = 1 would wrongly accept antipodal
                // pairs for µ > π).
                if d > std::f64::consts::PI {
                    f64::INFINITY
                } else {
                    -d.max(0.0).cos()
                }
            }
        }
    }

    /// Maps a proxy value back to the true distance (inverse of
    /// [`Metric::proxy_from_dist`] on valid proxies; `+∞` maps to `+∞`).
    #[inline]
    pub fn dist_from_proxy(&self, proxy: f64) -> f64 {
        match self {
            Metric::Euclidean => proxy.sqrt(),
            Metric::Manhattan | Metric::Chebyshev => proxy,
            Metric::Minkowski(p) if *p == 1.0 => proxy,
            Metric::Minkowski(p) if *p == 2.0 => proxy.sqrt(),
            Metric::Minkowski(p) => proxy.powf(1.0 / *p),
            Metric::Angular => {
                if proxy.is_infinite() {
                    return f64::INFINITY;
                }
                (-proxy).clamp(-1.0, 1.0).acos()
            }
        }
    }

    /// Whether [`Metric::proxy`] benefits from cached norms.
    #[inline]
    pub fn uses_norms(&self) -> bool {
        matches!(self, Metric::Angular)
    }

    /// Human-readable metric name as used in the paper's Table I.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Euclidean => "Euclidean",
            Metric::Manhattan => "Manhattan",
            Metric::Chebyshev => "Chebyshev",
            Metric::Minkowski(_) => "Minkowski",
            Metric::Angular => "Angular",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    const EPS: f64 = 1e-12;

    #[test]
    fn euclidean_basic() {
        assert!((Metric::Euclidean.dist(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < EPS);
        assert_eq!(Metric::Euclidean.dist(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn manhattan_basic() {
        assert!((Metric::Manhattan.dist(&[1.0, -1.0], &[-2.0, 3.0]) - 7.0).abs() < EPS);
    }

    #[test]
    fn chebyshev_basic() {
        assert!((Metric::Chebyshev.dist(&[1.0, -1.0], &[-2.0, 3.0]) - 4.0).abs() < EPS);
    }

    #[test]
    fn minkowski_interpolates_l1_l2() {
        let a = [0.2, -0.7, 1.3];
        let b = [-0.4, 0.9, 0.1];
        assert!((Metric::Minkowski(1.0).dist(&a, &b) - Metric::Manhattan.dist(&a, &b)).abs() < EPS);
        assert!((Metric::Minkowski(2.0).dist(&a, &b) - Metric::Euclidean.dist(&a, &b)).abs() < EPS);
    }

    #[test]
    fn minkowski_special_cases_are_exact() {
        // p = 1 and p = 2 route through the L1/L2 kernels: results must be
        // *identical* (not merely close) to Manhattan/Euclidean.
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 5.0).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 1.3).cos() * 5.0).collect();
        assert_eq!(
            Metric::Minkowski(1.0).dist(&a, &b),
            Metric::Manhattan.dist(&a, &b)
        );
        assert_eq!(
            Metric::Minkowski(2.0).dist(&a, &b),
            Metric::Euclidean.dist(&a, &b)
        );
    }

    #[test]
    fn minkowski_order_validation() {
        assert!(Metric::Minkowski(0.5).validate().is_err());
        assert!(Metric::Minkowski(f64::NAN).validate().is_err());
        assert!(Metric::Minkowski(3.0).validate().is_ok());
        assert!(Metric::Euclidean.validate().is_ok());
    }

    #[test]
    fn angular_right_angle_and_parallel() {
        let d = Metric::Angular.dist(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - FRAC_PI_2).abs() < EPS);
        let d = Metric::Angular.dist(&[1.0, 1.0], &[2.0, 2.0]);
        assert!(d.abs() < 1e-7, "parallel vectors have zero angle, got {d}");
        let d = Metric::Angular.dist(&[1.0, 0.0], &[-1.0, 0.0]);
        assert!((d - PI).abs() < 1e-7);
    }

    #[test]
    fn angular_zero_vector_is_orthogonalized() {
        let d = Metric::Angular.dist(&[0.0, 0.0], &[1.0, 0.0]);
        assert!((d - FRAC_PI_2).abs() < EPS);
        assert!(d.is_finite());
    }

    #[test]
    fn all_metrics_are_symmetric_on_samples() {
        let pts = [
            vec![0.0, 1.0, -2.0],
            vec![3.5, -0.5, 0.25],
            vec![-1.0, -1.0, -1.0],
        ];
        let metrics = [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
            Metric::Angular,
        ];
        for metric in metrics {
            for a in &pts {
                for b in &pts {
                    let d1 = metric.dist(a, b);
                    let d2 = metric.dist(b, a);
                    assert!((d1 - d2).abs() < 1e-12, "{metric:?} not symmetric");
                    assert!(d1 >= 0.0);
                }
            }
        }
    }

    #[test]
    fn proxy_agrees_with_dist_ordering_and_round_trips() {
        let metrics = [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(1.0),
            Metric::Minkowski(2.0),
            Metric::Minkowski(3.5),
            Metric::Angular,
        ];
        let pts: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..5)
                    .map(|j| ((i * 5 + j) as f64 * 0.37).sin() * 3.0)
                    .collect()
            })
            .collect();
        for metric in metrics {
            for a in &pts {
                for b in &pts {
                    let d = metric.dist(a, b);
                    let p = metric.proxy(a, b);
                    // Round trip.
                    assert!(
                        (metric.dist_from_proxy(p) - d).abs() < 1e-9,
                        "{metric:?}: proxy {p} maps to {} not {d}",
                        metric.dist_from_proxy(p)
                    );
                    // Threshold equivalence for thresholds clearly below and
                    // above the distance (at the exact boundary both sides
                    // agree to within one ulp by construction).
                    // 1e-7 margin: the Angular proxy (like acos before it)
                    // cannot resolve angle differences below ~1e-8 rad.
                    for (t, expected) in [(d * 0.9 - 1e-7, true), (d * 1.1 + 1e-7, false)] {
                        if t <= 0.0 {
                            continue; // guesses µ are always positive
                        }
                        let via_proxy = p >= metric.proxy_from_dist(t);
                        assert_eq!(
                            via_proxy, expected,
                            "{metric:?}: threshold {t} disagreement (d = {d}, p = {p})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn angular_threshold_beyond_pi_rejects_antipodal_pairs() {
        // d(a, −a) = π; a guess µ > π must never be satisfied (the old
        // direct `dist >= mu` comparison rejected it, and so must the proxy
        // test — clamping to −cos(π) would wrongly accept).
        use crate::point::{Element, PointStore};
        use crate::streaming::candidate::{ArrivalProxies, Candidate};
        let metric = Metric::Angular;
        let (a, b) = (
            Element::new(0, vec![1.0, 0.0], 0),
            Element::new(1, vec![-1.0, 0.0], 0),
        );
        let p = metric.proxy(&a.point, &b.point);
        assert!(p < metric.proxy_from_dist(3.5));
        // At exactly π the pair still qualifies.
        assert!(p >= metric.proxy_from_dist(PI));
        // The candidate probe: µ > π keeps the first arrival (an empty
        // candidate accepts anything) and rejects its antipode; µ = π keeps
        // both.
        for (mu, kept) in [(3.5, 1), (PI, 2)] {
            let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(2));
            let mut c = Candidate::new(mu, 4, metric);
            for e in [&a, &b] {
                cache.offer(&mut store, metric, [&mut c], e);
            }
            assert_eq!(c.len(), kept, "µ = {mu}");
        }
    }

    #[test]
    fn kernels_handle_remainders() {
        // Lengths 0..9 cover every chunks_exact(4) remainder.
        for len in 0..9usize {
            let a: Vec<f64> = (0..len).map(|i| i as f64 * 1.5 - 2.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64).cos()).collect();
            let naive_sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_abs: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            let naive_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((kernels::sum_sq_diff(&a, &b) - naive_sq).abs() < 1e-12);
            assert!((kernels::sum_abs_diff(&a, &b) - naive_abs).abs() < 1e-12);
            assert!((kernels::dot(&a, &b) - naive_dot).abs() < 1e-12);
        }
    }

    #[test]
    fn names_match_paper_table1() {
        assert_eq!(Metric::Euclidean.name(), "Euclidean");
        assert_eq!(Metric::Manhattan.name(), "Manhattan");
        assert_eq!(Metric::Angular.name(), "Angular");
    }

    #[test]
    fn serde_round_trip() {
        for metric in [Metric::Euclidean, Metric::Minkowski(2.5), Metric::Angular] {
            let json = serde_json::to_string(&metric).unwrap();
            let back: Metric = serde_json::from_str(&json).unwrap();
            assert_eq!(metric, back);
        }
    }
}
