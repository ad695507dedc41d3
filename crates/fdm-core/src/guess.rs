//! The geometric guess ladder `U` for the optimal diversity.
//!
//! Algorithm 1 (line 1) guesses `OPT` within a relative error of `1 − ε` by
//! maintaining one candidate per value in
//!
//! ```text
//! U = { d_min / (1−ε)^j  :  j ∈ Z≥0,  d_min/(1−ε)^j ∈ [d_min, d_max] }
//! ```
//!
//! `|U| = O(log ∆ / ε)` where `∆ = d_max/d_min`; this cardinality is the
//! factor that appears in all of the paper's time/space bounds.

use crate::dataset::DistanceBounds;
use crate::error::{FdmError, Result};

/// Materialized guess ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct GuessLadder {
    values: Vec<f64>,
    epsilon: f64,
}

impl GuessLadder {
    /// Builds the ladder from validated distance bounds and `ε ∈ (0, 1)`.
    ///
    /// The ladder always contains at least `d_min`; the largest value is the
    /// last power of `1/(1−ε)` not exceeding `d_max` (plus a tiny relative
    /// tolerance so that `d_max` itself is included when the spread is an
    /// exact power).
    pub fn new(bounds: DistanceBounds, epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(FdmError::InvalidEpsilon { epsilon });
        }
        let mut values = Vec::new();
        let mut mu = bounds.lower;
        // Tolerate 1 ulp-ish accumulation so an exact-power d_max is kept.
        let limit = bounds.upper * (1.0 + 1e-12);
        while mu <= limit {
            values.push(mu);
            mu /= 1.0 - epsilon;
        }
        debug_assert!(!values.is_empty());
        Ok(GuessLadder { values, epsilon })
    }

    /// The number of guesses [`GuessLadder::new`] builds for these bounds
    /// and `ε`, in closed form and without building anything:
    /// `⌊ln(d_max/d_min) / ln(1/(1−ε))⌋ + 1`. The ladder's running product
    /// can round its length one guess either way, so this sizes a ladder;
    /// it does not index one. It is an `f64` because a tiny `ε` asks for
    /// more guesses than a `usize` counts.
    pub(crate) fn predicted_len(bounds: DistanceBounds, epsilon: f64) -> Result<f64> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(FdmError::InvalidEpsilon { epsilon });
        }
        let spread = bounds.upper * (1.0 + 1e-12) / bounds.lower;
        Ok((spread.ln() / -(-epsilon).ln_1p()).floor().max(0.0) + 1.0)
    }

    /// The guesses in increasing order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of guesses `|U|`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the ladder is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `ε` the ladder was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Iterate over `(index, µ)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(lo: f64, hi: f64) -> DistanceBounds {
        DistanceBounds::new(lo, hi).unwrap()
    }

    #[test]
    fn ladder_is_geometric() {
        let ladder = GuessLadder::new(bounds(1.0, 100.0), 0.1).unwrap();
        let v = ladder.values();
        assert_eq!(v[0], 1.0);
        for w in v.windows(2) {
            assert!((w[1] * (1.0 - 0.1) - w[0]).abs() < 1e-9);
        }
        assert!(*v.last().unwrap() <= 100.0 * (1.0 + 1e-9));
        // Next rung would overflow d_max.
        assert!(v.last().unwrap() / 0.9 > 100.0);
    }

    #[test]
    fn ladder_cardinality_matches_theory() {
        // |U| ≈ ln(∆)/ln(1/(1−ε)) + 1.
        let eps = 0.1;
        let spread: f64 = 1e4;
        let ladder = GuessLadder::new(bounds(1.0, spread), eps).unwrap();
        let expected = (spread.ln() / (1.0 / (1.0 - eps)).ln()).floor() as usize + 1;
        assert_eq!(ladder.len(), expected);
    }

    #[test]
    fn predicted_len_matches_the_built_ladder() {
        for (lo, hi) in [
            (1.0, 1.0),
            (1.0, 100.0),
            (0.05, 30.0),
            (1e-3, 1e3),
            (0.5, 500.0),
        ] {
            for eps in [0.01, 0.05, 0.1, 0.25, 0.5, 0.9] {
                let built = GuessLadder::new(bounds(lo, hi), eps).unwrap().len() as f64;
                let predicted = GuessLadder::predicted_len(bounds(lo, hi), eps).unwrap();
                assert!(
                    (built - predicted).abs() <= 1.0,
                    "[{lo}, {hi}] eps {eps}: built {built}, predicted {predicted}"
                );
            }
        }
        // Sized without building: this ladder would hold ~6.4e9 guesses.
        let huge = GuessLadder::predicted_len(bounds(0.05, 30.0), 1e-9).unwrap();
        assert!(huge > 6e9 && huge < 7e9, "{huge}");
        assert!(GuessLadder::predicted_len(bounds(1.0, 2.0), 1.0).is_err());
    }

    #[test]
    fn smaller_epsilon_means_more_guesses() {
        let b = bounds(0.5, 500.0);
        let coarse = GuessLadder::new(b, 0.25).unwrap();
        let fine = GuessLadder::new(b, 0.05).unwrap();
        assert!(fine.len() > 2 * coarse.len());
    }

    #[test]
    fn degenerate_spread_single_guess() {
        let ladder = GuessLadder::new(bounds(2.0, 2.0), 0.1).unwrap();
        assert_eq!(ladder.values(), &[2.0]);
    }

    #[test]
    fn rejects_bad_epsilon() {
        for eps in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(
                GuessLadder::new(bounds(1.0, 2.0), eps).is_err(),
                "eps={eps}"
            );
        }
    }

    #[test]
    fn exact_power_upper_bound_is_included() {
        let eps = 0.5;
        // d_max = d_min / (1-eps)^3 exactly.
        let hi = 1.0 / (0.5f64.powi(3));
        let ladder = GuessLadder::new(bounds(1.0, hi), eps).unwrap();
        assert_eq!(ladder.len(), 4);
        assert!((ladder.values()[3] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn iter_matches_values() {
        let ladder = GuessLadder::new(bounds(1.0, 10.0), 0.2).unwrap();
        let collected: Vec<f64> = ladder.iter().map(|(_, mu)| mu).collect();
        assert_eq!(collected.as_slice(), ladder.values());
        let idxs: Vec<usize> = ladder.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, (0..ladder.len()).collect::<Vec<_>>());
    }
}
