//! Fairness constraints (per-group quotas).
//!
//! The paper's group-fairness notion assigns a quota `k_i ≥ 1` to each of
//! the `m` disjoint groups and requires `|S ∩ X_i| = k_i` (Definition 1).
//! Two standard quota policies from §V-A are provided:
//!
//! * **Equal representation (ER)**: `k_i ∈ {⌊k/m⌋, ⌈k/m⌉}` with
//!   `Σ k_i = k` — the paper's default.
//! * **Proportional representation (PR)**: `k_i ∝ |X_i|`, rounded with
//!   largest-remainder so that `Σ k_i = k` and every group keeps at least
//!   one slot (Fig. 9).

use serde::Serialize;

use crate::error::{FdmError, Result};

/// A per-group quota vector `k_1..k_m` with `k = Σ k_i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FairnessConstraint {
    quotas: Vec<usize>,
    total: usize,
}

// Hand-written (rather than derived) so any document — in particular a
// tampered snapshot — goes back through [`FairnessConstraint::new`]'s
// validation, and an inconsistent cached `total` is rejected instead of
// silently trusted.
impl serde::Deserialize for FairnessConstraint {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let quotas_value = value
            .get("quotas")
            .ok_or_else(|| serde::DeError::custom("missing field `quotas`"))?;
        let quotas = <Vec<usize> as serde::Deserialize>::from_value(quotas_value)?;
        let constraint = FairnessConstraint::new(quotas).map_err(serde::DeError::custom)?;
        if let Some(total) = value.get("total") {
            let total = <usize as serde::Deserialize>::from_value(total)?;
            if total != constraint.total {
                return Err(serde::DeError::custom(format!(
                    "quota total {total} does not match sum {}",
                    constraint.total
                )));
            }
        }
        Ok(constraint)
    }
}

impl FairnessConstraint {
    /// Creates a constraint from explicit quotas; each must be ≥ 1, the
    /// total must be ≥ 2 (diversity is undefined for singleton solutions)
    /// and must fit a `usize`.
    pub fn new(quotas: Vec<usize>) -> Result<Self> {
        if quotas.is_empty() || quotas.contains(&0) {
            return Err(FdmError::EmptyConstraint);
        }
        let total = quotas
            .iter()
            .try_fold(0usize, |total, &q| total.checked_add(q))
            .ok_or(FdmError::QuotaSumOverflow)?;
        if total < 2 {
            return Err(FdmError::SolutionSizeTooSmall { k: total });
        }
        Ok(FairnessConstraint { quotas, total })
    }

    /// Equal representation: split `k` as evenly as possible over `m`
    /// groups, giving the first `k mod m` groups one extra slot.
    ///
    /// Requires `k ≥ m` so every group receives at least one slot, matching
    /// the paper's restriction "an algorithm must pick at least one element
    /// from each group".
    pub fn equal_representation(k: usize, m: usize) -> Result<Self> {
        if m == 0 {
            return Err(FdmError::EmptyConstraint);
        }
        if k < m || k < 2 {
            return Err(FdmError::SolutionSizeTooSmall { k });
        }
        let base = k / m;
        let extra = k % m;
        let quotas = (0..m).map(|i| base + usize::from(i < extra)).collect();
        FairnessConstraint::new(quotas)
    }

    /// Proportional representation: quota `k_i ∝ group_sizes[i]`, with
    /// largest-remainder rounding, a floor of one slot per group, and
    /// `Σ k_i = k` exactly.
    pub fn proportional_representation(k: usize, group_sizes: &[usize]) -> Result<Self> {
        let m = group_sizes.len();
        if m == 0 {
            return Err(FdmError::EmptyConstraint);
        }
        if k < m || k < 2 {
            return Err(FdmError::SolutionSizeTooSmall { k });
        }
        let n: usize = group_sizes.iter().sum();
        if n == 0 {
            return Err(FdmError::NotEnoughElements {
                required: k,
                available: 0,
            });
        }
        // Start from the floor of the exact share, but at least 1.
        let shares: Vec<f64> = group_sizes
            .iter()
            .map(|&s| k as f64 * s as f64 / n as f64)
            .collect();
        let mut quotas: Vec<usize> = shares
            .iter()
            .map(|&x| (x.floor() as usize).max(1))
            .collect();
        let mut assigned: usize = quotas.iter().sum();
        // Largest-remainder: hand out remaining slots by descending
        // fractional part; withdraw from smallest-remainder groups (quota
        // permitting) if the floor+min-1 overshoots.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            let fa = shares[a] - shares[a].floor();
            let fb = shares[b] - shares[b].floor();
            fb.partial_cmp(&fa).unwrap()
        });
        let mut idx = 0;
        while assigned < k {
            let g = order[idx % m];
            quotas[g] += 1;
            assigned += 1;
            idx += 1;
        }
        let mut idx = 0;
        while assigned > k {
            let g = order[m - 1 - (idx % m)];
            if quotas[g] > 1 {
                quotas[g] -= 1;
                assigned -= 1;
            }
            idx += 1;
        }
        FairnessConstraint::new(quotas)
    }

    /// Number of groups `m`.
    pub fn num_groups(&self) -> usize {
        self.quotas.len()
    }

    /// Total solution size `k = Σ k_i`.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Quota for group `i`.
    pub fn quota(&self, i: usize) -> usize {
        self.quotas[i]
    }

    /// All quotas.
    pub fn quotas(&self) -> &[usize] {
        &self.quotas
    }

    /// Checks a per-group count vector against the quotas (exact equality).
    pub fn is_satisfied_by(&self, counts: &[usize]) -> bool {
        counts.len() == self.quotas.len() && counts.iter().zip(&self.quotas).all(|(&c, &q)| c == q)
    }

    /// Verifies that a dataset with the given group sizes admits a fair
    /// solution (`k_i ≤ |X_i|` for all `i`).
    pub fn check_feasible(&self, group_sizes: &[usize]) -> Result<()> {
        if group_sizes.len() < self.quotas.len() {
            return Err(FdmError::InvalidGroup {
                group: self.quotas.len() - 1,
                num_groups: group_sizes.len(),
            });
        }
        for (i, &q) in self.quotas.iter().enumerate() {
            if group_sizes[i] < q {
                return Err(FdmError::InfeasibleConstraint {
                    group: i,
                    requested: q,
                    available: group_sizes[i],
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_quotas() {
        let c = FairnessConstraint::new(vec![3, 2, 1]).unwrap();
        assert_eq!(c.num_groups(), 3);
        assert_eq!(c.total(), 6);
        assert_eq!(c.quota(0), 3);
        assert_eq!(c.quotas(), &[3, 2, 1]);
    }

    #[test]
    fn rejects_zero_quota_and_empty() {
        assert!(FairnessConstraint::new(vec![]).is_err());
        assert!(FairnessConstraint::new(vec![2, 0]).is_err());
        assert!(
            FairnessConstraint::new(vec![1]).is_err(),
            "total k=1 undefined"
        );
    }

    #[test]
    fn rejects_quotas_whose_sum_overflows() {
        assert_eq!(
            FairnessConstraint::new(vec![usize::MAX, 1]),
            Err(FdmError::QuotaSumOverflow)
        );
        assert_eq!(
            FairnessConstraint::new(vec![usize::MAX - 1, 1])
                .unwrap()
                .total(),
            usize::MAX
        );
    }

    #[test]
    fn equal_representation_divisible() {
        let c = FairnessConstraint::equal_representation(20, 5).unwrap();
        assert_eq!(c.quotas(), &[4, 4, 4, 4, 4]);
    }

    #[test]
    fn equal_representation_remainder() {
        let c = FairnessConstraint::equal_representation(20, 3).unwrap();
        assert_eq!(c.total(), 20);
        assert_eq!(c.quotas(), &[7, 7, 6]);
        for &q in c.quotas() {
            assert!(q == 6 || q == 7);
        }
    }

    #[test]
    fn equal_representation_requires_k_at_least_m() {
        assert!(FairnessConstraint::equal_representation(3, 5).is_err());
        assert!(FairnessConstraint::equal_representation(5, 5).is_ok());
    }

    #[test]
    fn proportional_sums_to_k_with_floor_one() {
        // Adult-like skew: 87% / 5% / 4% / 3% / 1%.
        let sizes = [8700, 500, 400, 300, 100];
        let c = FairnessConstraint::proportional_representation(20, &sizes).unwrap();
        assert_eq!(c.total(), 20);
        assert!(c.quotas().iter().all(|&q| q >= 1));
        // Dominant group takes the bulk.
        assert!(c.quota(0) >= 15, "quotas {:?}", c.quotas());
    }

    #[test]
    fn proportional_equal_sizes_matches_equal_representation() {
        let sizes = [100, 100, 100, 100];
        let pr = FairnessConstraint::proportional_representation(20, &sizes).unwrap();
        let er = FairnessConstraint::equal_representation(20, 4).unwrap();
        assert_eq!(pr.quotas(), er.quotas());
    }

    #[test]
    fn proportional_extreme_skew_keeps_minimum_one() {
        let sizes = [1_000_000, 1, 1];
        let c = FairnessConstraint::proportional_representation(5, &sizes).unwrap();
        assert_eq!(c.total(), 5);
        assert!(c.quota(1) >= 1 && c.quota(2) >= 1);
    }

    #[test]
    fn satisfied_by_checks_exact_counts() {
        let c = FairnessConstraint::new(vec![2, 3]).unwrap();
        assert!(c.is_satisfied_by(&[2, 3]));
        assert!(!c.is_satisfied_by(&[3, 2]));
        assert!(!c.is_satisfied_by(&[2, 3, 0]));
        assert!(!c.is_satisfied_by(&[2]));
    }

    #[test]
    fn feasibility_check() {
        let c = FairnessConstraint::new(vec![2, 3]).unwrap();
        assert!(c.check_feasible(&[5, 5]).is_ok());
        let err = c.check_feasible(&[5, 2]).unwrap_err();
        assert!(matches!(
            err,
            FdmError::InfeasibleConstraint { group: 1, .. }
        ));
        assert!(c.check_feasible(&[5]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = FairnessConstraint::new(vec![4, 4, 2]).unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: FairnessConstraint = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
