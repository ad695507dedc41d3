//! Error types for the `fdm-core` crate.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FdmError>;

/// Errors raised by dataset construction, constraint validation, and the
/// diversity-maximization algorithms.
///
/// All constructors in this crate validate their inputs and report problems
/// through this type; the algorithms themselves are panic-free on inputs that
/// passed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FdmError {
    /// A dimension mismatch between points, or an empty point.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Observed dimensionality.
        found: usize,
    },
    /// Group label out of range, or group/point counts disagree.
    InvalidGroup {
        /// The offending group label.
        group: usize,
        /// Number of groups the container was declared with.
        num_groups: usize,
    },
    /// A fairness constraint with no groups or a zero quota.
    EmptyConstraint,
    /// The quotas sum to more than a `usize` holds.
    QuotaSumOverflow,
    /// An algorithm defined for exactly two groups (SFDM1, FairSwap) was
    /// given a constraint with another number of groups.
    TwoGroupsRequired {
        /// The algorithm's name.
        algorithm: &'static str,
        /// The number of groups the constraint has.
        found: usize,
    },
    /// The requested solution size exceeds the available elements of some
    /// group, so no fair solution exists.
    InfeasibleConstraint {
        /// Group whose quota cannot be met.
        group: usize,
        /// Requested number of elements.
        requested: usize,
        /// Available number of elements.
        available: usize,
    },
    /// The solution size `k` must be at least 2 for `div(S)` to be defined,
    /// or at least 1 per group.
    SolutionSizeTooSmall {
        /// Requested solution size.
        k: usize,
    },
    /// `epsilon` must lie strictly inside `(0, 1)`.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// Distance bounds must satisfy `0 < lower <= upper` and be finite.
    InvalidDistanceBounds {
        /// Lower bound supplied.
        lower: f64,
        /// Upper bound supplied.
        upper: f64,
    },
    /// The dataset is empty or has fewer elements than required.
    NotEnoughElements {
        /// Elements required.
        required: usize,
        /// Elements available.
        available: usize,
    },
    /// A point coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// A streaming algorithm was asked to finalize but no candidate reached
    /// the required size; the stream was too small or the distance bounds
    /// were wrong.
    NoFeasibleCandidate,
    /// Minkowski metric requires `p >= 1`.
    InvalidMinkowskiOrder {
        /// The offending order.
        p: f64,
    },
    /// A sharded stream needs at least one shard.
    InvalidShardCount,
    /// A summary specification whose footprint — the most element slots
    /// its candidates can hold together — is over the fixed ceiling.
    SummaryTooLarge {
        /// The spec's footprint (an `f64`: a spec can ask for more slots
        /// than a `usize` counts).
        slots: f64,
        /// The ceiling.
        ceiling: u64,
    },
    /// A snapshot file could not be read or written.
    SnapshotIo {
        /// Human-readable description (path + OS error).
        detail: String,
    },
    /// A snapshot document is malformed: bad magic, truncated/invalid JSON,
    /// missing fields, or internally inconsistent state (e.g. a candidate
    /// member index past the end of the stored arena).
    CorruptSnapshot {
        /// What failed to parse or validate.
        detail: String,
    },
    /// The snapshot was written by an unknown (newer) format version.
    UnsupportedSnapshotVersion {
        /// Version found in the file.
        found: u64,
        /// Highest version this build understands.
        supported: u64,
    },
    /// The snapshot is well-formed but does not match the configuration it
    /// is being restored against: different algorithm, dimension, `ε`,
    /// metric, distance bounds, group count/quotas, or shard count.
    IncompatibleSnapshot {
        /// Which parameter disagreed, with both values.
        detail: String,
    },
}

impl fmt::Display for FdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdmError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            FdmError::InvalidGroup { group, num_groups } => {
                write!(f, "group label {group} out of range for {num_groups} groups")
            }
            FdmError::EmptyConstraint => {
                write!(f, "fairness constraint must have at least one group with a positive quota")
            }
            FdmError::QuotaSumOverflow => {
                write!(f, "quotas sum to more than the largest solution size k")
            }
            FdmError::TwoGroupsRequired { algorithm, found } => write!(
                f,
                "{algorithm} needs exactly 2 groups, the constraint has {found}"
            ),
            FdmError::InfeasibleConstraint { group, requested, available } => write!(
                f,
                "infeasible constraint: group {group} has {available} elements but {requested} requested"
            ),
            FdmError::SolutionSizeTooSmall { k } => {
                write!(f, "solution size {k} too small: diversity needs k >= 2")
            }
            FdmError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must be in (0, 1), got {epsilon}")
            }
            FdmError::InvalidDistanceBounds { lower, upper } => write!(
                f,
                "distance bounds must satisfy 0 < lower <= upper (finite), got [{lower}, {upper}]"
            ),
            FdmError::NotEnoughElements { required, available } => {
                write!(f, "not enough elements: need {required}, have {available}")
            }
            FdmError::NonFiniteCoordinate => write!(f, "point contains NaN or infinite coordinate"),
            FdmError::NoFeasibleCandidate => write!(
                f,
                "no candidate reached the required size; check distance bounds and stream length"
            ),
            FdmError::InvalidMinkowskiOrder { p } => {
                write!(f, "Minkowski order must satisfy p >= 1, got {p}")
            }
            FdmError::InvalidShardCount => {
                write!(f, "sharded ingestion requires at least one shard")
            }
            FdmError::SummaryTooLarge { slots, ceiling } => write!(
                f,
                "summary too large: the spec asks for up to {slots:.3e} element slots \
                 (guesses x candidates per guess x shards x k), over the ceiling of {ceiling}"
            ),
            FdmError::SnapshotIo { detail } => write!(f, "snapshot I/O error: {detail}"),
            FdmError::CorruptSnapshot { detail } => write!(f, "corrupt snapshot: {detail}"),
            FdmError::UnsupportedSnapshotVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports up to {supported})"
            ),
            FdmError::IncompatibleSnapshot { detail } => {
                write!(f, "incompatible snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for FdmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(FdmError, &str)> = vec![
            (
                FdmError::DimensionMismatch {
                    expected: 3,
                    found: 2,
                },
                "dimension mismatch",
            ),
            (
                FdmError::InvalidGroup {
                    group: 5,
                    num_groups: 2,
                },
                "out of range",
            ),
            (FdmError::EmptyConstraint, "at least one group"),
            (FdmError::QuotaSumOverflow, "quotas sum"),
            (
                FdmError::TwoGroupsRequired {
                    algorithm: "SFDM1",
                    found: 3,
                },
                "SFDM1 needs exactly 2 groups, the constraint has 3",
            ),
            (
                FdmError::InfeasibleConstraint {
                    group: 1,
                    requested: 4,
                    available: 2,
                },
                "infeasible",
            ),
            (FdmError::SolutionSizeTooSmall { k: 1 }, "too small"),
            (FdmError::InvalidEpsilon { epsilon: 1.5 }, "epsilon"),
            (
                FdmError::InvalidDistanceBounds {
                    lower: -1.0,
                    upper: 2.0,
                },
                "distance bounds",
            ),
            (
                FdmError::NotEnoughElements {
                    required: 10,
                    available: 3,
                },
                "not enough",
            ),
            (FdmError::NonFiniteCoordinate, "NaN"),
            (FdmError::NoFeasibleCandidate, "no candidate"),
            (FdmError::InvalidMinkowskiOrder { p: 0.5 }, "Minkowski"),
            (FdmError::InvalidShardCount, "at least one shard"),
            (
                FdmError::SummaryTooLarge {
                    slots: 2.0e14,
                    ceiling: 1 << 22,
                },
                "too large",
            ),
            (
                FdmError::SnapshotIo {
                    detail: "open /tmp/x.snap: no such file".into(),
                },
                "snapshot i/o",
            ),
            (
                FdmError::CorruptSnapshot {
                    detail: "bad magic".into(),
                },
                "corrupt snapshot",
            ),
            (
                FdmError::UnsupportedSnapshotVersion {
                    found: 9,
                    supported: 1,
                },
                "unsupported snapshot version 9",
            ),
            (
                FdmError::IncompatibleSnapshot {
                    detail: "dimension 3 != 2".into(),
                },
                "incompatible snapshot",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.to_lowercase().contains(&needle.to_lowercase()),
                "message {msg:?} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = FdmError::SolutionSizeTooSmall { k: 1 };
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, FdmError::NonFiniteCoordinate);
    }

    #[test]
    fn error_trait_object_works() {
        let err: Box<dyn std::error::Error> = Box::new(FdmError::EmptyConstraint);
        assert!(err.to_string().contains("constraint"));
    }
}
