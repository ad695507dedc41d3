//! In-memory datasets and distance-bound estimation.
//!
//! A [`Dataset`] is the offline view of the data: a [`PointStore`] arena
//! (flat row-major storage with cached norms), a group label per row, and
//! the metric. Offline baselines (GMM, FairSwap, FairFlow, FairGMM) operate
//! on it directly with random access; streaming algorithms consume it
//! through [`Dataset::iter`], which yields owned [`Element`]s in row order
//! (use `fdm-datasets`' permutation streams for randomized arrival orders).
//!
//! Loaders that produce rows one at a time should go through
//! [`DatasetBuilder`], which validates and appends each row straight into
//! the arena without materializing a `Vec<Vec<f64>>` first.

use crate::error::{FdmError, Result};
use crate::metric::Metric;
use crate::point::{Element, PointId, PointStore};

/// Known or estimated bounds `0 < lower ≤ OPT ≤ upper` on pairwise
/// distances, required by the guess ladder of Algorithm 1.
///
/// The paper assumes `d_min` and `d_max` (and hence the spread
/// `∆ = d_max/d_min`) are known. [`Dataset::exact_distance_bounds`] computes
/// them exactly in `O(n²)`; [`Dataset::sampled_distance_bounds`] estimates
/// them from a sample, which is what a practical streaming deployment would
/// do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBounds {
    /// Lower bound on the minimum pairwise distance (must be > 0).
    pub lower: f64,
    /// Upper bound on the maximum pairwise distance.
    pub upper: f64,
}

impl DistanceBounds {
    /// Creates validated bounds.
    pub fn new(lower: f64, upper: f64) -> Result<Self> {
        if !(lower.is_finite() && upper.is_finite()) || lower <= 0.0 || lower > upper {
            return Err(FdmError::InvalidDistanceBounds { lower, upper });
        }
        Ok(DistanceBounds { lower, upper })
    }

    /// The metric spread `∆ = d_max / d_min`.
    pub fn spread(&self) -> f64 {
        self.upper / self.lower
    }
}

impl serde::Serialize for DistanceBounds {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("lower".to_string(), serde::Serialize::to_value(&self.lower));
        map.insert("upper".to_string(), serde::Serialize::to_value(&self.upper));
        serde::Value::Object(map)
    }
}

// Hand-written (rather than derived) so restored bounds re-run the
// constructor's validation: `lower ≤ 0`, non-finite, or inverted bounds in a
// tampered snapshot must surface as an error, not loop the guess ladder.
impl serde::Deserialize for DistanceBounds {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let get = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| serde::DeError::custom(format!("missing field `{key}`")))
        };
        let lower = <f64 as serde::Deserialize>::from_value(get("lower")?)?;
        let upper = <f64 as serde::Deserialize>::from_value(get("upper")?)?;
        DistanceBounds::new(lower, upper).map_err(serde::DeError::custom)
    }
}

/// Incremental [`Dataset`] construction: rows are validated and appended
/// straight into the point arena.
#[derive(Debug)]
pub struct DatasetBuilder {
    store: PointStore,
    metric: Metric,
}

impl DatasetBuilder {
    /// Starts a dataset of dimension `dim` under `metric`.
    pub fn new(dim: usize, metric: Metric) -> Result<Self> {
        Self::with_capacity(dim, metric, 0)
    }

    /// Like [`DatasetBuilder::new`] with an expected row-count hint.
    pub fn with_capacity(dim: usize, metric: Metric, capacity: usize) -> Result<Self> {
        if dim == 0 {
            return Err(FdmError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        metric.validate()?;
        Ok(DatasetBuilder {
            store: PointStore::with_capacity(dim, capacity),
            metric,
        })
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no rows were pushed yet.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Validates and appends one row (external id = row index).
    pub fn push_row(&mut self, row: &[f64], group: usize) -> Result<()> {
        if row.len() != self.store.dim() {
            return Err(FdmError::DimensionMismatch {
                expected: self.store.dim(),
                found: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(FdmError::NonFiniteCoordinate);
        }
        let id = self.store.len();
        self.store.push(id, row, group);
        Ok(())
    }

    /// Finishes the dataset (must hold at least one row).
    pub fn finish(self) -> Result<Dataset> {
        if self.store.is_empty() {
            return Err(FdmError::NotEnoughElements {
                required: 1,
                available: 0,
            });
        }
        let num_groups = self
            .store
            .groups_raw()
            .iter()
            .map(|&g| g as usize)
            .max()
            .unwrap_or(0)
            + 1;
        let mut group_sizes = vec![0usize; num_groups];
        for &g in self.store.groups_raw() {
            group_sizes[g as usize] += 1;
        }
        Ok(Dataset {
            store: self.store,
            num_groups,
            group_sizes,
            metric: self.metric,
        })
    }
}

/// A finite set of points with group labels in a metric space.
///
/// Storage is a row-major [`PointStore`] arena (`n × dim` contiguous
/// coordinates plus cached norms), with one group label in `0..m`
/// per row.
#[derive(Debug, Clone)]
pub struct Dataset {
    store: PointStore,
    num_groups: usize,
    group_sizes: Vec<usize>,
    metric: Metric,
}

impl Dataset {
    /// Builds a dataset from row vectors and per-row group labels.
    ///
    /// Validates that all rows share one dimensionality, all coordinates are
    /// finite, and group labels are dense in `0..m` where
    /// `m = max(label) + 1` (empty intermediate groups are permitted but make
    /// most constraints infeasible).
    pub fn from_rows(rows: Vec<Vec<f64>>, groups: Vec<usize>, metric: Metric) -> Result<Self> {
        if rows.len() != groups.len() {
            return Err(FdmError::InvalidGroup {
                group: groups.len(),
                num_groups: rows.len(),
            });
        }
        if rows.is_empty() {
            return Err(FdmError::NotEnoughElements {
                required: 1,
                available: 0,
            });
        }
        let dim = rows[0].len();
        let mut builder = DatasetBuilder::with_capacity(dim, metric, rows.len())?;
        for (row, &group) in rows.iter().zip(&groups) {
            builder.push_row(row, group)?;
        }
        builder.finish()
    }

    /// Builds a dataset from flat row-major storage.
    pub fn from_flat(
        data: Vec<f64>,
        dim: usize,
        groups: Vec<usize>,
        metric: Metric,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(FdmError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        if data.len() != groups.len() * dim {
            return Err(FdmError::DimensionMismatch {
                expected: groups.len() * dim,
                found: data.len(),
            });
        }
        let mut builder = DatasetBuilder::with_capacity(dim, metric, groups.len())?;
        for (row, &group) in data.chunks_exact(dim).zip(&groups) {
            builder.push_row(row, group)?;
        }
        builder.finish()
    }

    /// Number of elements `n`.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Dimensionality of each point.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Number of groups `m`.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Number of elements in each group.
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    /// The metric the dataset was constructed with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The underlying point arena (rows, groups, cached norms).
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// The arena id of row `i`.
    #[inline]
    pub fn point_id(&self, i: usize) -> PointId {
        PointId(i as u32)
    }

    /// The point at row `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        self.store.row(PointId(i as u32))
    }

    /// The group label of row `i`.
    #[inline]
    pub fn group(&self, i: usize) -> usize {
        self.store.group(PointId(i as u32))
    }

    /// Distance between rows `i` and `j` under the dataset metric (uses the
    /// arena's cached norms for the Angular kernel).
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (PointId(i as u32), PointId(j as u32));
        self.metric
            .dist_from_proxy(self.metric.proxy_with_sqrt_norms(
                self.store.row(a),
                self.store.row(b),
                self.store.norm(a),
                self.store.norm(b),
            ))
    }

    /// Distance between row `i` and an external point.
    #[inline]
    pub fn dist_to(&self, i: usize, p: &[f64]) -> f64 {
        self.metric.dist(self.point(i), p)
    }

    /// Iterates over the dataset as a stream of owned [`Element`]s in row
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = Element> + '_ {
        (0..self.len()).map(move |i| self.element(i))
    }

    /// Materializes row `i` as an owned [`Element`].
    pub fn element(&self, i: usize) -> Element {
        self.store.element(PointId(i as u32))
    }

    /// Exact `d_min`/`d_max` over all pairs — `O(n²)` distance computations;
    /// intended for small datasets and tests. Pairs at distance zero
    /// (duplicate points) are ignored for the lower bound, matching the
    /// paper's `d_min = min_{x≠y} d(x,y)` over *distinct* elements; if all
    /// pairs coincide the bounds are degenerate and an error is returned.
    pub fn exact_distance_bounds(&self) -> Result<DistanceBounds> {
        let n = self.len();
        if n < 2 {
            return Err(FdmError::NotEnoughElements {
                required: 2,
                available: n,
            });
        }
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.dist(i, j);
                if d > 0.0 {
                    lo = lo.min(d);
                }
                hi = hi.max(d);
            }
        }
        DistanceBounds::new(lo, hi)
    }

    /// Estimates distance bounds from `sample_size` seeded-deterministic
    /// rows: the upper bound uses the triangle inequality
    /// (`d_max ≤ 2·max_x d(x, x_0)` scanned over the whole dataset) so it is
    /// a true upper bound, while the lower bound is the minimum non-zero
    /// pairwise distance within the sample divided by `slack` (the guess
    /// ladder only loses a `log(slack)/ε` factor in candidate count if the
    /// estimate is off).
    pub fn sampled_distance_bounds(
        &self,
        sample_size: usize,
        slack: f64,
    ) -> Result<DistanceBounds> {
        let n = self.len();
        if n < 2 {
            return Err(FdmError::NotEnoughElements {
                required: 2,
                available: n,
            });
        }
        // Upper bound: one pass relative to row 0.
        let mut max_to_anchor: f64 = 0.0;
        for i in 1..n {
            max_to_anchor = max_to_anchor.max(self.dist(0, i));
        }
        let upper = (2.0 * max_to_anchor).max(f64::MIN_POSITIVE);

        // Lower bound: deterministic stratified sample (every n/s-th row).
        let s = sample_size.clamp(2, n);
        let stride = (n / s).max(1);
        let sample: Vec<usize> = (0..n).step_by(stride).take(s).collect();
        let mut lo = f64::INFINITY;
        for (a, &i) in sample.iter().enumerate() {
            for &j in &sample[a + 1..] {
                let d = self.dist(i, j);
                if d > 0.0 {
                    lo = lo.min(d);
                }
            }
        }
        if !lo.is_finite() {
            return Err(FdmError::InvalidDistanceBounds { lower: 0.0, upper });
        }
        let slack = slack.max(1.0);
        DistanceBounds::new(lo / slack, upper)
    }

    /// Indices of all elements belonging to `group`.
    pub fn group_indices(&self, group: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.group(i) == group)
            .collect()
    }

    /// Segments the arena into `k` round-robin shards of row indices —
    /// exactly the sub-streams each shard of a
    /// [`crate::streaming::sharded::ShardedStream`] would see if this
    /// dataset were streamed in row order. Useful for comparing offline
    /// shard pipelines (coresets) against sharded ingestion on identical
    /// partitions, and for replaying one shard's view in isolation.
    pub fn round_robin_shards(&self, k: usize) -> Vec<Vec<usize>> {
        crate::coreset::round_robin_chunks(self.len(), k)
    }

    /// Iterates one round-robin shard's sub-stream (see
    /// [`Dataset::round_robin_shards`]): every `k`-th element starting at
    /// `shard`, as owned [`Element`]s in arrival order.
    pub fn shard_iter(&self, shard: usize, k: usize) -> impl Iterator<Item = Element> + '_ {
        let k = k.max(1);
        debug_assert!(shard < k, "shard index {shard} out of range for {k} shards");
        (shard..self.len()).step_by(k).map(move |i| self.element(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dataset() -> Dataset {
        // Points 0, 1, 2, 3 on a line; alternating groups.
        Dataset::from_rows(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![0, 1, 0, 1],
            Metric::Euclidean,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = line_dataset();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 1);
        assert_eq!(d.num_groups(), 2);
        assert_eq!(d.group_sizes(), &[2, 2]);
        assert_eq!(d.point(2), &[2.0]);
        assert_eq!(d.group(3), 1);
        assert_eq!(d.dist(0, 3), 3.0);
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let a = line_dataset();
        let b = Dataset::from_flat(
            vec![0.0, 1.0, 2.0, 3.0],
            1,
            vec![0, 1, 0, 1],
            Metric::Euclidean,
        )
        .unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.point(i), b.point(i));
            assert_eq!(a.group(i), b.group(i));
        }
    }

    #[test]
    fn builder_matches_from_rows() {
        let a = line_dataset();
        let mut builder = DatasetBuilder::new(1, Metric::Euclidean).unwrap();
        for (i, x) in [0.0, 1.0, 2.0, 3.0].iter().enumerate() {
            builder.push_row(&[*x], i % 2).unwrap();
        }
        assert_eq!(builder.len(), 4);
        let b = builder.finish().unwrap();
        assert_eq!(a.num_groups(), b.num_groups());
        for i in 0..a.len() {
            assert_eq!(a.point(i), b.point(i));
            assert_eq!(a.group(i), b.group(i));
        }
    }

    #[test]
    fn builder_validates_rows() {
        let mut builder = DatasetBuilder::new(2, Metric::Euclidean).unwrap();
        assert!(matches!(
            builder.push_row(&[1.0], 0),
            Err(FdmError::DimensionMismatch { .. })
        ));
        assert_eq!(
            builder.push_row(&[1.0, f64::NAN], 0),
            Err(FdmError::NonFiniteCoordinate)
        );
        assert!(builder.is_empty());
        assert!(builder.finish().is_err(), "empty dataset rejected");
    }

    #[test]
    fn store_is_exposed_with_cached_norms() {
        let d = line_dataset();
        let store = d.store();
        assert_eq!(store.len(), 4);
        assert_eq!(store.norm(d.point_id(3)), 3.0);
        assert_eq!(store.row(d.point_id(2)), d.point(2));
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Dataset::from_rows(
            vec![vec![0.0, 1.0], vec![2.0]],
            vec![0, 0],
            Metric::Euclidean,
        )
        .unwrap_err();
        assert!(matches!(err, FdmError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_non_finite() {
        let err = Dataset::from_rows(vec![vec![f64::NAN]], vec![0], Metric::Euclidean).unwrap_err();
        assert_eq!(err, FdmError::NonFiniteCoordinate);
    }

    #[test]
    fn rejects_mismatched_group_count() {
        let err = Dataset::from_rows(vec![vec![0.0]], vec![0, 1], Metric::Euclidean).unwrap_err();
        assert!(matches!(err, FdmError::InvalidGroup { .. }));
    }

    #[test]
    fn rejects_empty() {
        assert!(Dataset::from_rows(vec![], vec![], Metric::Euclidean).is_err());
        assert!(Dataset::from_flat(vec![], 2, vec![], Metric::Euclidean).is_err());
    }

    #[test]
    fn exact_bounds_on_line() {
        let d = line_dataset();
        let b = d.exact_distance_bounds().unwrap();
        assert_eq!(b.lower, 1.0);
        assert_eq!(b.upper, 3.0);
        assert_eq!(b.spread(), 3.0);
    }

    #[test]
    fn exact_bounds_ignore_duplicates() {
        let d = Dataset::from_rows(
            vec![vec![0.0], vec![0.0], vec![5.0]],
            vec![0, 0, 0],
            Metric::Euclidean,
        )
        .unwrap();
        let b = d.exact_distance_bounds().unwrap();
        assert_eq!(b.lower, 5.0);
        assert_eq!(b.upper, 5.0);
    }

    #[test]
    fn exact_bounds_all_duplicates_is_error() {
        let d =
            Dataset::from_rows(vec![vec![1.0], vec![1.0]], vec![0, 0], Metric::Euclidean).unwrap();
        assert!(d.exact_distance_bounds().is_err());
    }

    #[test]
    fn sampled_bounds_bracket_exact() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i as f64) * 0.37, (i as f64 * 0.11).sin()])
            .collect();
        let groups = vec![0; 200];
        let d = Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap();
        let exact = d.exact_distance_bounds().unwrap();
        let est = d.sampled_distance_bounds(50, 4.0).unwrap();
        assert!(est.upper >= exact.upper, "upper must be a true bound");
        assert!(est.lower <= exact.lower * 4.0 + 1e-9);
        assert!(est.lower > 0.0);
    }

    #[test]
    fn group_indices() {
        let d = line_dataset();
        assert_eq!(d.group_indices(0), vec![0, 2]);
        assert_eq!(d.group_indices(1), vec![1, 3]);
    }

    #[test]
    fn round_robin_shards_match_shard_iter() {
        let d = line_dataset();
        let shards = d.round_robin_shards(3);
        assert_eq!(shards, vec![vec![0, 3], vec![1], vec![2]]);
        for (s, indices) in shards.iter().enumerate() {
            let via_iter: Vec<usize> = d.shard_iter(s, 3).map(|e| e.id).collect();
            assert_eq!(&via_iter, indices);
        }
        // k = 1 is the whole stream in order.
        let all: Vec<usize> = d.shard_iter(0, 1).map(|e| e.id).collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn iter_yields_elements_in_order() {
        let d = line_dataset();
        let elems: Vec<Element> = d.iter().collect();
        assert_eq!(elems.len(), 4);
        assert_eq!(elems[2].id, 2);
        assert_eq!(&elems[2].point[..], &[2.0]);
        assert_eq!(elems[2].group, 0);
    }

    #[test]
    fn bounds_validation() {
        assert!(DistanceBounds::new(0.0, 1.0).is_err());
        assert!(DistanceBounds::new(2.0, 1.0).is_err());
        assert!(DistanceBounds::new(f64::NAN, 1.0).is_err());
        assert!(DistanceBounds::new(0.5, 0.5).is_ok());
    }
}
