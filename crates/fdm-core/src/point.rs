//! Stream elements and the shared point arena.
//!
//! Distance evaluation is the hot operation of every algorithm in this
//! crate, and it is fastest over contiguous rows. The [`PointStore`] is an
//! append-only arena of row-major coordinates: datasets build one up front,
//! and the streaming algorithms intern each *retained* element into their
//! own small arena exactly once (memory stays proportional to what the
//! candidates keep, not to the stream length — the paper's Fig. 8 space
//! model). Everything downstream — candidates, balancing, clustering,
//! matroid scoring, solutions — passes cheap [`PointId`] indices around
//! instead of cloning coordinate buffers.
//!
//! [`Element`] remains the boundary type for data *arriving* from a stream:
//! an id, owned coordinates, and a group label.

use std::sync::Arc;

/// A single element of the stream: an id, a point, and a group label.
///
/// Ids are assigned by the producer (the dataset or generator) and are only
/// required to be unique within one stream; algorithms use them for
/// de-duplicated space accounting and for reporting which elements were
/// selected.
#[derive(Debug, Clone)]
pub struct Element {
    /// Unique identifier within the stream (typically the dataset row index).
    pub id: usize,
    /// Coordinates in the metric space, shared between all holders.
    pub point: Arc<[f64]>,
    /// Group label in `0..m`.
    pub group: usize,
}

impl Element {
    /// Creates a new element from owned coordinates.
    pub fn new(id: usize, point: Vec<f64>, group: usize) -> Self {
        Element {
            id,
            point: point.into(),
            group,
        }
    }

    /// Dimensionality of the element's point.
    pub fn dim(&self) -> usize {
        self.point.len()
    }
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Element {}

/// The L2 norm `√(Σ x_i²)` of `point`, summed in one accumulator.
///
/// This is the one norm of the crate: the arena caches it per row, and the
/// candidate probe and the Angular metric take it for their own points, so
/// a probe decision and the diversity later read from the arena see the
/// same bits for the same pair. The single-accumulator sum is
/// load-bearing: golden fixtures pin Angular decisions to exactly this
/// norm, so it must not be "upgraded" to the chunked kernel.
pub(crate) fn norm(point: &[f64]) -> f64 {
    let norm_sq: f64 = point.iter().map(|&x| x * x).sum();
    norm_sq.sqrt()
}

/// Index of a point inside a [`PointStore`].
///
/// `u32` keeps id lists half the size of `usize` ones; a single store is
/// capped at `u32::MAX` points, far beyond any candidate-set or dataset
/// size this crate handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(pub u32);

impl PointId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only arena of points: contiguous row-major coordinates plus a
/// group label, the producer-assigned external id, and the cached L2 norm
/// per row (used by the Angular kernel).
#[derive(Debug, Clone, Default)]
pub struct PointStore {
    dim: usize,
    coords: Vec<f64>,
    groups: Vec<u32>,
    external_ids: Vec<usize>,
    norms: Vec<f64>,
}

impl PointStore {
    /// Creates an empty store for points of dimension `dim` (must be ≥ 1).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "points must have at least one dimension");
        PointStore {
            dim,
            ..Default::default()
        }
    }

    /// Creates an empty store with room for `capacity` points.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "points must have at least one dimension");
        PointStore {
            dim,
            coords: Vec::with_capacity(capacity * dim),
            groups: Vec::with_capacity(capacity),
            external_ids: Vec::with_capacity(capacity),
            norms: Vec::with_capacity(capacity),
        }
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Dimensionality of every stored point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Appends a point, returning its arena id.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()` or the store is full
    /// (`u32::MAX` points).
    pub fn push(&mut self, external_id: usize, point: &[f64], group: usize) -> PointId {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        let id = u32::try_from(self.len()).expect("PointStore is full");
        self.coords.extend_from_slice(point);
        self.groups.push(group as u32);
        self.external_ids.push(external_id);
        self.norms.push(norm(point));
        PointId(id)
    }

    /// Appends a stream element (see [`PointStore::push`]).
    pub fn push_element(&mut self, element: &Element) -> PointId {
        self.push(element.id, &element.point, element.group)
    }

    /// The coordinates of point `id` as a contiguous row.
    #[inline]
    pub fn row(&self, id: PointId) -> &[f64] {
        let start = id.index() * self.dim;
        &self.coords[start..start + self.dim]
    }

    /// The group label of point `id`.
    #[inline]
    pub fn group(&self, id: PointId) -> usize {
        self.groups[id.index()] as usize
    }

    /// The producer-assigned external id of point `id`.
    #[inline]
    pub fn external_id(&self, id: PointId) -> usize {
        self.external_ids[id.index()]
    }

    /// Cached L2 norm of point `id`: the square root of the single-accumulator
    /// sum of squares, computed once at push.
    #[inline]
    pub fn norm(&self, id: PointId) -> f64 {
        self.norms[id.index()]
    }

    /// All group labels, indexed by arena order.
    #[inline]
    pub fn groups_raw(&self) -> &[u32] {
        &self.groups
    }

    /// All external ids, indexed by arena order.
    #[inline]
    pub fn external_ids_raw(&self) -> &[usize] {
        &self.external_ids
    }

    /// The full row-major coordinate buffer.
    #[inline]
    pub fn coords_raw(&self) -> &[f64] {
        &self.coords
    }

    /// Iterates over all arena ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = PointId> + '_ {
        (0..self.len() as u32).map(PointId)
    }

    /// Materializes point `id` as an owned [`Element`] (allocates).
    pub fn element(&self, id: PointId) -> Element {
        Element {
            id: self.external_id(id),
            point: Arc::from(self.row(id)),
            group: self.group(id),
        }
    }
}

impl serde::Serialize for PointId {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.0)
    }
}

impl serde::Deserialize for PointId {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        Ok(PointId(<u32 as serde::Deserialize>::from_value(value)?))
    }
}

impl serde::Serialize for PointStore {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("dim".to_string(), serde::Serialize::to_value(&self.dim));
        map.insert(
            "external_ids".to_string(),
            serde::Serialize::to_value(&self.external_ids),
        );
        map.insert(
            "groups".to_string(),
            serde::Serialize::to_value(&self.groups),
        );
        // Cached norms are intentionally omitted: they are recomputed by
        // `push` on restore through the exact code path the original run
        // used, so they cannot drift from the coordinates.
        map.insert(
            "coords".to_string(),
            serde::Serialize::to_value(&self.coords),
        );
        serde::Value::Object(map)
    }
}

// Hand-written so a malformed document (row-count mismatches, zero
// dimension, truncated coordinate buffer) is a typed error, and so the
// norm cache is rebuilt by re-appending every row through
// [`PointStore::push`] — bit-identical to the arena it snapshots.
impl serde::Deserialize for PointStore {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let get = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| serde::DeError::custom(format!("missing field `{key}`")))
        };
        let dim = <usize as serde::Deserialize>::from_value(get("dim")?)?;
        let external_ids = <Vec<usize> as serde::Deserialize>::from_value(get("external_ids")?)?;
        let groups = <Vec<u32> as serde::Deserialize>::from_value(get("groups")?)?;
        let coords = <Vec<f64> as serde::Deserialize>::from_value(get("coords")?)?;
        if dim == 0 {
            return Err(serde::DeError::custom("point store dimension must be ≥ 1"));
        }
        if groups.len() != external_ids.len() {
            return Err(serde::DeError::custom(format!(
                "group count {} does not match external id count {}",
                groups.len(),
                external_ids.len()
            )));
        }
        if coords.len() != groups.len() * dim {
            return Err(serde::DeError::custom(format!(
                "coordinate buffer holds {} values; {} rows of dimension {dim} need {}",
                coords.len(),
                groups.len(),
                groups.len() * dim
            )));
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(serde::DeError::custom(
                "coordinate buffer contains a non-finite value",
            ));
        }
        let mut store = PointStore::with_capacity(dim, groups.len());
        for (i, (&external_id, &group)) in external_ids.iter().zip(&groups).enumerate() {
            store.push(external_id, &coords[i * dim..(i + 1) * dim], group as usize);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_dim() {
        let e = Element::new(7, vec![1.0, 2.0, 3.0], 1);
        assert_eq!(e.id, 7);
        assert_eq!(e.group, 1);
        assert_eq!(e.dim(), 3);
        assert_eq!(&e.point[..], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn equality_is_by_id() {
        let a = Element::new(1, vec![0.0], 0);
        let b = Element::new(1, vec![9.0], 1);
        let c = Element::new(2, vec![0.0], 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clone_shares_point_storage() {
        let a = Element::new(1, vec![1.0, 2.0], 0);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.point, &b.point));
    }

    #[test]
    fn store_rows_are_contiguous_and_indexed() {
        let mut store = PointStore::new(2);
        let a = store.push(10, &[1.0, 2.0], 0);
        let b = store.push(11, &[3.0, 4.0], 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.dim(), 2);
        assert_eq!(store.row(a), &[1.0, 2.0]);
        assert_eq!(store.row(b), &[3.0, 4.0]);
        assert_eq!(store.group(b), 1);
        assert_eq!(store.external_id(a), 10);
        assert_eq!(store.coords_raw(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn store_caches_norms() {
        let mut store = PointStore::new(2);
        let a = store.push(0, &[3.0, 4.0], 0);
        assert_eq!(store.norm(a), 5.0);
    }

    #[test]
    fn store_round_trips_elements() {
        let mut store = PointStore::new(3);
        let e = Element::new(42, vec![1.0, -1.0, 0.5], 2);
        let id = store.push_element(&e);
        let back = store.element(id);
        assert_eq!(back.id, 42);
        assert_eq!(back.group, 2);
        assert_eq!(&back.point[..], &e.point[..]);
    }

    #[test]
    fn ids_iterate_in_order() {
        let mut store = PointStore::new(1);
        for i in 0..5 {
            store.push(i, &[i as f64], 0);
        }
        let ids: Vec<usize> = store.ids().map(|id| store.external_id(id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn store_rejects_wrong_dim() {
        let mut store = PointStore::new(2);
        store.push(0, &[1.0], 0);
    }
}
