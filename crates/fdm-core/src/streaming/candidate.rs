//! Bounded greedy candidates `S_µ` — the building block of Algorithm 1.
//!
//! A candidate for guess `µ` accepts an arriving element iff it is not full
//! and the element is at distance ≥ µ from everything already kept
//! (Algorithm 1, lines 4–6). Two invariants follow directly and are relied
//! on by every proof in the paper:
//!
//! * `div(S_µ) ≥ µ` at all times;
//! * if the candidate is not full after the stream, every stream element is
//!   within `< µ` of it (it was rejected for proximity, not capacity).
//!
//! Candidates do not own coordinates: they keep [`PointId`]s into a shared
//! [`PointStore`] arena, and every distance test runs over contiguous arena
//! rows in *proxy space* (squared Euclidean, etc. — see
//! [`Metric::proxy_from_dist`]), so the hot threshold test performs no
//! `sqrt`/`acos` at all.

use crate::kernel;
use crate::metric::Metric;
use crate::point::{Element, PointId, PointStore};

/// Per-arrival cache of proxy distances from one arriving point to arena
/// rows, shared across every candidate of a guess ladder.
///
/// The ladder offers each arriving element to `O(m · log₁₊ε(∆))`
/// candidates, and their member lists overlap heavily (an element accepted
/// at guess `µ` typically sits in many neighboring guesses' candidates and
/// in both the blind and its group's ladder). Without the cache, each
/// candidate re-evaluates the distance kernel against the same arena rows;
/// with it, each `(arrival, arena row)` pair costs exactly one full-kernel
/// evaluation and every further test is an array lookup.
///
/// Decisions are **bit-identical** to the bounded per-candidate scans: the
/// `*_at_least` kernels are association-identical to their full-sum
/// counterparts and every term is non-negative, so `full_proxy ≥ bound`
/// agrees exactly with the early-exit comparison (pinned by
/// `tests/kernel_parity.rs`).
#[derive(Debug, Clone, Default)]
pub struct ArrivalProxies {
    /// Exact proxy to arena row `i`, valid iff `stamps[i] == epoch`.
    vals: Vec<f64>,
    /// Arrival counter at which each slot was last written.
    stamps: Vec<u64>,
    /// Current arrival's generation stamp (epoch-stamping makes the
    /// per-arrival reset O(1) instead of an arena-length clear).
    epoch: u64,
    /// L2 norm (`√norm_sq`) of the current arrival (0 unless the metric
    /// uses norms).
    norm: f64,
}

impl ArrivalProxies {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ArrivalProxies::default()
    }

    /// Resets the cache for a new arriving `point`: every slot becomes
    /// "unknown" by bumping the generation stamp (slot storage grows but is
    /// never rewritten), and the arrival's norm is computed once for
    /// norm-using metrics.
    pub fn begin_arrival(&mut self, store: &PointStore, metric: Metric, point: &[f64]) {
        if self.stamps.len() < store.len() {
            // Stamp 0 is never a valid epoch (the first arrival uses 1).
            self.stamps.resize(store.len(), 0);
            self.vals.resize(store.len(), 0.0);
        }
        self.epoch += 1;
        self.norm = if metric.uses_norms() {
            kernel::norm_sq(point).sqrt()
        } else {
            0.0
        };
    }

    /// The exact proxy distance from the arriving `point` to arena row
    /// `id`, computing it on first use (cached norms from the arena, the
    /// arrival norm from [`ArrivalProxies::begin_arrival`]).
    #[inline]
    pub fn proxy(&mut self, store: &PointStore, metric: Metric, point: &[f64], id: PointId) -> f64 {
        let i = id.index();
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.vals[i] =
                metric.proxy_with_sqrt_norms(point, store.row(id), self.norm, store.norm(id));
        }
        self.vals[i]
    }
}

/// One candidate set `S_µ` with threshold `µ` and capacity `cap`.
#[derive(Debug, Clone)]
pub struct Candidate {
    mu: f64,
    /// `proxy_from_dist(mu)`, precomputed once.
    mu_proxy: f64,
    capacity: usize,
    metric: Metric,
    members: Vec<PointId>,
}

impl Candidate {
    /// Creates an empty candidate. Nothing is allocated up front: the
    /// member list grows with accepted arrivals, so a large `capacity`
    /// costs nothing until elements arrive.
    pub fn new(mu: f64, capacity: usize, metric: Metric) -> Self {
        Candidate {
            mu,
            mu_proxy: metric.proxy_from_dist(mu),
            capacity,
            metric,
            members: Vec::new(),
        }
    }

    /// The guess `µ` this candidate is maintained for.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Maximum number of elements the candidate may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of elements.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the candidate holds no elements.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the candidate reached its capacity.
    pub fn is_full(&self) -> bool {
        self.members.len() >= self.capacity
    }

    /// The kept arena ids, in insertion order.
    pub fn members(&self) -> &[PointId] {
        &self.members
    }

    /// Materializes the kept elements from the arena, in insertion order.
    pub fn elements(&self, store: &PointStore) -> Vec<Element> {
        self.members.iter().map(|&id| store.element(id)).collect()
    }

    /// Minimum *proxy* distance from `point` to the candidate
    /// (`+∞` when empty), with early exit once below the threshold proxy.
    #[inline]
    fn proxy_distance_to(&self, store: &PointStore, point: &[f64], norm_sq: f64) -> f64 {
        let mut best = f64::INFINITY;
        for &id in &self.members {
            let p = self
                .metric
                .proxy_with_norms(point, store.row(id), norm_sq, store.norm_sq(id));
            if p < best {
                best = p;
                // Early exit: once below the threshold the element will be
                // rejected anyway; saves ~half the distance evaluations in
                // the hot path without changing behavior.
                if best < self.mu_proxy {
                    break;
                }
            }
        }
        best
    }

    /// Distance from `point` to the candidate (`+∞` when empty).
    ///
    /// May return any value `< µ` early once rejection is certain (same
    /// contract as the scan it replaces: exact above the threshold).
    #[inline]
    pub fn distance_to(&self, store: &PointStore, point: &[f64]) -> f64 {
        let norm_sq = if self.metric.uses_norms() {
            kernel::norm_sq(point)
        } else {
            0.0
        };
        self.metric
            .dist_from_proxy(self.proxy_distance_to(store, point, norm_sq))
    }

    /// The acceptance test of Algorithm 1 line 5 — `!full ∧ d(point, S_µ) ≥ µ`
    /// — entirely in proxy space with bounded (partial-sum) row scans.
    /// Read-only: safe to evaluate for many candidates in parallel against
    /// the same arena.
    #[inline]
    pub fn accepts(&self, store: &PointStore, point: &[f64], norm_sq: f64) -> bool {
        !self.is_full()
            && self.members.iter().all(|&id| {
                self.metric.proxy_at_least(
                    point,
                    store.row(id),
                    norm_sq,
                    store.norm_sq(id),
                    self.mu_proxy,
                )
            })
    }

    /// [`Candidate::accepts`] through a shared per-arrival proxy cache: the
    /// distance to each arena row is computed at most once per arrival no
    /// matter how many candidates test it. Decisions are bit-identical to
    /// the uncached test (see [`ArrivalProxies`]). The cache must have been
    /// prepared for this arrival with [`ArrivalProxies::begin_arrival`].
    #[inline]
    pub fn accepts_cached(
        &self,
        store: &PointStore,
        cache: &mut ArrivalProxies,
        point: &[f64],
    ) -> bool {
        !self.is_full()
            && self
                .members
                .iter()
                .all(|&id| cache.proxy(store, self.metric, point, id) >= self.mu_proxy)
    }

    /// Records an already-interned accepted point (see
    /// [`Candidate::accepts`]; the caller interns into the arena once and
    /// pushes the id into every accepting candidate).
    #[inline]
    pub fn push(&mut self, id: PointId) {
        debug_assert!(!self.is_full());
        self.members.push(id);
    }

    /// Algorithm 1, lines 5–6 for a *single* candidate owning its arena:
    /// interns and keeps `element` iff it is not full and
    /// `d(element, S_µ) ≥ µ`. Returns whether it was kept.
    ///
    /// Multi-candidate algorithms share one arena instead: they call
    /// [`Candidate::accepts`] on every candidate, intern once, then
    /// [`Candidate::push`] the id into each acceptor.
    #[inline]
    pub fn try_insert(&mut self, store: &mut PointStore, element: &Element) -> bool {
        let norm_sq = if self.metric.uses_norms() {
            kernel::norm_sq(&element.point)
        } else {
            0.0
        };
        if self.accepts(store, &element.point, norm_sq) {
            let id = store.push_element(element);
            self.members.push(id);
            true
        } else {
            false
        }
    }

    /// `div(S_µ)` over the kept elements (`+∞` for fewer than two).
    pub fn diversity(&self, store: &PointStore) -> f64 {
        let mut best = f64::INFINITY;
        for (i, &a) in self.members.iter().enumerate() {
            for &b in &self.members[i + 1..] {
                let p = self.metric.proxy_with_norms(
                    store.row(a),
                    store.row(b),
                    store.norm_sq(a),
                    store.norm_sq(b),
                );
                if p < best {
                    best = p;
                }
            }
        }
        self.metric.dist_from_proxy(best)
    }

    /// Consumes the candidate, returning its member ids.
    pub fn into_members(self) -> Vec<PointId> {
        self.members
    }

    /// Replaces the member list wholesale — the snapshot-restore path.
    /// The caller must have validated the ids (they index the shared arena)
    /// and the count (`≤ capacity`); see `crate::persist`.
    pub(crate) fn restore_members(&mut self, members: Vec<PointId>) {
        debug_assert!(members.len() <= self.capacity);
        self.members = members;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(id: usize, x: f64) -> Element {
        Element::new(id, vec![x], 0)
    }

    #[test]
    fn accepts_far_rejects_near() {
        let mut store = PointStore::new(1);
        let mut c = Candidate::new(1.0, 5, Metric::Euclidean);
        assert!(c.try_insert(&mut store, &elem(0, 0.0)));
        assert!(
            !c.try_insert(&mut store, &elem(1, 0.5)),
            "0.5 < mu rejected"
        );
        assert!(
            c.try_insert(&mut store, &elem(2, 1.0)),
            "exactly mu accepted"
        );
        assert!(c.try_insert(&mut store, &elem(3, 2.5)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut store = PointStore::new(1);
        let mut c = Candidate::new(1.0, 2, Metric::Euclidean);
        assert!(c.try_insert(&mut store, &elem(0, 0.0)));
        assert!(c.try_insert(&mut store, &elem(1, 10.0)));
        assert!(c.is_full());
        assert!(
            !c.try_insert(&mut store, &elem(2, 20.0)),
            "full candidate rejects everything"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn diversity_invariant_holds() {
        let mut store = PointStore::new(1);
        let mut c = Candidate::new(2.0, 10, Metric::Euclidean);
        for (i, x) in [0.0, 1.0, 2.0, 3.5, 4.0, 9.0, 10.5].iter().enumerate() {
            c.try_insert(&mut store, &elem(i, *x));
        }
        assert!(c.diversity(&store) >= c.mu(), "div(S_mu) >= mu must hold");
    }

    #[test]
    fn rejected_elements_are_close_when_not_full() {
        let mut store = PointStore::new(1);
        let mut c = Candidate::new(1.0, 10, Metric::Euclidean);
        let stream = [0.0, 0.4, 0.9, 3.0, 3.3, 7.0];
        let mut rejected = Vec::new();
        for (i, x) in stream.iter().enumerate() {
            let e = elem(i, *x);
            if !c.try_insert(&mut store, &e) {
                rejected.push(e);
            }
        }
        assert!(!c.is_full());
        for e in rejected {
            assert!(
                c.distance_to(&store, &e.point) < 1.0,
                "rejected element must be within mu"
            );
        }
    }

    #[test]
    fn distance_to_empty_is_infinite() {
        let store = PointStore::new(1);
        let c = Candidate::new(1.0, 3, Metric::Euclidean);
        assert_eq!(c.distance_to(&store, &[42.0]), f64::INFINITY);
    }

    #[test]
    fn diversity_of_small_candidates_is_infinite() {
        let mut store = PointStore::new(1);
        let mut c = Candidate::new(1.0, 3, Metric::Euclidean);
        assert_eq!(c.diversity(&store), f64::INFINITY);
        c.try_insert(&mut store, &elem(0, 0.0));
        assert_eq!(c.diversity(&store), f64::INFINITY);
    }

    #[test]
    fn into_members_preserves_order() {
        let mut store = PointStore::new(1);
        let mut c = Candidate::new(1.0, 3, Metric::Euclidean);
        c.try_insert(&mut store, &elem(5, 0.0));
        c.try_insert(&mut store, &elem(9, 5.0));
        let ids: Vec<usize> = c
            .into_members()
            .iter()
            .map(|&id| store.external_id(id))
            .collect();
        assert_eq!(ids, vec![5, 9]);
    }

    #[test]
    fn manhattan_candidate() {
        let mut store = PointStore::new(2);
        let mut c = Candidate::new(2.0, 4, Metric::Manhattan);
        assert!(c.try_insert(&mut store, &Element::new(0, vec![0.0, 0.0], 0)));
        // Manhattan distance 1.5 < 2 → reject; Euclidean would be ~1.06 too.
        assert!(!c.try_insert(&mut store, &Element::new(1, vec![0.75, 0.75], 0)));
        // Manhattan distance 2.0 → accept.
        assert!(c.try_insert(&mut store, &Element::new(2, vec![1.0, 1.0], 0)));
    }

    #[test]
    fn angular_candidate_uses_cached_norms() {
        let mut store = PointStore::new(2);
        let mut c = Candidate::new(0.5, 4, Metric::Angular);
        assert!(c.try_insert(&mut store, &Element::new(0, vec![1.0, 0.0], 0)));
        // Same direction, different magnitude: angle 0 < 0.5 → reject.
        assert!(!c.try_insert(&mut store, &Element::new(1, vec![5.0, 0.0], 0)));
        // Right angle: π/2 ≥ 0.5 → accept.
        assert!(c.try_insert(&mut store, &Element::new(2, vec![0.0, 3.0], 0)));
        assert!((c.diversity(&store) - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn shared_arena_accept_then_push() {
        // The multi-candidate protocol: probe with `accepts`, intern once,
        // push into every acceptor.
        let mut store = PointStore::new(1);
        let mut c1 = Candidate::new(1.0, 4, Metric::Euclidean);
        let mut c2 = Candidate::new(5.0, 4, Metric::Euclidean);
        for (i, x) in [0.0, 2.0, 7.0].iter().enumerate() {
            let e = elem(i, *x);
            let nsq = kernel::norm_sq(&e.point);
            let a1 = c1.accepts(&store, &e.point, nsq);
            let a2 = c2.accepts(&store, &e.point, nsq);
            if a1 || a2 {
                let id = store.push_element(&e);
                if a1 {
                    c1.push(id);
                }
                if a2 {
                    c2.push(id);
                }
            }
        }
        assert_eq!(c1.len(), 3); // 0, 2, 7 all pairwise >= 1 apart
        assert_eq!(c2.len(), 2); // 0 and 7
        assert_eq!(store.len(), 3, "each element interned exactly once");
    }
}
