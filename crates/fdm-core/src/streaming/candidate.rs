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
//!
//! The test has one implementation, [`ArrivalProxies::offer`]: every
//! algorithm hands it an arriving element and the candidates to test, and
//! the element is interned at most once however many of them keep it.

use crate::metric::Metric;
use crate::point::{self, Element, PointId, PointStore};

/// Per-arrival cache of proxy distances from one arriving point to arena
/// rows, shared across every candidate of a guess ladder.
///
/// The ladder offers each arriving element to `O(m · log₁₊ε(∆))`
/// candidates, and their member lists overlap heavily (an element accepted
/// at guess `µ` typically sits in many neighboring guesses' candidates and
/// in both the blind and its group's ladder). Without the cache, each
/// candidate would re-evaluate the distance kernel against the same arena
/// rows; with it, each `(arrival, arena row)` pair costs exactly one
/// kernel evaluation and every further test is an array lookup. The cached
/// value is the exact proxy, so every decision is the full comparison
/// `proxy ≥ proxy_from_dist(µ)`.
#[derive(Debug, Clone, Default)]
pub struct ArrivalProxies {
    /// Exact proxy to arena row `i`, valid iff `stamps[i] == epoch`.
    vals: Vec<f64>,
    /// Arrival counter at which each slot was last written.
    stamps: Vec<u64>,
    /// Current arrival's generation stamp (epoch-stamping makes the
    /// per-arrival reset O(1) instead of an arena-length clear).
    epoch: u64,
    /// L2 norm ([`point::norm`], the arena's own) of the current arrival
    /// (0 unless the metric uses norms).
    norm: f64,
}

impl ArrivalProxies {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ArrivalProxies::default()
    }

    /// Algorithm 1, lines 4–6, for every candidate of a ladder at once:
    /// offers `element` to each of `candidates` in order, and each one that
    /// is not full and finds the element at distance ≥ µ from all of its
    /// members keeps it. The element is interned into `store` on its first
    /// acceptance only, and that one id goes into every accepting
    /// candidate. Returns the id, or `None` if no candidate kept the
    /// element (the store is then unchanged).
    ///
    /// Every candidate must be over `store` and use `metric`.
    #[inline]
    pub fn offer<'a>(
        &mut self,
        store: &mut PointStore,
        metric: Metric,
        candidates: impl IntoIterator<Item = &'a mut Candidate>,
        element: &Element,
    ) -> Option<PointId> {
        self.begin_arrival(store, metric, &element.point);
        // The freshly interned id never needs a cache slot: it is only
        // pushed into candidates that already made their decision for this
        // arrival.
        let mut interned: Option<PointId> = None;
        for candidate in candidates {
            if candidate.accepts_cached(store, self, &element.point) {
                let id = *interned.get_or_insert_with(|| store.push_element(element));
                candidate.push(id);
            }
        }
        interned
    }

    /// Resets the cache for a new arriving `point`: every slot becomes
    /// "unknown" by bumping the generation stamp (slot storage grows but is
    /// never rewritten), and the arrival's norm is computed once for
    /// norm-using metrics.
    fn begin_arrival(&mut self, store: &PointStore, metric: Metric, point: &[f64]) {
        if self.stamps.len() < store.len() {
            // Stamp 0 is never a valid epoch (the first arrival uses 1).
            self.stamps.resize(store.len(), 0);
            self.vals.resize(store.len(), 0.0);
        }
        self.epoch += 1;
        self.norm = if metric.uses_norms() {
            point::norm(point)
        } else {
            0.0
        };
    }

    /// The exact proxy distance from the arriving `point` to arena row
    /// `id`, computing it on first use (cached norms from the arena, the
    /// arrival norm from [`ArrivalProxies::begin_arrival`]).
    #[inline]
    fn proxy(&mut self, store: &PointStore, metric: Metric, point: &[f64], id: PointId) -> f64 {
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

    /// The acceptance test of Algorithm 1 line 5 — `!full ∧ d(point, S_µ) ≥ µ`
    /// — in proxy space through the shared per-arrival cache: the distance
    /// to each arena row is computed at most once per arrival no matter how
    /// many candidates test it. The cache must have been prepared for this
    /// arrival with [`ArrivalProxies::begin_arrival`].
    #[inline]
    fn accepts_cached(
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

    /// Records an already-interned point that
    /// [`Candidate::accepts_cached`] accepted (see
    /// [`ArrivalProxies::offer`], which interns once and pushes the id into
    /// every acceptor).
    #[inline]
    fn push(&mut self, id: PointId) {
        debug_assert!(!self.is_full());
        self.members.push(id);
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
    use crate::diversity::diversity_of_ids;

    fn elem(id: usize, x: f64) -> Element {
        Element::new(id, vec![x], 0)
    }

    /// Offers `e` to the one candidate `c` through the production probe;
    /// whether `c` kept it.
    fn offer_one(
        cache: &mut ArrivalProxies,
        store: &mut PointStore,
        c: &mut Candidate,
        e: &Element,
    ) -> bool {
        let metric = c.metric;
        cache.offer(store, metric, [c], e).is_some()
    }

    #[test]
    fn accepts_far_rejects_near() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c = Candidate::new(1.0, 5, Metric::Euclidean);
        assert!(offer_one(&mut cache, &mut store, &mut c, &elem(0, 0.0)));
        assert!(
            !offer_one(&mut cache, &mut store, &mut c, &elem(1, 0.5)),
            "0.5 < mu rejected"
        );
        assert!(
            offer_one(&mut cache, &mut store, &mut c, &elem(2, 1.0)),
            "exactly mu accepted"
        );
        assert!(offer_one(&mut cache, &mut store, &mut c, &elem(3, 2.5)));
        assert_eq!(c.len(), 3);
        assert_eq!(store.len(), 3, "a rejected element is not interned");
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c = Candidate::new(1.0, 2, Metric::Euclidean);
        assert!(offer_one(&mut cache, &mut store, &mut c, &elem(0, 0.0)));
        assert!(offer_one(&mut cache, &mut store, &mut c, &elem(1, 10.0)));
        assert!(c.is_full());
        assert!(
            !offer_one(&mut cache, &mut store, &mut c, &elem(2, 20.0)),
            "full candidate rejects everything"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn diversity_invariant_holds() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c = Candidate::new(2.0, 10, Metric::Euclidean);
        for (i, x) in [0.0, 1.0, 2.0, 3.5, 4.0, 9.0, 10.5].iter().enumerate() {
            offer_one(&mut cache, &mut store, &mut c, &elem(i, *x));
        }
        assert!(
            diversity_of_ids(&store, c.members(), Metric::Euclidean) >= c.mu(),
            "div(S_mu) >= mu must hold"
        );
    }

    #[test]
    fn rejected_elements_are_close_when_not_full() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c = Candidate::new(1.0, 10, Metric::Euclidean);
        let stream = [0.0, 0.4, 0.9, 3.0, 3.3, 7.0];
        let mut rejected = Vec::new();
        for (i, x) in stream.iter().enumerate() {
            let e = elem(i, *x);
            if !offer_one(&mut cache, &mut store, &mut c, &e) {
                rejected.push(e);
            }
        }
        assert!(!c.is_full());
        for e in rejected {
            assert!(
                c.members()
                    .iter()
                    .any(|&id| Metric::Euclidean.dist(store.row(id), &e.point) < 1.0),
                "rejected element must be within mu"
            );
        }
    }

    #[test]
    fn diversity_of_small_candidates_is_infinite() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c = Candidate::new(1.0, 3, Metric::Euclidean);
        assert_eq!(
            diversity_of_ids(&store, c.members(), Metric::Euclidean),
            f64::INFINITY
        );
        offer_one(&mut cache, &mut store, &mut c, &elem(0, 0.0));
        assert_eq!(
            diversity_of_ids(&store, c.members(), Metric::Euclidean),
            f64::INFINITY
        );
    }

    #[test]
    fn members_keep_insertion_order() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c = Candidate::new(1.0, 3, Metric::Euclidean);
        offer_one(&mut cache, &mut store, &mut c, &elem(5, 0.0));
        offer_one(&mut cache, &mut store, &mut c, &elem(9, 5.0));
        let ids: Vec<usize> = c
            .members()
            .iter()
            .map(|&id| store.external_id(id))
            .collect();
        assert_eq!(ids, vec![5, 9]);
    }

    #[test]
    fn manhattan_candidate() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(2));
        let mut c = Candidate::new(2.0, 4, Metric::Manhattan);
        let e = |id, p: [f64; 2]| Element::new(id, p.to_vec(), 0);
        assert!(offer_one(&mut cache, &mut store, &mut c, &e(0, [0.0, 0.0])));
        // Manhattan distance 1.5 < 2 → reject; Euclidean would be ~1.06 too.
        assert!(!offer_one(
            &mut cache,
            &mut store,
            &mut c,
            &e(1, [0.75, 0.75])
        ));
        // Manhattan distance 2.0 → accept.
        assert!(offer_one(&mut cache, &mut store, &mut c, &e(2, [1.0, 1.0])));
    }

    #[test]
    fn angular_candidate_uses_cached_norms() {
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(2));
        let mut c = Candidate::new(0.5, 4, Metric::Angular);
        let e = |id, p: [f64; 2]| Element::new(id, p.to_vec(), 0);
        assert!(offer_one(&mut cache, &mut store, &mut c, &e(0, [1.0, 0.0])));
        // Same direction, different magnitude: angle 0 < 0.5 → reject.
        assert!(!offer_one(
            &mut cache,
            &mut store,
            &mut c,
            &e(1, [5.0, 0.0])
        ));
        // Right angle: π/2 ≥ 0.5 → accept.
        assert!(offer_one(&mut cache, &mut store, &mut c, &e(2, [0.0, 3.0])));
        let div = diversity_of_ids(&store, c.members(), Metric::Angular);
        assert!((div - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn angular_probe_reads_the_arena_norms() {
        // The proxy a probe compares for (arrival, member) must be, bit for
        // bit, the one `diversity_of_ids` later reads for that pair from the
        // arena; otherwise a kept pair can measure below µ.
        use rand::prelude::*;
        let metric = Metric::Angular;
        let mut rng = StdRng::seed_from_u64(29);
        for dim in [3, 16, 64] {
            for pair in 0..500 {
                let mut point =
                    || -> Vec<f64> { (0..dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect() };
                let (a, b) = (Element::new(0, point(), 0), Element::new(1, point(), 0));
                let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(dim));
                // µ = 0 keeps both elements.
                let mut c = Candidate::new(0.0, 2, metric);
                assert!(offer_one(&mut cache, &mut store, &mut c, &a));
                assert!(offer_one(&mut cache, &mut store, &mut c, &b));
                let probed = cache.vals[c.members()[0].index()];
                let (x, y) = (c.members()[0], c.members()[1]);
                let read = metric.proxy_with_sqrt_norms(
                    store.row(x),
                    store.row(y),
                    store.norm(x),
                    store.norm(y),
                );
                assert_eq!(probed.to_bits(), read.to_bits(), "d = {dim}, pair {pair}");
                assert_eq!(
                    metric.dist_from_proxy(probed).to_bits(),
                    diversity_of_ids(&store, c.members(), metric).to_bits(),
                    "d = {dim}, pair {pair}"
                );
            }
        }
    }

    #[test]
    fn shared_arena_accept_then_push() {
        // Two candidates, one `offer` per arrival: each element is interned
        // once, and the one id goes into every candidate that keeps it.
        let (mut cache, mut store) = (ArrivalProxies::new(), PointStore::new(1));
        let mut c1 = Candidate::new(1.0, 4, Metric::Euclidean);
        let mut c2 = Candidate::new(5.0, 4, Metric::Euclidean);
        let mut kept = Vec::new();
        for (i, x) in [0.0, 2.0, 7.0, 7.5].iter().enumerate() {
            let id = cache.offer(
                &mut store,
                Metric::Euclidean,
                [&mut c1, &mut c2],
                &elem(i, *x),
            );
            kept.push(id.map(|id| store.external_id(id)));
        }
        // 0, 2, 7 are pairwise >= 1 apart; 7.5 is within 1 of 7 and within
        // 5 of 7, so neither keeps it.
        assert_eq!(kept, vec![Some(0), Some(1), Some(2), None]);
        assert_eq!(c1.len(), 3);
        assert_eq!(c2.len(), 2); // 0 and 7
        assert_eq!(store.len(), 3, "each element interned exactly once");
        assert_eq!(c1.members()[2], c2.members()[1], "one id for both");
    }
}
