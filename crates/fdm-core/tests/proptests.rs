//! Property-based tests of the core substrates: metric axioms, guess
//! ladder, candidate invariants, balancing, threshold clustering, matroid
//! intersection, and max-flow.

use fdm_core::clustering::threshold_clusters;
use fdm_core::dataset::{Dataset, DistanceBounds};
use fdm_core::flow::FlowNetwork;
use fdm_core::guess::GuessLadder;
use fdm_core::matroid::intersection::max_common_independent_set;
use fdm_core::matroid::{Matroid, PartitionMatroid};
use fdm_core::metric::Metric;
use fdm_core::point::{Element, PointStore};
use fdm_core::streaming::candidate::{ArrivalProxies, Candidate};
use proptest::prelude::*;

fn any_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::Euclidean),
        Just(Metric::Manhattan),
        Just(Metric::Chebyshev),
        (1.0f64..5.0).prop_map(Metric::Minkowski),
        Just(Metric::Angular),
    ]
}

/// Every metric form the candidate probe distinguishes: the L2, L1 and L∞
/// kernels, the Minkowski orders that reuse them and one that does not, and
/// Angular's cached norms.
fn probe_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::Euclidean),
        Just(Metric::Manhattan),
        Just(Metric::Chebyshev),
        Just(Metric::Minkowski(1.0)),
        Just(Metric::Minkowski(2.0)),
        Just(Metric::Minkowski(3.0)),
        Just(Metric::Angular),
    ]
}

fn point(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-50.0f64..50.0, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------- metric axioms ----------

    #[test]
    fn metric_axioms(metric in any_metric(), a in point(4), b in point(4), c in point(4)) {
        let dab = metric.dist(&a, &b);
        let dba = metric.dist(&b, &a);
        let dac = metric.dist(&a, &c);
        let dcb = metric.dist(&c, &b);
        // Non-negativity and symmetry.
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-9);
        // Identity (up to fp): d(a, a) == 0 for the Lp metrics; Angular is
        // 0 for parallel vectors, which includes a == a (non-zero norm).
        let daa = metric.dist(&a, &a);
        prop_assert!(daa.abs() < 1e-6, "d(a,a) = {daa}");
        // Triangle inequality with a small tolerance for Angular's acos.
        prop_assert!(
            dab <= dac + dcb + 1e-7,
            "triangle violated: {dab} > {dac} + {dcb}"
        );
    }

    // ---------- guess ladder ----------

    #[test]
    fn ladder_covers_bounds_geometrically(
        lo in 1e-3f64..10.0,
        spread in 1.0f64..1e4,
        eps in 0.01f64..0.9,
    ) {
        let bounds = DistanceBounds::new(lo, lo * spread).unwrap();
        let ladder = GuessLadder::new(bounds, eps).unwrap();
        let v = ladder.values();
        prop_assert_eq!(v[0], lo);
        // Strictly increasing by the 1/(1−ε) ratio.
        for w in v.windows(2) {
            prop_assert!((w[1] * (1.0 - eps) - w[0]).abs() < 1e-6 * w[0].max(1.0));
        }
        // Last rung within the bounds; next rung would exceed them.
        prop_assert!(*v.last().unwrap() <= lo * spread * (1.0 + 1e-9));
        prop_assert!(v.last().unwrap() / (1.0 - eps) > lo * spread);
        // Every value of [lo, hi] is within a (1−ε) factor of some rung.
        prop_assert!(!ladder.is_empty());
    }

    // ---------- candidate invariants ----------

    #[test]
    fn candidate_invariants_hold_for_any_stream(
        metric in probe_metric(),
        xs in proptest::collection::vec(point(2), 1..60),
        mu in 0.1f64..20.0,
        cap in 1usize..10,
    ) {
        // Angular distances lie in [0, π]: scale µ so both verdicts occur.
        let mu = if metric == Metric::Angular { mu / 8.0 } else { mu };
        // The probe decides in proxy space over the arena's cached norms;
        // `Metric::dist` maps back through sqrt/powf/acos and its own norms,
        // so the two may disagree by rounding right at the threshold.
        let slack = 1e-9 * mu;
        let mut cache = ArrivalProxies::new();
        let mut store = PointStore::new(2);
        let mut c = Candidate::new(mu, cap, metric);
        let mut rejected = Vec::new();
        for (i, x) in xs.iter().enumerate() {
            let e = Element::new(i, x.clone(), 0);
            if cache.offer(&mut store, metric, [&mut c], &e).is_none() {
                rejected.push(e);
            }
        }
        // Each kept element is interned once, and only kept ones are.
        prop_assert_eq!(store.len(), c.len());
        // Invariant 1: never exceeds capacity.
        prop_assert!(c.len() <= cap);
        // Invariant 2: pairwise distances within the candidate are >= mu.
        let rows: Vec<&[f64]> = c.members().iter().map(|&id| store.row(id)).collect();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                prop_assert!(metric.dist(a, b) >= mu - slack);
            }
        }
        // Invariant 3: if not full, every rejected element is within mu.
        if !c.is_full() {
            for e in &rejected {
                prop_assert!(rows.iter().any(|r| metric.dist(&e.point, r) < mu + slack));
            }
        }
    }

    // ---------- threshold clustering ----------

    #[test]
    fn clustering_separation_and_cohesion(
        xs in proptest::collection::vec(point(2), 2..40),
        threshold in 0.5f64..30.0,
    ) {
        let (labels, count) = threshold_clusters(&xs, Metric::Euclidean, threshold);
        prop_assert_eq!(labels.len(), xs.len());
        prop_assert!(count >= 1 && count <= xs.len());
        // Property (i) of Lemma 3: cross-cluster pairs are >= threshold apart.
        for i in 0..xs.len() {
            for j in (i + 1)..xs.len() {
                if labels[i] != labels[j] {
                    prop_assert!(Metric::Euclidean.dist(&xs[i], &xs[j]) >= threshold);
                }
            }
        }
        // Each non-singleton cluster is connected: every member has some
        // other member within the threshold.
        for i in 0..xs.len() {
            let same: Vec<usize> =
                (0..xs.len()).filter(|&j| j != i && labels[j] == labels[i]).collect();
            if !same.is_empty() {
                let nearest = same
                    .iter()
                    .map(|&j| Metric::Euclidean.dist(&xs[i], &xs[j]))
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(nearest < threshold, "member {i} disconnected");
            }
        }
    }

    // ---------- matroid intersection ----------

    #[test]
    fn intersection_is_common_independent_and_maximum(
        parts1 in proptest::collection::vec(0usize..3, 4..10),
        parts2_seed in proptest::collection::vec(0usize..3, 4..10),
        caps1 in proptest::collection::vec(1usize..3, 3),
        caps2 in proptest::collection::vec(1usize..3, 3),
    ) {
        let n = parts1.len().min(parts2_seed.len());
        let parts1 = parts1[..n].to_vec();
        let parts2 = parts2_seed[..n].to_vec();
        let m1 = PartitionMatroid::new(parts1, caps1).unwrap();
        let m2 = PartitionMatroid::new(parts2, caps2).unwrap();
        let result = max_common_independent_set(&m1, &m2, &[], None);
        prop_assert!(m1.is_independent(&result));
        prop_assert!(m2.is_independent(&result));
        // Maximality vs exhaustive search.
        let mut best = 0usize;
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            if set.len() > best && m1.is_independent(&set) && m2.is_independent(&set) {
                best = set.len();
            }
        }
        prop_assert_eq!(result.len(), best);
    }

    #[test]
    fn intersection_with_any_valid_seed_is_still_maximum(
        parts in proptest::collection::vec(0usize..4, 5..9),
        seed_index in 0usize..5,
    ) {
        let n = parts.len();
        // M1: parts with capacity 1 each; M2: positions mod 3, capacity 1.
        let m1 = PartitionMatroid::unit_capacities(parts.clone(), 4).unwrap();
        let m2 =
            PartitionMatroid::unit_capacities((0..n).map(|i| i % 3).collect(), 3).unwrap();
        let init = vec![seed_index.min(n - 1)];
        let result = max_common_independent_set(&m1, &m2, &init, None);
        let baseline = max_common_independent_set(&m1, &m2, &[], None);
        prop_assert_eq!(result.len(), baseline.len(), "seeding must not lose cardinality");
    }

    // ---------- max-flow ----------

    #[test]
    fn flow_value_bounded_by_cuts(
        caps in proptest::collection::vec(0i64..20, 5),
    ) {
        // Series-parallel network: s -(c0)- a -(c1)- t plus s -(c2)- b -(c3)- t
        // plus a cross edge a -(c4)- b. Max flow <= min(c0,c1) + min(c2,c3) + c4-ish;
        // check against the trivial source/sink cut bounds.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, caps[0]);
        net.add_edge(1, 3, caps[1]);
        net.add_edge(0, 2, caps[2]);
        net.add_edge(2, 3, caps[3]);
        net.add_edge(1, 2, caps[4]);
        let flow = net.max_flow(0, 3);
        prop_assert!(flow >= 0);
        prop_assert!(flow <= caps[0] + caps[2], "source cut violated");
        prop_assert!(flow <= caps[1] + caps[3], "sink cut violated");
    }

    // ---------- dataset round trips ----------

    #[test]
    fn dataset_row_round_trip(
        rows in proptest::collection::vec(point(3), 1..30),
        metric in any_metric(),
    ) {
        let groups = vec![0usize; rows.len()];
        let d = Dataset::from_rows(rows.clone(), groups, metric).unwrap();
        prop_assert_eq!(d.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(d.point(i), row.as_slice());
        }
        // Element views agree with storage.
        for e in d.iter() {
            prop_assert_eq!(&e.point[..], d.point(e.id));
        }
    }
}
