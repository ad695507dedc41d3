//! Integration tests of the bench harness itself: determinism of averaged
//! runs, workload/constraint wiring, and CSV artifacts.

use fdm_bench::measure::{run_algorithm, run_averaged, Algo, RunConfig};
use fdm_bench::report::Table;
use fdm_bench::workloads::{SizeMode, Workload};
use fdm_core::fairness::FairnessConstraint;

#[test]
fn runs_are_deterministic_given_seed() {
    let d = Workload::Synthetic { n: 1_000, m: 2 }
        .build(SizeMode::Default, 3)
        .unwrap();
    let c = FairnessConstraint::new(vec![3, 3]).unwrap();
    let cfg = RunConfig {
        constraint: c,
        epsilon: 0.1,
        seed: 5,
        shards: 1,
        window: 0,
    };
    let a = run_algorithm(&d, Algo::Sfdm1, &cfg).unwrap();
    let b = run_algorithm(&d, Algo::Sfdm1, &cfg).unwrap();
    assert_eq!(a.diversity, b.diversity);
    assert_eq!(a.stored_elements, b.stored_elements);
}

#[test]
fn different_permutations_change_the_stream() {
    let d = Workload::Synthetic { n: 2_000, m: 2 }
        .build(SizeMode::Default, 3)
        .unwrap();
    let c = FairnessConstraint::new(vec![3, 3]).unwrap();
    let divs: Vec<f64> = (0..4)
        .map(|seed| {
            run_algorithm(
                &d,
                Algo::Sfdm1,
                &RunConfig {
                    constraint: c.clone(),
                    epsilon: 0.1,
                    seed,
                    shards: 1,
                    window: 0,
                },
            )
            .unwrap()
            .diversity
        })
        .collect();
    // Not all permutations should give the identical diversity (the stream
    // order matters for which elements the candidates keep).
    let first = divs[0];
    assert!(
        divs.iter().any(|&x| (x - first).abs() > 1e-12),
        "all permutations identical: {divs:?}"
    );
}

#[test]
fn averaged_diversity_is_within_min_max_of_singles() {
    let d = Workload::Synthetic { n: 1_500, m: 3 }
        .build(SizeMode::Default, 7)
        .unwrap();
    let c = FairnessConstraint::new(vec![2, 2, 2]).unwrap();
    let singles: Vec<f64> = (0..3)
        .map(|seed| {
            run_algorithm(
                &d,
                Algo::Sfdm2,
                &RunConfig {
                    constraint: c.clone(),
                    epsilon: 0.1,
                    seed,
                    shards: 1,
                    window: 0,
                },
            )
            .unwrap()
            .diversity
        })
        .collect();
    let avg = run_averaged(&d, Algo::Sfdm2, &c, 0.1, 3).unwrap().diversity;
    let lo = singles.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = singles.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        avg >= lo - 1e-12 && avg <= hi + 1e-12,
        "avg {avg} outside [{lo}, {hi}]"
    );
}

#[test]
fn workload_epsilon_and_groups_are_consistent() {
    for w in Workload::table2_rows() {
        let d = w.build(SizeMode::Quick, 1).unwrap();
        assert_eq!(d.num_groups(), w.num_groups(), "{}", w.name());
        let eps = w.default_epsilon();
        assert!(eps > 0.0 && eps < 1.0);
        // ER constraint at k=20 (or m if larger) must be feasible on the
        // quick instance.
        let k = 20usize.max(w.num_groups());
        let c = FairnessConstraint::equal_representation(k, w.num_groups()).unwrap();
        c.check_feasible(d.group_sizes()).unwrap();
    }
}

#[test]
fn csv_artifacts_round_trip() {
    let mut t = Table::new(vec!["a", "b"]);
    t.push_row(vec!["1.5", "x,y"]);
    let path = t.write_csv("harness_test_artifact").unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    assert!(content.starts_with("a,b\n"));
    assert!(content.contains("\"x,y\""));
    std::fs::remove_file(path).unwrap();
}

#[test]
fn gmm_reference_dominates_fair_algorithms() {
    // Table II sanity encoded as a test: the unconstrained GMM reference
    // should (weakly) dominate every fair algorithm on the same instance.
    let d = Workload::Synthetic { n: 2_000, m: 2 }
        .build(SizeMode::Default, 11)
        .unwrap();
    let c = FairnessConstraint::new(vec![10, 10]).unwrap();
    let gmm = run_averaged(&d, Algo::Gmm, &c, 0.1, 1).unwrap().diversity;
    for algo in [Algo::FairSwap, Algo::FairFlow, Algo::Sfdm1, Algo::Sfdm2] {
        let r = run_averaged(&d, algo, &c, 0.1, 2).unwrap();
        assert!(
            r.diversity <= gmm * 1.0 + 1e-9,
            "{algo:?} {} exceeds the unconstrained reference {gmm}",
            r.diversity
        );
    }
}
