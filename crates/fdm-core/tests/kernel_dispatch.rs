//! End-to-end bit-identity of the kernel dispatch layer: the same stream
//! fed to SFDM2 (plain and sliding-window) under the baseline build of the
//! kernels and the auto-detected backend (the same source compiled for
//! AVX2 when the CPU has it) must retain exactly the same elements and
//! finalize to exactly the same solution. Dispatch has no setting, so this
//! test (with `tests/kernel_parity.rs`) is what keeps the baseline path
//! honest.
//!
//! This binary holds a SINGLE test on purpose: `kernel::force_mode` flips a
//! process-global override, so it must never race a concurrently running
//! test. Keep any future mode-switching assertions inside this one `fn`.

use fdm_core::dataset::Dataset;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::kernel::{self, KernelMode};
use fdm_core::metric::Metric;
use fdm_core::solution::Solution;
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardAlgorithm;
use fdm_core::streaming::sliding::SlidingWindowFdm;

/// Deterministic 3-group stream in 32 dimensions.
fn instance() -> Dataset {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(20_220_517);
    let n = 240;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..32).map(|_| rng.random::<f64>() * 10.0 - 5.0).collect())
        .collect();
    let groups: Vec<usize> = (0..n).map(|i| i % 3).collect();
    Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap()
}

/// One full run of plain + sliding-window SFDM2 under the active kernel
/// mode; returns both solutions and the retained-id sets.
fn run(d: &Dataset) -> (Solution, Solution, Vec<usize>, Vec<usize>) {
    let cfg = Sfdm2Config {
        constraint: FairnessConstraint::new(vec![2; 3]).unwrap(),
        epsilon: 0.1,
        bounds: d.exact_distance_bounds().unwrap(),
        metric: Metric::Euclidean,
    };
    let mut plain = Sfdm2::new(cfg.clone()).unwrap();
    let mut sliding = SlidingWindowFdm::new(cfg, 160).unwrap();
    for e in d.iter() {
        ShardAlgorithm::insert(&mut plain, &e);
        ShardAlgorithm::insert(&mut sliding, &e);
    }
    let store = plain.store();
    let retained_plain: Vec<usize> = store.ids().map(|id| store.external_id(id)).collect();
    let sol_plain = ShardAlgorithm::finalize(&plain).unwrap();
    let sol_sliding = ShardAlgorithm::finalize(&sliding).unwrap();
    let stored_sliding = vec![ShardAlgorithm::stored_elements(&sliding)];
    (sol_plain, sol_sliding, retained_plain, stored_sliding)
}

fn assert_solutions_identical(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(
        a.diversity.to_bits(),
        b.diversity.to_bits(),
        "{what}: diversity differs ({} vs {})",
        a.diversity,
        b.diversity
    );
    assert_eq!(a.elements.len(), b.elements.len(), "{what}: solution size");
    for (x, y) in a.elements.iter().zip(&b.elements) {
        assert_eq!(x.id, y.id, "{what}: element ids");
        assert_eq!(x.group, y.group, "{what}: element groups");
        assert_eq!(x.point.len(), y.point.len(), "{what}: dims");
        for (cx, cy) in x.point.iter().zip(y.point.iter()) {
            assert_eq!(cx.to_bits(), cy.to_bits(), "{what}: coordinates");
        }
    }
}

#[test]
fn all_kernel_modes_produce_bit_identical_summaries() {
    let d = instance();

    kernel::force_mode(Some(KernelMode::Scalar));
    assert_eq!(kernel::active_kernel(), "scalar");
    let scalar = run(&d);

    kernel::force_mode(Some(KernelMode::Auto));
    let auto = run(&d);

    // Restore auto-detection for any other code in this process.
    kernel::force_mode(None);

    assert_solutions_identical(&scalar.0, &auto.0, "plain sfdm2 scalar vs auto");
    assert_solutions_identical(&scalar.1, &auto.1, "sliding sfdm2 scalar vs auto");
    assert_eq!(
        scalar.2, auto.2,
        "retained arena elements must match scalar run under auto"
    );
    assert_eq!(
        scalar.3, auto.3,
        "sliding stored-element count must match scalar run under auto"
    );
}
