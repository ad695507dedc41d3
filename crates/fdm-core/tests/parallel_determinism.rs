//! Scheduling determinism: the streaming algorithms fan shard ingestion and
//! per-guess post-processing out over rayon's pool whenever the process may
//! use more than one CPU, and the results must be *identical* to a
//! single-threaded run — same retained elements, same solution ids, same
//! diversity bits.
//!
//! The single-threaded reference is pinned as data: each `Expected` below
//! was recorded from a run that forced every fan-out inline. On a
//! multi-core host these tests compare the pooled path against it; under
//! `taskset -c 0` there is no pool and they check the inline path against
//! the same values.

use fdm_core::dataset::Dataset;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::metric::Metric;
use fdm_core::point::Element;
use fdm_core::solution::Solution;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_core::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};
use rand::prelude::*;

/// The single-threaded reference outcome of one case.
struct Expected {
    stored: usize,
    ids: &'static [usize],
    diversity_bits: u64,
}

fn assert_matches(case: &str, stored: usize, solution: &Solution, expected: &Expected) {
    assert_eq!(stored, expected.stored, "{case}: stored elements differ");
    assert_eq!(solution.ids(), expected.ids, "{case}: solution ids differ");
    assert_eq!(
        solution.diversity.to_bits(),
        expected.diversity_bits,
        "{case}: diversity bits differ"
    );
}

fn random_dataset(n: usize, m: usize, dim: usize, metric: Metric, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0 + 0.1).collect())
        .collect();
    let mut groups: Vec<usize> = (0..n).map(|_| rng.random_range(0..m)).collect();
    for g in 0..m {
        groups[g] = g;
    }
    Dataset::from_rows(rows, groups, metric).unwrap()
}

fn metrics() -> Vec<Metric> {
    vec![Metric::Euclidean, Metric::Manhattan, Metric::Angular]
}

#[test]
fn sfdm1_parallel_equals_sequential() {
    let expected = [
        Expected {
            stored: 26,
            ids: &[0, 2, 9, 15, 18, 93, 98],
            diversity_bits: 0x402530c5c1b580f6,
        },
        Expected {
            stored: 29,
            ids: &[0, 1, 2, 18, 23, 24, 27],
            diversity_bits: 0x4038fefbefad683a,
        },
        Expected {
            stored: 32,
            ids: &[0, 3, 11, 33, 50, 205, 382],
            diversity_bits: 0x3fe85c94ce5677f8,
        },
    ];
    for (trial, (metric, expected)) in metrics().into_iter().zip(&expected).enumerate() {
        let d = random_dataset(400, 2, 8, metric, 100 + trial as u64);
        let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
        let cfg = Sfdm1Config {
            constraint: FairnessConstraint::new(vec![4, 3]).unwrap(),
            epsilon: 0.1,
            bounds,
            metric,
        };
        let elements: Vec<Element> = d.iter().collect();

        let mut alg = Sfdm1::new(cfg).unwrap();
        for chunk in elements.chunks(64) {
            alg.insert_batch(chunk);
        }
        let solution = alg.finalize().unwrap();
        assert_matches(
            &format!("{metric:?}"),
            alg.stored_elements(),
            &solution,
            expected,
        );
    }
}

#[test]
fn sfdm2_parallel_equals_sequential() {
    let expected = [
        Expected {
            stored: 68,
            ids: &[0, 1, 2, 4, 13, 25, 29],
            diversity_bits: 0x401ff450131841ff,
        },
        Expected {
            stored: 67,
            ids: &[0, 1, 3, 7, 10, 116, 24],
            diversity_bits: 0x403102ce7b3027c9,
        },
        Expected {
            stored: 71,
            ids: &[0, 1, 10, 14, 19, 498, 315],
            diversity_bits: 0x3fe3e400000ff133,
        },
    ];
    for (trial, (metric, expected)) in metrics().into_iter().zip(&expected).enumerate() {
        let d = random_dataset(500, 3, 6, metric, 200 + trial as u64);
        let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
        let cfg = Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 3, 2]).unwrap(),
            epsilon: 0.1,
            bounds,
            metric,
        };
        let elements: Vec<Element> = d.iter().collect();

        let mut alg = Sfdm2::new(cfg).unwrap();
        for chunk in elements.chunks(96) {
            alg.insert_batch(chunk);
        }
        let solution = alg.finalize().unwrap();
        assert_matches(
            &format!("{metric:?}"),
            alg.stored_elements(),
            &solution,
            expected,
        );
    }
}

#[test]
fn algorithm1_parallel_equals_sequential() {
    let d = random_dataset(600, 1, 16, Metric::Euclidean, 300);
    let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
    let cfg = StreamingDmConfig {
        k: 10,
        epsilon: 0.1,
        bounds,
        metric: Metric::Euclidean,
    };
    let elements: Vec<Element> = d.iter().collect();

    let mut alg = StreamingDiversityMaximization::new(cfg).unwrap();
    for chunk in elements.chunks(128) {
        alg.insert_batch(chunk);
    }
    let solution = alg.finalize().unwrap();
    let expected = Expected {
        stored: 25,
        ids: &[0, 3, 4, 5, 10, 14, 16, 40, 45, 50],
        diversity_bits: 0x402f3de39f62ec12,
    };
    assert_matches("algorithm1", alg.stored_elements(), &solution, &expected);
}

#[test]
fn sharded_parallel_equals_sequential() {
    // Shard fan-out runs the shards' strides concurrently on the pool; a
    // per-element sharded run must agree id-for-id, bit-for-bit, and both
    // must match the single-threaded reference.
    let expected = [
        Expected {
            stored: 177,
            ids: &[0, 4, 24, 184, 328, 372],
            diversity_bits: 0x4023ab5eee42bba6,
        },
        Expected {
            stored: 166,
            ids: &[0, 8, 40, 44, 64, 88],
            diversity_bits: 0x403508f3792c594c,
        },
        Expected {
            stored: 180,
            ids: &[0, 12, 56, 80, 108, 200],
            diversity_bits: 0x3fe5a76ba825dc33,
        },
    ];
    for (trial, (metric, expected)) in metrics().into_iter().zip(&expected).enumerate() {
        let d = random_dataset(600, 3, 6, metric, 400 + trial as u64);
        let bounds = d.sampled_distance_bounds(100, 2.0).unwrap();
        let cfg = Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 2, 2]).unwrap(),
            epsilon: 0.1,
            bounds,
            metric,
        };
        let elements: Vec<Element> = d.iter().collect();

        let mut pooled: ShardedStream<Sfdm2> = ShardedStream::new(cfg.clone(), 4).unwrap();
        for chunk in elements.chunks(128) {
            pooled.insert_batch(chunk);
        }
        let mut per_element: ShardedStream<Sfdm2> = ShardedStream::new(cfg, 4).unwrap();
        for e in &elements {
            per_element.insert(e);
        }

        for (side, alg) in [("batch", &pooled), ("per-element", &per_element)] {
            let solution = alg.finalize().unwrap();
            let case = format!("{metric:?} sharded {side}");
            assert_matches(&case, alg.stored_elements(), &solution, expected);
        }
    }
}

#[test]
fn parallel_finalize_tie_break_matches_sequential() {
    // Integer grids, so several guesses yield full candidates with equal
    // diversities: the reduction must pick the same guess as the
    // single-threaded run (first maximum under strict `>`). In the second
    // case two guesses tie at the maximum with different solutions, so a
    // reduction that depended on scheduling order would return the other
    // one.
    let cases = [
        (
            40,
            5,
            vec![3, 3],
            0.2,
            Expected {
                stored: 34,
                ids: &[0, 8, 16, 159, 25, 33],
                diversity_bits: 0x401ad5336963eefc,
            },
        ),
        (
            20,
            8,
            vec![2, 2],
            0.05,
            Expected {
                stored: 36,
                ids: &[0, 8, 143, 17],
                diversity_bits: 0x401e768d399dc470,
            },
        ),
    ];
    for (width, height, quotas, epsilon, expected) in cases {
        let n = width * height;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % width) as f64, (i / width) as f64])
            .collect();
        let groups: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let d = Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap();
        let bounds = d.exact_distance_bounds().unwrap();
        let cfg = Sfdm2Config {
            constraint: FairnessConstraint::new(quotas).unwrap(),
            epsilon,
            bounds,
            metric: Metric::Euclidean,
        };
        let mut alg = Sfdm2::new(cfg).unwrap();
        for e in d.iter() {
            alg.insert(&e);
        }
        let solution = alg.finalize().unwrap();
        let case = format!("tie-break {width}x{height}");
        assert_matches(&case, alg.stored_elements(), &solution, &expected);
    }
}
