//! Property tests pinning the vectorized distance kernels to naive scalar
//! references: across all five metrics and dimensions 1–257 (covering every
//! `chunks_exact` remainder and multi-block row), the chunked kernels, the
//! proxy round trip and cached-norm proxies must agree with straightforward
//! one-accumulator loops to 1e-9, and the AVX2 build of every dispatched
//! kernel must equal its baseline build bit for bit.

use fdm_core::kernel;
use fdm_core::metric::{kernels, Metric};
use fdm_core::point::PointStore;
use proptest::prelude::*;

/// Naive single-accumulator reference implementations.
mod reference {
    pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    pub fn minkowski(a: &[f64], b: &[f64], p: f64) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs().powf(p))
            .sum::<f64>()
            .powf(1.0 / p)
    }

    pub fn angular(a: &[f64], b: &[f64]) -> f64 {
        let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f64 = a.iter().map(|x| x * x).sum();
        let nb: f64 = b.iter().map(|y| y * y).sum();
        if na == 0.0 || nb == 0.0 {
            return std::f64::consts::FRAC_PI_2;
        }
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0).acos()
    }
}

fn reference_dist(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    match metric {
        Metric::Euclidean => reference::euclidean(a, b),
        Metric::Manhattan => reference::manhattan(a, b),
        Metric::Chebyshev => reference::chebyshev(a, b),
        Metric::Minkowski(p) => reference::minkowski(a, b, p),
        Metric::Angular => reference::angular(a, b),
    }
}

fn all_metrics() -> Vec<Metric> {
    vec![
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Minkowski(1.0),
        Metric::Minkowski(2.0),
        Metric::Minkowski(3.5),
        Metric::Angular,
    ]
}

/// Relative-or-absolute 1e-9 agreement.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_kernels_match_scalar_references(
        dim in 1usize..258,
        seed in 0u64..1_000_000,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 40.0 - 20.0).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 40.0 - 20.0).collect();
        for metric in all_metrics() {
            let fast = metric.dist(&a, &b);
            let slow = reference_dist(metric, &a, &b);
            prop_assert!(
                close(fast, slow),
                "{metric:?} dim {dim}: chunked {fast} vs reference {slow}"
            );
        }
    }

    #[test]
    fn proxies_round_trip_and_match_references(
        dim in 1usize..258,
        seed in 0u64..1_000_000,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7));
        let a: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 10.0 - 5.0).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 10.0 - 5.0).collect();
        for metric in all_metrics() {
            let via_proxy = metric.dist_from_proxy(metric.proxy(&a, &b));
            let slow = reference_dist(metric, &a, &b);
            prop_assert!(
                close(via_proxy, slow),
                "{metric:?} dim {dim}: proxy path {via_proxy} vs reference {slow}"
            );
        }
    }

    #[test]
    fn cached_norm_proxies_match_inline_norms(
        dim in 1usize..258,
        seed in 0u64..1_000_000,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(13));
        let a: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 6.0 - 3.0).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 6.0 - 3.0).collect();
        let mut store = PointStore::new(dim);
        let ia = store.push(0, &a, 0);
        let ib = store.push(1, &b, 0);
        for metric in all_metrics() {
            let cached = metric.dist_from_proxy(metric.proxy_with_sqrt_norms(
                store.row(ia),
                store.row(ib),
                store.norm(ia),
                store.norm(ib),
            ));
            let slow = reference_dist(metric, &a, &b);
            prop_assert!(
                close(cached, slow),
                "{metric:?} dim {dim}: cached-norm {cached} vs reference {slow}"
            );
        }
    }

    /// The AVX2 build of every kernel must reproduce the baseline build
    /// *bit for bit* — one source, no FMA contraction, no reassociation —
    /// across every `chunks_exact` remainder class. (Off x86_64, or on a
    /// CPU without AVX2, the forced wrappers return `None` and the
    /// assertions are vacuous.)
    #[test]
    fn simd_backends_bit_match_scalar_kernels(
        dim in 1usize..258,
        seed in 0u64..1_000_000,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(43));
        let a: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 40.0 - 20.0).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 40.0 - 20.0).collect();
        type Pair = fn(&[f64], &[f64]) -> f64;
        let checks: [(&str, Pair, Option<f64>); 4] = [
            ("sum_sq_diff", kernels::sum_sq_diff, kernel::force_avx2_sum_sq_diff(&a, &b)),
            ("sum_abs_diff", kernels::sum_abs_diff, kernel::force_avx2_sum_abs_diff(&a, &b)),
            ("max_abs_diff", kernels::max_abs_diff, kernel::force_avx2_max_abs_diff(&a, &b)),
            ("dot", kernels::dot, kernel::force_avx2_dot(&a, &b)),
        ];
        for (name, scalar_fn, avx2) in checks {
            let scalar = scalar_fn(&a, &b);
            if let Some(v) = avx2 {
                prop_assert_eq!(
                    v.to_bits(), scalar.to_bits(),
                    "{} dim {}: AVX2 {} != scalar {}", name, dim, v, scalar
                );
            }
        }
        let scalar_norm = kernels::norm_sq(&a);
        if let Some(v) = kernel::force_avx2_norm_sq(&a) {
            prop_assert_eq!(v.to_bits(), scalar_norm.to_bits(), "norm_sq dim {}: AVX2", dim);
        }
    }
}
