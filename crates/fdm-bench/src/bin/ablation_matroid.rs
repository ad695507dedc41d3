//! Ablation A2 — SFDM2's seeded-greedy matroid intersection vs plain
//! Cunningham.
//!
//! SFDM2 adapts Cunningham's algorithm by (a) initializing with the partial
//! solution `S'_µ` instead of `∅` and (b) adding `V1 ∩ V2` elements in
//! decreasing `d(x, S)` order (Algorithm 4; §IV-B argues this is why SFDM2
//! beats FairFlow in practice despite a weaker ratio). The ablation runs
//! both modes — fairness holds either way, diversity should favor the
//! paper's adaptation.
//!
//! Run: `cargo run --release -p fdm-bench --bin ablation_matroid [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::report::Table;
use fdm_bench::workloads::Workload;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::streaming::sfdm2::{AugmentationMode, Sfdm2, Sfdm2Config};
use fdm_datasets::stream::{shuffled_indices, stream_elements};

fn main() {
    let opts = Options::from_env("ablation_matroid");
    let workloads = [
        Workload::AdultRace,
        Workload::CelebaSexAge,
        Workload::CensusAge,
        Workload::LyricsGenre,
    ];
    let mut table = Table::new(vec![
        "dataset",
        "m",
        "seeded-greedy div",
        "plain Cunningham div",
        "advantage",
    ]);

    for workload in workloads {
        let m = workload.num_groups();
        let k = opts.k.max(m);
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
        let bounds = dataset.sampled_distance_bounds(300, 4.0).expect("bounds");
        eprintln!(
            "running {} (n = {}, m = {m}) ...",
            workload.name(),
            dataset.len()
        );

        let mut divs = [0.0f64; 2];
        for (slot, mode) in [
            AugmentationMode::SeededGreedy,
            AugmentationMode::PlainCunningham,
        ]
        .into_iter()
        .enumerate()
        {
            let mut total = 0.0;
            for seed in 0..opts.trials as u64 {
                let mut alg = Sfdm2::with_mode(
                    Sfdm2Config {
                        constraint: constraint.clone(),
                        epsilon: workload.default_epsilon(),
                        bounds,
                        metric: dataset.metric(),
                    },
                    mode,
                )
                .expect("sfdm2");
                let order = shuffled_indices(dataset.len(), seed);
                for e in stream_elements(&dataset, &order) {
                    alg.insert(&e);
                }
                total += alg.finalize().expect("finalize").diversity;
            }
            divs[slot] = total / opts.trials as f64;
        }

        table.push_row(vec![
            workload.name(),
            m.to_string(),
            format!("{:.4}", divs[0]),
            format!("{:.4}", divs[1]),
            format!("{:+.1}%", 100.0 * (divs[0] - divs[1]) / divs[1].max(1e-12)),
        ]);
    }

    println!(
        "\nAblation A2 (SFDM2 matroid-intersection mode, k = {}):",
        opts.k
    );
    println!("{}", table.render());
    let path = table.write_csv("ablation_matroid").expect("write CSV");
    println!("wrote {}", path.display());
}
