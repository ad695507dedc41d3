//! Ablation A1 — SFDM1's greedy balancing rule vs an arbitrary rule.
//!
//! SFDM1's post-processing inserts the pool element *furthest* from the
//! under-filled side and deletes the over-filled element *closest* to it
//! (GMM-style, Algorithm 2 lines 13/16). This ablation replaces both picks
//! with first-eligible choices: fairness is unaffected (Lemma 2's proof
//! only needs the counts) but diversity should drop — quantifying how much
//! of SFDM1's practical quality the greedy rule buys.
//!
//! Run: `cargo run --release -p fdm-bench --bin ablation_swap [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::report::Table;
use fdm_bench::workloads::Workload;
use fdm_core::balance::SwapStrategy;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_datasets::stream::{shuffled_indices, stream_elements};

fn main() {
    let opts = Options::from_env("ablation_swap");
    let workloads = [Workload::AdultSex, Workload::CelebaSex, Workload::CensusSex];
    let mut table = Table::new(vec![
        "dataset",
        "greedy div",
        "arbitrary div",
        "greedy advantage",
    ]);

    for workload in workloads {
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        let constraint = FairnessConstraint::equal_representation(opts.k, 2).expect("constraint");
        let bounds = dataset.sampled_distance_bounds(300, 4.0).expect("bounds");
        eprintln!("running {} (n = {}) ...", workload.name(), dataset.len());

        let mut divs = [0.0f64; 2];
        for (slot, strategy) in [SwapStrategy::Greedy, SwapStrategy::Arbitrary]
            .into_iter()
            .enumerate()
        {
            let mut total = 0.0;
            for seed in 0..opts.trials as u64 {
                let mut alg = Sfdm1::with_strategy(
                    Sfdm1Config {
                        constraint: constraint.clone(),
                        epsilon: workload.default_epsilon(),
                        bounds,
                        metric: dataset.metric(),
                    },
                    strategy,
                )
                .expect("sfdm1");
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
            format!("{:.4}", divs[0]),
            format!("{:.4}", divs[1]),
            format!("{:+.1}%", 100.0 * (divs[0] - divs[1]) / divs[1].max(1e-12)),
        ]);
    }

    println!("\nAblation A1 (SFDM1 balancing rule, k = {}):", opts.k);
    println!("{}", table.render());
    let path = table.write_csv("ablation_swap").expect("write CSV");
    println!("wrote {}", path.display());
}
