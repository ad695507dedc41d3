//! Ablation A3 — one-pass streaming (SFDM1/SFDM2) vs the two-round
//! composable-coreset pipeline from the related work (§II: Indyk et al.,
//! Ceccarello et al.).
//!
//! The coreset pipeline partitions the data into `p` shards, extracts a
//! per-group GMM coreset from each, and runs the offline fair algorithm on
//! the union. It needs a second round and random access within shards;
//! the comparison shows how much quality/space the paper's single-pass
//! algorithms give up (or don't) relative to that stronger model.
//!
//! Run: `cargo run --release -p fdm-bench --bin ablation_coreset [--quick|--full]`

use std::time::Instant;

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged, Algo};
use fdm_bench::report::{fmt_secs, Table};
use fdm_bench::workloads::Workload;
use fdm_core::balance::SwapStrategy;
use fdm_core::coreset::{coreset_dataset, fair_composable_coreset};
use fdm_core::fairness::FairnessConstraint;
use fdm_core::offline::fair_flow::{FairFlow, FairFlowConfig};
use fdm_core::offline::fair_swap::{FairSwap, FairSwapConfig};

fn main() {
    let opts = Options::from_env("ablation_coreset");
    // Historical partition width is 8; `--shards N` (> 1) overrides it.
    // (1, the CLI default, means "unsharded" elsewhere and would degenerate
    // this ablation to GMM on the whole dataset.)
    let shards = if opts.shards > 1 { opts.shards } else { 8 };
    let workloads = [Workload::AdultSex, Workload::CensusSex, Workload::AdultRace];
    let mut table = Table::new(vec![
        "dataset",
        "m",
        "coreset div",
        "coreset t(s)",
        "coreset size",
        "streaming div",
        "streaming #elem",
    ]);

    for workload in workloads {
        let m = workload.num_groups();
        let k = opts.k.max(m);
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
        eprintln!(
            "running {} (n = {}, {shards} shards) ...",
            workload.name(),
            dataset.len()
        );

        // Two-round composable-coreset pipeline, on the same round-robin
        // partition ShardedStream would deal to its shards.
        let start = Instant::now();
        let chunks = dataset.round_robin_shards(shards);
        let cs =
            fair_composable_coreset(&dataset, &chunks, &constraint, opts.seed).expect("coreset");
        let (cds, _) = coreset_dataset(&dataset, &cs).expect("coreset dataset");
        let sol = if m == 2 {
            FairSwap::new(FairSwapConfig {
                constraint: constraint.clone(),
                seed: 0,
                strategy: SwapStrategy::Greedy,
            })
            .expect("fair swap")
            .run(&cds)
            .expect("fair swap run")
        } else {
            FairFlow::new(FairFlowConfig {
                constraint: constraint.clone(),
                seed: 0,
            })
            .expect("fair flow")
            .run(&cds)
            .expect("fair flow run")
        };
        let coreset_time = start.elapsed().as_secs_f64();

        // One-pass streaming counterpart.
        let streaming_algo = if m == 2 { Algo::Sfdm1 } else { Algo::Sfdm2 };
        let stream = run_averaged(
            &dataset,
            streaming_algo,
            &constraint,
            workload.default_epsilon(),
            opts.trials,
        )
        .expect("streaming run");

        table.push_row(vec![
            workload.name(),
            m.to_string(),
            format!("{:.4}", sol.diversity),
            fmt_secs(coreset_time),
            cds.len().to_string(),
            format!("{:.4}", stream.diversity),
            stream.stored_elements.unwrap().to_string(),
        ]);
    }

    println!(
        "\nAblation A3 (composable coreset + offline vs one-pass streaming, k = {}):",
        opts.k
    );
    println!("{}", table.render());
    let path = table.write_csv("ablation_coreset").expect("write CSV");
    println!("wrote {}", path.display());
}
