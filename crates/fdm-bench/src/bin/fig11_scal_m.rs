//! Fig. 11 — scalability with the number of groups `m` on synthetic data
//! (n = 10⁵, k = 20).
//!
//! Sweeps m ∈ {2, 4, ..., 20} for FairFlow and SFDM2 (FairSwap/SFDM1 appear
//! only at m = 2). Expected shape: SFDM2's diversity decays gently with m
//! and stays a multiple of FairFlow's (up to 3× in the paper for m > 10),
//! while SFDM2's post-processing time grows quadratically in m.
//!
//! Run: `cargo run --release -p fdm-bench --bin fig11_scal_m [--quick|--full]`

use std::collections::BTreeMap;

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged_cell, Algo};
use fdm_bench::plot::Chart;
use fdm_bench::report::{fmt_secs, Table};
use fdm_bench::workloads::{SizeMode, Workload};
use fdm_core::fairness::FairnessConstraint;

fn main() {
    let opts = Options::from_env("fig11_scal_m");
    let n = match opts.size {
        SizeMode::Quick => 5_000,
        SizeMode::Default => 100_000,
        SizeMode::Full => 100_000,
    };

    let mut table = Table::new(vec!["m", "algo", "diversity", "time(s)", "post t(s)"]);
    let mut div_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for m in (2..=20).step_by(2) {
        let k = opts.k.max(m);
        let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
        let workload = Workload::Synthetic { n, m };
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        eprintln!("running synthetic m = {m} (n = {n}) ...");
        let mut algos = vec![Algo::FairFlow, Algo::Sfdm2];
        if m == 2 {
            algos.insert(0, Algo::FairSwap);
            algos.insert(2, Algo::Sfdm1);
        }
        for algo in algos {
            let r = run_averaged_cell(
                &dataset,
                algo,
                &constraint,
                0.1,
                opts.trials,
                opts.shards,
                0,
            )
            .expect("run");
            table.push_row(vec![
                m.to_string(),
                r.algo.to_string(),
                format!("{:.4}", r.diversity),
                fmt_secs(r.paper_time_s()),
                r.post_time_s.map(fmt_secs).unwrap_or_else(|| "-".into()),
            ]);
            div_series
                .entry(r.algo.to_string())
                .or_default()
                .push((m as f64, r.diversity));
        }
    }

    println!("\nFig. 11 (synthetic, n = {n}, k = {}; vs m):", opts.k);
    println!("{}", table.render());
    let mut chart = Chart::new("diversity vs m", 64, 12);
    for (algo, pts) in &div_series {
        if pts.len() > 1 {
            chart.add_series(algo, pts.clone());
        }
    }
    println!("{}", chart.render());
    let path = table.write_csv("fig11_scal_m").expect("write CSV");
    println!("wrote {}", path.display());
}
