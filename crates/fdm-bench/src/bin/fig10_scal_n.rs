//! Fig. 10 — scalability with the dataset size `n` on synthetic data
//! (k = 20; panels m = 2 and m = 10).
//!
//! `n` sweeps 10³..10⁵ by default (10³..10⁶ with `--full`; the paper goes
//! to 10⁷ — pass `--full` twice the patience). Expected shape: offline
//! runtimes grow linearly in `n` while the streaming algorithms' update
//! time is flat; diversities stay close across `n`, with SFDM2 widening its
//! lead over FairFlow at m = 10.
//!
//! Run: `cargo run --release -p fdm-bench --bin fig10_scal_n [--quick|--full]`

use std::collections::BTreeMap;

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged_cell, Algo};
use fdm_bench::plot::{Chart, Scale};
use fdm_bench::report::{fmt_secs, Table};
use fdm_bench::workloads::{SizeMode, Workload};
use fdm_core::fairness::FairnessConstraint;

fn main() {
    let opts = Options::from_env("fig10_scal_n");
    let max_exp = match opts.size {
        SizeMode::Quick => 4,
        SizeMode::Default => 5,
        SizeMode::Full => 6,
    };
    let ns: Vec<usize> = (3..=max_exp).map(|e| 10usize.pow(e)).collect();

    let mut table = Table::new(vec!["m", "n", "algo", "diversity", "time(s)"]);
    // (m, algo) -> (n, time) series for the terminal chart.
    let mut time_series: BTreeMap<(usize, String), Vec<(f64, f64)>> = BTreeMap::new();
    for m in [2usize, 10] {
        let k = opts.k.max(m);
        let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
        for &n in &ns {
            let workload = Workload::Synthetic { n, m };
            let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
            eprintln!("running synthetic n = {n}, m = {m} ...");
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
                    n.to_string(),
                    r.algo.to_string(),
                    format!("{:.4}", r.diversity),
                    fmt_secs(r.paper_time_s()),
                ]);
                time_series
                    .entry((m, r.algo.to_string()))
                    .or_default()
                    .push((n as f64, r.paper_time_s()));
            }
        }
    }

    println!(
        "\nFig. 10 (synthetic, k = {}; diversity and time vs n):",
        opts.k
    );
    println!("{}", table.render());
    for m in [2usize, 10] {
        let mut chart = Chart::new(&format!("time vs n (m = {m}, log-log)"), 64, 12)
            .x_scale(Scale::Log)
            .y_scale(Scale::Log);
        for ((sm, algo), pts) in &time_series {
            if *sm == m {
                chart.add_series(algo, pts.clone());
            }
        }
        println!("{}", chart.render());
    }
    let path = table.write_csv("fig10_scal_n").expect("write CSV");
    println!("wrote {}", path.display());
}
