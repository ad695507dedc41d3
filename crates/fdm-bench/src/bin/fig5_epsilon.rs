//! Fig. 5 — effect of the parameter ε on SFDM1/SFDM2 (k = 20).
//!
//! Panels (a)–(c): Adult/CelebA/Census with sex groups (m = 2),
//! ε ∈ {0.05, 0.10, 0.15, 0.20, 0.25}; panel (d): Lyrics (m = 15),
//! ε ∈ {0.02, 0.04, 0.06, 0.08, 0.10} (angular distances ≤ π/2 force the
//! smaller range). Reports diversity, time, and #stored elements — both
//! should fall as ε grows while diversity degrades only mildly.
//!
//! Run: `cargo run --release -p fdm-bench --bin fig5_epsilon [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged_cell, Algo};
use fdm_bench::report::{fmt_secs, Table};
use fdm_bench::workloads::Workload;
use fdm_core::fairness::FairnessConstraint;

fn main() {
    let opts = Options::from_env("fig5_epsilon");
    let panels: Vec<(Workload, Vec<f64>)> = vec![
        (Workload::AdultSex, vec![0.05, 0.10, 0.15, 0.20, 0.25]),
        (Workload::CelebaSex, vec![0.05, 0.10, 0.15, 0.20, 0.25]),
        (Workload::CensusSex, vec![0.05, 0.10, 0.15, 0.20, 0.25]),
        (Workload::LyricsGenre, vec![0.02, 0.04, 0.06, 0.08, 0.10]),
    ];

    let mut table = Table::new(vec![
        "dataset",
        "epsilon",
        "algo",
        "diversity",
        "update t(s)",
        "post t(s)",
        "#elem",
    ]);

    for (workload, epsilons) in panels {
        let m = workload.num_groups();
        let k = opts.k.max(m);
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
        eprintln!("running {} (n = {}) ...", workload.name(), dataset.len());
        for &eps in &epsilons {
            let algos: &[Algo] = if m == 2 {
                &[Algo::Sfdm1, Algo::Sfdm2]
            } else {
                &[Algo::Sfdm2]
            };
            for &algo in algos {
                let r = run_averaged_cell(
                    &dataset,
                    algo,
                    &constraint,
                    eps,
                    opts.trials,
                    opts.shards,
                    0,
                )
                .expect("run");
                table.push_row(vec![
                    workload.name(),
                    format!("{eps:.2}"),
                    r.algo.to_string(),
                    format!("{:.4}", r.diversity),
                    fmt_secs(r.update_time_s.unwrap()),
                    fmt_secs(r.post_time_s.unwrap()),
                    r.stored_elements.unwrap().to_string(),
                ]);
            }
        }
    }

    println!("\nFig. 5 (k = {}):", opts.k);
    println!("{}", table.render());
    let path = table.write_csv("fig5_epsilon").expect("write CSV");
    println!("wrote {}", path.display());
}
