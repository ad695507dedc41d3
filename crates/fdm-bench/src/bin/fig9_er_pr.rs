//! Fig. 9 — equal representation (ER) vs proportional representation (PR)
//! on Adult (k = 20), whose groups are highly skewed (67% male, 87% White).
//!
//! Panel (a): sex groups (m = 2) with FairSwap, FairFlow, SFDM1, SFDM2;
//! panel (b): race groups (m = 5) with FairFlow and SFDM2. Expected shape:
//! PR diversity slightly above ER (PR sits closer to the unconstrained
//! optimum) and PR running time slightly below (fewer balancing steps).
//!
//! Run: `cargo run --release -p fdm-bench --bin fig9_er_pr [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged_cell, Algo};
use fdm_bench::report::{fmt_secs, Table};
use fdm_bench::workloads::Workload;
use fdm_core::fairness::FairnessConstraint;

fn main() {
    let opts = Options::from_env("fig9_er_pr");
    let panels: Vec<(Workload, Vec<Algo>)> = vec![
        (
            Workload::AdultSex,
            vec![Algo::FairSwap, Algo::FairFlow, Algo::Sfdm1, Algo::Sfdm2],
        ),
        (Workload::AdultRace, vec![Algo::FairFlow, Algo::Sfdm2]),
    ];

    let mut table = Table::new(vec![
        "panel",
        "notion",
        "algo",
        "quotas",
        "diversity",
        "time(s)",
    ]);
    for (workload, algos) in panels {
        let m = workload.num_groups();
        let k = opts.k.max(m);
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        eprintln!("running {} (n = {}) ...", workload.name(), dataset.len());
        let er = FairnessConstraint::equal_representation(k, m).expect("ER");
        let pr =
            FairnessConstraint::proportional_representation(k, dataset.group_sizes()).expect("PR");
        for (notion, constraint) in [("ER", &er), ("PR", &pr)] {
            for &algo in &algos {
                let r = run_averaged_cell(
                    &dataset,
                    algo,
                    constraint,
                    workload.default_epsilon(),
                    opts.trials,
                    opts.shards,
                    0,
                )
                .expect("run");
                table.push_row(vec![
                    workload.name(),
                    notion.to_string(),
                    r.algo.to_string(),
                    format!("{:?}", constraint.quotas()),
                    format!("{:.4}", r.diversity),
                    fmt_secs(r.paper_time_s()),
                ]);
            }
        }
    }

    println!("\nFig. 9 (ER vs PR on Adult, k = {}):", opts.k);
    println!("{}", table.render());
    let path = table.write_csv("fig9_er_pr").expect("write CSV");
    println!("wrote {}", path.display());
}
