//! Fig. 8 — number of stored elements with varying `k` (Adult and Census).
//!
//! Panels: Adult with SFDM1 (sex) and SFDM2 (sex and race groupings);
//! Census with SFDM1 (sex) and SFDM2 (sex and age groupings). Expected
//! shape: linear growth in `k`, with SFDM2 above SFDM1 (its group-specific
//! candidates have capacity `k` rather than `k_i`) and growing with `m`.
//!
//! Run: `cargo run --release -p fdm-bench --bin fig8_space [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged_cell, Algo};
use fdm_bench::report::Table;
use fdm_bench::workloads::Workload;
use fdm_core::fairness::FairnessConstraint;

fn main() {
    let opts = Options::from_env("fig8_space");
    // (panel label, workload, algorithm, series label)
    let series: Vec<(&str, Workload, Algo, &str)> = vec![
        ("Adult", Workload::AdultSex, Algo::Sfdm1, "SFDM1"),
        ("Adult", Workload::AdultSex, Algo::Sfdm2, "SFDM2(sex)"),
        ("Adult", Workload::AdultRace, Algo::Sfdm2, "SFDM2(race)"),
        ("Census", Workload::CensusSex, Algo::Sfdm1, "SFDM1"),
        ("Census", Workload::CensusSex, Algo::Sfdm2, "SFDM2(sex)"),
        ("Census", Workload::CensusAge, Algo::Sfdm2, "SFDM2(age)"),
    ];

    let mut table = Table::new(vec!["panel", "series", "k", "#elem"]);
    for (panel, workload, algo, label) in series {
        let m = workload.num_groups();
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        eprintln!("running {panel}/{label} (n = {}) ...", dataset.len());
        for k in (10..=50).step_by(10) {
            if k < m {
                continue;
            }
            let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
            let r = run_averaged_cell(
                &dataset,
                algo,
                &constraint,
                workload.default_epsilon(),
                opts.trials,
                opts.shards,
                0,
            )
            .expect("run");
            table.push_row(vec![
                panel.to_string(),
                label.to_string(),
                k.to_string(),
                r.stored_elements.unwrap().to_string(),
            ]);
        }
    }

    println!("\nFig. 8 (#stored elements vs k):");
    println!("{}", table.render());
    let path = table.write_csv("fig8_space").expect("write CSV");
    println!("wrote {}", path.display());
}
