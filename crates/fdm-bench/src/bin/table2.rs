//! Table II — overview of all algorithms on the four real datasets
//! (k = 20, equal representation).
//!
//! Columns mirror the paper: GMM's unconstrained diversity as the quality
//! reference, then (diversity, time, #stored elements where applicable) for
//! FairSwap, FairFlow, SFDM1, and SFDM2. FairSwap/SFDM1 only apply when
//! m = 2; FairGMM is omitted exactly as in the paper (it cannot scale to
//! k = 20). Streaming "time" is average per-element update time; offline
//! "time" is total runtime (§V-A convention).
//!
//! Run: `cargo run --release -p fdm-bench --bin table2 [--quick|--full] [--trials N] [--window N]`
//!
//! `--window N` benchmarks the sliding-window scenario alongside the
//! others: three extra columns (diversity, update time, stored elements)
//! measured over the most recent `N`-element window of each permuted stream.

use fdm_bench::cli::Options;
use fdm_bench::measure::{run_averaged, run_averaged_cell, Algo};
use fdm_bench::report::{fmt_secs, Table};
use fdm_bench::workloads::Workload;
use fdm_core::fairness::FairnessConstraint;

fn main() {
    let opts = Options::from_env("table2");
    let mut table = Table::new(vec![
        "dataset",
        "m",
        "GMM div",
        "FairSwap div",
        "FairSwap t(s)",
        "FairFlow div",
        "FairFlow t(s)",
        "SFDM1 div",
        "SFDM1 t(s)",
        "SFDM1 #elem",
        "SFDM2 div",
        "SFDM2 t(s)",
        "SFDM2 #elem",
        "Sliding div",
        "Sliding t(s)",
        "Sliding #elem",
    ]);

    for workload in Workload::table2_rows() {
        let m = workload.num_groups();
        let k = opts.k.max(m); // at least one element per group
        let dataset = workload.build(opts.size, opts.seed).expect("dataset build");
        let constraint = FairnessConstraint::equal_representation(k, m).expect("constraint");
        let epsilon = workload.default_epsilon();
        eprintln!(
            "running {} (n = {}, m = {m}, k = {k}) ...",
            workload.name(),
            dataset.len()
        );

        // A zero-arrival stream has no diversity to report — the same edge
        // the serving layer types as `ERR empty stream` on QUERY. It is a
        // property of this row's cells, not a reason to abort the table.
        if dataset.is_empty() {
            eprintln!("  empty stream (0 arrivals): reporting `empty` cells");
            let mut row = vec![workload.name(), m.to_string()];
            row.extend(std::iter::repeat_n("empty".to_string(), 14));
            table.push_row(row);
            continue;
        }

        let gmm = run_averaged(&dataset, Algo::Gmm, &constraint, epsilon, 1).expect("GMM run");

        let (swap_div, swap_t) = if m == 2 {
            let r = run_averaged(&dataset, Algo::FairSwap, &constraint, epsilon, opts.trials)
                .expect("FairSwap run");
            (format!("{:.4}", r.diversity), fmt_secs(r.total_time_s))
        } else {
            ("-".into(), "-".into())
        };

        let flow = run_averaged(&dataset, Algo::FairFlow, &constraint, epsilon, opts.trials)
            .expect("FairFlow run");

        let (s1_div, s1_t, s1_e) = if m == 2 {
            let r = run_averaged_cell(
                &dataset,
                Algo::Sfdm1,
                &constraint,
                epsilon,
                opts.trials,
                opts.shards,
                0,
            )
            .expect("SFDM1 run");
            (
                format!("{:.4}", r.diversity),
                fmt_secs(r.paper_time_s()),
                r.stored_elements.unwrap().to_string(),
            )
        } else {
            ("-".into(), "-".into(), "-".into())
        };

        let (sl_div, sl_t, sl_e) = if let Some(window) = opts.window {
            match run_averaged_cell(
                &dataset,
                Algo::Sliding,
                &constraint,
                epsilon,
                opts.trials,
                opts.shards,
                window,
            ) {
                Ok(r) => (
                    format!("{:.4}", r.diversity),
                    fmt_secs(r.paper_time_s()),
                    r.stored_elements.unwrap().to_string(),
                ),
                // A window too small for a rare group's quota has no fair
                // answer — a real property of the scenario, not a crash.
                Err(fdm_core::FdmError::NoFeasibleCandidate) => {
                    eprintln!(
                        "  sliding: no feasible window of {window} elements (rare group vs quota)"
                    );
                    ("infeasible".into(), "-".into(), "-".into())
                }
                Err(e) => panic!("Sliding run: {e}"),
            }
        } else {
            ("-".into(), "-".into(), "-".into())
        };

        let s2 = run_averaged_cell(
            &dataset,
            Algo::Sfdm2,
            &constraint,
            epsilon,
            opts.trials,
            opts.shards,
            0,
        )
        .expect("SFDM2 run");

        table.push_row(vec![
            workload.name(),
            m.to_string(),
            format!("{:.4}", gmm.diversity),
            swap_div,
            swap_t,
            format!("{:.4}", flow.diversity),
            fmt_secs(flow.total_time_s),
            s1_div,
            s1_t,
            s1_e,
            format!("{:.4}", s2.diversity),
            fmt_secs(s2.paper_time_s()),
            s2.stored_elements.unwrap().to_string(),
            sl_div,
            sl_t,
            sl_e,
        ]);
    }

    println!(
        "\nTable II (k = {}, ER quotas; streaming time = avg update/elem):",
        opts.k
    );
    println!("{}", table.render());
    let path = table.write_csv("table2").expect("write CSV");
    println!("wrote {}", path.display());
}
