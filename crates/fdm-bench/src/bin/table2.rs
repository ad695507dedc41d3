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
//! Run: `cargo run --release -p fdm-bench --bin table2 [--quick|--full] [--trials N]`
//!
//! `--algorithm sliding --window N` benchmarks the sliding-window scenario
//! alongside the others: three extra columns (diversity, update time,
//! stored elements) measured over the most recent `N`-element window of
//! each permuted stream.
//!
//! Checkpointing: `--snapshot-every N` writes each streaming cell's summary
//! to `results/snapshots/table2-<algo>-<dataset>.snap` every N arrivals;
//! `--restore-from PATH` resumes from a snapshot (skipping the already-
//! processed stream prefix). A checkpoint named by this binary's own
//! convention resumes exactly its cell (the others run fresh); any other
//! snapshot is offered to every streaming cell, and an incompatible one
//! aborts with a typed error rather than feeding garbage. Use `--trials 1`
//! with persistence flags — the trials share one checkpoint path.

use fdm_bench::cli::Options;
use fdm_bench::measure::{
    run_averaged, run_averaged_sharded_persist, run_averaged_windowed, Algo, PersistOpts,
};
use fdm_bench::report::{fmt_secs, results_dir, Table};
use fdm_bench::workloads::Workload;
use fdm_core::fairness::FairnessConstraint;

fn persist_opts(opts: &Options, algo: Algo, dataset: &str) -> PersistOpts {
    // "CelebA (Sex+Age)" → "celeba-sex-age": keep checkpoint names shell-
    // and filesystem-friendly.
    let slug: String = dataset
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-");
    let cell_file = format!("table2-{}-{slug}.snap", algo.name().to_lowercase());
    // A checkpoint written by this binary names its cell; resume only that
    // cell and run the others fresh. A custom-named snapshot is handed to
    // every streaming cell — an incompatible one aborts with the typed
    // `IncompatibleSnapshot` error rather than feeding garbage.
    let restore_from = opts.restore_from.as_ref().and_then(|p| {
        let path = std::path::PathBuf::from(p);
        match path.file_name().and_then(|f| f.to_str()) {
            Some(name) if name.starts_with("table2-") => (name == cell_file).then_some(path),
            _ => Some(path),
        }
    });
    PersistOpts {
        snapshot_every: opts.snapshot_every,
        snapshot_path: opts
            .snapshot_every
            .map(|_| results_dir().join("snapshots").join(&cell_file)),
        restore_from,
        restore_snapshot: None,
    }
}

fn main() {
    let opts = Options::from_env();
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
            let r = run_averaged_sharded_persist(
                &dataset,
                Algo::Sfdm1,
                &constraint,
                epsilon,
                opts.trials,
                opts.shards,
                &persist_opts(&opts, Algo::Sfdm1, &workload.name()),
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

        let (sl_div, sl_t, sl_e) = if opts.algorithm.as_deref() == Some("sliding") {
            match run_averaged_windowed(
                &dataset,
                Algo::Sliding,
                &constraint,
                epsilon,
                opts.trials,
                opts.shards,
                opts.window,
                &persist_opts(&opts, Algo::Sliding, &workload.name()),
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
                        "  sliding: no feasible window of {} elements (rare group vs quota)",
                        opts.window
                    );
                    ("infeasible".into(), "-".into(), "-".into())
                }
                Err(e) => panic!("Sliding run: {e}"),
            }
        } else {
            ("-".into(), "-".into(), "-".into())
        };

        let s2 = run_averaged_sharded_persist(
            &dataset,
            Algo::Sfdm2,
            &constraint,
            epsilon,
            opts.trials,
            opts.shards,
            &persist_opts(&opts, Algo::Sfdm2, &workload.name()),
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
