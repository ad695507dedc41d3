//! Fig. 7 — efficiency with varying `k` (same eight panels as Fig. 6).
//!
//! "time(s)" follows the paper's §V-A convention: average per-element
//! update time for the streaming algorithms, total runtime for the offline
//! ones, on a log axis in the paper. Expected shape: the streaming
//! algorithms sit orders of magnitude below the offline ones and all curves
//! grow with k.
//!
//! Run: `cargo run --release -p fdm-bench --bin fig7_time [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::experiments::sweep_k;
use fdm_bench::report::{fmt_secs, Table};

fn main() {
    let opts = Options::from_env("fig7_time");
    let cells = sweep_k(&opts).expect("sweep");
    let mut table = Table::new(vec![
        "dataset",
        "k",
        "algo",
        "time(s)",
        "total t(s)",
        "post t(s)",
    ]);
    for (workload, k, r) in &cells {
        table.push_row(vec![
            workload.name(),
            k.to_string(),
            r.algo.to_string(),
            fmt_secs(r.paper_time_s()),
            fmt_secs(r.total_time_s),
            r.post_time_s.map(fmt_secs).unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("\nFig. 7 (time vs k; streaming = avg update/elem, offline = total):");
    println!("{}", table.render());
    let path = table.write_csv("fig7_time").expect("write CSV");
    println!("wrote {}", path.display());
}
