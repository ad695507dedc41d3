//! Fig. 6 — solution quality with varying `k` (eight dataset/group panels).
//!
//! GMM's unconstrained diversity is the gray reference line; FairSwap /
//! FairGMM / SFDM1 appear only where applicable (m = 2, and k ≤ 10 for
//! FairGMM). Expected shape: diversity decreases with k; the fair solutions
//! sit slightly below GMM at m = 2 and further below for large m; SFDM2
//! dominates FairFlow throughout.
//!
//! Run: `cargo run --release -p fdm-bench --bin fig6_quality [--quick|--full]`

use fdm_bench::cli::Options;
use fdm_bench::experiments::sweep_k;
use fdm_bench::report::Table;

fn main() {
    let opts = Options::from_env("fig6_quality");
    let cells = sweep_k(&opts).expect("sweep");
    let mut table = Table::new(vec!["dataset", "k", "algo", "diversity"]);
    for (workload, k, r) in &cells {
        table.push_row(vec![
            workload.name(),
            k.to_string(),
            r.algo.to_string(),
            format!("{:.4}", r.diversity),
        ]);
    }
    println!("\nFig. 6 (diversity vs k):");
    println!("{}", table.render());
    let path = table.write_csv("fig6_quality").expect("write CSV");
    println!("wrote {}", path.display());
}
