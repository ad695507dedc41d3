//! Convenience driver: runs every experiment binary's logic in sequence
//! (Table II, Figs. 5–11, ablations A1–A3 are separate bins; this driver
//! re-executes them as child processes so their stdout/CSV behavior is
//! identical to running them by hand) and reports a pass/fail summary.
//!
//! Each child gets only the flags it reads (`cli::EXPERIMENTS`); a flag
//! no experiment reads exits 2 before anything runs.
//!
//! Run: `cargo run --release -p fdm-bench --bin run_all [--quick|--full] [--trials N]`

use std::process::Command;

use fdm_bench::cli::forward_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let children = match forward_args(&args) {
        Ok(children) => children,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // Children live next to this binary (same target directory).
    let self_path = std::env::current_exe().expect("current exe");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();

    let mut failures = Vec::new();
    for (bin, args) in &children {
        let path = bin_dir.join(bin);
        eprintln!("==> {bin} {}", args.join(" "));
        let status = Command::new(&path).args(args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to start: {e} (build with `cargo build --release -p fdm-bench` first)");
                failures.push(bin);
            }
        }
    }

    if failures.is_empty() {
        println!(
            "\nall {} experiments completed; CSVs in results/",
            children.len()
        );
    } else {
        println!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}
