//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <lib-ingest|wire-durable|wire-cluster> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <set-a> <set-b> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints a human-readable table, then one record line (host,
//! sample counts, every metric), then the final JSON line with `correct`,
//! `attempted`, `failed` and the metrics. The record is also appended to
//! `.bench_run/results.jsonl`; `compare` reads such files.

use std::io::Write as _;
use std::process::ExitCode;

use perfbench::e2e::Options;
use perfbench::{compare, final_line, run_workload, workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <set-a> <set-b> [--benchmark <path>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let mut workload_name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload_name = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s >= 0.0),
            ("--trace", Some(v)) => {
                trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            (flag, _) => return usage(&format!("unknown or incomplete flag `{flag}`")),
        }
        i += 2;
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) =
        (workload_name, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let Some(workload) = workload::by_name(&name) else {
        return usage(&format!("unknown workload `{name}`"));
    };
    // The default kernel policy (`auto`, no f32 pre-filter) is part of
    // what is measured; an inherited override would silently change it.
    std::env::remove_var("FDM_KERNEL");
    std::env::remove_var("FDM_PREFILTER");
    if workload.one_cpu {
        if let Err(e) = perfbench::host::pin_to_one_cpu() {
            eprintln!("perfbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    }

    let outcome = match run_workload(&workload, seed, seconds, trace, Options::default()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let record = serde_json::to_string(&outcome.record).expect("JSON rendering cannot fail");
    println!("# {} seed={seed} trace={}", workload.name, u8::from(trace));
    for (name, value, unit) in &outcome.metrics {
        println!("#   {name:<36} {value:>16.4} {unit}");
    }
    for key in ["samples", "split_us", "dominant", "host", "problems"] {
        if let Some(value) = outcome.record.get(key) {
            println!(
                "#   {key}: {}",
                serde_json::to_string(value).expect("JSON rendering cannot fail")
            );
        }
    }
    println!("{record}");
    println!("{}", final_line(&outcome));
    if let Err(e) = append_result(&record) {
        eprintln!("perfbench: could not append to .bench_run/results.jsonl: {e}");
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_result(record: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_run")?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(".bench_run/results.jsonl")?;
    writeln!(file, "{record}")
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--benchmark" {
            let Some(path) = args.get(i + 1) else {
                return usage("--benchmark requires a path");
            };
            benchmark = path.clone();
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    let [a, b] = files.as_slice() else {
        return usage("compare takes exactly two result files");
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let (a_text, b_text, bench_text) = match (read(a), read(b), read(&benchmark)) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return usage(&e),
    };
    let bench = match serde_json::parse_value(&bench_text) {
        Ok(bench) => bench,
        Err(e) => return usage(&format!("{benchmark}: {e}")),
    };
    let (text, regressions) = compare::render(
        &compare::load(&a_text),
        &compare::load(&b_text),
        &compare::bounds(&bench),
    );
    print!("{text}");
    if regressions > 0 {
        println!("{regressions} metric(s) worse beyond their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
