//! Minimal flag parsing shared by the experiment binaries.
//!
//! Supported flags (all optional):
//!
//! * `--quick` / `--full` — instance size (default: laptop-friendly);
//! * `--trials N` — stream permutations to average (default 3; paper 10);
//! * `--k N` — solution size where the experiment doesn't sweep it
//!   (default 20, the paper's Table II setting);
//! * `--seed N` — dataset generation seed (default 42);
//! * `--shards N` — shard count for the streaming algorithms (default 1 =
//!   unsharded; K > 1 routes streams through `ShardedStream`);
//! * `--window N` — add table2's sliding-window scenario over the most
//!   recent `N` arrivals (N ≥ 2).
//!
//! Each binary accepts only the flags it reads ([`EXPERIMENTS`]): a flag
//! another binary reads exits 2 with `flag --X is not used by <bin>`, so
//! `fig8_space --k 7` cannot silently sweep its own k values.
//!
//! Every run is one uninterrupted pass; the experiments take no
//! checkpoints (durable summaries are `fdm-serve`'s job).

use crate::workloads::SizeMode;

/// Every experiment binary and the flags it reads, in `run_all` order.
/// The sweeps of Figs. 6–8 choose their own `k`; only table2 has a
/// sliding-window scenario; the A1/A2 ablations run unsharded.
#[rustfmt::skip]
pub const EXPERIMENTS: &[(&str, &[&str])] = &[
    ("table2",           &["--quick", "--full", "--trials", "--seed", "--k", "--shards", "--window"]),
    ("fig5_epsilon",     &["--quick", "--full", "--trials", "--seed", "--k", "--shards"]),
    ("fig6_quality",     &["--quick", "--full", "--trials", "--seed", "--shards"]),
    ("fig7_time",        &["--quick", "--full", "--trials", "--seed", "--shards"]),
    ("fig8_space",       &["--quick", "--full", "--trials", "--seed", "--shards"]),
    ("fig9_er_pr",       &["--quick", "--full", "--trials", "--seed", "--k", "--shards"]),
    ("fig10_scal_n",     &["--quick", "--full", "--trials", "--seed", "--k", "--shards"]),
    ("fig11_scal_m",     &["--quick", "--full", "--trials", "--seed", "--k", "--shards"]),
    ("ablation_swap",    &["--quick", "--full", "--trials", "--seed", "--k"]),
    ("ablation_matroid", &["--quick", "--full", "--trials", "--seed", "--k"]),
    ("ablation_coreset", &["--quick", "--full", "--trials", "--seed", "--k", "--shards"]),
];

/// Whether `flag` is followed by a value (every flag but the size modes).
fn takes_value(flag: &str) -> bool {
    !matches!(flag, "--quick" | "--full")
}

/// The flags `bin` reads.
fn flags_of(bin: &str) -> &'static [&'static str] {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == bin)
        .map(|(_, flags)| *flags)
        .unwrap_or_else(|| panic!("{bin} is not in cli::EXPERIMENTS"))
}

/// Parsed common options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Instance size mode.
    pub size: SizeMode,
    /// Number of averaged stream permutations.
    pub trials: usize,
    /// Solution size `k`.
    pub k: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Shard count for the streaming algorithms (1 = unsharded).
    pub shards: usize,
    /// Sliding-window size of table2's sliding scenario; `None` skips it.
    pub window: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            size: SizeMode::Default,
            trials: 3,
            k: 20,
            seed: 42,
            shards: 1,
            window: None,
        }
    }
}

impl Options {
    /// Parses `bin`'s arguments (skip the program name first).
    ///
    /// Unknown flags, and flags `bin` does not read, abort with a message,
    /// so typos and misplaced flags don't silently run the default
    /// experiment.
    pub fn parse<I: Iterator<Item = String>>(bin: &str, args: I) -> Result<Options, String> {
        let flags = flags_of(bin);
        let mut opts = Options::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if known(&arg) && !flags.contains(&arg.as_str()) {
                return Err(format!("flag {arg} is not used by {bin}"));
            }
            match arg.as_str() {
                "--quick" => opts.size = SizeMode::Quick,
                "--full" => opts.size = SizeMode::Full,
                "--trials" => opts.trials = take_num(&mut args, "--trials")? as usize,
                "--k" => opts.k = take_num(&mut args, "--k")? as usize,
                "--seed" => opts.seed = take_num(&mut args, "--seed")?,
                "--shards" => opts.shards = take_num(&mut args, "--shards")? as usize,
                "--window" => opts.window = Some(take_num(&mut args, "--window")? as usize),
                "--help" | "-h" => return Err(usage(bin)),
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        if opts.trials == 0 {
            return Err("--trials must be at least 1".to_string());
        }
        if opts.shards == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        if opts.window.is_some_and(|w| w < 2) {
            return Err("--window must be at least 2".to_string());
        }
        Ok(opts)
    }

    /// Parses `bin`'s process arguments, exiting 2 with a message on
    /// error.
    pub fn from_env(bin: &str) -> Options {
        match Options::parse(bin, std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Whether some experiment reads `flag`.
fn known(flag: &str) -> bool {
    EXPERIMENTS.iter().any(|(_, flags)| flags.contains(&flag))
}

/// `bin`'s usage line, naming only the flags it reads.
fn usage(bin: &str) -> String {
    let mut line = format!("usage: {bin}");
    for flag in flags_of(bin) {
        match *flag {
            "--quick" => line.push_str(" [--quick|--full]"),
            "--full" => {}
            flag => line.push_str(&format!(" [{flag} N]")),
        }
    }
    line
}

/// Splits `run_all`'s arguments into each experiment's own: every flag
/// (with its value) goes to the binaries that read it. A flag no binary
/// reads, an unknown flag, or an argument one of the binaries would
/// reject is an error before any child runs.
pub fn forward_args(args: &[String]) -> Result<Vec<(&'static str, Vec<String>)>, String> {
    let mut groups: Vec<&[String]> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if matches!(flag, "--help" | "-h") {
            return Err(
                "usage: run_all [--quick|--full] [--trials N] [--seed N] [--k N] \
                        [--shards N] [--window N] (each experiment gets the flags it reads)"
                    .to_string(),
            );
        }
        if !known(flag) {
            return Err(format!(
                "flag {flag} is not used by any experiment; try --help"
            ));
        }
        let end = if takes_value(flag) { i + 2 } else { i + 1 };
        groups.push(&args[i..end.min(args.len())]);
        i = end;
    }
    EXPERIMENTS
        .iter()
        .map(|&(bin, flags)| {
            let own: Vec<String> = groups
                .iter()
                .filter(|group| flags.contains(&group[0].as_str()))
                .flat_map(|group| group.iter().cloned())
                .collect();
            Options::parse(bin, own.iter().cloned()).map(|_| (bin, own))
        })
        .collect()
}

fn take_num<I: Iterator<Item = String>>(
    args: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<u64, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses as table2, which reads every flag.
    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse("table2", args.iter().map(|s| s.to_string()))
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, Options::default());
        assert_eq!(o.trials, 3);
        assert_eq!(o.k, 20);
    }

    #[test]
    fn parses_flags() {
        let o = parse(&["--full", "--trials", "10", "--k", "30", "--seed", "7"]).unwrap();
        assert_eq!(o.size, SizeMode::Full);
        assert_eq!(o.trials, 10);
        assert_eq!(o.k, 30);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn quick_mode() {
        assert_eq!(parse(&["--quick"]).unwrap().size, SizeMode::Quick);
    }

    #[test]
    fn rejects_unknown_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "abc"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
    }

    #[test]
    fn parses_sliding_scenario_flags() {
        assert_eq!(parse(&["--window", "400"]).unwrap().window, Some(400));
        assert_eq!(parse(&[]).unwrap().window, None);
        let err = parse(&["--algorithm", "sliding", "--window", "400"]).unwrap_err();
        assert!(err.contains("unknown flag --algorithm"), "{err}");
        assert!(parse(&["--window", "1"]).is_err());
        assert!(parse(&["--window", "0"]).is_err());
        assert!(parse(&["--window"]).is_err());
    }

    #[test]
    fn help_is_an_err_with_usage() {
        let msg = parse(&["--help"]).unwrap_err();
        assert!(msg.contains("usage"));
        let msg = Options::parse("fig8_space", strings(&["--help"]).into_iter()).unwrap_err();
        assert!(msg.contains("--shards") && !msg.contains("--k"), "{msg}");
    }

    #[test]
    fn binaries_reject_flags_they_do_not_read() {
        let parse_as = |bin: &str, args: &[&str]| Options::parse(bin, strings(args).into_iter());
        let err = parse_as("fig5_epsilon", &["--quick", "--window", "400"]).unwrap_err();
        assert_eq!(err, "flag --window is not used by fig5_epsilon");
        for bin in ["fig6_quality", "fig7_time", "fig8_space"] {
            let err = parse_as(bin, &["--k", "7"]).unwrap_err();
            assert_eq!(err, format!("flag --k is not used by {bin}"));
        }
        for bin in ["ablation_swap", "ablation_matroid"] {
            let err = parse_as(bin, &["--shards", "2"]).unwrap_err();
            assert_eq!(err, format!("flag --shards is not used by {bin}"));
        }
        // A flag no binary knows stays an unknown flag.
        let err = parse_as("fig8_space", &["--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        // Every binary reads the flags in its own entry.
        for (bin, flags) in EXPERIMENTS {
            let mut args = Vec::new();
            for flag in *flags {
                args.push(*flag);
                if takes_value(flag) {
                    args.push("3");
                }
            }
            let opts = parse_as(bin, &args).unwrap_or_else(|e| panic!("{bin}: {e}"));
            assert_eq!(opts.trials, 3, "{bin}");
        }
    }

    #[test]
    fn run_all_forwards_each_binary_only_its_flags() {
        let children = forward_args(&strings(&[
            "--quick", "--k", "7", "--window", "400", "--trials", "1",
        ]))
        .unwrap();
        let names: Vec<&str> = children.iter().map(|(bin, _)| *bin).collect();
        let bins: Vec<&str> = EXPERIMENTS.iter().map(|(bin, _)| *bin).collect();
        assert_eq!(names, bins);
        let args_of = |bin: &str| -> Vec<String> {
            children
                .iter()
                .find(|(name, _)| *name == bin)
                .unwrap()
                .1
                .clone()
        };
        assert_eq!(
            args_of("table2"),
            strings(&["--quick", "--k", "7", "--window", "400", "--trials", "1"])
        );
        assert_eq!(
            args_of("fig5_epsilon"),
            strings(&["--quick", "--k", "7", "--trials", "1"])
        );
        assert_eq!(
            args_of("fig8_space"),
            strings(&["--quick", "--trials", "1"])
        );
        // A flag no experiment reads, and a bad value, fail before any
        // child runs.
        let err = forward_args(&strings(&["--algorithm", "sliding"])).unwrap_err();
        assert!(
            err.contains("--algorithm is not used by any experiment"),
            "{err}"
        );
        assert!(forward_args(&strings(&["--trials", "0"])).is_err());
        assert!(forward_args(&strings(&["--window", "1"])).is_err());
        assert!(forward_args(&strings(&["--k"])).is_err());
        assert!(forward_args(&strings(&["--help"]))
            .unwrap_err()
            .contains("usage"));
    }
}
