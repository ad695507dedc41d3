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
//! Every run is one uninterrupted pass; the experiments take no
//! checkpoints (durable summaries are `fdm-serve`'s job).

use crate::workloads::SizeMode;

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
    /// Parses from an argument iterator (skip the program name first).
    ///
    /// Unknown flags abort with a usage message, so typos don't silently
    /// run the default experiment.
    pub fn parse<I: Iterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.size = SizeMode::Quick,
                "--full" => opts.size = SizeMode::Full,
                "--trials" => opts.trials = take_num(&mut args, "--trials")? as usize,
                "--k" => opts.k = take_num(&mut args, "--k")? as usize,
                "--seed" => opts.seed = take_num(&mut args, "--seed")?,
                "--shards" => opts.shards = take_num(&mut args, "--shards")? as usize,
                "--window" => opts.window = Some(take_num(&mut args, "--window")? as usize),
                "--help" | "-h" => {
                    return Err(
                        "usage: [--quick|--full] [--trials N] [--k N] [--seed N] [--shards N] \
                         [--window N]"
                            .to_string(),
                    )
                }
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

    /// Parses from the process arguments, exiting with a message on error.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
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

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
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
    }
}
