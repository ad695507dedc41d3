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
//! * `--snapshot-every N` — checkpoint each streaming run every N arrivals
//!   (table2 writes `results/snapshots/table2-<algo>-<dataset>.snap`);
//! * `--restore-from PATH` — resume each streaming run from a snapshot
//!   (the already-processed prefix of the permuted stream is skipped, so a
//!   resumed run finishes with results identical to an uninterrupted one;
//!   incompatible snapshots are rejected with a typed error). Checkpoints
//!   are written in the v2 binary codec; resume also reads v1 JSON files;
//! * `--algorithm NAME` — add an extra streaming scenario to experiments
//!   that support it (today: `sliding` on table2);
//! * `--window N` — sliding-window size for `--algorithm sliding`
//!   (required with it, rejected without it).

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
    /// Checkpoint cadence for the streaming algorithms (arrivals between
    /// snapshots); `None` disables checkpointing.
    pub snapshot_every: Option<usize>,
    /// Snapshot to resume the streaming runs from.
    pub restore_from: Option<String>,
    /// Extra streaming scenario to run (today: `sliding` on table2).
    pub algorithm: Option<String>,
    /// Sliding-window size for `--algorithm sliding`.
    pub window: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            size: SizeMode::Default,
            trials: 3,
            k: 20,
            seed: 42,
            shards: 1,
            snapshot_every: None,
            restore_from: None,
            algorithm: None,
            window: 0,
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
                "--snapshot-every" => {
                    opts.snapshot_every = Some(take_num(&mut args, "--snapshot-every")? as usize)
                }
                "--restore-from" => {
                    opts.restore_from = Some(
                        args.next()
                            .ok_or_else(|| "--restore-from requires a path".to_string())?,
                    )
                }
                "--algorithm" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--algorithm requires a name".to_string())?;
                    if !fdm_core::streaming::summary::is_known_algorithm(&value) {
                        return Err(format!(
                            "--algorithm: unknown algorithm `{value}` (expected one of: {})",
                            fdm_core::streaming::summary::algorithm_tags().join(", ")
                        ));
                    }
                    opts.algorithm = Some(value);
                }
                "--window" => opts.window = take_num(&mut args, "--window")? as usize,
                "--help" | "-h" => {
                    return Err(
                        "usage: [--quick|--full] [--trials N] [--k N] [--seed N] [--shards N] \
                         [--snapshot-every N] [--restore-from PATH] \
                         [--algorithm sliding --window N]"
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
        if opts.snapshot_every == Some(0) {
            return Err("--snapshot-every must be at least 1".to_string());
        }
        if opts.algorithm.as_deref() == Some("sliding") && opts.window < 2 {
            return Err("--algorithm sliding requires --window N (N ≥ 2)".to_string());
        }
        if opts.window != 0 && opts.algorithm.as_deref() != Some("sliding") {
            // Mirror the registry/protocol contract: a window on a
            // non-sliding algorithm is an error everywhere, never ignored.
            return Err("--window requires --algorithm sliding".to_string());
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
        assert!(parse(&["--snapshot-every", "0"]).is_err());
        assert!(parse(&["--restore-from"]).is_err());
    }

    #[test]
    fn parses_persistence_flags() {
        let o = parse(&["--snapshot-every", "500", "--restore-from", "/tmp/x.snap"]).unwrap();
        assert_eq!(o.snapshot_every, Some(500));
        assert_eq!(o.restore_from.as_deref(), Some("/tmp/x.snap"));
        let o = parse(&[]).unwrap();
        assert_eq!(o.snapshot_every, None);
        assert_eq!(o.restore_from, None);
    }

    #[test]
    fn parses_sliding_scenario_flags() {
        let o = parse(&["--algorithm", "sliding", "--window", "500"]).unwrap();
        assert_eq!(o.algorithm.as_deref(), Some("sliding"));
        assert_eq!(o.window, 500);
        assert!(parse(&["--algorithm", "sliding"]).is_err()); // no window
        assert!(parse(&["--algorithm", "sliding", "--window", "1"]).is_err());
        assert!(parse(&["--window", "100"]).is_err()); // window alone
        assert!(parse(&["--algorithm", "bogus", "--window", "100"]).is_err());
        // A window on a non-sliding algorithm must error, not be ignored.
        assert!(parse(&["--algorithm", "sfdm2", "--window", "100"]).is_err());
    }

    #[test]
    fn help_is_an_err_with_usage() {
        let msg = parse(&["--help"]).unwrap_err();
        assert!(msg.contains("usage"));
    }
}
