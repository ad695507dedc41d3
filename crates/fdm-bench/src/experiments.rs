//! Shared experiment sweeps used by multiple figure binaries.

use fdm_core::error::Result;
use fdm_core::fairness::FairnessConstraint;

use crate::cli::Options;
use crate::measure::{run_averaged_cell, Algo, RunResult};
use crate::workloads::Workload;

/// One measured cell of a `k`-sweep: `(workload, k, result)`.
pub type SweepCell = (Workload, usize, RunResult);

/// The eight dataset/group panels of Figs. 6 and 7, in paper order.
pub fn fig6_panels() -> Vec<Workload> {
    vec![
        Workload::AdultSex,     // (a) m = 2
        Workload::CelebaAge,    // (b) m = 2
        Workload::CelebaSex,    // (c) m = 2
        Workload::CensusSex,    // (d) m = 2
        Workload::AdultRace,    // (e) m = 5
        Workload::CelebaSexAge, // (f) m = 4
        Workload::CensusAge,    // (g) m = 7
        Workload::LyricsGenre,  // (h) m = 15
    ]
}

/// The paper's `k` range for a panel: `[5, 50]` for `m ≤ 5`, `[10, 50]`
/// for `5 < m ≤ 10`, `[15, 50]` for `m > 10` ("an algorithm must pick at
/// least one element from each group").
pub fn k_values(m: usize) -> Vec<usize> {
    let start = if m <= 5 {
        5
    } else if m <= 10 {
        10
    } else {
        15
    };
    (start..=50).step_by(5).filter(|&k| k >= m).collect()
}

/// Which algorithms run in a Fig. 6/7 panel for a given `m` and `k`:
/// GMM always; FairSwap/SFDM1 for `m = 2`; FairGMM for `k ≤ 10, m = 2`
/// (its enumeration explodes beyond that, as the paper notes); FairFlow and
/// SFDM2 always.
pub fn panel_algos(m: usize, k: usize) -> Vec<Algo> {
    let mut algos = vec![Algo::Gmm];
    if m == 2 {
        algos.push(Algo::FairSwap);
        if k <= 10 {
            algos.push(Algo::FairGmm);
        }
        algos.push(Algo::Sfdm1);
    }
    algos.push(Algo::FairFlow);
    algos.push(Algo::Sfdm2);
    algos
}

/// Runs the full Figs. 6/7 sweep (all panels × k × algorithms), returning
/// every cell; the figure binaries project out the column they plot.
pub fn sweep_k(opts: &Options) -> Result<Vec<SweepCell>> {
    let mut cells = Vec::new();
    for workload in fig6_panels() {
        let m = workload.num_groups();
        let dataset = workload.build(opts.size, opts.seed)?;
        eprintln!(
            "sweeping {} (n = {}, m = {m}) ...",
            workload.name(),
            dataset.len()
        );
        for k in k_values(m) {
            let constraint = FairnessConstraint::equal_representation(k, m)?;
            for algo in panel_algos(m, k) {
                let r = run_averaged_cell(
                    &dataset,
                    algo,
                    &constraint,
                    workload.default_epsilon(),
                    opts.trials,
                    opts.shards,
                    0,
                )?;
                cells.push((workload, k, r));
            }
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_ranges_match_paper() {
        assert_eq!(k_values(2), vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50]);
        assert_eq!(k_values(7), vec![10, 15, 20, 25, 30, 35, 40, 45, 50]);
        assert_eq!(k_values(15), vec![15, 20, 25, 30, 35, 40, 45, 50]);
    }

    #[test]
    fn panel_algorithm_selection() {
        let a = panel_algos(2, 10);
        assert!(a.contains(&Algo::FairSwap));
        assert!(a.contains(&Algo::FairGmm));
        assert!(a.contains(&Algo::Sfdm1));
        let a = panel_algos(2, 20);
        assert!(
            !a.contains(&Algo::FairGmm),
            "FairGMM cannot scale past k=10"
        );
        let a = panel_algos(7, 20);
        assert!(!a.contains(&Algo::FairSwap));
        assert!(!a.contains(&Algo::Sfdm1));
        assert!(a.contains(&Algo::FairFlow) && a.contains(&Algo::Sfdm2));
    }

    #[test]
    fn eight_panels() {
        assert_eq!(fig6_panels().len(), 8);
    }
}
