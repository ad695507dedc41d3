//! Fan-out helpers over rayon's persistent pool.
//!
//! Two kinds of independent work fan out: the shards of a
//! [`ShardedStream`](crate::streaming::sharded::ShardedStream) batch insert,
//! and the per-guess post-processing of `finalize`. The pool sizes itself
//! from the CPUs the process may use; with one usable CPU there is no pool
//! and every call runs inline. Both helpers visit items in index order and
//! the map preserves result order, so outputs are **identical** however the
//! work is scheduled (pinned by `tests/parallel_determinism.rs`).

use rayon::prelude::*;

/// Maps `0..n` through `f` on the pool (inline below two items). Results
/// are in index order.
pub(crate) fn maybe_par_map<O, F>(n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    (0..n).into_par_iter().map(f).collect()
}

/// Consumes `items`, applying `f` to each on the pool (inline below two
/// items). Used for mutable fan-out where each item owns disjoint state
/// (e.g. one shard plus its stride of a batch).
pub(crate) fn maybe_par_for_each<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    items.into_par_iter().for_each(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // "Both modes": below two items the helpers run inline, from two up on
    // the pool (when the process has one).

    #[test]
    fn map_preserves_index_order_both_modes() {
        for n in [1, 100] {
            let out = maybe_par_map(n, |i| i * 3);
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_visits_every_item_both_modes() {
        for n in [1, 10] {
            let sum = AtomicUsize::new(0);
            maybe_par_for_each((1..=n).collect(), |x: usize| {
                sum.fetch_add(x, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), n * (n + 1) / 2);
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(maybe_par_map(0, |i| i).is_empty());
        assert_eq!(maybe_par_map(1, |i| i + 7), vec![7]);
        maybe_par_for_each(Vec::<usize>::new(), |_| {});
    }
}
