//! Feature-gated parallel helpers.
//!
//! With the `parallel` cargo feature two kinds of independent work fan out
//! over rayon's persistent pool: the shards of a
//! [`ShardedStream`](crate::streaming::sharded::ShardedStream) batch insert,
//! and the per-guess post-processing of `finalize`. Without it everything
//! runs inline. Both paths iterate in index order and the
//! parallel map preserves result order, so outputs are **identical**
//! regardless of the feature or the runtime `sequential` toggle (checked by
//! `tests/parallel_determinism.rs`).
//!
//! Both cfg variants of every helper carry the **same bounds** (`O: Send`,
//! `F: Sync`, …). The sequential fallbacks don't need them, but looser
//! bounds let feature-gated callers drift until the first `--features
//! parallel` build breaks; the unit tests below compile-test the
//! equivalence through a bound-pinning generic shim.

/// Maps `0..n` through `f`, in parallel when the `parallel` feature is on
/// and `sequential` is false. Results are in index order either way.
#[cfg(feature = "parallel")]
pub(crate) fn maybe_par_map<O, F>(sequential: bool, n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if sequential || n < 2 {
        (0..n).map(f).collect()
    } else {
        use rayon::prelude::*;
        (0..n).into_par_iter().map(f).collect()
    }
}

/// Sequential fallback used when the `parallel` feature is disabled.
/// Signature-identical to the parallel variant (see the module docs).
#[cfg(not(feature = "parallel"))]
pub(crate) fn maybe_par_map<O, F>(sequential: bool, n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let _ = sequential;
    (0..n).map(f).collect()
}

/// Consumes `items`, applying `f` to each — in parallel when the `parallel`
/// feature is on and `sequential` is false. Used for mutable fan-out where
/// each item owns disjoint state (e.g. one shard plus its sub-batch).
#[cfg(feature = "parallel")]
pub(crate) fn maybe_par_for_each<T, F>(sequential: bool, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if sequential || items.len() < 2 {
        items.into_iter().for_each(f);
    } else {
        use rayon::prelude::*;
        items.into_par_iter().for_each(f);
    }
}

/// Sequential fallback used when the `parallel` feature is disabled.
/// Signature-identical to the parallel variant (see the module docs).
#[cfg(not(feature = "parallel"))]
pub(crate) fn maybe_par_for_each<T, F>(sequential: bool, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let _ = sequential;
    items.into_iter().for_each(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Compile-test for the signature contract: these shims pin the exact
    // bounds (`O: Send`, `F: Sync`, …) on *both* cfg variants. If a future
    // edit loosens the sequential fallback, code written against it would
    // stop compiling here first — under either feature configuration —
    // instead of breaking only `--features parallel` builds.
    fn map_shim<O: Send, F: Fn(usize) -> O + Sync>(sequential: bool, n: usize, f: F) -> Vec<O> {
        maybe_par_map(sequential, n, f)
    }

    fn for_each_shim<T: Send, F: Fn(T) + Sync>(sequential: bool, items: Vec<T>, f: F) {
        maybe_par_for_each(sequential, items, f);
    }

    #[test]
    fn map_preserves_index_order_both_modes() {
        for sequential in [false, true] {
            let out = map_shim(sequential, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_visits_every_item_both_modes() {
        for sequential in [false, true] {
            let sum = AtomicUsize::new(0);
            for_each_shim(sequential, (1..=10).collect(), |x: usize| {
                sum.fetch_add(x, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 55);
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(map_shim(false, 0, |i| i).is_empty());
        assert_eq!(map_shim(false, 1, |i| i + 7), vec![7]);
        for_each_shim(false, Vec::<usize>::new(), |_| {});
    }
}
