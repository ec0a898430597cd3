//! Deterministic parallel execution for sampsim.
//!
//! Every replayable unit in the PinPoints flow — a regional pinball, a
//! shard of the whole-program profiling pass, a benchmark in a suite
//! sweep — is independent of its siblings, so the hot paths fan them out
//! over a worker pool. The non-negotiable contract is **bit-identical
//! results regardless of the job count**: parallelism may only change
//! wall-clock time, never a single output bit (the differential harness
//! in `tests/parallel_differential.rs` enforces this).
//!
//! Two rules make that hold:
//!
//! 1. **No shared mutable state.** Workers receive a shared `&` view of
//!    the inputs and build private outputs; anything stateful (RNG,
//!    cache models, BBV accumulators) is constructed per work item from
//!    a deterministic seed or checkpoint, or, when it is costly to build,
//!    held once per worker ([`try_parallel_map_with`]) and reset to its
//!    constructed state before each item.
//! 2. **Reduction in item order.** [`parallel_map`] returns results
//!    indexed exactly like its input slice, so every downstream fold —
//!    including floating-point reductions, which are not associative —
//!    sees the same operand order a serial run would.
//!
//! The pool is a hand-rolled `std::thread::scope` work-stealing loop
//! rather than rayon: simulation results must be reproducible across
//! environments, and this build is fully self-contained (no external
//! crates), so the ~100 lines of pool are the whole dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker-count configuration for the parallel hot paths.
///
/// `Auto` resolves to the machine's available parallelism at the moment
/// [`Jobs::get`] is called; an explicit count pins the pool size. A
/// count of 1 (or a single-item workload) bypasses the pool entirely and
/// runs inline on the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jobs {
    /// Use every hardware thread the host reports.
    #[default]
    Auto,
    /// Use exactly this many workers.
    N(NonZeroUsize),
}

/// A single worker: the serial reference configuration.
pub const SERIAL: Jobs = Jobs::N(NonZeroUsize::MIN);

impl Jobs {
    /// An explicit worker count.
    ///
    /// # Errors
    ///
    /// Returns an error message for a zero count.
    pub fn new(n: usize) -> Result<Self, String> {
        NonZeroUsize::new(n)
            .map(Jobs::N)
            .ok_or_else(|| "--jobs must be at least 1".to_string())
    }

    /// Resolves to a concrete worker count (at least 1).
    pub fn get(self) -> usize {
        match self {
            Jobs::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Jobs::N(n) => n.get(),
        }
    }
}

impl FromStr for Jobs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "auto" {
            return Ok(Jobs::Auto);
        }
        let n: usize = s
            .parse()
            .map_err(|_| format!("bad --jobs value: {s} (expected a count or 'auto')"))?;
        Jobs::new(n)
    }
}

impl fmt::Display for Jobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Jobs::Auto => write!(f, "auto"),
            Jobs::N(n) => write!(f, "{n}"),
        }
    }
}

/// Maps `f` over `items` on up to `jobs` workers, returning results in
/// input order.
///
/// `f` receives the item index alongside the item so per-item labels and
/// seeds stay deterministic. Items are claimed from a shared atomic
/// counter (dynamic scheduling — a slow item does not stall its
/// neighbours), but the output vector is assembled by index, so callers
/// observe exactly the serial result order.
///
/// # Panics
///
/// Propagates the first worker panic (by join order) after all workers
/// have stopped.
pub fn parallel_map<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_parallel_map_with(jobs, items, || (), |_, i, t| Ok::<R, Infallible>(f(i, t))) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// Fallible [`parallel_map`]: maps `f` over `items` and returns either
/// every success (in input order) or the error belonging to the
/// *lowest-indexed* failing item — the same error a serial loop would
/// have returned first.
///
/// All items run to completion even when one fails; error selection is
/// therefore independent of worker scheduling.
///
/// # Errors
///
/// Returns the lowest-indexed error produced by `f`.
pub fn try_parallel_map<T, R, E, F>(jobs: Jobs, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_parallel_map_with(jobs, items, || (), |_, i, t| f(i, t))
}

/// [`try_parallel_map`] with one piece of mutable state per worker.
///
/// Each worker calls `init` once, when it claims its first item, and
/// hands the state to `f` for every item it runs; the state is dropped
/// when the call returns. This is for scratch that is expensive to build
/// and cheap to reuse, such as a cache hierarchy that `f` resets before
/// each item. Which items share a state depends on scheduling, so the
/// determinism contract holds only if `f`'s result does not depend on
/// what earlier items left in the state.
///
/// # Errors
///
/// Returns the lowest-indexed error produced by `f`; every item runs.
///
/// # Panics
///
/// Propagates the first worker panic (by join order) after all workers
/// have stopped.
pub fn try_parallel_map_with<T, S, R, E, I, F>(
    jobs: Jobs,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        let mut state = None;
        let results: Vec<Result<R, E>> = items
            .iter()
            .enumerate()
            .map(|(i, t)| f(state.get_or_insert_with(&init), i, t))
            .collect();
        return results.into_iter().collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, E>)>();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let (init, f) = (&init, &f);
            handles.push(scope.spawn(move || {
                let mut state = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(state.get_or_insert_with(init), i, &items[i]);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(tx);
        let mut slots: Vec<Option<Result<R, E>>> =
            std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Join explicitly so a worker's own panic payload (an assertion
        // from the differential harness, say) surfaces instead of a
        // generic "missing result" message.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced a result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_parsing() {
        assert_eq!("auto".parse::<Jobs>().unwrap(), Jobs::Auto);
        assert_eq!("3".parse::<Jobs>().unwrap(), Jobs::new(3).unwrap());
        assert!("0".parse::<Jobs>().is_err());
        assert!("-1".parse::<Jobs>().is_err());
        assert!("two".parse::<Jobs>().is_err());
        assert!(Jobs::new(0).is_err());
        assert_eq!(SERIAL.get(), 1);
        assert!(Jobs::Auto.get() >= 1);
        assert_eq!(Jobs::new(7).unwrap().to_string(), "7");
        assert_eq!(Jobs::Auto.to_string(), "auto");
    }

    #[test]
    fn map_preserves_order_for_every_job_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [
            SERIAL,
            Jobs::new(2).unwrap(),
            Jobs::new(7).unwrap(),
            Jobs::Auto,
        ] {
            let got = parallel_map(jobs, &items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn map_passes_matching_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = parallel_map(Jobs::new(3).unwrap(), &items, |i, &s| (i, s));
        for (i, (gi, gs)) in got.iter().enumerate() {
            assert_eq!(*gi, i);
            assert_eq!(*gs, items[i]);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = vec![1, 2];
        let got = parallel_map(Jobs::new(16).unwrap(), &items, |_, &x| x + 1);
        assert_eq!(got, vec![2, 3]);
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(Jobs::new(4).unwrap(), &empty, |_, &x: &i32| x).is_empty());
    }

    #[test]
    fn try_map_returns_lowest_indexed_error() {
        let items: Vec<usize> = (0..50).collect();
        for jobs in [SERIAL, Jobs::new(2).unwrap(), Jobs::new(7).unwrap()] {
            let r: Result<Vec<usize>, usize> =
                try_parallel_map(
                    jobs,
                    &items,
                    |i, &x| {
                        if i % 13 == 12 {
                            Err(i)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(r.unwrap_err(), 12, "jobs = {jobs}");
        }
        let ok: Result<Vec<usize>, usize> =
            try_parallel_map(Jobs::new(3).unwrap(), &items, |_, &x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn map_with_builds_at_most_one_state_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..64).collect();
        for (jobs, workers) in [
            (SERIAL, 1),
            (Jobs::new(3).unwrap(), 3),
            (Jobs::new(7).unwrap(), 7),
        ] {
            let inits = AtomicUsize::new(0);
            let got: Result<Vec<(u64, u64)>, ()> = try_parallel_map_with(
                jobs,
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |seen, i, &x| {
                    *seen += 1;
                    assert_eq!(i as u64, x);
                    Ok((x * 3, *seen))
                },
            );
            let got = got.unwrap();
            let built = inits.load(Ordering::Relaxed);
            assert!(
                (1..=workers).contains(&built),
                "jobs = {jobs}: {built} states"
            );
            assert_eq!(
                got.iter().map(|&(y, _)| y).collect::<Vec<_>>(),
                items.iter().map(|x| x * 3).collect::<Vec<_>>(),
                "jobs = {jobs}: results in index order"
            );
            // Each state saw a run of items: the per-state counts add up.
            let last_counts: u64 = got.iter().filter(|&&(_, n)| n == 1).count() as u64;
            assert_eq!(
                last_counts, built as u64,
                "jobs = {jobs}: one first item per state"
            );
        }
        let none: Result<Vec<u8>, ()> = try_parallel_map_with(
            Jobs::new(4).unwrap(),
            &[] as &[u8],
            || unreachable!(),
            |_: &mut (), _, &x| Ok(x),
        );
        assert!(none.unwrap().is_empty(), "no items, no state");
    }

    #[test]
    fn map_with_returns_the_lowest_indexed_error() {
        let items: Vec<usize> = (0..50).collect();
        for jobs in [
            SERIAL,
            Jobs::new(2).unwrap(),
            Jobs::new(3).unwrap(),
            Jobs::new(7).unwrap(),
        ] {
            let r: Result<Vec<usize>, usize> =
                try_parallel_map_with(jobs, &items, Vec::new, |log: &mut Vec<usize>, i, &x| {
                    log.push(i);
                    if i % 17 == 9 || i == 40 {
                        Err(i)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(r.unwrap_err(), 9, "jobs = {jobs}");
        }
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<u32> = (0..20).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(Jobs::new(4).unwrap(), &items, |_, &x| {
                assert!(x != 11, "item eleven exploded");
                x
            })
        });
        let payload = caught.unwrap_err();
        // A format-less assert! panics with &'static str; formatted ones
        // with String. Accept either.
        let msg = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("item eleven exploded"), "{msg}");
    }
}
