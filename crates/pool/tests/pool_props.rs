//! Differential and stress tests for the work-stealing pool: random spawn
//! DAGs execute exactly like serial evaluation on any pool width, task
//! panics propagate to the scope caller, and the stats counters account
//! for every submitted task under an 8-worker stress load.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection;
use proptest::prelude::*;
use sdfr_pool::{Pool, Scope};

/// A cheap but order-sensitive mixing function standing in for "work".
fn chaos(x: u64) -> u64 {
    let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h.wrapping_mul(31).rotate_left(7)
}

/// Spawns `node` as a task that records its result and recursively spawns
/// its children — a random-shaped spawn DAG driven entirely through the
/// scoped API (children spawn from inside their parent's task body).
fn spawn_node<'scope>(
    s: &Scope<'scope>,
    node: usize,
    children: &'scope [Vec<usize>],
    values: &'scope [u64],
    slots: &'scope [AtomicU64],
) {
    s.spawn(move |s| {
        slots[node].store(chaos(values[node]), Ordering::Relaxed);
        for &c in &children[node] {
            spawn_node(s, c, children, values, slots);
        }
    });
}

proptest! {
    /// Random task trees (parent of node i drawn from 0..i, so every shape
    /// from a chain to a star occurs) produce the same per-node results as
    /// serial evaluation on pools of width 1..=8, and the pool's counters
    /// account for exactly one execution per node.
    #[test]
    fn random_spawn_trees_match_serial_execution(
        values in collection::vec(any::<u64>(), 1..48usize),
        width in 1usize..9,
    ) {
        let n = values.len();
        let mut children = vec![Vec::new(); n];
        for i in 1..n {
            children[(values[i] as usize) % i].push(i);
        }
        let expected: Vec<u64> = values.iter().map(|&v| chaos(v)).collect();

        let pool = Pool::new(width);
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.scope(|s| spawn_node(s, 0, &children, &values, &slots));
        let got: Vec<u64> = slots.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        prop_assert_eq!(got, expected);

        let stats = pool.stats();
        prop_assert_eq!(stats.spawned, n as u64);
        prop_assert_eq!(stats.executed, n as u64);
    }

    /// `map_indexed` is a drop-in for serial iteration: same values, same
    /// order, at every width.
    #[test]
    fn map_indexed_matches_serial_at_any_width(
        values in collection::vec(any::<u64>(), 0..64usize),
        width in 1usize..9,
    ) {
        let pool = Pool::new(width);
        let got = pool.map_indexed(values.len(), |i| chaos(values[i]));
        let expected: Vec<u64> = values.iter().map(|&v| chaos(v)).collect();
        prop_assert_eq!(got, expected);
    }

    /// The cost-model chunk size is always usable: positive, and never so
    /// large that a single chunk hides all parallelism when there is more
    /// than one worker and enough items to split.
    #[test]
    fn chunk_size_is_sound(n in 0usize..10_000, width in 1usize..9) {
        let pool = Pool::new(width);
        let chunk = pool.chunk_size(n);
        prop_assert!(chunk >= 1);
        // Ceil division: the chunks cover n with no more than
        // width * CHUNKS_PER_THREAD pieces.
        prop_assert!(chunk.saturating_mul(width * 4) >= n);
    }
}

#[test]
fn panic_in_task_propagates_with_its_payload() {
    let pool = Pool::new(4);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            for i in 0..16 {
                s.spawn(move |_| {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                });
            }
        });
    }))
    .expect_err("the scope must re-raise the task panic");
    let msg = caught
        .downcast_ref::<&str>()
        .copied()
        .expect("payload is the original &str");
    assert_eq!(msg, "task 7 exploded");
    // The pool survives a panicked scope: workers are still alive and
    // subsequent scopes run normally.
    assert_eq!(pool.map_indexed(4, |i| i * 2), vec![0, 2, 4, 6]);
}

#[test]
fn panic_in_nested_scope_unwinds_through_the_outer_scope() {
    let pool = Pool::new(2);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn(|_| {
                // The inner scope re-raises on this worker; the outer scope
                // then re-raises the resulting task panic at the caller.
                sdfr_pool::current().scope(|inner| {
                    inner.spawn(|_| panic!("inner task"));
                });
            });
        });
    }))
    .expect_err("nested panic must reach the outermost caller");
    assert_eq!(
        caught.downcast_ref::<&str>().copied(),
        Some("inner task"),
        "original payload survives both scopes"
    );
}

#[test]
fn stress_8_workers_account_for_every_task() {
    const TASKS: u64 = 10_000;
    let pool = Pool::new(8);
    assert_eq!(pool.threads(), 8);
    let sum = AtomicU64::new(0);
    pool.scope(|s| {
        for i in 0..TASKS {
            let sum = &sum;
            s.spawn(move |_| {
                sum.fetch_add(chaos(i) % 1000, Ordering::Relaxed);
            });
        }
    });
    let expected: u64 = (0..TASKS).map(|i| chaos(i) % 1000).sum();
    assert_eq!(sum.load(Ordering::Relaxed), expected);
    let stats = pool.stats();
    assert_eq!(stats.threads, 8);
    assert_eq!(
        (stats.spawned, stats.executed),
        (TASKS, TASKS),
        "every submitted task executed exactly once: {stats:?}"
    );
}

#[test]
fn dropping_the_last_handle_on_a_worker_is_safe() {
    // Regression: a queued job's wrapper environment holds a Pool clone and
    // is dropped on the worker *after* the scope unblocks its caller. If
    // the caller drops its handle in that window, the worker drops the last
    // one — Joiner::drop must detach rather than self-join. Many quick
    // iterations make the window easy to hit.
    for _ in 0..200 {
        let pool = Pool::new(2);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {});
            }
        });
        drop(pool);
    }
}

#[test]
fn stress_nested_scopes_under_contention() {
    // 64 outer tasks each opening an inner scope of 16 on the same
    // 8-worker pool: 64 * 16 inner + 64 outer tasks, all accounted for,
    // no deadlock (waiting threads execute queued work).
    let pool = Pool::new(8);
    let count = AtomicU64::new(0);
    pool.scope(|s| {
        for _ in 0..64 {
            let count = &count;
            s.spawn(move |_| {
                let inner_pool = sdfr_pool::current();
                inner_pool.scope(|inner| {
                    for _ in 0..16 {
                        inner.spawn(move |_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 64 * 16);
    let stats = pool.stats();
    assert_eq!(stats.spawned, 64 + 64 * 16);
    assert_eq!(stats.executed, 64 + 64 * 16);
}
