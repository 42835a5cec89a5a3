//! Drop-robustness of the parallel drivers: abandoning an enumeration
//! after an arbitrary prefix — in either delivery mode, at any thread
//! count — must neither deadlock nor leak pool threads. The same
//! guarantees hold one layer up, for the query front door: a
//! [`Response`] whose budget trips, or that is cancelled mid-stream
//! (from the consumer or from another thread), must end its stream and
//! join every worker.
//!
//! The leak check counts the process's live engine worker threads (the
//! `mintri-*` names the drivers give them) via `/proc/self/task`. That
//! count is only meaningful when no sibling test is spinning pools up
//! and down concurrently, and libtest runs a binary's tests in parallel
//! on a multi-core machine — so every test here first takes [`serial`],
//! one process-wide lock, and the suite is deterministic at any core
//! count.

use mintri::core::{CostMeasure, MinimalTriangulationsEnumerator};
use mintri::engine::{Delivery, Engine, EngineConfig, ParallelEnumerator};
use mintri::prelude::*;
use mintri::triangulate::McsM;
use mintri::workloads::random::erdos_renyi;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes this binary's tests: hold the guard for the whole test.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the next one must still run.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live engine worker threads of this process — the tasks named
/// `mintri-*` by the parallel drivers and the engine pool. Other threads
/// (libtest's own, a test's canceller) come and go on their own
/// schedule and are not counted. `None` when `/proc` is unavailable
/// (the leak assertions are skipped there).
fn live_workers() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("mintri-"))
            .count(),
    )
}

/// Waits (briefly) for the worker count to drop back to `baseline` —
/// `pthread_join` returns before the kernel reaps the task entry, so a
/// freshly joined worker can linger in `/proc` for a moment.
fn settles_to(baseline: usize) -> bool {
    for _ in 0..200 {
        if live_workers().unwrap_or(0) <= baseline {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A parallel engine plus a graph with plenty of results (the delivery
/// contract is chosen per query).
fn launch(threads: usize) -> (Engine, Graph) {
    let engine = Engine::with_config(EngineConfig {
        threads,
        channel_capacity: 2, // small: exercise workers parked in send()
        ..EngineConfig::default()
    });
    let g = erdos_renyi(16, 0.3, 7);
    (engine, g)
}

#[test]
fn response_cancel_mid_stream_is_honored_in_both_deliveries() {
    let _serial = serial();
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let baseline = live_workers();
        let (engine, g) = launch(4);
        let mut response = engine.run(
            &g,
            Query::enumerate().policy(ExecPolicy::fixed().with_threads(4).with_delivery(delivery)),
        );
        assert!(response.next().is_some(), "{delivery:?}: first result");
        assert!(response.next().is_some(), "{delivery:?}: second result");
        response.cancel();
        // The stream must end promptly — not hang, not keep producing.
        assert!(
            response.next().is_none(),
            "{delivery:?}: cancel must end the stream"
        );
        let outcome = response.outcome();
        assert!(outcome.cancelled, "{delivery:?}: cancelled flag");
        assert!(!outcome.completed, "{delivery:?}: not complete");
        assert_eq!(outcome.produced, 2);
        drop(response);
        if let Some(baseline) = baseline {
            assert!(
                settles_to(baseline),
                "{delivery:?}: worker threads leaked after cancel: {:?} live, baseline {}",
                live_workers(),
                baseline
            );
        }
    }
}

#[test]
fn cross_thread_cancel_unblocks_a_draining_consumer() {
    let _serial = serial();
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let baseline = live_workers();
        let (engine, g) = launch(4);
        // Safety net: if cancellation were broken the budget still ends
        // the run, and the `cancelled` assertion below catches the bug
        // instead of the suite hanging.
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .policy(ExecPolicy::fixed().with_threads(4).with_delivery(delivery))
                .budget(EnumerationBudget::results(200_000)),
        );
        let token = response.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        });
        // Drain until the stream ends — mid-stream, whenever the cancel
        // lands, including while parked on the parallel result channel.
        let drained = response.by_ref().count();
        canceller.join().unwrap();
        let outcome = response.outcome();
        assert!(
            outcome.cancelled,
            "{delivery:?}: the cross-thread cancel must have ended the run \
             (drained {drained} results)"
        );
        drop(response);
        if let Some(baseline) = baseline {
            assert!(
                settles_to(baseline),
                "{delivery:?}: worker threads leaked after cross-thread cancel"
            );
        }
    }
}

#[test]
fn result_budget_mid_stream_joins_workers_in_both_deliveries() {
    let _serial = serial();
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let baseline = live_workers();
        let (engine, g) = launch(4);
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .policy(ExecPolicy::fixed().with_threads(4).with_delivery(delivery))
                .budget(EnumerationBudget::results(7)),
        );
        assert_eq!(response.by_ref().count(), 7, "{delivery:?}");
        let outcome = response.outcome();
        assert!(!outcome.completed, "{delivery:?}: budget, not completion");
        assert!(!outcome.cancelled, "{delivery:?}");
        drop(response);
        if let Some(baseline) = baseline {
            assert!(
                settles_to(baseline),
                "{delivery:?}: worker threads leaked after budget stop"
            );
        }
    }
}

#[test]
fn time_budget_mid_stream_joins_workers_in_both_deliveries() {
    let _serial = serial();
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let baseline = live_workers();
        let (engine, g) = launch(4);
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .policy(ExecPolicy::fixed().with_threads(4).with_delivery(delivery))
                // Generous result cap as the hang safety-net; the clock
                // trips far earlier.
                .budget(EnumerationBudget::results_or_time(
                    200_000,
                    Duration::from_millis(40),
                )),
        );
        let n = response.by_ref().count();
        let outcome = response.outcome();
        assert!(
            !outcome.completed || n < 200_000,
            "{delivery:?}: the run must have been timeboxed"
        );
        drop(response);
        if let Some(baseline) = baseline {
            assert!(
                settles_to(baseline),
                "{delivery:?}: worker threads leaked after timeout"
            );
        }
    }
}

#[test]
fn cancel_mid_ranked_best_k_yields_the_proven_prefix_and_joins_workers() {
    let _serial = serial();
    let baseline = live_workers();
    let (engine, g) = launch(4);
    // Large k so the ranked stream has plenty left to emit when the
    // cancel lands; the results already out are proven winners.
    let mut response = engine.run(
        &g,
        Query::best_k(100_000, CostMeasure::Fill).policy(ExecPolicy::fixed().with_threads(4)),
    );
    assert!(response.next().is_some(), "first ranked result");
    assert!(response.next().is_some(), "second ranked result");
    response.cancel();
    assert!(
        response.next().is_none(),
        "cancel must end the ranked stream"
    );
    let outcome = response.outcome();
    assert!(outcome.cancelled);
    assert!(!outcome.completed);
    assert_eq!(outcome.produced, 2);
    drop(response);
    if let Some(baseline) = baseline {
        assert!(
            settles_to(baseline),
            "worker threads leaked after mid-ranked cancel: {:?} live, baseline {}",
            live_workers(),
            baseline
        );
    }
}

#[test]
fn result_budget_mid_ranked_best_k_bounds_emissions_and_joins_workers() {
    let _serial = serial();
    let baseline = live_workers();
    let (engine, g) = launch(4);
    let mut response = engine.run(
        &g,
        Query::best_k(100_000, CostMeasure::Fill)
            .policy(ExecPolicy::fixed().with_threads(4))
            .budget(EnumerationBudget::results(5)),
    );
    assert_eq!(response.by_ref().count(), 5);
    let outcome = response.outcome();
    assert!(!outcome.completed, "budget stop, not completion");
    assert!(!outcome.cancelled);
    drop(response);
    if let Some(baseline) = baseline {
        assert!(
            settles_to(baseline),
            "worker threads leaked after mid-ranked budget stop"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drop either driver after a random prefix of a random-size run:
    /// `Drop` must join every worker (the test hangs on deadlock and the
    /// thread count exposes a leak) and the prefix itself must be a
    /// prefix of the sequential answer set's size.
    #[test]
    fn dropping_either_driver_after_a_random_prefix_is_clean(
        seed in 0u64..1000,
        prefix in 0usize..12,
        threads in 1usize..5,
        deterministic in any::<bool>(),
    ) {
        let _serial = serial();
        let baseline = live_workers();
        let g = erdos_renyi(12, 0.3, seed);
        let delivery = if deterministic {
            Delivery::Deterministic
        } else {
            Delivery::Unordered
        };
        let mut e = ParallelEnumerator::with_config(
            &g,
            Box::new(McsM),
            &EngineConfig {
                threads,
                delivery,
                channel_capacity: 2, // small: exercise workers parked in send()
                ..EngineConfig::default()
            },
        );
        let taken = e.by_ref().take(prefix).count();
        let total = MinimalTriangulationsEnumerator::new(&g).count();
        prop_assert_eq!(taken, prefix.min(total));
        drop(e); // must join all workers without deadlocking…
        if let Some(baseline) = baseline {
            // …and leave no pool thread behind.
            prop_assert!(
                settles_to(baseline),
                "worker threads leaked: {:?} live, baseline {}",
                live_workers(),
                baseline
            );
        }
    }
}
