//! The traced driver must be the scheduler, step for step: at one
//! connection (deterministic execution) it reproduces the scheduler's
//! counts exactly on every workload.

use entangled_txn::{RunTrigger, Scheduler, SchedulerConfig};
use perfbench::driver::TracedScheduler;
use perfbench::workload::{Workload, WAVE};

const TXNS: usize = 300;
const SEED: u64 = 7;

#[derive(Debug, PartialEq)]
struct Counts {
    committed: usize,
    failed: usize,
    total_attempts: u64,
    runs: usize,
    syncs: u64,
    commit_batches: u64,
    rows_scanned: u64,
    eval_rounds: usize,
}

/// The scheduler with manual runs after every `WAVE` submissions (what
/// `RunTrigger::Arrivals(WAVE)` does), then drained run by run, so each
/// run's report — and its eval rounds — is visible.
fn scheduler_counts(w: Workload) -> Counts {
    let setup = w.setup(SEED);
    let engine = setup.engine.clone();
    let (syncs, batches, rows) = (
        engine.wal.sync_count(),
        engine.commit_batches(),
        engine.rows_scanned(),
    );
    let mut sched = Scheduler::new(
        engine.clone(),
        SchedulerConfig {
            connections: 1,
            trigger: RunTrigger::Manual,
            ..SchedulerConfig::default()
        },
    );
    let mut eval_rounds = 0;
    for (i, p) in w.programs(&setup.data, TXNS, SEED).into_iter().enumerate() {
        sched.submit(p);
        if (i + 1) % WAVE == 0 {
            eval_rounds += sched.run_once().eval_rounds;
        }
    }
    while sched.pool_len() > 0 {
        let before = sched.pool_len();
        let report = sched.run_once();
        eval_rounds += report.eval_rounds;
        assert!(
            report.committed > 0 || report.failed > 0 || sched.pool_len() < before,
            "a run made no progress; drain would give up differently"
        );
    }
    let stats = sched.drain();
    assert_eq!(stats.syncs, engine.wal.sync_count() - syncs);
    assert_eq!(stats.commit_batches, engine.commit_batches() - batches);
    assert_eq!(stats.rows_scanned, engine.rows_scanned() - rows);
    Counts {
        committed: stats.committed,
        failed: stats.failed,
        total_attempts: stats.total_attempts,
        runs: stats.runs,
        syncs: stats.syncs,
        commit_batches: stats.commit_batches,
        rows_scanned: stats.rows_scanned,
        eval_rounds,
    }
}

/// The scheduler as the benchmark runs it: `Arrivals(WAVE)`, then
/// `drain`.
fn arrivals_stats(w: Workload) -> entangled_txn::Stats {
    let setup = w.setup(SEED);
    let mut sched = Scheduler::new(
        setup.engine.clone(),
        SchedulerConfig {
            connections: 1,
            trigger: RunTrigger::Arrivals(WAVE),
            ..SchedulerConfig::default()
        },
    );
    for p in w.programs(&setup.data, TXNS, SEED) {
        sched.submit(p);
    }
    sched.drain()
}

fn driver_counts(w: Workload) -> Counts {
    let setup = w.setup(SEED);
    let engine = setup.engine.clone();
    let (syncs, batches, rows) = (
        engine.wal.sync_count(),
        engine.commit_batches(),
        engine.rows_scanned(),
    );
    let mut driver = TracedScheduler::new(engine.clone(), 1, WAVE);
    for p in w.programs(&setup.data, TXNS, SEED) {
        driver.submit(p);
    }
    driver.drain();
    let c = &driver.counts;
    Counts {
        committed: c.committed,
        failed: c.failed,
        total_attempts: c.total_attempts,
        runs: c.runs,
        syncs: engine.wal.sync_count() - syncs,
        commit_batches: engine.commit_batches() - batches,
        rows_scanned: engine.rows_scanned() - rows,
        eval_rounds: c.eval_rounds,
    }
}

fn check(w: Workload) {
    let sched = scheduler_counts(w);
    let arrivals = arrivals_stats(w);
    assert_eq!(
        (arrivals.committed, arrivals.total_attempts, arrivals.runs),
        (sched.committed, sched.total_attempts, sched.runs),
        "{}: manual waves must match Arrivals({WAVE})",
        w.name()
    );
    let driver = driver_counts(w);
    assert_eq!(driver, sched, "{}: traced driver diverged", w.name());
    assert!(sched.committed > 0);
}

#[test]
fn driver_matches_scheduler_on_entangle_pairs() {
    check(Workload::EntanglePairs);
}

#[test]
fn driver_matches_scheduler_on_point_rw() {
    check(Workload::PointRw);
}

#[test]
fn driver_matches_scheduler_on_durable_shards() {
    check(Workload::DurableShards);
}
