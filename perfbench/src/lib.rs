//! The engine benchmark. `main.rs` is the command; this library holds the
//! workloads, the untraced and traced trials, the traced driver and the
//! metric list, so the tests can drive them too. `README.md` explains the
//! workloads, the metrics and the load shape.

pub mod driver;
pub mod trace;
pub mod trial;
pub mod workload;

/// Which trial a metric is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The untraced `Scheduler` trial.
    Untraced,
    /// The traced driver's trial.
    Traced,
}

/// A reported metric; the entries match `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> Metric {
    Metric { name, unit, source }
}

/// Printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("txn_per_s", "1/s", Source::Untraced),
    m("txn_p50_ms", "ms", Source::Untraced),
    m("txn_p99_ms", "ms", Source::Untraced),
    m("commit_ratio", "ratio", Source::Untraced),
    m("recover_s", "s", Source::Untraced),
    m("rss_growth_mb", "MB", Source::Untraced),
    m("setup_s", "s", Source::Untraced),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    m("core.exec_us_per_txn", "us", Source::Traced),
    m("entangle.eval_us_per_query", "us", Source::Traced),
    m("entangle.queries_per_round", "count", Source::Traced),
    m("core.groups_us_per_txn", "us", Source::Traced),
    m("core.group_lookups_per_txn", "count", Source::Traced),
    m("core.commit_us_per_batch", "us", Source::Traced),
    m("core.txns_per_batch", "count", Source::Traced),
    m("core.abort_us", "us", Source::Traced),
    m("core.vacuum_us_per_run", "us", Source::Traced),
    m("scheduler.run_ms_p50", "ms", Source::Traced),
    m("scheduler.run_ms_p99", "ms", Source::Traced),
    m("trace.uncovered_pct", "%", Source::Traced),
    m("trace.txn_per_s", "1/s", Source::Traced),
    m("scheduler.late_over_early", "ratio", Source::Untraced),
    m("scheduler.attempts_per_commit", "ratio", Source::Untraced),
    m("scheduler.runs", "count", Source::Untraced),
    m("storage.rows_per_stmt", "count", Source::Untraced),
    m("storage.index_lookups_per_stmt", "count", Source::Untraced),
    m(
        "storage.versions_pruned_per_commit",
        "count",
        Source::Untraced,
    ),
    m("lock.grants_per_txn", "count", Source::Untraced),
    m("lock.waits_per_txn", "count", Source::Untraced),
    m("lock.wait_p99_us", "us", Source::Untraced),
    m("lock.deadlocks", "count", Source::Untraced),
    m("lock.timeouts", "count", Source::Untraced),
    m("wal.syncs_per_commit", "ratio", Source::Untraced),
    m("wal.cross_prepares_per_commit", "ratio", Source::Untraced),
    m("wal.bytes_per_commit", "B", Source::Untraced),
];
