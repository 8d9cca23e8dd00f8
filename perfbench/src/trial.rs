//! One trial: set up a fresh engine, push a fixed number of programs
//! through it in closed waves, and measure. The untraced trial drives the
//! public `Scheduler` and gives the end-to-end metrics and the counter
//! metrics; the traced trial drives [`TracedScheduler`] and gives the
//! span metrics. Both end with the correctness gate.

use crate::driver::TracedScheduler;
use crate::trace;
use crate::workload::{Setup, Workload, WAVE};
use entangled_txn::{
    ClientResult, Engine, Program, RunTrigger, Scheduler, SchedulerConfig, TxnStatus,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use youtopia_sql::Statement;

/// Metric values of one trial, by name, and what the gate found wrong.
#[derive(Debug)]
pub struct Trial {
    pub values: Vec<(&'static str, f64)>,
    pub violations: Vec<String>,
}

/// Crash-and-recover repeats per trial.
const RECOVERIES: usize = 5;

/// Engine counters read before and after the timed phase.
#[derive(Debug, Clone, Copy)]
struct EngineCounters {
    grants: u64,
    waits: usize,
    wal_bytes: u64,
    syncs: u64,
    rows_scanned: u64,
    index_lookups: u64,
    cross_prepares: u64,
    deadlocks: u64,
    timeouts: u64,
}

impl EngineCounters {
    fn read(e: &Engine) -> EngineCounters {
        EngineCounters {
            grants: e.locks.total_grants(),
            waits: e.lock_wait_micros().len(),
            wal_bytes: e.wal.len(),
            syncs: e.wal.sync_count(),
            rows_scanned: e.rows_scanned(),
            index_lookups: e.index_lookups(),
            cross_prepares: e.cross_shard_prepares(),
            deadlocks: e.deadlocks(),
            timeouts: e.timeouts(),
        }
    }
}

/// A set-up engine and what the gate needs to know about its programs
/// before they run.
struct Prepared {
    setup: Setup,
    setup_s: f64,
    /// Programs submitted.
    n: usize,
    /// Per program: the tables its INSERTs target, one entry per INSERT,
    /// lower-cased as the catalog names them.
    inserts: Vec<Vec<String>>,
    /// Per program: statements in its body.
    statements: Vec<usize>,
    rows_before: BTreeMap<String, usize>,
}

fn prepare(w: Workload, seed: u64, n: usize) -> (Prepared, Vec<Program>) {
    let t = Instant::now();
    let setup = w.setup(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let programs = w.programs(&setup.data, n, seed);
    assert_eq!(programs.len(), n, "generator returned a short batch");
    let inserts = programs
        .iter()
        .map(|p| {
            p.statements
                .iter()
                .filter_map(|s| match s {
                    Statement::Insert { table, .. } => Some(table.to_ascii_lowercase()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let statements = programs.iter().map(|p| p.statements.len()).collect();
    let rows_before = row_counts(&setup.engine);
    let prep = Prepared {
        setup,
        setup_s,
        n,
        inserts,
        statements,
        rows_before,
    };
    (prep, programs)
}

fn row_counts(engine: &Engine) -> BTreeMap<String, usize> {
    engine.with_db(|db| {
        db.canonical()
            .into_iter()
            .map(|(t, rows)| (t, rows.len()))
            .collect()
    })
}

/// Resident set in KiB, from `/proc/self/status`.
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Nearest-rank percentile of sorted samples (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The correctness gate. Checks the outcomes, then crashes the engine and
/// recovers it from its log; returns the recovery time.
fn gate(
    w: Workload,
    prep: &Prepared,
    settled: &[ClientResult],
    violations: &mut Vec<String>,
) -> f64 {
    let n = prep.n;
    let engine = &prep.setup.engine;

    // Every submitted transaction reaches a final status, exactly once.
    let mut status: Vec<Option<&ClientResult>> = vec![None; n];
    for s in settled {
        match usize::try_from(s.client.0)
            .ok()
            .and_then(|c| c.checked_sub(1))
        {
            Some(i) if i < n && status[i].is_none() => status[i] = Some(s),
            _ => violations.push(format!("client {} settled twice or unknown", s.client.0)),
        }
        if !matches!(s.status, TxnStatus::Committed | TxnStatus::Failed(_)) {
            violations.push(format!("client {} ended {:?}", s.client.0, s.status));
        }
    }
    let committed = |i: usize| status[i].is_some_and(|s| s.status == TxnStatus::Committed);
    if let Some(i) = status.iter().position(Option::is_none) {
        violations.push(format!("client {} never settled", i + 1));
    }

    // Each table gains exactly the rows the committed programs inserted
    // (no workload deletes).
    let mut expected = prep.rows_before.clone();
    for (i, tables) in prep.inserts.iter().enumerate() {
        if committed(i) {
            for t in tables {
                *expected.entry(t.clone()).or_default() += 1;
            }
        }
    }
    let pre_crash = engine.with_db(|db| db.canonical());
    for (table, want) in &expected {
        let got = pre_crash.get(table).map_or(0, Vec::len);
        if got != *want {
            violations.push(format!("{table}: {got} rows, expected {want}"));
        }
    }

    // Entangled partners (programs 2k and 2k+1) commit together or not at
    // all, and agree on the destination they chose.
    if w == Workload::EntanglePairs {
        for k in (0..n.saturating_sub(1)).step_by(2) {
            let (a, b) = (status[k], status[k + 1]);
            if committed(k) != committed(k + 1) {
                violations.push(format!("partners {} and {} split", k + 1, k + 2));
            } else if committed(k) {
                let dest = |s: Option<&ClientResult>| {
                    s.and_then(|s| s.answers.first())
                        .and_then(|head| head.get(1))
                        .cloned()
                };
                if dest(a).is_none() || dest(a) != dest(b) {
                    violations.push(format!(
                        "partners {} and {} chose {:?} and {:?}",
                        k + 1,
                        k + 2,
                        dest(a),
                        dest(b)
                    ));
                }
            }
        }
    }

    // What committed survives a crash, and nothing else: recovery
    // reproduces the pre-crash database and rolls back no widow. Recovery
    // reads only the durable log, so repeating it replays the same log;
    // the recovery time is the median of the repeats.
    let mut times = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let recovered = engine.crash_and_recover();
        times.push(t.elapsed().as_secs_f64());
        match recovered {
            Ok(widowed) if widowed.is_empty() => {}
            Ok(widowed) => violations.push(format!("widowed rollbacks: {widowed:?}")),
            Err(e) => violations.push(format!("recovery failed: {e:?}")),
        }
        if engine.with_db(|db| db.canonical()) != pre_crash {
            violations.push("recovered database differs from the pre-crash database".into());
        }
    }
    times.sort_by(f64::total_cmp);
    percentile(&times, 50.0)
}

/// The untraced trial's counter metrics: deltas over the timed phase.
fn counter_values(
    prep: &Prepared,
    settled: &[ClientResult],
    before: EngineCounters,
    after: EngineCounters,
    engine: &Engine,
) -> Vec<(&'static str, f64)> {
    let n = prep.n as f64;
    let committed: Vec<usize> = settled
        .iter()
        .filter(|s| s.status == TxnStatus::Committed)
        .map(|s| s.client.0 as usize - 1)
        .collect();
    let commits = committed.len() as f64;
    let stmts: usize = committed.iter().map(|&i| prep.statements[i]).sum();
    let attempts: u64 = settled.iter().map(|s| u64::from(s.attempts)).sum();
    let mut waits: Vec<f64> = engine.lock_wait_micros()[before.waits..]
        .iter()
        .map(|&us| us as f64)
        .collect();
    waits.sort_by(f64::total_cmp);
    vec![
        (
            "scheduler.attempts_per_commit",
            ratio(attempts as f64, commits),
        ),
        (
            "storage.rows_per_stmt",
            ratio(
                (after.rows_scanned - before.rows_scanned) as f64,
                stmts as f64,
            ),
        ),
        (
            "storage.index_lookups_per_stmt",
            ratio(
                (after.index_lookups - before.index_lookups) as f64,
                stmts as f64,
            ),
        ),
        (
            "lock.grants_per_txn",
            ratio((after.grants - before.grants) as f64, n),
        ),
        ("lock.waits_per_txn", ratio(waits.len() as f64, n)),
        ("lock.wait_p99_us", percentile(&waits, 99.0)),
        (
            "lock.deadlocks",
            (after.deadlocks - before.deadlocks) as f64,
        ),
        ("lock.timeouts", (after.timeouts - before.timeouts) as f64),
        (
            "wal.syncs_per_commit",
            ratio((after.syncs - before.syncs) as f64, commits),
        ),
        (
            "wal.cross_prepares_per_commit",
            ratio(
                (after.cross_prepares - before.cross_prepares) as f64,
                commits,
            ),
        ),
        (
            "wal.bytes_per_commit",
            ratio((after.wal_bytes - before.wal_bytes) as f64, commits),
        ),
    ]
}

/// The untraced trial through the public `Scheduler`.
pub fn untraced(w: Workload, seed: u64, n: usize, connections: usize) -> Trial {
    let (prep, programs) = prepare(w, seed, n);
    let engine = prep.setup.engine.clone();
    let mut sched = Scheduler::new(
        engine.clone(),
        SchedulerConfig {
            connections,
            trigger: RunTrigger::Arrivals(WAVE),
            ..SchedulerConfig::default()
        },
    );
    let quarter = (n / 4).max(1);
    let mut submitted: Vec<Instant> = Vec::with_capacity(n);
    let mut latency_ms = vec![f64::INFINITY; n];
    let mut seen = 0;
    let mut note_settled = |sched: &Scheduler, submitted: &[Instant], seen: &mut usize| {
        let now = Instant::now();
        for r in &sched.results()[*seen..] {
            if r.status == TxnStatus::Committed {
                let i = r.client.0 as usize - 1;
                latency_ms[i] = (now - submitted[i]).as_secs_f64() * 1e3;
            }
        }
        *seen = sched.results().len();
    };
    let before = EngineCounters::read(&engine);
    let rss_before = rss_kib();
    let start = Instant::now();
    let (mut early_end, mut late_start) = (start, start);
    for (i, program) in programs.into_iter().enumerate() {
        if i == n - quarter {
            late_start = Instant::now();
        }
        submitted.push(Instant::now());
        sched.submit(program);
        note_settled(&sched, &submitted, &mut seen);
        if i + 1 == quarter {
            early_end = Instant::now();
        }
    }
    let stats = sched.drain();
    note_settled(&sched, &submitted, &mut seen);
    let end = Instant::now();
    let rss_after = rss_kib();
    let after = EngineCounters::read(&engine);

    let settled = sched.take_results();
    let mut values = counter_values(&prep, &settled, before, after, &engine);
    let mut violations = Vec::new();
    let recover_s = gate(w, &prep, &settled, &mut violations);

    latency_ms.sort_by(f64::total_cmp);
    let committed = stats.committed as f64;
    let wall = (end - start).as_secs_f64();
    values.extend([
        ("setup_s", prep.setup_s),
        ("txn_per_s", ratio(committed, wall)),
        ("txn_p50_ms", percentile(&latency_ms, 50.0)),
        ("txn_p99_ms", percentile(&latency_ms, 99.0)),
        ("commit_ratio", ratio(committed, n as f64)),
        ("fail_ratio", ratio(n as f64 - committed, n as f64)),
        ("failed", n as f64 - committed),
        ("recover_s", recover_s),
        (
            "rss_growth_mb",
            (rss_after as f64 - rss_before as f64) / 1024.0,
        ),
        (
            "scheduler.late_over_early",
            ratio(
                (early_end - start).as_secs_f64(),
                (end - late_start).as_secs_f64(),
            ),
        ),
        ("scheduler.runs", stats.runs as f64),
        (
            "storage.versions_pruned_per_commit",
            ratio(stats.versions_pruned as f64, committed),
        ),
    ]);
    Trial { values, violations }
}

/// The traced trial through [`TracedScheduler`]. With `out`, writes the
/// spans to `<out>.spans.jsonl` and the self-time table to
/// `<out>.layers.txt`.
pub fn traced(
    w: Workload,
    seed: u64,
    n: usize,
    connections: usize,
    out: Option<&Path>,
) -> std::io::Result<Trial> {
    let (prep, programs) = prepare(w, seed, n);
    let mut sched = TracedScheduler::new(prep.setup.engine.clone(), connections, WAVE);
    let start = Instant::now();
    for program in programs {
        sched.submit(program);
    }
    sched.drain();
    let wall = start.elapsed();

    let c = sched.counts.clone();
    let spans = sched.spans();
    let settled = sched.take_results();
    let mut violations = Vec::new();
    gate(w, &prep, &settled, &mut violations);

    let totals: BTreeMap<&str, trace::NameTotals> = trace::totals(&spans).into_iter().collect();
    let us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
    let mut run_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "scheduler.run")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    run_ms.sort_by(f64::total_cmp);
    let uncovered = trace::uncovered_pct(&spans, "scheduler.run", connections);
    let nf = n as f64;
    let values = vec![
        ("failed", (n - c.committed) as f64),
        (
            "trace.txn_per_s",
            ratio(c.committed as f64, wall.as_secs_f64()),
        ),
        ("core.exec_us_per_txn", us("core.exec") / nf),
        (
            "entangle.eval_us_per_query",
            ratio(us("entangle.eval"), c.queries as f64),
        ),
        (
            "entangle.queries_per_round",
            ratio(c.queries as f64, c.eval_rounds as f64),
        ),
        ("core.groups_us_per_txn", us("core.groups") / nf),
        ("core.group_lookups_per_txn", c.group_lookups as f64 / nf),
        (
            "core.commit_us_per_batch",
            ratio(us("core.commit"), c.commit_calls as f64),
        ),
        (
            "core.txns_per_batch",
            ratio(c.commit_txns as f64, c.commit_calls as f64),
        ),
        (
            "core.abort_us",
            ratio(us("core.abort"), count("core.abort")),
        ),
        (
            "core.vacuum_us_per_run",
            ratio(us("core.vacuum"), count("core.vacuum")),
        ),
        ("scheduler.run_ms_p50", percentile(&run_ms, 50.0)),
        ("scheduler.run_ms_p99", percentile(&run_ms, 99.0)),
        ("trace.uncovered_pct", uncovered),
    ];
    if let Some(out) = out {
        let with_ext = |ext: &str| {
            let mut p = out.as_os_str().to_owned();
            p.push(ext);
            std::path::PathBuf::from(p)
        };
        std::fs::write(with_ext(".spans.jsonl"), trace::spans_jsonl(&spans))?;
        let table = trace::table(&spans, wall.as_nanos() as u64, uncovered);
        std::fs::write(with_ext(".layers.txt"), table)?;
    }
    Ok(Trial { values, violations })
}
