//! The benchmark harness: one experiment runner shared by every figure of
//! the paper's evaluation (§5.2) and every engine experiment the `repro`
//! binary regenerates.
//!
//! An [`Experiment`] is an entry of [`EXPERIMENTS`]: a list of [`Arm`]s
//! (one configured engine run each), an optional artifact file and its
//! headline ratios. [`measure`] runs one arm and returns a [`Row`] — the
//! arm's parameters, its wall time and the scheduler's [`Stats`]. One
//! writer ([`Experiment::json`]) serializes any experiment and one printer
//! ([`Experiment::table`]) renders every text table.
//!
//! Absolute numbers will not match the paper's 2011 testbed (MySQL on a
//! Core i7); the arms are built so the *shapes* match. The ablations'
//! negative results are recorded in DESIGN.md "Ablations".

use entangled_txn::{
    CheckpointPolicy, CostModel, DeadlockPolicy, EngineConfig, IsolationMode, LockGranularity,
    Program, RunTrigger, Scheduler, SchedulerConfig, Stats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use youtopia_entangle::SolverConfig;
use youtopia_workload::{
    engine_config, generate, generate_hot_cycle, generate_point_mix, generate_range_mix,
    generate_read_mix, generate_shard_mix, generate_structured, pending_plan, point_index_script,
    point_seed_script, range_index_script, range_seed_script, shard_index_script, Family,
    SocialGraph, Structure, TravelData, TravelParams, WorkloadMode,
};

/// Experiment scale, trading fidelity for wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Transactions per Figure 6(a)/(b) data point (paper: 10 000).
    pub txns: usize,
    pub users: usize,
    pub cities: usize,
    pub flights: usize,
    /// Simulated per-statement connection/IO latency.
    pub cost: CostModel,
    pub seed: u64,
}

impl Scale {
    /// Quick scale for CI and the default `repro` run (seconds per
    /// point). The cost model approximates per-statement connection/IO
    /// latency; it must dominate scheduling overhead for the Figure 6(a)
    /// inverse-scaling shape to emerge, as it did on the paper's MySQL
    /// setup.
    pub fn quick() -> Scale {
        Scale {
            txns: 600,
            users: 300,
            cities: 8,
            flights: 300,
            cost: CostModel {
                per_statement: Duration::from_micros(500),
                per_entangled_eval: Duration::from_micros(500),
                per_commit: Duration::from_millis(1),
            },
            seed: 11,
        }
    }

    /// Fuller scale for the `repro --full` run.
    pub fn full() -> Scale {
        Scale {
            txns: 3_000,
            ..Scale::quick()
        }
    }

    pub fn data(&self) -> TravelData {
        let params = TravelParams {
            users: self.users,
            cities: self.cities,
            flights: self.flights,
            seed: self.seed,
        };
        let mut d = TravelData::generate(params, SocialGraph::slashdot_like(self.users, self.seed));
        d.align_pair_hometowns(self.seed);
        d
    }
}

/// Setup scripts (run after the travel schema is loaded) and the programs
/// an arm submits.
type Workload = (Vec<String>, Vec<Program>);

/// Builds an arm's [`Workload`] from the scale's data.
type WorkloadFn = Box<dyn Fn(&TravelData, &Scale) -> Workload>;

/// What [`measure`] records beyond the scheduler's [`Stats`].
#[derive(Clone, Copy)]
enum Capture {
    Stats,
    /// Blocked lock-wait percentiles.
    LockWaits,
    /// Crash after the run, then time recovery from the durable log.
    Recovery,
    /// The protocol auditor's lock-order graph.
    LockGraph,
}

/// One configured engine run: a point of one series (curve).
pub struct Arm {
    /// Data scale; `scale.data()` feeds the engine and the workload.
    scale: Scale,
    /// Series label.
    label: String,
    /// Series parameters written next to the label (values are JSON
    /// literals).
    params: Vec<(&'static str, String)>,
    /// Value of the experiment's swept parameter.
    x: usize,
    engine: EngineConfig,
    sched: SchedulerConfig,
    workload: WorkloadFn,
    /// `Some(p)`: the first `p` programs never commit (Figure 6(b)), so
    /// the run drives scheduler runs until the rest commit instead of
    /// draining.
    pending: Option<usize>,
    capture: Capture,
}

impl Arm {
    /// A transactional engine at `scale.cost` with `x` connections.
    fn new(
        scale: &Scale,
        label: String,
        x: usize,
        workload: impl Fn(&TravelData, &Scale) -> Workload + 'static,
    ) -> Arm {
        Arm {
            scale: *scale,
            label,
            params: Vec::new(),
            x,
            engine: engine_config(WorkloadMode::Transactional, scale.cost, false),
            sched: SchedulerConfig {
                connections: x,
                ..SchedulerConfig::default()
            },
            workload: Box::new(workload),
            pending: None,
            capture: Capture::Stats,
        }
    }

    fn param(mut self, key: &'static str, value: impl ToString) -> Arm {
        self.params.push((key, value.to_string()));
        self
    }
}

/// What a run recorded beyond [`Stats`], where its experiment needs it.
#[derive(Debug, Clone)]
pub enum Extra {
    None,
    LockWaits {
        p50_block_us: u64,
        /// On the timeout-only ablation this sits at the full
        /// `lock_timeout`; detection pulls it down to the probe cadence.
        p99_block_us: u64,
        max_block_us: u64,
    },
    Recovery {
        /// Bytes a restart must read — bounded by checkpoint truncation,
        /// O(history) without it.
        retained_log_bytes: u64,
        /// Total bytes ever appended (monotone).
        logical_log_bytes: u64,
        /// Best of five `recover()` passes.
        recovery_micros: f64,
        /// Records replayed after the base image.
        replayed_records: usize,
    },
    /// `None` when the build runs unaudited (release without the `audit`
    /// feature).
    LockGraph(Option<String>),
}

/// One measured point: the arm's parameters, wall time and [`Stats`].
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub params: Vec<(&'static str, String)>,
    pub x: usize,
    pub submitted: usize,
    /// Submission through drain; engine build and setup excluded.
    pub seconds: f64,
    pub stats: Stats,
    pub extra: Extra,
}

impl Row {
    pub fn txns_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.stats.committed as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Everything submitted that did not commit, including submissions
    /// the drain gave up on without a final status.
    pub fn failed(&self) -> usize {
        self.submitted.saturating_sub(self.stats.committed)
    }
}

/// Run one arm: build its engine, run the setup scripts, submit the
/// programs and drain the scheduler.
pub fn measure(arm: &Arm) -> Row {
    let data = arm.scale.data();
    let engine = data.build_engine(arm.engine.clone());
    let (setup, programs) = (arm.workload)(&data, &arm.scale);
    for script in &setup {
        engine.setup(script).expect("valid setup script");
    }
    let mut sched = Scheduler::new(Arc::clone(&engine), arm.sched.clone());
    let submitted = programs.len();
    let start = Instant::now();
    for p in programs {
        sched.submit(p);
    }
    let stats = match arm.pending {
        None => sched.drain(),
        Some(pending) => {
            let target = submitted - pending;
            let mut runs = 0;
            while sched.stats().committed < target && runs < 4 * target + 16 {
                sched.run_once();
                runs += 1;
            }
            sched.stats().clone()
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    let extra = match arm.capture {
        Capture::Stats => Extra::None,
        Capture::LockWaits => {
            let mut waits = engine.lock_wait_micros();
            waits.sort_unstable();
            let at = |p: f64| {
                let idx = ((waits.len() as f64 - 1.0) * p).round() as usize;
                waits.get(idx).copied().unwrap_or(0)
            };
            Extra::LockWaits {
                p50_block_us: at(0.50),
                p99_block_us: at(0.99),
                max_block_us: waits.last().copied().unwrap_or(0),
            }
        }
        Capture::Recovery => {
            // Power loss, then time scan+replay (best of 5 to shave
            // scheduler noise; the work is deterministic).
            engine.wal.crash();
            let records = engine.wal.durable_records().expect("clean log");
            let mut best = f64::INFINITY;
            let mut replayed = 0;
            for _ in 0..5 {
                let t0 = Instant::now();
                let out = youtopia_wal::recover(&records).expect("clean log");
                best = best.min(t0.elapsed().as_secs_f64() * 1e6);
                replayed = out.replayed;
                std::hint::black_box(&out.db);
            }
            Extra::Recovery {
                retained_log_bytes: engine.wal.retained_len(),
                logical_log_bytes: engine.wal.len(),
                recovery_micros: best,
                replayed_records: replayed,
            }
        }
        Capture::LockGraph => Extra::LockGraph(engine.lock_order_graph_json()),
    };
    Row {
        label: arm.label.clone(),
        params: arm.params.clone(),
        x: arm.x,
        submitted,
        seconds,
        stats,
        extra,
    }
}

/// Committed-txns/sec of the row `over` (series label, x) divided by that
/// of `under`; 0 when either is missing or `under` committed nothing.
pub fn ratio_at(rows: &[Row], over: (&str, usize), under: (&str, usize)) -> f64 {
    let tps = |(label, x): (&str, usize)| {
        rows.iter()
            .find(|r| r.label == label && r.x == x)
            .map_or(0.0, Row::txns_per_sec)
    };
    let den = tps(under);
    if den > 0.0 {
        tps(over) / den
    } else {
        0.0
    }
}

/// Rows grouped by series label, in first-measured order.
fn series(rows: &[Row]) -> Vec<(&str, Vec<&Row>)> {
    let mut out: Vec<(&str, Vec<&Row>)> = Vec::new();
    for r in rows {
        match out.iter_mut().find(|(l, _)| *l == r.label) {
            Some((_, points)) => points.push(r),
            None => out.push((&r.label, vec![r])),
        }
    }
    out
}

/// A headline figure: [`ratio_at`] between two rows, written under `key`.
struct Headline {
    key: &'static str,
    over: (&'static str, usize),
    under: (&'static str, usize),
}

/// Version of the artifact layout, written as `"schema"`.
const SCHEMA: u32 = 2;

/// One entry of the experiment table.
pub struct Experiment {
    /// `repro` subcommand and the artifact's `"experiment"` value.
    pub name: &'static str,
    pub title: &'static str,
    /// What each text-table cell shows.
    columns: &'static str,
    /// File the JSON artifact is written to (CI uploads these).
    pub artifact: Option<&'static str>,
    /// Key of the swept parameter (`Arm::x`).
    x: &'static str,
    /// Statements per program: when non-zero, points carry
    /// `rows_per_statement` (rows scanned per committed statement).
    stmts_per_txn: usize,
    /// Top-level artifact keys describing the configuration.
    meta: fn(&Scale) -> Vec<(&'static str, u64)>,
    headlines: &'static [Headline],
    arms: fn(&Scale) -> Vec<Arm>,
    cell: fn(&Experiment, &Row) -> String,
}

impl Experiment {
    /// Measure every arm.
    pub fn run(&self, scale: &Scale) -> Vec<Row> {
        (self.arms)(scale).iter().map(measure).collect()
    }

    fn rows_per_statement(&self, r: &Row) -> f64 {
        r.stats.rows_scanned as f64 / (r.stats.committed * self.stmts_per_txn).max(1) as f64
    }

    /// Every key of one point, in artifact order: the one list of
    /// [`Stats`] counters every artifact carries.
    fn point_fields(&self, r: &Row) -> Vec<(&'static str, String)> {
        let s = &r.stats;
        let mut f = vec![
            ("label", format!("\"{}\"", r.label)),
            (self.x, r.x.to_string()),
            ("seconds", format!("{:.6}", r.seconds)),
            ("committed", s.committed.to_string()),
            ("failed", r.failed().to_string()),
            ("txns_per_sec", format!("{:.3}", r.txns_per_sec())),
            ("syncs_per_commit", format!("{:.4}", s.syncs_per_commit())),
        ];
        if self.stmts_per_txn > 0 {
            f.push((
                "rows_per_statement",
                format!("{:.3}", self.rows_per_statement(r)),
            ));
        }
        let counters = [
            ("runs", s.runs as u64),
            ("total_attempts", s.total_attempts),
            ("group_commits", s.group_commits as u64),
            ("group_aborts", s.group_aborts as u64),
            ("syncs", s.syncs),
            ("commit_batches", s.commit_batches),
            ("checkpoints", s.checkpoints),
            ("truncated_bytes", s.truncated_bytes),
            ("versions_pruned", s.versions_pruned),
            ("rows_scanned", s.rows_scanned),
            ("index_lookups", s.index_lookups),
            ("index_rebuilds_avoided", s.index_rebuilds_avoided),
            ("cross_shard_commits", s.cross_shard_commits),
            ("cross_shard_prepares", s.cross_shard_prepares),
            ("deadlocks", s.deadlocks),
            ("timeouts", s.timeouts),
            ("deadlock_victims", s.deadlock_victims),
            ("detection_probes", s.detection_probes),
            ("audit_events", s.audit_events),
        ];
        f.extend(counters.iter().map(|&(k, v)| (k, v.to_string())));
        let syncs: Vec<String> = s.shard_syncs.iter().map(u64::to_string).collect();
        f.push(("shard_syncs", format!("[{}]", syncs.join(", "))));
        match &r.extra {
            Extra::None => {}
            Extra::LockWaits {
                p50_block_us,
                p99_block_us,
                max_block_us,
            } => f.extend([
                ("p50_block_us", p50_block_us.to_string()),
                ("p99_block_us", p99_block_us.to_string()),
                ("max_block_us", max_block_us.to_string()),
            ]),
            Extra::Recovery {
                retained_log_bytes,
                logical_log_bytes,
                recovery_micros,
                replayed_records,
            } => f.extend([
                ("retained_log_bytes", retained_log_bytes.to_string()),
                ("logical_log_bytes", logical_log_bytes.to_string()),
                ("recovery_micros", format!("{recovery_micros:.2}")),
                ("replayed_records", replayed_records.to_string()),
            ]),
            Extra::LockGraph(graph) => f.push(("audited", graph.is_some().to_string())),
        }
        f
    }

    /// Serialize measured rows as this experiment's JSON artifact.
    pub fn json(&self, scale: &Scale, rows: &[Row]) -> String {
        let mut out = format!(
            "{{\n  \"experiment\": \"{}\",\n  \"schema\": {SCHEMA},\n",
            self.name
        );
        for (k, v) in (self.meta)(scale) {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        }
        for h in self.headlines {
            let ratio = ratio_at(rows, h.over, h.under);
            out.push_str(&format!("  \"{}\": {ratio:.3},\n", h.key));
        }
        let series: Vec<String> = series(rows)
            .into_iter()
            .map(|(label, points)| {
                let mut keys = vec![("label", format!("\"{label}\""))];
                keys.extend(points[0].params.iter().cloned());
                let (first, last) = (points[0], points[points.len() - 1]);
                if self.x == "connections" && points.len() > 1 {
                    let speedup = ratio_at(rows, (label, last.x), (label, first.x));
                    keys.push(("speedup_max_over_1", format!("{speedup:.3}")));
                }
                let points: Vec<String> = points
                    .iter()
                    .map(|r| {
                        let kv: Vec<String> = self
                            .point_fields(r)
                            .into_iter()
                            .map(|(k, v)| format!("\"{k}\": {v}"))
                            .collect();
                        format!("        {{{}}}", kv.join(", "))
                    })
                    .collect();
                let keys: String = keys
                    .iter()
                    .map(|(k, v)| format!("      \"{k}\": {v},\n"))
                    .collect();
                format!(
                    "    {{\n{keys}      \"points\": [\n{}\n      ]\n    }}",
                    points.join(",\n")
                )
            })
            .collect();
        out.push_str(&format!("  \"series\": [\n{}\n  ]", series.join(",\n")));
        // The lock-order graph's own keys (`edges`, `cycles`) stay top-level.
        for r in rows {
            if let Extra::LockGraph(graph) = &r.extra {
                let body = match graph {
                    Some(g) => g
                        .trim()
                        .trim_start_matches('{')
                        .trim_end_matches('}')
                        .trim(),
                    None => "\"edges\": [], \"cycles\": [], \"unaudited\": true",
                };
                out.push_str(&format!(",\n  {body}"));
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Render measured rows as a text table: one line per swept value,
    /// one column per series, then each series' counters at its last
    /// point and the headlines.
    pub fn table(&self, scale: &Scale, rows: &[Row]) -> String {
        let meta: Vec<String> = (self.meta)(scale)
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let mut out = format!(
            "# {}\n# {}; columns: {}\n",
            self.title,
            meta.join(", "),
            self.columns
        );
        let series = series(rows);
        let mut xs: Vec<usize> = Vec::new();
        for r in rows {
            if !xs.contains(&r.x) {
                xs.push(r.x);
            }
        }
        let mut grid = vec![std::iter::once(self.x.to_string())
            .chain(series.iter().map(|(l, _)| l.to_string()))
            .collect::<Vec<_>>()];
        for &x in &xs {
            let cells = series.iter().map(|(_, points)| {
                points
                    .iter()
                    .find(|r| r.x == x)
                    .map_or("-".to_string(), |r| (self.cell)(self, r))
            });
            grid.push(std::iter::once(x.to_string()).chain(cells).collect());
        }
        let widths: Vec<usize> = (0..grid[0].len())
            .map(|c| grid.iter().map(|line| line[c].len()).max().unwrap_or(0))
            .collect();
        for line in &grid {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            out.push_str(&format!("{}\n", cells.join("  ")));
        }
        for (label, points) in &series {
            let last = points[points.len() - 1];
            let nonzero: Vec<String> = self
                .point_fields(last)
                .into_iter()
                .skip(2)
                .filter(|(_, v)| v.parse::<f64>().map_or(v != "[]", |n| n != 0.0))
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(
                "# {label} at {}={}: {}\n",
                self.x,
                last.x,
                nonzero.join(" ")
            ));
        }
        for h in self.headlines {
            let ratio = ratio_at(rows, h.over, h.under);
            out.push_str(&format!("# {}: {ratio:.2}x\n", h.key));
        }
        out
    }
}

fn on_off(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

/// Connection counts of the connection-sweep experiments.
const CONNECTIONS: [usize; 4] = [1, 2, 4, 8];

/// The `on` series then the `off` ablation, each over [`CONNECTIONS`].
fn on_off_sweep(scale: &Scale, arm: fn(&Scale, usize, bool) -> Arm) -> Vec<Arm> {
    let sweep = |on| CONNECTIONS.into_iter().map(move |c| arm(scale, c, on));
    sweep(true).chain(sweep(false)).collect()
}

/// A Figure 6(a) mix: `scale.txns` programs of one family.
fn mix_arm(scale: &Scale, family: Family, mode: WorkloadMode, connections: usize) -> Arm {
    let suffix = match mode {
        WorkloadMode::Transactional => "T",
        WorkloadMode::QueryOnly => "Q",
    };
    let label = format!("{}-{suffix}", family.label());
    let mut arm = Arm::new(scale, label, connections, move |d, s| {
        (Vec::new(), generate(family, d, s.txns, s.seed))
    });
    arm.engine = engine_config(mode, scale.cost, false);
    arm
}

fn fig6a_arms(scale: &Scale) -> Vec<Arm> {
    let mut arms = Vec::new();
    for c in [10, 25, 50, 75, 100] {
        for mode in [WorkloadMode::Transactional, WorkloadMode::QueryOnly] {
            for family in Family::ALL {
                arms.push(mix_arm(scale, family, mode, c));
            }
        }
    }
    arms
}

/// Scheduler config of the arrival-triggered Figure 6(b)/(c) runs.
fn arrivals(connections: usize, f: usize) -> SchedulerConfig {
    SchedulerConfig {
        connections,
        trigger: RunTrigger::Arrivals(f.max(1)),
        max_attempts: u32::MAX,
        checkpoint: CheckpointPolicy::DISABLED,
    }
}

/// Figure 6(b): `p` permanently-pending transactions cycle through every
/// run while paired transactions arrive `f` per run; measures the time for
/// all paired transactions to commit.
fn fig6b_arm(scale: &Scale, p: usize, f: usize, connections: usize) -> Arm {
    let mut arm = Arm::new(scale, format!("f={f}"), p, move |d, s| {
        let plan = pending_plan(d, s.txns, p, s.seed);
        (
            Vec::new(),
            plan.pending.into_iter().chain(plan.paired).collect(),
        )
    });
    arm.sched = arrivals(connections, f);
    arm.pending = Some(p);
    arm
}

/// Figure 6(c): `groups` coordination groups of size `k` with the given
/// structure; arrivals trigger runs every `f` submissions.
fn fig6c_arm(scale: &Scale, structure: Structure, k: usize, groups: usize, f: usize) -> Arm {
    let label = format!("{}, f={f}", structure.label());
    let mut arm = Arm::new(scale, label, k, move |d, _| {
        let timeout = Duration::from_secs(120);
        (
            Vec::new(),
            generate_structured(structure, d, groups, k, timeout),
        )
    });
    arm.sched = arrivals(50, f);
    arm.pending = Some(0);
    arm
}

fn fig6c_arms(scale: &Scale) -> Vec<Arm> {
    let groups = (scale.txns / 20).max(4);
    let mut arms = Vec::new();
    for k in 2..=10 {
        for structure in [Structure::SpokeHub, Structure::Cyclic] {
            for f in [10, 50] {
                arms.push(fig6c_arm(scale, structure, k, groups, f));
            }
        }
    }
    arms
}

/// Ablation configurations (DESIGN.md "Ablations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ablation {
    /// Ab2: partners commit independently (`IsolationMode::AllowWidows`).
    AllowWidows,
    SolverGeneralOnly,
    TableGranularity,
}

/// A Figure 6(a) transactional mix under an ablated engine.
///
/// `TableGranularity` + `Family::Entangled` livelocks by design: partners
/// insert into the same `Reserve` table, and a table-X lock held to a
/// group commit that cannot happen without the partner is a structural
/// standoff (DESIGN.md "Ablations"). Measure that ablation on
/// `NoSocial`/`Social`.
fn ablated_arm(scale: &Scale, ablation: Option<Ablation>, family: Family, conns: usize) -> Arm {
    let mut arm = mix_arm(scale, family, WorkloadMode::Transactional, conns);
    let name = match ablation {
        None => "baseline",
        Some(Ablation::AllowWidows) => {
            arm.engine.isolation = IsolationMode::AllowWidows;
            "allow-widows"
        }
        Some(Ablation::SolverGeneralOnly) => {
            arm.engine.solver = SolverConfig {
                pairwise_fast_path: false,
                ..SolverConfig::default()
            };
            "solver-general"
        }
        Some(Ablation::TableGranularity) => {
            arm.engine.granularity = LockGranularity::Table;
            "table-locks"
        }
    };
    arm.label = format!("{name} {}", arm.label);
    // Few retries: ablated configurations that livelock should fail fast
    // rather than grind through the default retry budget.
    arm.sched.max_attempts = 8;
    arm
}

fn ablation_arms(scale: &Scale) -> Vec<Arm> {
    use Ablation::*;
    let mut arms: Vec<Arm> = [
        (None, Family::Entangled),
        (Some(AllowWidows), Family::Entangled),
        (Some(SolverGeneralOnly), Family::Entangled),
        (Some(TableGranularity), Family::NoSocial),
        (None, Family::NoSocial),
    ]
    .into_iter()
    .map(|(ab, family)| ablated_arm(scale, ab, family, 50))
    .collect();
    // The structural negative result: table locks + entangled pairs.
    let tiny = Scale { txns: 4, ..*scale };
    arms.push(ablated_arm(
        &tiny,
        Some(TableGranularity),
        Family::Entangled,
        8,
    ));
    arms
}

/// A transactional Figure 6(a) mix with the WAL group-commit pipeline on
/// or off (off: every commit group pays its own serialized device sync).
fn durability_arm(scale: &Scale, family: Family, connections: usize, group_commit: bool) -> Arm {
    let mut arm = mix_arm(scale, family, WorkloadMode::Transactional, connections)
        .param("family", format!("\"{}\"", family.label()))
        .param("group_commit", group_commit);
    arm.engine.wal_group_commit = group_commit;
    arm.label = format!("{} gc={}", arm.label, on_off(group_commit));
    arm
}

/// Crash-restart cost after `txns` classical transactions (zero cost
/// model — the workload only exists to grow the log), with checkpointing
/// (and WAL truncation) on or off.
fn recovery_arm(scale: &Scale, txns: usize, checkpointing: bool) -> Arm {
    let label = format!("NoSocial-T ckpt={}", on_off(checkpointing));
    let mut arm = Arm::new(scale, label, txns, move |d, s| {
        (Vec::new(), generate(Family::NoSocial, d, txns, s.seed))
    })
    .param("checkpointing", checkpointing);
    arm.engine.cost = CostModel::ZERO;
    arm.sched.connections = 4;
    // Many small runs => many settle boundaries (checkpoint sites) and
    // several commit batches per point.
    arm.sched.trigger = RunTrigger::Arrivals(25);
    if checkpointing {
        // Reclaim every 4 runs, or sooner if a run published a lot —
        // whichever cadence fires first (both knobs exercised).
        arm.sched.checkpoint = CheckpointPolicy {
            every_runs: Some(4),
            every_bytes: Some(64 * 1024),
            truncate: true,
        };
    }
    arm.capture = Capture::Recovery;
    arm
}

/// Transaction counts of the recovery sweep: restart cost against a
/// growing history.
fn recovery_txn_counts(scale: &Scale) -> Vec<usize> {
    [1, 2, 4, 8]
        .iter()
        .map(|m| (scale.txns * m / 4).max(16))
        .collect()
}

const READSCALE_WRITE_PCT: u32 = 20;

/// The read-mostly mix with the snapshot read path on, or the
/// S-lock-reads ablation. The lock timeout is shortened so that, in the
/// ablation, readers timing out behind a writer churn into retries instead
/// of stalling a whole run on the 250 ms default — the fairer (faster)
/// baseline.
fn readscale_arm(scale: &Scale, connections: usize, snapshot_reads: bool) -> Arm {
    let label = format!("readmix snapshot={}", on_off(snapshot_reads));
    let mut arm = Arm::new(scale, label, connections, |d, s| {
        let programs = generate_read_mix(d, s.txns, READSCALE_WRITE_PCT, s.seed);
        (Vec::new(), programs)
    })
    .param("snapshot_reads", snapshot_reads);
    arm.engine.snapshot_reads = snapshot_reads;
    arm.engine.lock_timeout = Duration::from_millis(3);
    arm
}

const POINTMIX_WRITE_PCT: u32 = 80;

/// The point-access mix with or without the named secondary indexes.
/// Without them every point UPDATE resolves its targets under table-S +
/// IX, so writers serialize on the table and pay O(table) per statement;
/// with them they take table-IX + key-X + one row-X and overlap. The lock
/// timeout is shortened as in `readscale` so the ablation's S→IX upgrade
/// standoffs churn into retries instead of stalling runs.
fn pointmix_arm(scale: &Scale, connections: usize, indexed: bool) -> Arm {
    let label = format!("pointmix index={}", on_off(indexed));
    let mut arm = Arm::new(scale, label, connections, move |d, s| {
        let mut setup = vec![point_seed_script(d)];
        if indexed {
            setup.push(point_index_script().to_string());
        }
        (
            setup,
            generate_point_mix(d, s.txns, POINTMIX_WRITE_PCT, s.seed),
        )
    })
    .param("indexed", indexed);
    arm.engine.lock_timeout = Duration::from_millis(3);
    arm
}

/// Writers of the `rangemix` mix: every booker opens with a locked range
/// read, so with the btree concurrent bookers hold next-key locks over
/// mostly-disjoint date intervals and overlap, while the forced-scan
/// ablation serializes them behind table-S → IX upgrade standoffs. The
/// other 30% are lock-free snapshot dashboards.
const RANGEMIX_WRITE_PCT: u32 = 70;

/// The range-heavy mix with or without the btree indexes: with them
/// every date window lowers to a range probe (table-IS + next-key locks
/// when locked, a visibility-filtered live-index probe on a snapshot);
/// without them every window scans.
fn rangemix_arm(scale: &Scale, connections: usize, indexed: bool) -> Arm {
    let label = format!("rangemix index={}", on_off(indexed));
    let mut arm = Arm::new(scale, label, connections, move |d, s| {
        let mut setup = vec![range_seed_script(d)];
        if indexed {
            setup.push(range_index_script().to_string());
        }
        (
            setup,
            generate_range_mix(d, s.txns, RANGEMIX_WRITE_PCT, s.seed),
        )
    })
    .param("indexed", indexed);
    arm.engine.lock_timeout = Duration::from_millis(3);
    arm
}

/// Cross-shard (two-table, two-shard) share of the cross mix.
const SHARDING_CROSS_PCT: u32 = 50;

fn shard_setup(d: &TravelData) -> Vec<String> {
    vec![point_seed_script(d), shard_index_script().to_string()]
}

/// The shard mix on a sharded engine with the point and shard indexes.
fn shard_arm(scale: &Scale, shards: usize, connections: usize, cross_pct: u32) -> Arm {
    let locality = if cross_pct == 0 { "local" } else { "cross" };
    let label = format!("{locality} shards={shards}");
    let mut arm = Arm::new(scale, label, connections, move |d, s| {
        (
            shard_setup(d),
            generate_shard_mix(d, s.txns, cross_pct, shards, s.seed),
        )
    })
    .param("shards", shards)
    .param("cross_pct", cross_pct);
    arm.engine.shards = shards;
    arm
}

/// A `sharding` point. WAL group commit is **off** — every commit pays
/// its own serialized sync on its shard's segment — because that is the
/// axis sharding parallelizes: one log device serializes all syncs, N
/// per-shard devices sync concurrently. Cross-shard transactions sync
/// every participant segment before the unit commits: the measured tax.
fn sharding_arm(scale: &Scale, shards: usize, connections: usize, cross_pct: u32) -> Arm {
    let mut arm = shard_arm(scale, shards, connections, cross_pct);
    arm.engine.wal_group_commit = false;
    arm
}

fn sharding_arms(scale: &Scale) -> Vec<Arm> {
    let mut arms = Vec::new();
    for cross_pct in [0, SHARDING_CROSS_PCT] {
        for shards in [1, 2, 4] {
            // The scaling claim is "past 8 connections": sweep to 16.
            for c in [1, 2, 4, 8, 16] {
                arms.push(sharding_arm(scale, shards, c, cross_pct));
            }
        }
    }
    arms
}

const HOTCYCLE_SHARDS: usize = 4;
const HOTCYCLE_CONNECTIONS: usize = 8;
/// Hot-row pool size — small enough that opposite-order collisions (and
/// therefore cross-shard cycles) are routine, not rare.
const HOTCYCLE_HOT_ROWS: usize = 2;

/// Half the usual point budget: cycle stalls (not statement cost)
/// dominate this mix, and the timeout arm pays 250 ms per cycle.
fn hotcycle_txns(scale: &Scale) -> usize {
    (scale.txns / 2).max(50)
}

/// The hot-row opposite-order mix under one deadlock policy. Victims and
/// timeouts both retry through the scheduler, so the arms commit the same
/// work — they differ only in how long each cycle stalls.
fn hotcycle_arm(scale: &Scale, policy: DeadlockPolicy) -> Arm {
    let label = match policy {
        DeadlockPolicy::Detect => "detect",
        DeadlockPolicy::Timeout => "timeout",
    };
    let mut arm = Arm::new(scale, label.to_string(), HOTCYCLE_CONNECTIONS, |d, s| {
        let (txns, rows) = (hotcycle_txns(s), HOTCYCLE_HOT_ROWS);
        let programs = generate_hot_cycle(d, txns, rows, HOTCYCLE_SHARDS, s.seed);
        (shard_setup(d), programs)
    });
    arm.engine.shards = HOTCYCLE_SHARDS;
    arm.engine.deadlock = policy;
    arm.capture = Capture::LockWaits;
    arm
}

/// Defaults of the table's entries: a connection sweep without artifact
/// or headline.
const SWEEP: Experiment = Experiment {
    name: "",
    title: "",
    columns: "txns/sec",
    artifact: None,
    x: "connections",
    stmts_per_txn: 0,
    meta: |s| vec![("txns_per_point", s.txns as u64)],
    headlines: &[],
    arms: |_| Vec::new(),
    cell: |_, r| format!("{:.1}", r.txns_per_sec()),
};

/// The experiment table: every `repro` subcommand, in `repro all` order.
pub static EXPERIMENTS: [Experiment; 13] = [
    Experiment {
        name: "fig6a",
        title: "Figure 6(a) — Concurrent transactions (paper: 10000 txns, 20-160s band)",
        columns: "seconds",
        arms: fig6a_arms,
        cell: |_, r| format!("{:.3}", r.seconds),
        ..SWEEP
    },
    Experiment {
        name: "fig6b",
        title: "Figure 6(b) — Pending transactions (p pending; f arrivals per run)",
        columns: "seconds until every paired transaction commits",
        x: "p",
        meta: |s| vec![("paired_txns", s.txns as u64)],
        arms: |s| {
            let ps = [0, 10, 25, 50, 75, 100];
            ps.into_iter().flat_map(|p| [1, 10, 50].map(|f| fig6b_arm(s, p, f, 50))).collect()
        },
        cell: |_, r| format!("{:.3}", r.seconds),
        ..SWEEP
    },
    Experiment {
        name: "fig6c",
        title: "Figure 6(c) — Entangled queries per transaction",
        columns: "seconds",
        x: "k",
        meta: |s| vec![("groups_per_point", (s.txns / 20).max(4) as u64)],
        arms: fig6c_arms,
        cell: |_, r| format!("{:.3}", r.seconds),
        ..SWEEP
    },
    Experiment {
        name: "ablations",
        title: "Ablations Ab2-Ab4 (DESIGN.md \"Ablations\"); table-locks Entangled-T livelocks by design",
        columns: "seconds committed/submitted",
        arms: ablation_arms,
        cell: |_, r| format!("{:.3}s {}/{}", r.seconds, r.stats.committed, r.submitted),
        ..SWEEP
    },
    Experiment {
        name: "scaling",
        title: "Scaling — committed txns/sec vs connections",
        artifact: Some("BENCH_scaling.json"),
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("cost_per_statement_us", s.cost.per_statement.as_micros() as u64),
            ]
        },
        arms: |s| {
            let mix = |f| CONNECTIONS.map(|c| mix_arm(s, f, WorkloadMode::Transactional, c));
            Family::ALL.into_iter().flat_map(mix).collect()
        },
        ..SWEEP
    },
    Experiment {
        name: "durability",
        title: "Durability — group-commit WAL pipeline",
        columns: "txns/sec (syncs/commit)",
        artifact: Some("BENCH_durability.json"),
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("sync_latency_us", s.cost.per_commit.as_micros() as u64),
            ]
        },
        arms: |s| {
            let mut arms = Vec::new();
            for gc in [true, false] {
                for family in [Family::NoSocial, Family::Entangled] {
                    arms.extend(CONNECTIONS.map(|c| durability_arm(s, family, c, gc)));
                }
            }
            arms
        },
        cell: |_, r| format!("{:.1} ({:.3})", r.txns_per_sec(), r.stats.syncs_per_commit()),
        ..SWEEP
    },
    Experiment {
        name: "recovery",
        title: "Recovery — checkpointed restart vs full replay (crash after txns)",
        columns: "retained log KiB | recovery us | records replayed",
        artifact: Some("BENCH_recovery.json"),
        x: "txns",
        meta: |s| vec![("max_txns", s.txns as u64)],
        arms: |s| {
            let sweep = |on| recovery_txn_counts(s).into_iter().map(move |n| recovery_arm(s, n, on));
            sweep(true).chain(sweep(false)).collect()
        },
        cell: |_, r| match r.extra {
            Extra::Recovery {
                retained_log_bytes,
                recovery_micros,
                replayed_records,
                ..
            } => format!(
                "{:.1} KiB | {recovery_micros:.0} us | {replayed_records}",
                retained_log_bytes as f64 / 1024.0
            ),
            _ => String::new(),
        },
        ..SWEEP
    },
    Experiment {
        name: "readscale",
        title: "Readscale — snapshot reads vs S-lock reads (acceptance floor 1.5x)",
        columns: "txns/sec (failed)",
        artifact: Some("BENCH_readscale.json"),
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("write_pct", READSCALE_WRITE_PCT.into()),
            ]
        },
        headlines: &[Headline {
            key: "snapshot_on_over_off_at_max",
            over: ("readmix snapshot=on", 8),
            under: ("readmix snapshot=off", 8),
        }],
        arms: |s| on_off_sweep(s, readscale_arm),
        cell: |_, r| format!("{:.1} ({})", r.txns_per_sec(), r.failed()),
        ..SWEEP
    },
    Experiment {
        name: "pointmix",
        title: "Pointmix — index plans vs heap scans (acceptance floor 3x)",
        columns: "txns/sec (rows scanned per statement)",
        artifact: Some("BENCH_index.json"),
        // Reader: two point SELECTs; writer: point UPDATE + confirm SELECT.
        stmts_per_txn: 2,
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("write_pct", POINTMIX_WRITE_PCT.into()),
            ]
        },
        headlines: &[Headline {
            key: "indexed_over_noindex_at_max",
            over: ("pointmix index=on", 8),
            under: ("pointmix index=off", 8),
        }],
        arms: |s| on_off_sweep(s, pointmix_arm),
        cell: |e, r| format!("{:.1} ({:.1})", r.txns_per_sec(), e.rows_per_statement(r)),
        ..SWEEP
    },
    Experiment {
        name: "rangemix",
        title: "Rangemix — btree range plans vs forced scans (acceptance floor 3x)",
        columns: "txns/sec (rows scanned per statement)",
        artifact: Some("BENCH_range.json"),
        // Reader: two windows; booker: locked window + window UPDATE.
        stmts_per_txn: 2,
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("write_pct", RANGEMIX_WRITE_PCT.into()),
            ]
        },
        headlines: &[Headline {
            key: "indexed_over_forced_scan_at_max",
            over: ("rangemix index=on", 8),
            under: ("rangemix index=off", 8),
        }],
        arms: |s| on_off_sweep(s, rangemix_arm),
        cell: |e, r| format!("{:.1} ({:.1})", r.txns_per_sec(), e.rows_per_statement(r)),
        ..SWEEP
    },
    Experiment {
        name: "sharding",
        title: "Sharding — per-shard commit pipelines (acceptance floor 1.5x)",
        columns: "txns/sec (failed)",
        artifact: Some("BENCH_sharding.json"),
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("sync_latency_us", s.cost.per_commit.as_micros() as u64),
                ("cross_pct", SHARDING_CROSS_PCT.into()),
            ]
        },
        headlines: &[
            Headline {
                key: "local_4_over_1_at_8",
                over: ("local shards=4", 8),
                under: ("local shards=1", 8),
            },
            Headline {
                key: "cross_tax_at_4_shards",
                over: ("local shards=4", 8),
                under: ("cross shards=4", 8),
            },
        ],
        arms: sharding_arms,
        cell: |_, r| format!("{:.1} ({})", r.txns_per_sec(), r.failed()),
        ..SWEEP
    },
    Experiment {
        name: "hotcycle",
        title: "Hotcycle — global deadlock detection vs timeouts (acceptance: 2x, 0 detect-arm timeouts)",
        columns: "txns/sec (timeouts)",
        artifact: Some("BENCH_deadlock.json"),
        meta: |s| {
            vec![
                ("shards", HOTCYCLE_SHARDS as u64),
                ("connections", HOTCYCLE_CONNECTIONS as u64),
                ("hot_rows", HOTCYCLE_HOT_ROWS as u64),
                ("txns_per_arm", hotcycle_txns(s) as u64),
            ]
        },
        headlines: &[Headline {
            key: "detect_speedup_over_timeout",
            over: ("detect", HOTCYCLE_CONNECTIONS),
            under: ("timeout", HOTCYCLE_CONNECTIONS),
        }],
        arms: |s| {
            [DeadlockPolicy::Detect, DeadlockPolicy::Timeout]
                .into_iter()
                .map(|p| hotcycle_arm(s, p))
                .collect()
        },
        cell: |_, r| format!("{:.1} ({})", r.txns_per_sec(), r.stats.timeouts),
        ..SWEEP
    },
    Experiment {
        name: "auditgraph",
        title: "Auditgraph — lock-order graph of the cross-shard mix (needs --features audit in release)",
        artifact: Some("AUDIT_lock_graph.json"),
        meta: |s| {
            vec![
                ("txns_per_point", s.txns as u64),
                ("cross_pct", SHARDING_CROSS_PCT.into()),
            ]
        },
        // The contended 50%-cross mix on 4 shards has the richest
        // resource-ordering graph: cross-shard units interleave table,
        // index-key and row locks on two shards at once.
        arms: |s| {
            let mut arm = shard_arm(s, 4, 8, SHARDING_CROSS_PCT);
            arm.capture = Capture::LockGraph;
            vec![arm]
        },
        ..SWEEP
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            txns: 24,
            users: 60,
            cities: 4,
            flights: 80,
            cost: CostModel::ZERO,
            seed: 4,
        }
    }

    /// 48 transactions over the tiny data with the given statement and
    /// commit (device sync) latencies.
    fn costed(per_statement_ms: u64, per_commit_ms: u64) -> Scale {
        Scale {
            txns: 48,
            cost: CostModel {
                per_statement: Duration::from_millis(per_statement_ms),
                per_entangled_eval: Duration::ZERO,
                per_commit: Duration::from_millis(per_commit_ms),
            },
            ..tiny()
        }
    }

    fn experiment(name: &str) -> &'static Experiment {
        EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .expect("experiment in the table")
    }

    #[test]
    fn fig6a_driver_completes_all_families() {
        let s = tiny();
        for family in Family::ALL {
            for mode in [WorkloadMode::Transactional, WorkloadMode::QueryOnly] {
                let r = measure(&mix_arm(&s, family, mode, 4));
                assert!(r.stats.committed >= 20, "{mode:?}: {r:?}");
            }
        }
    }

    #[test]
    fn fig6b_driver_commits_paired_only() {
        let r = measure(&fig6b_arm(&tiny(), 3, 5, 2));
        assert_eq!(r.stats.committed, 24, "{r:?}");
    }

    #[test]
    fn fig6c_driver_handles_both_structures() {
        for structure in [Structure::SpokeHub, Structure::Cyclic] {
            let mut arm = fig6c_arm(&tiny(), structure, 3, 4, 3);
            arm.sched.connections = 2;
            let r = measure(&arm);
            assert_eq!(r.stats.committed, 12, "{r:?}");
        }
    }

    #[test]
    fn ablations_complete() {
        let s = tiny();
        for ab in [
            None,
            Some(Ablation::AllowWidows),
            Some(Ablation::SolverGeneralOnly),
        ] {
            let r = measure(&ablated_arm(&s, ab, Family::Entangled, 2));
            assert!(r.stats.committed >= 20, "{ab:?}: {r:?}");
        }
        // Table granularity: measured on NoSocial (no partner coupling).
        let arm = ablated_arm(&s, Some(Ablation::TableGranularity), Family::NoSocial, 2);
        let r = measure(&arm);
        assert!(r.stats.committed >= 20, "table granularity: {r:?}");
    }

    #[test]
    fn table_granularity_livelocks_entangled_pairs() {
        // The structural standoff of DESIGN.md "Ablations": partners
        // cannot group-commit while one holds a table-X lock the other
        // needs. All pairs time out.
        let s = Scale { txns: 4, ..tiny() };
        let arm = ablated_arm(&s, Some(Ablation::TableGranularity), Family::Entangled, 2);
        let r = measure(&arm);
        assert_eq!(r.stats.committed, 0, "{r:?}");
    }

    #[test]
    fn scaling_speedup_at_8_connections_on_classical_mix() {
        // With a non-zero cost model, 8 connections must commit at ≥ 2×
        // the single-connection throughput on the classical Figure 6(a)
        // mix. Sleep-dominated statements make this timing-robust (ideal
        // speedup is ~8×).
        let s = costed(2, 0);
        let rows: Vec<Row> = [1, 8]
            .iter()
            .map(|&c| {
                measure(&mix_arm(
                    &s,
                    Family::NoSocial,
                    WorkloadMode::Transactional,
                    c,
                ))
            })
            .collect();
        assert!(rows.iter().all(|r| r.stats.committed == 48), "{rows:?}");
        let speedup = ratio_at(&rows, ("NoSocial-T", 8), ("NoSocial-T", 1));
        assert!(speedup >= 2.0, "only {speedup:.2}x ({rows:?})");
    }

    #[test]
    fn group_commit_amortizes_syncs_below_one_per_commit() {
        // With the group-commit pipeline on, syncs-per-commit < 1 at 4
        // connections; off, every commit group pays its own serialized
        // sync. The 2ms sync latency makes batching windows wide enough
        // to be timing-robust.
        let s = costed(0, 2);
        for family in [Family::NoSocial, Family::Entangled] {
            let on = measure(&durability_arm(&s, family, 4, true));
            assert_eq!(on.stats.committed, 48, "{on:?}");
            assert!(on.stats.syncs_per_commit() < 1.0, "{on:?}");
        }
        let off = measure(&durability_arm(&s, Family::NoSocial, 4, false));
        assert!(off.stats.syncs_per_commit() >= 1.0, "{off:?}");
        // Entangled pairs without the pipeline: one serialized sync per
        // commit group (the paper's §4 amortization and nothing more).
        let off = measure(&durability_arm(&s, Family::Entangled, 4, false));
        assert!(off.stats.syncs_per_commit() >= 0.5, "{off:?}");
    }

    #[test]
    fn readscale_driver_snapshot_reads_beat_the_lock_ablation() {
        // In miniature: taking readers off the lock manager must not lose
        // transactions and must beat S-lock reads (`repro readscale`
        // measures the ≥ 1.5× figure at bench scale).
        let s = Scale {
            txns: 60,
            ..costed(1, 1)
        };
        let on = measure(&readscale_arm(&s, 8, true));
        assert_eq!(on.stats.committed, 60, "{on:?}");
        let off = measure(&readscale_arm(&s, 8, false));
        assert!(on.txns_per_sec() > off.txns_per_sec(), "{on:?} vs {off:?}");
    }

    #[test]
    fn pointmix_driver_index_beats_the_scan_ablation() {
        // In miniature: the named index must not lose transactions, must
        // beat the scan ablation at 8 connections, and must cut rows
        // scanned per point statement from O(table) to O(1) (`repro
        // pointmix` measures the ≥ 3× figure at bench scale).
        let s = costed(1, 0);
        let exp = experiment("pointmix");
        let on = measure(&pointmix_arm(&s, 8, true));
        assert_eq!(on.stats.committed, 48, "{on:?}");
        let off = measure(&pointmix_arm(&s, 8, false));
        assert!(on.txns_per_sec() > off.txns_per_sec(), "{on:?} vs {off:?}");
        // Every indexed point statement probes a couple of rows; unindexed
        // ones scan at least half the 60-row table.
        assert!(exp.rows_per_statement(&on) < 4.0, "{on:?}");
        assert!(exp.rows_per_statement(&off) > 30.0, "{off:?}");
        assert!(on.stats.index_lookups > 0 && off.stats.index_lookups == 0);
    }

    #[test]
    fn rangemix_driver_range_plans_beat_the_forced_scan_ablation() {
        // In miniature: the btree indexes must not lose transactions, must
        // beat the forced-scan ablation at 8 connections, and snapshot
        // dashboards must be served by live-index probes (`repro
        // rangemix` measures the ≥ 3× figure at bench scale).
        let s = Scale {
            flights: 96,
            ..costed(1, 0)
        };
        let exp = experiment("rangemix");
        let on = measure(&rangemix_arm(&s, 8, true));
        assert_eq!(on.stats.committed, 48, "{on:?}");
        let off = measure(&rangemix_arm(&s, 8, false));
        assert!(on.txns_per_sec() > off.txns_per_sec(), "{on:?} vs {off:?}");
        // O(window) vs O(table): windows match ~96*3/64 ≈ 5 rows each.
        assert!(exp.rows_per_statement(&on) < exp.rows_per_statement(&off) / 2.0);
        assert!(on.stats.index_lookups > 0 && off.stats.index_lookups == 0);
        // Every snapshot window probed the live index (one avoided
        // rebuild each); the ablation had no index to probe.
        assert!(on.stats.index_rebuilds_avoided > 0, "{on:?}");
        assert_eq!(off.stats.index_rebuilds_avoided, 0, "{off:?}");
    }

    /// (retained log bytes, logical log bytes, records replayed).
    fn recovery_of(r: &Row) -> (u64, u64, usize) {
        match r.extra {
            Extra::Recovery {
                retained_log_bytes,
                logical_log_bytes,
                replayed_records,
                ..
            } => (retained_log_bytes, logical_log_bytes, replayed_records),
            _ => panic!("no recovery timing: {r:?}"),
        }
    }

    #[test]
    fn recovery_driver_shows_bounded_restart_with_checkpoints() {
        // At the same history length, checkpointing leaves a strictly
        // smaller retained log and replays strictly fewer records than
        // full replay — the O(history) -> O(delta) restart win.
        let s = Scale { txns: 64, ..tiny() };
        let n = *recovery_txn_counts(&s).last().expect("counts");
        let on = measure(&recovery_arm(&s, n, true));
        let off = measure(&recovery_arm(&s, n, false));
        assert_eq!(on.stats.committed, n, "{on:?}");
        assert_eq!(off.stats.committed, n, "{off:?}");
        assert!(on.stats.checkpoints >= 1, "cadence must fire: {on:?}");
        assert_eq!(off.stats.checkpoints, 0);
        let (on_retained, _, on_replayed) = recovery_of(&on);
        let (off_retained, off_logical, off_replayed) = recovery_of(&off);
        assert!(on_retained < off_retained, "{on:?} vs {off:?}");
        assert!(on_replayed < off_replayed, "{on:?} vs {off:?}");
        // Without checkpoints the logical and retained lengths coincide.
        assert_eq!(off_retained, off_logical);
    }

    #[test]
    fn sharding_driver_four_shards_outscale_one_on_the_local_mix() {
        // Commits pay a 2ms serialized device sync and statements are
        // free, so throughput is bounded by per-shard sync bandwidth: at
        // 8 connections 4 per-shard pipelines must reach ≥ 1.5× one
        // (ideal ~4×).
        let s = costed(0, 2);
        let rows = [
            measure(&sharding_arm(&s, 1, 8, 0)),
            measure(&sharding_arm(&s, 4, 8, 0)),
        ];
        assert!(rows.iter().all(|r| r.stats.committed == 48), "{rows:?}");
        let four = &rows[1].stats.shard_syncs;
        assert_eq!(four.len(), 4);
        assert!(four.iter().filter(|&&n| n > 0).count() >= 2, "{four:?}");
        let ratio = ratio_at(&rows, ("local shards=4", 8), ("local shards=1", 8));
        assert!(ratio >= 1.5, "only {ratio:.2}x ({rows:?})");
    }

    #[test]
    fn sharding_driver_cross_mix_pays_the_two_phase_tax() {
        // Cross-shard transactions drive the CrossPrepare/CrossCommit
        // path (≥ 2 prepares per unit); the local mix never does.
        let s = costed(0, 2);
        let cross = measure(&sharding_arm(&s, 4, 8, SHARDING_CROSS_PCT)).stats;
        assert_eq!(cross.committed, 48, "{cross:?}");
        assert!(cross.cross_shard_commits > 0, "{cross:?}");
        assert!(cross.cross_shard_prepares >= 2 * cross.cross_shard_commits);
        let local = measure(&sharding_arm(&s, 4, 8, 0)).stats;
        assert_eq!(local.cross_shard_commits, 0);
        assert_eq!(local.cross_shard_prepares, 0);
    }

    #[test]
    fn hotcycle_detect_arm_resolves_every_cycle_without_timeouts() {
        // In miniature: the detect arm must finish with zero timeouts
        // (every cycle dies by explicit conviction) and beat the
        // timeout-only ablation on committed-txns/sec.
        let s = Scale {
            txns: 120,
            ..costed(0, 2)
        };
        let rows = experiment("hotcycle").run(&s);
        let (detect, timeout) = (&rows[0].stats, &rows[1].stats);
        assert_eq!(detect.timeouts, 0, "{rows:?}");
        assert!(detect.committed >= 60, "victims retry to commit: {rows:?}");
        let speedup = ratio_at(&rows, ("detect", 8), ("timeout", 8));
        assert!(speedup > 1.0, "only {speedup:.2}x ({rows:?})");
        // The ablation genuinely exercised the backstop, or the
        // comparison is vacuous.
        assert!(timeout.timeouts > 0, "{rows:?}");
        assert_eq!(timeout.deadlock_victims, 0, "{rows:?}");
        assert_eq!(timeout.detection_probes, 0, "{rows:?}");
        if detect.deadlock_victims > 0 {
            assert!(detect.detection_probes > 0, "{rows:?}");
        }
    }

    /// One synthetic row per arm: 100 committed, at 100 × x txns/sec times
    /// the number of series after this one (so headlines at equal x are
    /// known ratios).
    fn synthetic(exp: &Experiment, scale: &Scale) -> Vec<Row> {
        let arms = (exp.arms)(scale);
        let mut labels: Vec<&str> = Vec::new();
        for a in &arms {
            if !labels.contains(&a.label.as_str()) {
                labels.push(&a.label);
            }
        }
        arms.iter()
            .map(|a| {
                let rank = labels.len() - labels.iter().position(|l| *l == a.label).unwrap_or(0);
                Row {
                    label: a.label.clone(),
                    params: a.params.clone(),
                    x: a.x,
                    submitted: 100,
                    seconds: 1.0 / (rank * a.x) as f64,
                    stats: Stats {
                        committed: 100,
                        syncs: 10,
                        rows_scanned: 240,
                        index_rebuilds_avoided: 70,
                        cross_shard_prepares: 100,
                        shard_syncs: vec![25, 26, 24, 25],
                        ..Stats::default()
                    },
                    extra: match a.capture {
                        Capture::Stats => Extra::None,
                        Capture::LockWaits => Extra::LockWaits {
                            p50_block_us: 900,
                            p99_block_us: 250_000,
                            max_block_us: 260_000,
                        },
                        Capture::Recovery => Extra::Recovery {
                            retained_log_bytes: 2048,
                            logical_log_bytes: 8192,
                            recovery_micros: 12.5,
                            replayed_records: 7,
                        },
                        Capture::LockGraph => Extra::LockGraph(None),
                    },
                }
            })
            .collect()
    }

    /// Serialize synthetic rows of `name` and check the layout every
    /// artifact shares plus the `expected` fragments.
    fn check_artifact(name: &str, expected: &[&str]) {
        let scale = Scale::quick();
        let exp = experiment(name);
        let rows = synthetic(exp, &scale);
        let json = exp.json(&scale, &rows);
        for want in [
            &format!("\"experiment\": \"{name}\",\n  \"schema\": {SCHEMA},"),
            "\"series\": [",
        ]
        .into_iter()
        .chain(expected.iter().copied())
        {
            assert!(json.contains(want), "missing {want}:\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        let squeezed: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(
            !squeezed.contains(",]") && !squeezed.contains(",}"),
            "no trailing commas:\n{json}"
        );
        let table = exp.table(&scale, &rows);
        assert!(rows.iter().all(|r| table.contains(&r.label)), "{table}");
    }

    #[test]
    fn writer_serializes_every_experiment() {
        for exp in &EXPERIMENTS {
            check_artifact(exp.name, &[]);
        }
        check_artifact(
            "auditgraph",
            &["\"edges\": [], \"cycles\": [], \"unaudited\": true"],
        );
    }

    #[test]
    fn artifact_files_keep_their_ci_names() {
        let artifacts: Vec<(&str, &str)> = EXPERIMENTS
            .iter()
            .filter_map(|e| Some((e.name, e.artifact?)))
            .collect();
        assert_eq!(
            artifacts,
            [
                ("scaling", "BENCH_scaling.json"),
                ("durability", "BENCH_durability.json"),
                ("recovery", "BENCH_recovery.json"),
                ("readscale", "BENCH_readscale.json"),
                ("pointmix", "BENCH_index.json"),
                ("rangemix", "BENCH_range.json"),
                ("sharding", "BENCH_sharding.json"),
                ("hotcycle", "BENCH_deadlock.json"),
                ("auditgraph", "AUDIT_lock_graph.json"),
            ]
        );
    }

    #[test]
    fn scaling_json_is_well_formed() {
        check_artifact(
            "scaling",
            &[
                "\"speedup_max_over_1\": 8.000",
                "\"cost_per_statement_us\": 500",
            ],
        );
    }

    #[test]
    fn durability_json_is_well_formed() {
        check_artifact(
            "durability",
            &[
                "\"family\": \"NoSocial\"",
                "\"group_commit\": true",
                "\"syncs_per_commit\": 0.1000",
            ],
        );
    }

    #[test]
    fn recovery_json_is_well_formed() {
        check_artifact(
            "recovery",
            &[
                "\"checkpointing\": true",
                "\"checkpointing\": false",
                "\"txns\": 150",
                "\"replayed_records\": 7",
            ],
        );
    }

    #[test]
    fn readscale_json_is_well_formed() {
        check_artifact(
            "readscale",
            &[
                "\"snapshot_on_over_off_at_max\": 2.000",
                "\"snapshot_reads\": true",
            ],
        );
    }

    #[test]
    fn pointmix_json_is_well_formed() {
        check_artifact(
            "pointmix",
            &[
                "\"indexed_over_noindex_at_max\": 2.000",
                "\"indexed\": true",
                "\"indexed\": false",
                "\"rows_per_statement\": 1.200",
            ],
        );
    }

    #[test]
    fn rangemix_json_is_well_formed() {
        check_artifact(
            "rangemix",
            &[
                "\"indexed_over_forced_scan_at_max\": 2.000",
                "\"index_rebuilds_avoided\": 70",
            ],
        );
    }

    #[test]
    fn sharding_json_is_well_formed() {
        check_artifact(
            "sharding",
            &[
                "\"local_4_over_1_at_8\": 0.667",
                "\"cross_tax_at_4_shards\": 4.000",
                "\"shard_syncs\": [25, 26, 24, 25]",
                "\"cross_shard_prepares\": 100",
            ],
        );
    }

    #[test]
    fn hotcycle_json_is_well_formed() {
        check_artifact(
            "hotcycle",
            &[
                "\"detect_speedup_over_timeout\": 2.000",
                "\"label\": \"detect\"",
                "\"p99_block_us\": 250000",
            ],
        );
    }
}
