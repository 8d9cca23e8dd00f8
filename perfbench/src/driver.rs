//! The traced driver: `Scheduler::run_once`, `settle` and `drain`
//! followed step for step through the engine's public calls, with a span
//! around each call into a layer. Nothing inside the engine is traced;
//! the spans time the calls as the scheduler makes them. The parity test
//! checks that at one connection this driver reproduces the scheduler's
//! counts exactly.

use crate::trace::{Lane, Span, Tracer};
use entangled_txn::{
    ClientId, ClientResult, Engine, EngineError, IsolationMode, Program, RunReport, Txn, TxnStatus,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The scheduler's default retry ceiling (`SchedulerConfig::default`).
const MAX_ATTEMPTS: u32 = 50;

/// Work the driver counted at the layer boundaries it traces.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DriverCounts {
    pub runs: usize,
    pub committed: usize,
    pub failed: usize,
    pub total_attempts: u64,
    pub eval_rounds: usize,
    /// Blocked transactions handed to `evaluate_queries`, over all rounds.
    pub queries: usize,
    /// `is_grouped` and `members` calls.
    pub group_lookups: u64,
    /// `commit_group` and `commit_batch` calls, and the transactions they
    /// committed.
    pub commit_calls: u64,
    pub commit_txns: u64,
}

impl DriverCounts {
    /// Fold in a worker's counts (workers count only lookups and commits).
    fn add(&mut self, o: &DriverCounts) {
        self.group_lookups += o.group_lookups;
        self.commit_calls += o.commit_calls;
        self.commit_txns += o.commit_txns;
    }
}

pub struct TracedScheduler {
    pub engine: Arc<Engine>,
    connections: usize,
    wave: usize,
    dormant: VecDeque<Txn>,
    arrivals_since_run: usize,
    next_client: u64,
    results: Vec<ClientResult>,
    pub counts: DriverCounts,
    tracer: Tracer,
    main: Lane,
    worker_spans: Vec<Span>,
}

impl TracedScheduler {
    /// A driver that starts a run after every `wave` submissions, like
    /// `RunTrigger::Arrivals(wave)`.
    pub fn new(engine: Arc<Engine>, connections: usize, wave: usize) -> TracedScheduler {
        TracedScheduler {
            engine,
            connections,
            wave,
            dormant: VecDeque::new(),
            arrivals_since_run: 0,
            next_client: 1,
            results: Vec::new(),
            counts: DriverCounts::default(),
            tracer: Tracer::new(),
            main: Lane::new(0),
            worker_spans: Vec::new(),
        }
    }

    pub fn take_results(&mut self) -> Vec<ClientResult> {
        std::mem::take(&mut self.results)
    }

    /// Every span recorded so far, driver lane first.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self.main.spans.clone();
        all.extend(self.worker_spans.iter().cloned());
        all
    }

    pub fn submit(&mut self, program: Program) -> ClientId {
        let client = ClientId(self.next_client);
        self.next_client += 1;
        let engine = &self.engine;
        let tx = self
            .main
            .time(&self.tracer, 0, "core.alloc_tx", 0, || engine.alloc_tx());
        self.dormant.push_back(Txn::new(client, tx, program));
        self.arrivals_since_run += 1;
        if self.arrivals_since_run >= self.wave {
            self.run_once();
        }
        client
    }

    /// Mirror of `Scheduler::run_once`. The report carries what `drain`'s
    /// progress rule reads: committed and failed.
    fn run_once(&mut self) -> RunReport {
        self.arrivals_since_run = 0;
        self.counts.runs += 1;
        let mut out = RunReport::default();
        let run_span = self.main.enter(&self.tracer, 0, "scheduler.run", 0);
        let now = Instant::now();
        let mut run: Vec<Txn> = Vec::with_capacity(self.dormant.len());
        while let Some(txn) = self.dormant.pop_front() {
            if txn.deadline_passed(now) || txn.attempt >= MAX_ATTEMPTS {
                self.finish(txn, TxnStatus::Failed(EngineError::TimedOut));
                out.failed += 1;
            } else {
                run.push(txn);
            }
        }
        if run.is_empty() {
            self.main.exit(&self.tracer, run_span);
            return out;
        }
        let engine = Arc::clone(&self.engine);
        for txn in &mut run {
            self.main
                .time(&self.tracer, run_span, "core.begin", txn.tx, || {
                    engine.begin(txn)
                });
        }
        let mut to_advance: Vec<usize> = (0..run.len()).collect();
        loop {
            self.advance_parallel(&mut run, &to_advance, run_span);
            let blocked: Vec<usize> = run
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, TxnStatus::Blocked { .. }))
                .map(|(i, _)| i)
                .collect();
            if blocked.is_empty() {
                break;
            }
            self.counts.eval_rounds += 1;
            self.counts.queries += blocked.len();
            {
                let mut refs = disjoint_muts(&mut run, &blocked);
                self.main
                    .time(&self.tracer, run_span, "entangle.eval", 0, || {
                        engine.evaluate_queries(&mut refs)
                    });
            }
            to_advance = run
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == TxnStatus::Running)
                .map(|(i, _)| i)
                .collect();
            if to_advance.is_empty() {
                break;
            }
        }
        let settle_span = self
            .main
            .enter(&self.tracer, run_span, "scheduler.settle", 0);
        self.settle(run, settle_span, &mut out);
        self.main.exit(&self.tracer, settle_span);
        self.main
            .time(&self.tracer, run_span, "core.vacuum", 0, || engine.vacuum());
        self.main.exit(&self.tracer, run_span);
        out
    }

    /// Mirror of `Scheduler::advance_parallel`: each worker runs its
    /// transaction until it blocks, and commits a ready classical one at
    /// once.
    fn advance_parallel(&mut self, run: &mut [Txn], indices: &[usize], parent: u64) {
        if indices.is_empty() {
            return;
        }
        let workers = self.connections.max(1).min(indices.len());
        let engine = &*self.engine;
        let tracer = &self.tracer;
        if workers == 1 {
            // The scheduler runs a single worker on the calling thread.
            let mut lane = Lane::new(1);
            let mut counts = DriverCounts::default();
            for &i in indices {
                advance_one(engine, tracer, &mut lane, &mut counts, parent, &mut run[i]);
            }
            self.counts.add(&counts);
            self.worker_spans.extend(lane.spans);
            return;
        }
        let queue: Mutex<VecDeque<(usize, Txn)>> = Mutex::new(
            indices
                .iter()
                .map(|&i| {
                    let placeholder =
                        Txn::new(ClientId(0), 0, Program::from_statements(vec![], None));
                    (i, std::mem::replace(&mut run[i], placeholder))
                })
                .collect(),
        );
        let done: Mutex<Vec<(usize, Txn)>> = Mutex::new(Vec::with_capacity(indices.len()));
        let finished: Vec<(Lane, DriverCounts)> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=workers)
                .map(|lane_no| {
                    let (queue, done) = (&queue, &done);
                    s.spawn(move || {
                        let mut lane = Lane::new(lane_no);
                        let mut counts = DriverCounts::default();
                        loop {
                            let next = queue.lock().expect("queue lock").pop_front();
                            let Some((i, mut txn)) = next else { break };
                            advance_one(engine, tracer, &mut lane, &mut counts, parent, &mut txn);
                            done.lock().expect("done lock").push((i, txn));
                        }
                        (lane, counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (lane, counts) in finished {
            self.counts.add(&counts);
            self.worker_spans.extend(lane.spans);
        }
        for (i, txn) in done.into_inner().expect("done lock") {
            run[i] = txn;
        }
    }

    /// Mirror of `Scheduler::settle`.
    fn settle(&mut self, mut run: Vec<Txn>, parent: u64, out: &mut RunReport) {
        let engine = Arc::clone(&self.engine);
        let group_commit_enabled = engine.config.isolation != IsolationMode::AllowWidows;
        let by_tx: HashMap<u64, usize> = run.iter().enumerate().map(|(i, t)| (t.tx, i)).collect();
        let mut committed_idx: HashSet<usize> = HashSet::new();
        let mut group_abort_idx: HashSet<usize> = HashSet::new();
        let ready: Vec<usize> = run
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == TxnStatus::ReadyToCommit)
            .map(|(i, _)| i)
            .collect();
        let mut commit_plans: Vec<Vec<usize>> = Vec::new();
        if group_commit_enabled {
            let mut handled: HashSet<usize> = HashSet::new();
            for &i in &ready {
                if handled.contains(&i) {
                    continue;
                }
                let tx = run[i].tx;
                self.counts.group_lookups += 1;
                let members = self.main.time(&self.tracer, parent, "core.groups", tx, || {
                    engine.groups.members(tx)
                });
                let member_idx: Vec<usize> = members
                    .iter()
                    .filter_map(|t| by_tx.get(t))
                    .copied()
                    .collect();
                let all_ready = members.len() == member_idx.len()
                    && member_idx
                        .iter()
                        .all(|&j| run[j].status == TxnStatus::ReadyToCommit);
                if all_ready {
                    committed_idx.extend(member_idx.iter().copied());
                    handled.extend(member_idx.iter().copied());
                    commit_plans.push(member_idx);
                } else {
                    group_abort_idx.insert(i);
                    handled.insert(i);
                }
            }
        } else {
            for &i in &ready {
                commit_plans.push(vec![i]);
                committed_idx.insert(i);
            }
        }
        let batch: Vec<usize> = commit_plans.iter().flatten().copied().collect();
        if !batch.is_empty() {
            let mut refs = disjoint_muts(&mut run, &batch);
            self.counts.commit_calls += 1;
            self.counts.commit_txns += batch.len() as u64;
            self.main.time(&self.tracer, parent, "core.commit", 0, || {
                engine.commit_batch(&mut refs)
            });
        }
        for i in group_abort_idx.iter().copied() {
            let t = &mut run[i];
            let tx = t.tx;
            self.main.time(&self.tracer, parent, "core.abort", tx, || {
                engine.abort(t, EngineError::GroupAbort)
            });
        }
        for (i, mut txn) in run.into_iter().enumerate() {
            if committed_idx.contains(&i) {
                out.committed += 1;
                self.finish(txn, TxnStatus::Committed);
                continue;
            }
            match txn.status.clone() {
                TxnStatus::Blocked { .. } => {
                    let tx = txn.tx;
                    self.main.time(&self.tracer, parent, "core.abort", tx, || {
                        engine.abort(&mut txn, EngineError::Protocol("blocked at end of run"))
                    });
                    self.requeue(txn, parent, out);
                }
                TxnStatus::Aborted(EngineError::GroupAbort)
                | TxnStatus::Aborted(EngineError::Lock(_)) => self.requeue(txn, parent, out),
                TxnStatus::Aborted(e) => {
                    out.failed += 1;
                    self.finish(txn, TxnStatus::Failed(e));
                }
                TxnStatus::ReadyToCommit => {
                    let tx = txn.tx;
                    self.main.time(&self.tracer, parent, "core.abort", tx, || {
                        engine.abort(&mut txn, EngineError::Protocol("unsettled ready txn"))
                    });
                    self.requeue(txn, parent, out);
                }
                TxnStatus::Committed => {
                    out.committed += 1;
                    self.finish(txn, TxnStatus::Committed);
                }
                s @ (TxnStatus::Dormant | TxnStatus::Running | TxnStatus::Failed(_)) => {
                    self.finish(txn, s);
                }
            }
        }
    }

    fn requeue(&mut self, mut txn: Txn, parent: u64, out: &mut RunReport) {
        if txn.deadline_passed(Instant::now()) || txn.attempt + 1 >= MAX_ATTEMPTS {
            out.failed += 1;
            self.finish(txn, TxnStatus::Failed(EngineError::TimedOut));
            return;
        }
        let engine = &self.engine;
        let new_tx = self
            .main
            .time(&self.tracer, parent, "core.alloc_tx", 0, || {
                engine.alloc_tx()
            });
        txn.reset_for_retry(new_tx);
        self.dormant.push_back(txn);
    }

    fn finish(&mut self, txn: Txn, status: TxnStatus) {
        self.counts.total_attempts += u64::from(txn.attempt) + 1;
        match status {
            TxnStatus::Committed => self.counts.committed += 1,
            TxnStatus::Failed(_) => self.counts.failed += 1,
            _ => {}
        }
        self.results.push(ClientResult {
            client: txn.client,
            status,
            attempts: txn.attempt + 1,
            answers: txn.answers,
            env: txn.env,
        });
    }

    /// Mirror of `Scheduler::drain`.
    pub fn drain(&mut self) {
        let mut zero_progress = 0;
        while !self.dormant.is_empty() {
            let before_pool = self.dormant.len();
            let run = self.run_once();
            if run.committed > 0 || run.failed > 0 || self.dormant.len() < before_pool {
                zero_progress = 0;
            } else {
                zero_progress += 1;
                if zero_progress >= 2 {
                    while let Some(txn) = self.dormant.pop_front() {
                        self.finish(txn, TxnStatus::Failed(EngineError::TimedOut));
                    }
                    break;
                }
            }
        }
    }
}

/// One worker step: run until the transaction blocks, then commit it at
/// once if it is ready and entangled with nobody.
fn advance_one(
    engine: &Engine,
    tracer: &Tracer,
    lane: &mut Lane,
    counts: &mut DriverCounts,
    parent: u64,
    txn: &mut Txn,
) {
    let tx = txn.tx;
    let span = lane.enter(tracer, parent, "scheduler.txn", tx);
    lane.time(tracer, span, "core.exec", tx, || {
        engine.run_until_block(txn)
    });
    if txn.status == TxnStatus::ReadyToCommit {
        counts.group_lookups += 1;
        let grouped = lane.time(tracer, span, "core.groups", tx, || {
            engine.groups.is_grouped(tx)
        });
        if !grouped {
            counts.commit_calls += 1;
            counts.commit_txns += 1;
            lane.time(tracer, span, "core.commit", tx, || {
                engine.commit_group(&mut [txn])
            });
        }
    }
    lane.exit(tracer, span);
}

/// Mutable references to the given distinct indices of `slice`, in the
/// order of `indices` (the scheduler's private helper of the same name).
fn disjoint_muts<'a, T>(slice: &'a mut [T], indices: &[usize]) -> Vec<&'a mut T> {
    let mut slots: Vec<Option<&'a mut T>> = slice.iter_mut().map(Some).collect();
    indices
        .iter()
        .map(|&i| slots[i].take().expect("indices must be distinct"))
        .collect()
}
