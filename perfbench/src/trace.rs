//! Spans recorded around calls into the engine's layers, kept in memory
//! and written out when the run ends, plus the per-layer self-time table
//! derived from them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call. `parent == 0` marks a root span. `lane` 0 is the
/// driver thread; lanes `1..=connections` are the run's workers.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub tx: u64,
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The clock and id source every lane shares.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The spans one thread recorded. Each thread owns its lane, so recording
/// takes no lock; lanes are merged when their threads end.
pub struct Lane {
    pub lane: usize,
    pub spans: Vec<Span>,
}

impl Lane {
    pub fn new(lane: usize) -> Lane {
        Lane {
            lane,
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its id, to be passed to [`Lane::exit`] and
    /// used as the parent of nested spans.
    pub fn enter(&mut self, tracer: &Tracer, parent: u64, name: &'static str, tx: u64) -> u64 {
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            tx,
            lane: self.lane,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the most recent open span with this id.
    pub fn exit(&mut self, tracer: &Tracer, id: u64) {
        let end = tracer.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("exit of an entered span");
        span.end_ns = end;
    }

    /// Time `f` as a leaf span.
    pub fn time<R>(
        &mut self,
        tracer: &Tracer,
        parent: u64,
        name: &'static str,
        tx: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(tracer, parent, name, tx);
        let out = f();
        self.exit(tracer, id);
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name count, total time and self time (duration minus the part of
/// it that child spans cover).
pub fn totals(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - kids;
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    out.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    out
}

/// Share (in percent) of each run's wall time, per worker lane, that no
/// direct child span covers. Driver-thread children (lane 0) cover every
/// lane: the workers are idle by design while the driver evaluates,
/// settles or vacuums.
pub fn uncovered_pct(spans: &[Span], run_name: &str, lanes: usize) -> f64 {
    let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent).or_default().push(s);
    }
    let (mut uncovered, mut wall) = (0u64, 0u64);
    for run in spans.iter().filter(|s| s.name == run_name) {
        let children = kids.get(&run.id).map(Vec::as_slice).unwrap_or(&[]);
        for lane in 1..=lanes {
            let mut iv: Vec<(u64, u64)> = children
                .iter()
                .filter(|c| c.lane == 0 || c.lane == lane)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            uncovered += run.dur_ns() - covered(&mut iv, run.start_ns, run.end_ns);
            wall += run.dur_ns();
        }
    }
    if wall == 0 {
        0.0
    } else {
        100.0 * uncovered as f64 / wall as f64
    }
}

/// The per-layer self-time table, as printed and written beside the
/// spans. `self_%` is each name's share of the summed self time of all
/// spans (worker lanes run in parallel, so the sum exceeds the wall
/// time). `wall_ns` is the traced run's wall time; `uncovered` is
/// [`uncovered_pct`].
pub fn table(spans: &[Span], wall_ns: u64, uncovered: f64) -> String {
    let totals = totals(spans);
    let all_self: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>11} {:>11} {:>9} {:>9}",
        "span", "count", "total_ms", "self_ms", "self_%", "mean_us"
    );
    for (name, t) in totals {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>11.3} {:>11.3} {:>9.2} {:>9.2}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self.max(1) as f64,
            t.total_ns as f64 / 1e3 / t.count.max(1) as f64,
        );
    }
    let _ = writeln!(
        out,
        "wall {:.3} ms; trace.uncovered_pct {:.2} (run time per worker not covered by a child span)",
        wall_ns as f64 / 1e6,
        uncovered
    );
    out
}

/// Spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tx\":{},\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.tx, s.lane, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, lane: usize, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tx: 0,
            lane,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "run", 0, 0, 100),
            span(2, 1, "a", 1, 10, 40),
            span(3, 1, "a", 2, 20, 50),
            span(4, 1, "b", 0, 60, 70),
        ];
        let t: HashMap<_, _> = totals(&spans).into_iter().collect();
        assert_eq!(t["run"].self_ns, 100 - 40 - 10);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].self_ns, 60);
        // Lane 1 is covered 10..40 and 60..70, lane 2 20..50 and 60..70.
        let pct = uncovered_pct(&spans, "run", 2);
        assert!((pct - 60.0).abs() < 1e-9, "{pct}");
    }
}
