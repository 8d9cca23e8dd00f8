//! The correctness gate holds on a seed that was not used while the
//! benchmark was tuned, through both trials, at the benchmark's two
//! connections; and the metric list matches `BENCHMARK.json`.

use perfbench::trial;
use perfbench::workload::{Workload, CONNECTIONS};
use perfbench::{END_TO_END, PER_LAYER};

const HELD_OUT_SEED: u64 = 9_001;
const TXNS: usize = 200;

fn value(t: &trial::Trial, name: &str) -> f64 {
    t.values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("trial reported no {name}"))
}

fn check(w: Workload) {
    let plain = trial::untraced(w, HELD_OUT_SEED, TXNS, CONNECTIONS);
    assert!(
        plain.violations.is_empty(),
        "{}: {:?}",
        w.name(),
        plain.violations
    );
    // One seed drives both the data alignment and the generator, so every
    // transaction — every entangled pair included — commits.
    assert_eq!(value(&plain, "commit_ratio"), 1.0, "{}", w.name());
    let traced = trial::traced(w, HELD_OUT_SEED, TXNS, CONNECTIONS, None).expect("no trace file");
    assert!(
        traced.violations.is_empty(),
        "{}: {:?}",
        w.name(),
        traced.violations
    );
    assert_eq!(value(&traced, "failed"), 0.0, "{}", w.name());
}

#[test]
fn held_out_seed_passes_the_gate_on_entangle_pairs() {
    check(Workload::EntanglePairs);
}

#[test]
fn held_out_seed_passes_the_gate_on_point_rw() {
    check(Workload::PointRw);
}

#[test]
fn held_out_seed_passes_the_gate_on_durable_shards() {
    check(Workload::DurableShards);
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
