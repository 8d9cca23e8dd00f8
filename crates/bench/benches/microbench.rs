//! Component microbenchmarks: entangled-query evaluation (grounding +
//! coordinating-set search), entanglement-group lookups, lock manager
//! throughput, WAL append/recovery.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use entangled_txn::GroupManager;
use youtopia_entangle::{from_ast, ground, solve, SolveInput, SolverConfig};
use youtopia_lock::{LockManager, LockMode, Resource, TxId};
use youtopia_sql::{parse_statement, Statement, VarEnv};
use youtopia_storage::{Database, Schema, Value, ValueType};
use youtopia_wal::{recover, LogRecord, Wal};

fn flights_db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        "Flights",
        Schema::of(&[("fno", ValueType::Int), ("dest", ValueType::Str)]),
    )
    .unwrap();
    for i in 0..n {
        db.insert("Flights", vec![Value::Int(i), Value::str("LA")])
            .unwrap();
    }
    db
}

fn bench_entangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("entangle-eval");
    for n in [10i64, 100, 1000] {
        let db = flights_db(n);
        let q = |me: &str, other: &str| {
            let sql = format!(
                "SELECT '{me}', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
                 AND ('{other}', fno) IN ANSWER R CHOOSE 1"
            );
            let Statement::Entangled(eq) = parse_statement(&sql).unwrap() else {
                panic!()
            };
            from_ast(&eq, &VarEnv::new()).unwrap()
        };
        let (a, b) = (q("Mickey", "Minnie"), q("Minnie", "Mickey"));
        group.bench_with_input(BenchmarkId::new("pair", n), &n, |bch, _| {
            bch.iter(|| {
                let ga = ground(&db, &a, &VarEnv::new()).unwrap();
                let gb = ground(&db, &b, &VarEnv::new()).unwrap();
                let inputs = vec![
                    SolveInput {
                        ir: &a,
                        grounding: &ga,
                    },
                    SolveInput {
                        ir: &b,
                        grounding: &gb,
                    },
                ];
                solve(&inputs, &SolverConfig::default())
            });
        });
    }
    group.finish();
}

/// Group lookups after `n` pairs have been linked and forgotten (the
/// scheduler's history after `n` settled pairs): each sample asks about
/// 1000 ids, half of them members of one live pair and half forgotten.
/// The cost should not grow with `n`. `merge` builds two fresh
/// `n`-member groups and joins them, the build included in the sample.
fn bench_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("group-lookup");
    for n in [1_000u64, 10_000, 100_000] {
        let gm = GroupManager::new();
        for i in 0..n {
            gm.link(&[2 * i, 2 * i + 1]);
        }
        gm.forget(&(0..2 * n).collect::<Vec<_>>());
        let live = 2 * n;
        gm.link(&[live, live + 1]);
        let asked: Vec<u64> = (0..1000)
            .map(|i| if i % 2 == 0 { live } else { i })
            .collect();
        group.bench_with_input(BenchmarkId::new("is_grouped", n), &n, |b, _| {
            b.iter(|| asked.iter().filter(|&&tx| gm.is_grouped(tx)).count());
        });
        group.bench_with_input(BenchmarkId::new("members", n), &n, |b, _| {
            b.iter(|| asked.iter().map(|&tx| gm.members(tx).len()).sum::<usize>());
        });
        group.bench_with_input(BenchmarkId::new("merge", n), &n, |b, _| {
            b.iter(|| {
                let gm = GroupManager::new();
                let left: Vec<u64> = (0..n).collect();
                let right: Vec<u64> = (n..2 * n).collect();
                gm.link(&left);
                gm.link(&right);
                black_box(gm.link(&[0, n]))
            });
        });
    }
    group.finish();
}

fn bench_locks(c: &mut Criterion) {
    c.bench_function("lock-acquire-release", |b| {
        let lm = LockManager::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let tx = TxId(i);
            lm.lock(tx, Resource::table("flights"), LockMode::S, None)
                .unwrap();
            lm.lock(tx, Resource::row("reserve", i), LockMode::X, None)
                .unwrap();
            lm.unlock_all(tx);
        });
    });
}

fn bench_wal(c: &mut Criterion) {
    c.bench_function("wal-append-sync", |b| {
        let wal = Wal::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            wal.append(&LogRecord::Insert {
                tx: i,
                table: "Reserve".into(),
                row: i,
                values: vec![Value::Int(i as i64), Value::Int(122)],
            });
            wal.append_sync(&LogRecord::Commit { tx: i, ts: 0 });
        });
    });
    c.bench_function("wal-recovery-1k-txns", |b| {
        let wal = Wal::new();
        wal.append(&LogRecord::CreateTable {
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
        });
        for i in 0..1000u64 {
            wal.append(&LogRecord::Insert {
                tx: i,
                table: "Reserve".into(),
                row: i,
                values: vec![Value::Int(i as i64), Value::Int(122)],
            });
            wal.append(&LogRecord::Commit { tx: i, ts: 0 });
        }
        wal.sync();
        let records = wal.durable_records().unwrap();
        b.iter(|| recover(&records).unwrap());
    });
}

criterion_group!(
    benches,
    bench_entangle,
    bench_groups,
    bench_locks,
    bench_wal
);
criterion_main!(benches);
