//! The three workloads: how each one builds its engine and generates its
//! programs from one seed. Why each was chosen is in `README.md`.

use entangled_txn::{CostModel, DeadlockPolicy, Engine, EngineConfig, LockGranularity, Program};
use std::sync::Arc;
use std::time::Duration;
use youtopia_bench::Scale;
use youtopia_workload::{
    engine_config, generate, generate_point_mix, generate_shard_mix, point_index_script,
    point_seed_script, shard_index_script, Family, TravelData, WorkloadMode,
};

/// Programs the scheduler gathers into one run (`RunTrigger::Arrivals`).
pub const WAVE: usize = 50;
/// Worker threads per run.
pub const CONNECTIONS: usize = 2;

/// Share of `point-rw` programs that are indexed point-update writers.
const POINT_WRITE_PCT: u32 = 80;
/// Share of `durable-shards` programs that write two tables on different
/// shards.
const CROSS_PCT: u32 = 50;
const DURABLE_SHARDS: usize = 2;
/// The simulated device sync of `durable-shards`: the only cost model
/// any workload carries.
const SYNC: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EntanglePairs,
    PointRw,
    DurableShards,
}

/// An engine ready for the timed phase, with the data its programs refer
/// to.
pub struct Setup {
    pub engine: Arc<Engine>,
    pub data: TravelData,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EntanglePairs,
        Workload::PointRw,
        Workload::DurableShards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EntanglePairs => "entangle-pairs",
            Workload::PointRw => "point-rw",
            Workload::DurableShards => "durable-shards",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Transactions submitted per trial. Fixed, because the engine's
    /// per-transaction cost grows with the transactions it has already
    /// processed: both sides of a comparison must run the same length.
    /// Each is a multiple of [`WAVE`], so every wave is started by a
    /// submission and `drain` only settles retries.
    pub fn txns(self) -> usize {
        match self {
            Workload::EntanglePairs => 4_000,
            Workload::PointRw => 6_000,
            Workload::DurableShards => 2_000,
        }
    }

    /// Data generation, engine build, seed scripts and index DDL — the
    /// work `setup_s` times.
    pub fn setup(self, seed: u64) -> Setup {
        // Travel data at `Scale::quick()` sizes. `Scale::data` aligns the
        // pair hometowns with the seed the program generator also gets, so
        // every generated pair shares a hometown.
        let data = Scale {
            seed,
            ..Scale::quick()
        }
        .data();
        let engine = data.build_engine(self.config());
        match self {
            Workload::EntanglePairs => {}
            Workload::PointRw => {
                engine
                    .setup(&point_seed_script(&data))
                    .expect("valid seed script");
                engine.setup(point_index_script()).expect("valid index DDL");
            }
            Workload::DurableShards => {
                engine
                    .setup(&point_seed_script(&data))
                    .expect("valid seed script");
                engine.setup(shard_index_script()).expect("valid index DDL");
            }
        }
        Setup { engine, data }
    }

    /// The engine configuration. Granularity, deadlock policy and shard
    /// count are pinned so the `YOUTOPIA_*` environment switches cannot
    /// change what is measured.
    fn config(self) -> EngineConfig {
        let (cost, shards) = match self {
            Workload::EntanglePairs | Workload::PointRw => (CostModel::ZERO, 1),
            Workload::DurableShards => (
                CostModel {
                    per_commit: SYNC,
                    ..CostModel::ZERO
                },
                DURABLE_SHARDS,
            ),
        };
        EngineConfig {
            granularity: LockGranularity::Row,
            deadlock: DeadlockPolicy::Detect,
            shards,
            wal_group_commit: true,
            ..engine_config(WorkloadMode::Transactional, cost, false)
        }
    }

    /// `count` programs generated from `seed`.
    pub fn programs(self, data: &TravelData, count: usize, seed: u64) -> Vec<Program> {
        match self {
            Workload::EntanglePairs => generate(Family::Entangled, data, count, seed),
            Workload::PointRw => generate_point_mix(data, count, POINT_WRITE_PCT, seed),
            Workload::DurableShards => {
                generate_shard_mix(data, count, CROSS_PCT, DURABLE_SHARDS, seed)
            }
        }
    }
}
