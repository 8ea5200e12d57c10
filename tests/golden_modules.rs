//! Per-core *and* per-module golden counter streams for fixed-seed
//! single-worker runs, captured before the lock-free fast-path refactor
//! (owned core ports, striped LLC, queued coherence). The refactor must be
//! observation-equivalent: every event counter, per core and per module,
//! stays bit-identical. The full counter state is folded into an FNV-1a
//! hash so a drift anywhere — a module's store count, a single L2I miss —
//! flips the digest.

use imoltp::analysis::{measure, WindowSpec};
use imoltp::bench::tpcc::{TpcC, TpcCScale};
use imoltp::bench::{DbSize, MicroBench, TpcB, Workload};
use imoltp::db::Db;
use imoltp::sim::{EventCounts, MachineConfig, Sim};
use imoltp::store::wal::LogRecord;
use imoltp::systems::{
    build_system, DbmsMIndex, DurabilityCfg, Placement, SystemBuilder, SystemKind, VoltDb,
};

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn counts(&mut self, c: &EventCounts) {
        self.word(c.instructions);
        self.word(c.code_fetches);
        self.word(c.loads);
        self.word(c.stores);
        for m in c.misses {
            self.word(m);
        }
        self.word(c.mispredicts);
        self.word(c.store_misses);
        self.word(c.invalidations);
    }

    fn bytes(&mut self, b: Option<&[u8]>) {
        match b {
            None => self.word(u64::MAX),
            Some(b) => {
                self.word(b.len() as u64);
                for &byte in b {
                    self.word(u64::from(byte));
                }
            }
        }
    }

    fn records(&mut self, stream: &[LogRecord]) {
        self.word(stream.len() as u64);
        for r in stream {
            self.word(r.lsn.0);
            self.word(r.txn.0);
            self.word(r.kind as u64);
            self.word(u64::from(r.len));
            self.word(u64::from(r.table));
            self.word(r.key);
            self.bytes(r.redo.as_deref());
            self.bytes(r.undo.as_deref());
        }
    }
}

/// Hash the cumulative per-core counters plus every module's counters
/// (with the module count, so a registry change also shows up).
fn digest(sim: &Sim, core: usize) -> u64 {
    let mut h = Fnv::new();
    h.counts(&sim.counters(core));
    let mods = sim.module_counters(core);
    h.word(mods.len() as u64);
    for mc in &mods {
        h.counts(mc);
    }
    h.0
}

const MICRO_SPEC: WindowSpec = WindowSpec {
    warmup: 300,
    measured: 800,
    reps: 2,
};

const TPCB_SPEC: WindowSpec = WindowSpec {
    warmup: 100,
    measured: 300,
    reps: 1,
};

fn micro() -> MicroBench {
    MicroBench::new(DbSize::Mb1).with_rows(30_000).seed(4242)
}

/// Load `w` into `db`, warm the caches, and run one fixed window on core 0.
fn window_digest(sim: &Sim, db: &mut dyn Db, w: &mut dyn Workload, spec: WindowSpec) -> u64 {
    sim.offline(|| w.setup(db, 1));
    sim.warm_data();
    let mut s = db.session(0);
    let _ = measure(sim, 0, spec, |_| w.exec(s.as_mut(), 0).unwrap());
    drop(s);
    digest(sim, 0)
}

fn micro_digest(kind: SystemKind) -> u64 {
    micro_digest_on(kind, MachineConfig::ivy_bridge(1))
}

fn micro_digest_on(kind: SystemKind, machine: MachineConfig) -> u64 {
    let sim = Sim::new(machine);
    let mut db = build_system(kind, &sim, 1);
    window_digest(&sim, db.as_mut(), &mut micro(), MICRO_SPEC)
}

/// Read-write micro-benchmark with two 50-byte string columns and ten
/// rows per transaction: the string-key compare, per-byte value work and
/// plan-loop (`*_NEXT`) paths.
fn micro_rw_strings_digest(kind: SystemKind) -> u64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = build_system(kind, &sim, 1);
    let mut w = micro().read_write().string_columns().rows_per_txn(10);
    window_digest(&sim, db.as_mut(), &mut w, TPCB_SPEC)
}

fn tpcb_digest(kind: SystemKind) -> u64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = build_system(kind, &sim, 1);
    window_digest(
        &sim,
        db.as_mut(),
        &mut TpcB::with_branches(1).seed(55),
        TPCB_SPEC,
    )
}

/// TPC-C on a tiny database: the scan, insert and delete paths.
fn tpcc_digest(kind: SystemKind) -> u64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = build_system(kind, &sim, 1);
    window_digest(
        &sim,
        db.as_mut(),
        &mut TpcC::with_scale(TpcCScale::tiny()).seed(5),
        TPCB_SPEC,
    )
}

/// VoltDB without the single-site guarantee: every transaction pays the
/// multi-partition coordinator.
fn voltdb_multi_sited_digest() -> u64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = VoltDb::new(&sim, 1);
    db.set_single_sited(false);
    window_digest(&sim, &mut db, &mut micro(), MICRO_SPEC)
}

/// A durable micro read-write run (epoch group commit on the simulated
/// log device), drained with `flush_all`; the retained log streams are
/// folded into the digest alongside the counters.
fn durable_digest(kind: SystemKind) -> u64 {
    let sim = Sim::new(MachineConfig::ivy_bridge(1));
    let mut db = SystemBuilder::new(kind).build_durable(&sim);
    db.enable_durability(&DurabilityCfg::default());
    let mut w = micro().read_write();
    let mut h = Fnv::new();
    h.word(window_digest(&sim, &mut *db, &mut w, TPCB_SPEC));
    db.flush_all();
    h.word(digest(&sim, 0));
    for stream in db.log_streams() {
        h.records(&stream);
    }
    h.0
}

/// Alternate two sessions from one thread so the interleaving is
/// deterministic, folding both cores' counter state into one digest.
fn interleaved_digest(sim: &Sim, db: &mut dyn Db, w: &mut dyn Workload) -> u64 {
    sim.offline(|| w.setup(db, 2));
    sim.warm_data();
    let mut s0 = db.session(0);
    let mut s1 = db.session(1);
    for _ in 0..400 {
        w.exec(s0.as_mut(), 0).unwrap();
        w.exec(s1.as_mut(), 1).unwrap();
    }
    drop(s0);
    drop(s1);
    let mut h = Fnv::new();
    h.word(digest(sim, 0));
    h.word(digest(sim, 1));
    h.0
}

/// Same fixed-seed micro run on two cores (with two open sessions the
/// shared-everything engines pay their latch-spin tax).
fn micro_digest_two_cores(kind: SystemKind, machine: MachineConfig) -> u64 {
    let sim = Sim::new(machine);
    let mut db = build_system(kind, &sim, 2);
    interleaved_digest(&sim, db.as_mut(), &mut micro())
}

/// Two sockets, one worker each, partitions homed with their workers, and
/// half the updates aimed at the other socket's partition: the
/// partitioned engines' multi-partition read/update paths.
fn islands_digest(kind: SystemKind) -> u64 {
    let sim = Sim::new(MachineConfig::numa(2, 1));
    let mut db = SystemBuilder::new(kind)
        .cores(2)
        .placement(Placement::Island)
        .build(&sim);
    let mut w = micro().read_write().cross_frac(0.5);
    interleaved_digest(&sim, db.as_mut(), &mut w)
}

/// A one-socket NUMA machine must be *bit-identical* to the flat machine it
/// degenerates to: `numa(1, n)` shares ivy_bridge's LLC geometry, every
/// home classification resolves to socket 0, and no remote penalty can
/// fire. Anything less means the multi-socket extension perturbed the
/// single-socket fast path, which the absolute goldens above would also
/// catch — this test localizes the blame to the topology change.
#[test]
fn numa_single_socket_digests_match_flat_machine() {
    for kind in [SystemKind::VoltDb, SystemKind::HyPer, SystemKind::ShoreMt] {
        assert_eq!(
            micro_digest_on(kind, MachineConfig::numa(1, 1)),
            micro_digest(kind),
            "{kind:?}: numa(1,1) digest diverged from ivy_bridge(1)"
        );
    }
    for kind in [SystemKind::VoltDb, SystemKind::HyPer] {
        assert_eq!(
            micro_digest_two_cores(kind, MachineConfig::numa(1, 2)),
            micro_digest_two_cores(kind, MachineConfig::ivy_bridge(2)),
            "{kind:?}: numa(1,2) digest diverged from ivy_bridge(2)"
        );
    }
}

#[test]
fn micro_per_module_counters_match_pre_refactor_golden() {
    let golden: [(SystemKind, u64); 5] = [
        (SystemKind::ShoreMt, 0x6ae751592cc8930c),
        (SystemKind::DbmsD, 0x2d7dc538f56f5def),
        (SystemKind::VoltDb, 0x6e18b160812ce719),
        (SystemKind::HyPer, 0x4875208288f5e48b),
        (DBMS_M_HASH, 0x08cc8456c034ca2f),
    ];
    check(&golden, "micro", micro_digest);
}

#[test]
fn tpcb_per_module_counters_match_pre_refactor_golden() {
    let golden: [(SystemKind, u64); 5] = [
        (SystemKind::ShoreMt, 0x5070ebe32eb12739),
        (SystemKind::DbmsD, 0x664ddb711f528efb),
        (SystemKind::VoltDb, 0x669f10d076ffc298),
        (SystemKind::HyPer, 0xc3b92d3254a65068),
        (DBMS_M_HASH, 0xd2fbf26e1a6da94c),
    ];
    check(&golden, "tpcb", tpcb_digest);
}

const DBMS_M_HASH: SystemKind = SystemKind::DbmsM {
    index: DbmsMIndex::Hash,
    compiled: true,
};

/// The five systems, DBMS M in its range-scan (cc-B-tree) configuration.
const TPCC_SYSTEMS: [SystemKind; 5] = [
    SystemKind::ShoreMt,
    SystemKind::DbmsD,
    SystemKind::VoltDb,
    SystemKind::HyPer,
    SystemKind::DbmsM {
        index: DbmsMIndex::BTree,
        compiled: true,
    },
];

fn check(golden: &[(SystemKind, u64)], what: &str, run: fn(SystemKind) -> u64) {
    for &(kind, want) in golden {
        let got = run(kind);
        assert_eq!(
            got, want,
            "{kind:?} {what}: per-module counter digest {got:#018x} != golden {want:#018x}"
        );
    }
}

#[test]
fn micro_rw_string_rows_match_golden() {
    let golden: [(SystemKind, u64); 5] = [
        (SystemKind::ShoreMt, 0xa3c80c359c3c37ea),
        (SystemKind::DbmsD, 0xff5e1476a936e732),
        (SystemKind::VoltDb, 0x8d1378dc306ed5b6),
        (SystemKind::HyPer, 0x98ccea2794f49138),
        (DBMS_M_HASH, 0x9dd8ef2121842c79),
    ];
    check(&golden, "micro-rw strings", micro_rw_strings_digest);
}

#[test]
fn tpcc_per_module_counters_match_golden() {
    let golden: [(SystemKind, u64); 5] = [
        (TPCC_SYSTEMS[0], 0xc4716a53e224cfd7),
        (TPCC_SYSTEMS[1], 0x95423ce1e12599c1),
        (TPCC_SYSTEMS[2], 0xe5909a3383da790c),
        (TPCC_SYSTEMS[3], 0x1b6cf1e49370c750),
        (TPCC_SYSTEMS[4], 0x6716aa9a953eda18),
    ];
    check(&golden, "tpcc", tpcc_digest);
}

#[test]
fn durable_runs_and_log_streams_match_golden() {
    let golden: [(SystemKind, u64); 5] = [
        (SystemKind::ShoreMt, 0x25b058f1568196ef),
        (SystemKind::DbmsD, 0x999de5b2e528d0df),
        (SystemKind::VoltDb, 0x351097b263b8b62d),
        (SystemKind::HyPer, 0x9c944e019107846d),
        (DBMS_M_HASH, 0xa2852d6ea3b45d49),
    ];
    check(&golden, "durable", durable_digest);
}

#[test]
fn two_session_latch_contention_matches_golden() {
    let golden: [(SystemKind, u64); 2] = [
        (SystemKind::ShoreMt, 0x399d5697c681c93a),
        (SystemKind::DbmsD, 0x73315c0919874750),
    ];
    check(&golden, "two sessions", |kind| {
        micro_digest_two_cores(kind, MachineConfig::ivy_bridge(2))
    });
}

#[test]
fn multi_partition_paths_match_golden() {
    let golden: [(SystemKind, u64); 2] = [
        (SystemKind::VoltDb, 0x1903a1f307b1daf4),
        (SystemKind::HyPer, 0x1aa66a497793c8a1),
    ];
    check(&golden, "islands cross-socket", islands_digest);
    assert_eq!(
        voltdb_multi_sited_digest(),
        0x02fb7e21678b7578,
        "VoltDB without the single-site guarantee"
    );
}

#[test]
#[ignore = "capture helper"]
fn print_digests() {
    for kind in SystemKind::ALL {
        println!("micro {kind:?}: {:#018x}", micro_digest(kind));
        println!(
            "micro-rw-strings {kind:?}: {:#018x}",
            micro_rw_strings_digest(kind)
        );
        println!("tpcb {kind:?}: {:#018x}", tpcb_digest(kind));
        println!("durable {kind:?}: {:#018x}", durable_digest(kind));
    }
    for kind in TPCC_SYSTEMS {
        println!("tpcc {kind:?}: {:#018x}", tpcc_digest(kind));
    }
    for kind in [SystemKind::ShoreMt, SystemKind::DbmsD] {
        let d = micro_digest_two_cores(kind, MachineConfig::ivy_bridge(2));
        println!("two sessions {kind:?}: {d:#018x}");
    }
    for kind in [SystemKind::VoltDb, SystemKind::HyPer] {
        println!("islands {kind:?}: {:#018x}", islands_digest(kind));
    }
    println!("voltdb multi-sited: {:#018x}", voltdb_multi_sited_digest());
}
