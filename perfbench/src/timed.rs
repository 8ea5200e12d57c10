//! Traced-run instrumentation: decorators that time calls into the
//! engine layer from outside, and read the simulator's counters around
//! each call. Nothing here runs in an untraced run.

use std::time::{Duration, Instant};

use oltp::{Db, OltpResult, Row, Session, TableDef, TableId, Value};
use uarch_sim::{MachineConfig, Sim};

/// The `Session` operations the benchmark accounts for, in report order.
pub const OPS: [&str; 7] = [
    "begin", "read", "update", "insert", "scan", "delete", "commit",
];

const BEGIN: usize = 0;
const READ: usize = 1;
const UPDATE: usize = 2;
const INSERT: usize = 3;
const SCAN: usize = 4;
const DELETE: usize = 5;
const COMMIT: usize = 6;

/// Per-operation totals of one worker's session.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStat {
    pub calls: u64,
    pub host_ns: u64,
    pub sim_cycles: f64,
    pub errors: u64,
}

/// Totals for every operation in [`OPS`], plus the time spent in `abort`
/// (which the report folds into no operation but subtracts from the
/// workload's own time).
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    pub ops: [OpStat; 7],
    pub abort_ns: u64,
}

impl OpStats {
    pub fn add(&mut self, other: &OpStats) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            a.calls += b.calls;
            a.host_ns += b.host_ns;
            a.sim_cycles += b.sim_cycles;
            a.errors += b.errors;
        }
        self.abort_ns += other.abort_ns;
    }

    /// Host time spent inside the wrapped session.
    pub fn host_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.host_ns).sum::<u64>() + self.abort_ns
    }
}

/// A [`Session`] that times every call and charges it the simulated
/// cycles its core advanced meanwhile.
pub struct TimedSession {
    inner: Box<dyn Session>,
    sim: Sim,
    cfg: MachineConfig,
    core: usize,
    pub stats: OpStats,
}

impl TimedSession {
    pub fn new(inner: Box<dyn Session>, sim: &Sim) -> Self {
        let core = inner.core();
        TimedSession {
            inner,
            sim: sim.clone(),
            cfg: sim.config(),
            core,
            stats: OpStats::default(),
        }
    }

    fn timed<T>(
        &mut self,
        op: usize,
        f: impl FnOnce(&mut dyn Session) -> OltpResult<T>,
    ) -> OltpResult<T> {
        let c0 = self.cfg.cycles(&self.sim.counters(self.core));
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t0.elapsed().as_nanos() as u64;
        let c1 = self.cfg.cycles(&self.sim.counters(self.core));
        let s = &mut self.stats.ops[op];
        s.calls += 1;
        s.host_ns += ns;
        s.sim_cycles += c1 - c0;
        s.errors += u64::from(r.is_err());
        r
    }
}

impl Session for TimedSession {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn core(&self) -> usize {
        self.core
    }
    fn begin(&mut self) {
        let _ = self.timed(BEGIN, |s| {
            s.begin();
            Ok(())
        });
    }
    fn commit(&mut self) -> OltpResult<()> {
        self.timed(COMMIT, |s| s.commit())
    }
    fn abort(&mut self) {
        let t0 = Instant::now();
        self.inner.abort();
        self.stats.abort_ns += t0.elapsed().as_nanos() as u64;
    }
    fn insert(&mut self, table: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        self.timed(INSERT, |s| s.insert(table, key, row))
    }
    fn read_with(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&[Value]),
    ) -> OltpResult<bool> {
        self.timed(READ, |s| s.read_with(table, key, f))
    }
    fn update(
        &mut self,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> OltpResult<bool> {
        self.timed(UPDATE, |s| s.update(table, key, f))
    }
    fn scan(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        self.timed(SCAN, |s| s.scan(table, lo, hi, f))
    }
    fn delete(&mut self, table: TableId, key: u64) -> OltpResult<bool> {
        self.timed(DELETE, |s| s.delete(table, key))
    }
}

/// A [`Db`] that times `finish_load`, which workloads call from inside
/// `Workload::setup`. Sessions opened through it (the loader's) are not
/// decorated: the operation table covers the run phase only.
pub struct TimedDb<'a> {
    pub inner: &'a mut dyn Db,
    pub finish_load: Duration,
}

impl Db for TimedDb<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn partitions(&self) -> usize {
        self.inner.partitions()
    }
    fn create_table(&mut self, def: TableDef) -> TableId {
        self.inner.create_table(def)
    }
    fn finish_load(&mut self) {
        let t0 = Instant::now();
        self.inner.finish_load();
        self.finish_load += t0.elapsed();
    }
    fn row_count(&self, table: TableId) -> u64 {
        self.inner.row_count(table)
    }
    fn session(&self, core: usize) -> Box<dyn Session> {
        self.inner.session(core)
    }
}
