//! The direct-session workloads: worker sessions driven straight by the
//! `microarch` measurement loop, as the figure harness runs them.
//!
//! One part of an untraced run builds the engine one or more times (the
//! set-up is what `setup_s` times), runs a fixed digest window on the
//! last build, and keeps it running in fixed-size chunks until its share
//! of the run phase is over. Throughputs are quantiles over chunks.
//!
//! `Engine`, `Conn` and `Slot` are held as enums and mutexes so that one
//! code path serves 1 and 2 workers, durable or not, traced or not.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bench::recover::ApplyDb;
use engines::{DurabilityCfg, DurableDb, LogStatus, SystemBuilder, SystemKind};
use microarch::{measure, measure_workers, Measurement, Pacing, WindowSpec};
use oltp::{Db, Session};
use uarch_sim::{EventCounts, MachineConfig, Sim};
use workloads::Workload;

use crate::layers::{Layers, PHASES};
use crate::report::{quantile, Fnv};
use crate::timed::{TimedDb, TimedSession};
use crate::Outcome;

/// Chunks in the digest window.
const DIGEST_CHUNKS: usize = 2;

/// One direct-session workload.
pub struct Plan<W> {
    pub system: SystemKind,
    pub workers: usize,
    /// Switch the engine's log into durable mode (epoch group commit on
    /// a simulated NVMe log device) and recover it after the run.
    pub durable: bool,
    /// Transactions per worker in one timed chunk.
    pub chunk: u64,
    pub make: fn(u64) -> W,
    /// Workload-specific output check after the run.
    pub check: fn(&W, &dyn Db) -> Result<(), String>,
}

enum Engine {
    Plain(Box<dyn Db>),
    Durable(Box<dyn DurableDb>),
}

impl Engine {
    fn db(&self) -> &dyn Db {
        match self {
            Engine::Plain(d) => d.as_ref(),
            Engine::Durable(d) => d.as_ref(),
        }
    }

    fn db_mut(&mut self) -> &mut dyn Db {
        match self {
            Engine::Plain(d) => d.as_mut(),
            Engine::Durable(d) => d.as_mut(),
        }
    }

    fn durable(&mut self) -> Option<&mut dyn DurableDb> {
        match self {
            Engine::Plain(_) => None,
            Engine::Durable(d) => Some(d.as_mut()),
        }
    }
}

enum Conn {
    Plain(Box<dyn Session>),
    Timed(Box<TimedSession>),
}

impl Conn {
    fn get(&mut self) -> &mut dyn Session {
        match self {
            Conn::Plain(s) => s.as_mut(),
            Conn::Timed(s) => s.as_mut(),
        }
    }

    fn inside_ns(&self) -> u64 {
        match self {
            Conn::Plain(_) => 0,
            Conn::Timed(s) => s.stats.host_ns(),
        }
    }
}

/// One worker's session and what it saw.
struct Slot {
    conn: Conn,
    txns: u64,
    errors: u64,
    /// Traced runs: host time of each `Workload::exec`.
    steps_ns: Vec<u64>,
    /// Traced runs: `exec` time outside the session's calls.
    exec_self_ns: u64,
}

/// Host times of one set-up: in total, in `Workload::setup`, in the
/// `finish_load` it calls, and in `Sim::warm_data`.
#[derive(Default)]
pub struct SetupTimes {
    pub total: f64,
    pub workload: f64,
    pub finish_load: f64,
    pub warm_data: f64,
}

/// One timed chunk of the run phase.
struct Chunk {
    secs: f64,
    m: Measurement,
}

struct Instance<W> {
    sim: Sim,
    engine: Engine,
    w: Mutex<W>,
    slots: Vec<Mutex<Slot>>,
    traced: bool,
    /// Log coordinates when the run phase starts (durable only).
    log_start: Vec<LogStatus>,
}

fn durability() -> DurabilityCfg {
    DurabilityCfg {
        epoch: 8,
        ..DurabilityCfg::default()
    }
}

impl<W: Workload> Plan<W> {
    /// Build the machine and engine, bulk-load, warm the caches and open
    /// the worker sessions: everything before the first timed
    /// transaction.
    fn setup(&self, seed: u64, traced: bool) -> (Instance<W>, SetupTimes) {
        let t0 = Instant::now();
        let sim = Sim::new(MachineConfig::ivy_bridge(self.workers));
        let builder = SystemBuilder::new(self.system).cores(self.workers);
        let mut engine = if self.durable {
            let mut d = builder.build_durable(&sim);
            // Durable from the first record: the load itself is logged,
            // so recovery rebuilds into an empty target.
            d.enable_durability(&durability());
            Engine::Durable(d)
        } else {
            Engine::Plain(builder.build(&sim))
        };
        let mut w = (self.make)(seed);
        let mut times = SetupTimes::default();

        let t = Instant::now();
        if traced {
            let mut db = TimedDb {
                inner: engine.db_mut(),
                finish_load: Duration::ZERO,
            };
            sim.offline(|| w.setup(&mut db, self.workers));
            times.finish_load = db.finish_load.as_secs_f64();
        } else {
            sim.offline(|| w.setup(engine.db_mut(), self.workers));
        }
        times.workload = t.elapsed().as_secs_f64();

        let t = Instant::now();
        sim.warm_data();
        times.warm_data = t.elapsed().as_secs_f64();

        let mut log_start = Vec::new();
        if let Some(d) = engine.durable() {
            // Make the load durable, then re-attach a fresh log device:
            // the offline load queued its whole volume on the device
            // while the cycle clock stood still.
            d.flush_all();
            d.enable_durability(&durability());
            let _ = d.take_commit_latencies();
            log_start = d.log_status();
        }

        let slots = (0..self.workers)
            .map(|worker| {
                let s = engine.db().session(worker);
                let conn = if traced {
                    Conn::Timed(Box::new(TimedSession::new(s, &sim)))
                } else {
                    Conn::Plain(s)
                };
                Mutex::new(Slot {
                    conn,
                    txns: 0,
                    errors: 0,
                    steps_ns: Vec::new(),
                    exec_self_ns: 0,
                })
            })
            .collect();
        times.total = t0.elapsed().as_secs_f64();
        let inst = Instance {
            sim,
            engine,
            w: Mutex::new(w),
            slots,
            traced,
            log_start,
        };
        (inst, times)
    }

    /// `first` is false in the second and later parts of an untraced
    /// run, which skip the durable log's recovery: every part runs the
    /// same seed, so one recovery checks them all.
    pub fn run(&self, seed: u64, seconds: f64, traced: bool, first: bool) -> Outcome {
        let mut out = Outcome::default();
        if traced {
            self.run_traced(seed, seconds, &mut out);
        } else {
            self.run_untraced(seed, seconds, first, &mut out);
        }
        out
    }

    /// One part of an untraced run: set up (repeatedly, while set-ups
    /// are cheap), run the digest window, and carry on until the run
    /// phase has lasted `seconds`.
    fn run_untraced(&self, seed: u64, seconds: f64, recover: bool, out: &mut Outcome) {
        let mut inst = loop {
            let (inst, times) = self.setup(seed, false);
            out.setup_s.push(times.total);
            if crate::setups_done(&out.setup_s) {
                break inst;
            }
        };
        let mut chunks: Vec<Chunk> = (0..DIGEST_CHUNKS).map(|_| inst.chunk(self.chunk)).collect();
        out.digest(inst.digest());
        while chunks.iter().map(|c| c.secs).sum::<f64>() < seconds {
            chunks.push(inst.chunk(self.chunk));
        }
        inst.tally(out);
        self.finish(&mut inst, recover, out, &mut Layers::default());
        for c in &chunks {
            out.txn_per_s.push(c.m.txns as f64 / c.secs);
            out.minstr_per_s
                .push(c.m.counts.instructions as f64 / 1e6 / c.secs);
        }
    }

    fn run_traced(&self, seed: u64, seconds: f64, out: &mut Outcome) {
        // The same digest window untraced, then traced: the digests must
        // agree and the time ratio is the tracing overhead.
        let (inst, _) = self.setup(seed, false);
        let untraced: f64 = (0..DIGEST_CHUNKS)
            .map(|_| inst.chunk(self.chunk).secs)
            .sum();
        out.digest(inst.digest());
        inst.tally(out);
        drop(inst);

        let (mut inst, times) = self.setup(seed, true);
        let reg = obs::metrics::registry();
        let reg0 = reg.snapshot();
        if self.workers == 1 {
            obs::install(obs::Tracer::new(&inst.sim));
        }
        let mut chunks: Vec<Chunk> = (0..DIGEST_CHUNKS).map(|_| inst.chunk(self.chunk)).collect();
        let traced: f64 = chunks.iter().map(|c| c.secs).sum();
        out.digest(inst.digest());
        while chunks.iter().map(|c| c.secs).sum::<f64>() < seconds {
            chunks.push(inst.chunk(self.chunk));
        }
        obs::uninstall();
        let delta = reg.snapshot().delta(&reg0);

        let cfg = inst.sim.config();
        let run_secs: f64 = chunks.iter().map(|c| c.secs).sum();
        let txns: u64 = chunks.iter().map(|c| c.m.txns).sum();
        let per_txn = |v: f64| v / txns as f64;
        let mut counts = EventCounts::default();
        let mut phase_cycles = [0.0; 5];
        for c in &chunks {
            counts.add(&c.m.counts);
            for p in &c.m.phases {
                if let Some(i) = PHASES.iter().position(|&x| x == p.phase) {
                    phase_cycles[i] += cfg.cycles(&p.counts);
                }
            }
        }
        let mut l = Layers {
            setup_s: times.workload,
            finish_load_s: times.finish_load,
            warm_data_s: times.warm_data,
            trace_overhead: traced / untraced,
            commits: crate::registry_sum(&delta, "txn_commits_total"),
            aborts: crate::registry_sum(&delta, "txn_aborts_total"),
            latch_waits: crate::registry_sum(&delta, "latch_waits_total"),
            ..Layers::default()
        };
        let mut steps = Vec::new();
        let mut exec_self_ns = 0;
        for slot in &inst.slots {
            let slot = slot.lock().expect("worker slot poisoned");
            if let Conn::Timed(s) = &slot.conn {
                l.ops.add(&s.stats);
            }
            steps.extend(slot.steps_ns.iter().map(|&ns| ns as f64 / 1e3));
            exec_self_ns += slot.exec_self_ns;
        }
        l.exec_self_us = per_txn(exec_self_ns as f64 / 1e3);
        l.handoff_us = per_txn((run_secs * 1e9 - steps.iter().sum::<f64>() * 1e3) / 1e3);
        l.step_p50_us = quantile(&steps, 0.5);
        l.step_p99_us = quantile(&steps, 0.99);
        l.step_samples = steps.len() as f64;
        for (dst, c) in l.phase_cycles_per_txn.iter_mut().zip(phase_cycles) {
            *dst = per_txn(c);
        }
        l.set_sim(&cfg, &counts, txns as f64, self.workers, run_secs);

        inst.tally(out);
        self.finish(&mut inst, true, out, &mut l);
        out.metrics = l.metrics();
    }

    /// Output checks after the run. With `recover`, a durable engine's
    /// log is first drained, harvested and recovered, with the costs put
    /// in `l`.
    fn finish(&self, inst: &mut Instance<W>, recover: bool, out: &mut Outcome, l: &mut Layers) {
        let log_start = std::mem::take(&mut inst.log_start);
        if let (true, Some(d)) = (recover, inst.engine.durable()) {
            recover_log(d, &log_start, out, l);
        }
        let w = inst.w.lock().expect("workload lock poisoned");
        if let Err(e) = (self.check)(&w, inst.engine.db()) {
            out.fail(e);
        }
    }
}

/// Drain the log, harvest every stream, recover it, and check the
/// recovered state against an independent reference replay.
fn recover_log(d: &mut dyn DurableDb, log_start: &[LogStatus], out: &mut Outcome, l: &mut Layers) {
    let t = Instant::now();
    d.flush_all();
    l.flush_all_s = t.elapsed().as_secs_f64();
    for (a, b) in log_start.iter().zip(&d.log_status()) {
        l.wal_bytes += (b.stats.bytes_appended - a.stats.bytes_appended) as f64;
        l.wal_flushes += (b.stats.flushes - a.stats.flushes) as f64;
        l.wal_records += (b.horizon.0 - a.horizon.0) as f64;
        if let Some(dev) = b.device {
            l.iodev_submits += dev.submits as f64;
            l.iodev_queue_wait += dev.queue_wait;
        }
    }
    let lat = d.take_commit_latencies();
    l.commit_cycles_p50 = quantile(&lat, 0.5);
    l.commit_cycles_p99 = quantile(&lat, 0.99);

    let t = Instant::now();
    let streams = d.log_streams();
    l.log_streams_s = t.elapsed().as_secs_f64();
    let records: usize = streams.iter().map(Vec::len).sum();

    let t = Instant::now();
    let mut recovered = ApplyDb::new();
    for recs in &streams {
        if let Err(e) = storage::recover(None, recs, &mut recovered) {
            out.fail(format!("recovery failed: {e:?}"));
        }
    }
    l.recover_s = t.elapsed().as_secs_f64();
    l.recover_records_per_s = records as f64 / l.recover_s;
    let digests = recovered.digests();
    drop(recovered);

    let t = Instant::now();
    let mut reference = ApplyDb::new();
    for recs in &streams {
        if let Err(e) = storage::replay(recs, &mut reference) {
            out.fail(format!("reference replay failed: {e:?}"));
        }
    }
    l.replay_s = t.elapsed().as_secs_f64();
    if digests.is_empty() || digests != reference.digests() {
        out.fail("recovered state differs from the reference replay".into());
    }
}

impl<W: Workload> Instance<W> {
    /// Run one transaction on `worker`'s session.
    fn step(&self, worker: usize) {
        let mut slot = self.slots[worker].lock().expect("worker slot poisoned");
        let slot = &mut *slot;
        let mut w = self.w.lock().expect("workload lock poisoned");
        let r = if self.traced {
            let inside = slot.conn.inside_ns();
            let t0 = Instant::now();
            let r = w.exec(slot.conn.get(), worker);
            let ns = t0.elapsed().as_nanos() as u64;
            slot.steps_ns.push(ns);
            slot.exec_self_ns += ns.saturating_sub(slot.conn.inside_ns() - inside);
            r
        } else {
            w.exec(slot.conn.get(), worker)
        };
        slot.txns += 1;
        if r.is_err() {
            // Workloads return errors with the transaction still open.
            slot.errors += 1;
            slot.conn.get().abort();
        }
    }

    /// `n` transactions per worker, timed from outside the measurement
    /// call. Several workers take turns in deterministic lockstep, one
    /// host thread each.
    fn chunk(&self, n: u64) -> Chunk {
        let spec = WindowSpec {
            warmup: 0,
            measured: n,
            reps: 1,
        };
        let t0 = Instant::now();
        let m = if self.slots.len() == 1 {
            measure(&self.sim, 0, spec, |_| self.step(0))
        } else {
            let cores: Vec<usize> = (0..self.slots.len()).collect();
            measure_workers(&self.sim, &cores, spec, Pacing::Lockstep, |worker| {
                let mut install = self.traced;
                move |_| {
                    if install {
                        // Tracers are thread-local: one per worker thread.
                        obs::install(obs::Tracer::new(&self.sim));
                        install = false;
                    }
                    self.step(worker);
                }
            })
        };
        Chunk {
            secs: t0.elapsed().as_secs_f64(),
            m,
        }
    }

    /// FNV over every core's cumulative event counters.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for c in self.sim.counters_all() {
            h.counts(&c);
        }
        h.0
    }

    /// Add this instance's transactions and failures to the outcome.
    fn tally(&self, out: &mut Outcome) {
        for slot in &self.slots {
            let slot = slot.lock().expect("worker slot poisoned");
            out.attempted += slot.txns;
            out.failed += slot.errors;
            if slot.errors > 0 {
                out.fail(format!("{} transaction(s) returned an error", slot.errors));
            }
        }
    }
}
