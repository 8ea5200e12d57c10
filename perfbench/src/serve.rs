//! serve-10k: micro-benchmark traffic through the wire-protocol service
//! front end, ten thousand simulated connections on two pooled sessions.
//!
//! `Service::run` builds its own machine and engine, so the run phase is
//! a sequence of whole `Service::run` calls with one seed, each of which
//! must reproduce the same simulated state. `setup_s` times the same
//! engine set-up the service performs before its window (engine,
//! bulk-load, `finish_load`, `warm_data`), repeated outside it.

use std::time::{Duration, Instant};

use engines::{SystemBuilder, SystemKind};
use microarch::WindowSpec;
use service::{AdmissionPolicy, ServeReport, ServiceBuilder, WorkloadFactory};
use uarch_sim::{MachineConfig, Sim};
use workloads::Workload;

use crate::direct::SetupTimes;
use crate::layers::{Layers, PHASES, STAGES};
use crate::report::{median, Fnv};
use crate::timed::TimedDb;
use crate::{micro_rw, setups_done, Outcome};

const SYSTEM: SystemKind = SystemKind::HyPer;
const SESSIONS: usize = 2;
const CONNECTIONS: usize = 10_000;
/// Dispatch turns per core in one `Service::run` call. No warm-up turns:
/// the window then covers every executed transaction.
const TURNS: u64 = 4_000;

fn service(seed: u64) -> service::Service {
    let factory: WorkloadFactory = Box::new(move || Box::new(micro_rw(seed)) as Box<dyn Workload>);
    ServiceBuilder::new(SYSTEM, "micro-rw", factory)
        .connections(CONNECTIONS)
        .pool(SESSIONS)
        .admission(AdmissionPolicy { queue_cap: 64 })
        .batch(4)
        .seed(seed)
        .window(WindowSpec {
            warmup: 0,
            measured: TURNS,
            reps: 1,
        })
        .compare_direct(false)
        .build()
}

/// Host times of the engine set-up the service performs.
fn setup(seed: u64) -> SetupTimes {
    let t0 = Instant::now();
    let sim = Sim::new(MachineConfig::ivy_bridge(SESSIONS));
    let mut db = SystemBuilder::new(SYSTEM).cores(SESSIONS).build(&sim);
    let mut w = micro_rw(seed);
    let t = Instant::now();
    let mut tdb = TimedDb {
        inner: db.as_mut(),
        finish_load: Duration::ZERO,
    };
    sim.offline(|| w.setup(&mut tdb, SESSIONS));
    let finish_load = tdb.finish_load.as_secs_f64();
    let workload = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sim.warm_data();
    let warm_data = t.elapsed().as_secs_f64();
    SetupTimes {
        total: t0.elapsed().as_secs_f64(),
        workload,
        finish_load,
        warm_data,
    }
}

/// One timed `Service::run`.
struct Call {
    secs: f64,
    r: ServeReport,
}

fn call(svc: &service::Service, out: &mut Outcome) -> Call {
    let t0 = Instant::now();
    let r = svc.run();
    let secs = t0.elapsed().as_secs_f64();
    let mut h = Fnv::new();
    for w in [r.digest, r.executed, r.committed, r.admitted, r.shed] {
        h.word(w);
    }
    h.counts(&r.measurement.counts);
    out.digest(h.0);
    out.attempted += r.executed;
    out.failed += r.exec_errors;
    if r.exec_errors != 0 {
        out.fail(format!("{} service execution(s) failed", r.exec_errors));
    }
    if r.unattributed_instructions != 0 {
        out.fail(format!(
            "{} simulated instructions outside every service span",
            r.unattributed_instructions
        ));
    }
    if r.executed == 0 {
        out.fail("the service executed no transaction".into());
    }
    Call { secs, r }
}

fn run_calls(svc: &service::Service, seconds: f64, out: &mut Outcome) -> Vec<Call> {
    let mut calls = Vec::new();
    while calls.iter().map(|c: &Call| c.secs).sum::<f64>() < seconds {
        calls.push(call(svc, out));
    }
    calls
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let svc = service(seed);
    if !traced {
        while !setups_done(&out.setup_s) {
            out.setup_s.push(setup(seed).total);
        }
        for c in run_calls(&svc, seconds, &mut out) {
            out.txn_per_s.push(c.r.executed as f64 / c.secs);
            out.minstr_per_s
                .push(c.r.measurement.counts.instructions as f64 / 1e6 / c.secs);
        }
        return out;
    }

    // The benchmark adds nothing around `Service::run` in a traced run
    // (the service traces its own stages either way), so the overhead
    // ratio compares plain calls with calls bracketed by registry
    // snapshots.
    let untraced: Vec<f64> = (0..2).map(|_| call(&svc, &mut out).secs).collect();
    let reg = obs::metrics::registry();
    // Each call bulk-loads its own engine; the loader's commits, counted
    // on the same set-up outside the service, are taken off per call.
    let load0 = reg.snapshot();
    let times = setup(seed);
    let load = reg.snapshot().delta(&load0);
    let reg0 = reg.snapshot();
    let calls = run_calls(&svc, seconds, &mut out);
    let delta = reg.snapshot().delta(&reg0);
    let per_call = |name: &str| -> f64 {
        let calls = calls.len() as f64;
        (crate::registry_sum(&delta, name) - calls * crate::registry_sum(&load, name)) / calls
    };
    let secs: Vec<f64> = calls.iter().map(|c| c.secs).collect();
    // Every call reproduces the same simulated run; report the last.
    let r = &calls.last().expect("at least one call").r;
    let cfg = MachineConfig::ivy_bridge(SESSIONS);
    let executed = r.executed as f64;
    let mut l = Layers {
        setup_s: times.workload,
        finish_load_s: times.finish_load,
        warm_data_s: times.warm_data,
        commits: per_call("txn_commits_total"),
        aborts: per_call("txn_aborts_total"),
        latch_waits: per_call("latch_waits_total"),
        run_s: median(&secs),
        admitted: r.admitted as f64,
        shed: r.shed as f64,
        queue_high_water: r.queue_high_water as f64,
        pool_busy: r.pool.busy as f64,
        frontend_share: r.frontend_share(),
        trace_overhead: median(&secs) / median(&untraced),
        ..Layers::default()
    };
    l.set_sim(
        &cfg,
        &r.measurement.counts,
        executed,
        SESSIONS,
        median(&secs),
    );
    for p in &r.measurement.phases {
        let per_txn = cfg.cycles(&p.counts) / executed;
        if p.engine == "svc" {
            if let Some(i) = STAGES.iter().position(|&x| x == p.phase) {
                l.stage_cycles_per_txn[i] += per_txn;
            }
        } else if let Some(i) = PHASES.iter().position(|&x| x == p.phase) {
            l.phase_cycles_per_txn[i] += per_txn;
        }
    }
    out.metrics = l.metrics();
    out
}
