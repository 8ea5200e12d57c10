//! The per-layer metrics of a traced run, named after the crates.
//!
//! Every workload prints every row; a layer that a workload does not
//! reach reads 0 (for example `storage.*` off the durable workload and
//! `service.*` off serve-10k).

use uarch_sim::{EventCounts, MachineConfig};

use crate::report::Metrics;
use crate::timed::{OpStats, OPS};

/// Phases of the engines' own `obs` spans reported per transaction.
pub const PHASES: [&str; 5] = ["dispatch", "index", "storage", "log", "commit"];
/// The six stall classes, in `uarch_sim::StallEvent` order.
pub const SPKI: [&str; 6] = ["l1i", "l2i", "llc-i", "l1d", "l2d", "llc-d"];
/// The service front end's stages.
pub const STAGES: [&str; 3] = ["parse", "dispatch", "respond"];

#[derive(Default)]
pub struct Layers {
    // workloads
    pub setup_s: f64,
    pub exec_self_us: f64,
    // microarch
    pub handoff_us: f64,
    pub step_p50_us: f64,
    pub step_p99_us: f64,
    pub step_samples: f64,
    // engines
    pub ops: OpStats,
    pub finish_load_s: f64,
    pub commits: f64,
    pub aborts: f64,
    pub latch_waits: f64,
    pub phase_cycles_per_txn: [f64; 5],
    // storage
    pub wal_bytes: f64,
    pub wal_flushes: f64,
    pub wal_records: f64,
    pub flush_all_s: f64,
    pub log_streams_s: f64,
    pub recover_s: f64,
    pub replay_s: f64,
    pub recover_records_per_s: f64,
    pub commit_cycles_p50: f64,
    pub commit_cycles_p99: f64,
    // uarch_sim
    pub warm_data_s: f64,
    pub host_ns_per_access: f64,
    pub ipc: f64,
    pub cycles_per_txn: f64,
    pub instr_per_txn: f64,
    pub sim_tps: f64,
    pub spki: [f64; 6],
    pub iodev_submits: f64,
    pub iodev_queue_wait: f64,
    // service
    pub run_s: f64,
    pub admitted: f64,
    pub shed: f64,
    pub queue_high_water: f64,
    pub pool_busy: f64,
    pub frontend_share: f64,
    pub stage_cycles_per_txn: [f64; 3],
    // obs
    pub trace_overhead: f64,
}

impl Layers {
    /// The `uarch_sim` rows for `txns` transactions whose counters, summed
    /// over `cores` cores that run side by side, are `counts`, and which
    /// took `host_s` of host time.
    pub fn set_sim(
        &mut self,
        cfg: &MachineConfig,
        counts: &EventCounts,
        txns: f64,
        cores: usize,
        host_s: f64,
    ) {
        let cycles = cfg.cycles(counts);
        self.host_ns_per_access =
            host_s * 1e9 / (counts.code_fetches + counts.loads + counts.stores) as f64;
        self.ipc = cfg.ipc(counts);
        self.cycles_per_txn = cycles / txns;
        self.instr_per_txn = counts.instructions as f64 / txns;
        self.sim_tps = txns / (cycles / cores as f64 / (cfg.clock_ghz * 1e9));
        for (dst, s) in self.spki.iter_mut().zip(cfg.stall_cycles(counts)) {
            *dst = s / (counts.instructions as f64 / 1e3);
        }
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("workloads.setup_s", self.setup_s, "s");
        m.put("workloads.exec_self_us", self.exec_self_us, "us");

        m.put("microarch.handoff_us", self.handoff_us, "us");
        m.put("microarch.step_us.p50", self.step_p50_us, "us");
        m.put("microarch.step_us.p99", self.step_p99_us, "us");
        m.put("microarch.step_us.samples", self.step_samples, "count");

        for (op, s) in OPS.iter().zip(&self.ops.ops) {
            m.put(format!("engines.{op}.calls"), s.calls as f64, "count");
            m.put(format!("engines.{op}.host_ns"), s.host_ns as f64, "ns");
            m.put(format!("engines.{op}.sim_cycles"), s.sim_cycles, "cycles");
            m.put(
                format!("engines.{op}.host_ns_per_cycle"),
                s.host_ns as f64 / s.sim_cycles,
                "ns/cycle",
            );
            m.put(format!("engines.{op}.errors"), s.errors as f64, "count");
        }
        m.put("engines.finish_load_s", self.finish_load_s, "s");
        m.put("engines.commits", self.commits, "count");
        m.put("engines.aborts", self.aborts, "count");
        m.put("engines.latch_waits", self.latch_waits, "count");
        for (p, v) in PHASES.iter().zip(self.phase_cycles_per_txn) {
            m.put(format!("engines.phase.{p}.cycles_per_txn"), v, "cycles");
        }

        m.put("storage.wal.bytes", self.wal_bytes, "bytes");
        m.put("storage.wal.flushes", self.wal_flushes, "count");
        m.put("storage.wal.records", self.wal_records, "count");
        m.put("storage.flush_all_s", self.flush_all_s, "s");
        m.put("storage.log_streams_s", self.log_streams_s, "s");
        m.put("storage.recover_s", self.recover_s, "s");
        m.put("storage.replay_s", self.replay_s, "s");
        m.put(
            "storage.recover_records_per_s",
            self.recover_records_per_s,
            "1/s",
        );
        m.put(
            "storage.commit_cycles.p50",
            self.commit_cycles_p50,
            "cycles",
        );
        m.put(
            "storage.commit_cycles.p99",
            self.commit_cycles_p99,
            "cycles",
        );

        m.put("uarch_sim.warm_data_s", self.warm_data_s, "s");
        m.put(
            "uarch_sim.host_ns_per_access",
            self.host_ns_per_access,
            "ns",
        );
        m.put("uarch_sim.ipc", self.ipc, "ratio");
        m.put("uarch_sim.cycles_per_txn", self.cycles_per_txn, "cycles");
        m.put("uarch_sim.instr_per_txn", self.instr_per_txn, "instr");
        m.put("uarch_sim.sim_tps", self.sim_tps, "txn/s");
        for (c, v) in SPKI.iter().zip(self.spki) {
            m.put(format!("uarch_sim.spki.{c}"), v, "cycles/kinstr");
        }
        m.put("uarch_sim.iodev.submits", self.iodev_submits, "count");
        m.put(
            "uarch_sim.iodev.queue_wait",
            self.iodev_queue_wait,
            "cycles",
        );

        m.put("service.run_s", self.run_s, "s");
        m.put("service.admitted", self.admitted, "count");
        m.put("service.shed", self.shed, "count");
        m.put("service.queue_high_water", self.queue_high_water, "count");
        m.put("service.pool_busy", self.pool_busy, "count");
        m.put("service.frontend_share", self.frontend_share, "ratio");
        for (s, v) in STAGES.iter().zip(self.stage_cycles_per_txn) {
            m.put(format!("service.stage.{s}.cycles_per_txn"), v, "cycles");
        }

        m.put("obs.trace_overhead", self.trace_overhead, "ratio");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows a traced run prints are exactly the `per_layer` metrics
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn rows_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
        let declared: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(|p| p.as_arr())
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        let metrics = Layers::default().metrics();
        let printed: Vec<(&str, &str)> =
            metrics.0.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
        assert_eq!(printed, declared);
    }
}
