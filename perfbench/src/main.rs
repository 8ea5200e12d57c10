//! perfbench — the repository benchmark: host cost per simulated
//! transaction, one named workload per run.
//!
//! ```text
//! perfbench --workload <tpcc-disk|micro-lockstep|durable-tpcb|serve-10k>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones (see README.md). The last line of standard output
//! is one JSON object; the exit code is nonzero when any output check
//! fails.

mod direct;
mod layers;
mod report;
mod serve;
mod timed;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use engines::SystemKind;
use obs::json::Json;
use oltp::Db;
use workloads::tpcc::TpcCScale;
use workloads::{DbSize, MicroBench, TpcB, TpcC};

use crate::direct::Plan;
use crate::report::{quantile, Metrics};

/// Processes an untraced run is split into. Host speed differs between
/// processes of one program (hash seeds, address-space layout), so the
/// run pools three processes' samples rather than one's.
const PARTS: usize = 3;
/// Cheap set-ups repeat within a part until they have taken this long,
/// so that a quantile of them is steady too.
const SETUP_MIN_S: f64 = 0.35;
/// The quantile of a run's set-up times that `setup_s` reports. A
/// set-up computes on one thread, like a one-worker run (see
/// [`rate_quantile`]): back to back in one process, micro-lockstep's took
/// 10.5 ms while the host left it alone and about 16 ms while it did not,
/// and the median of a run's set-ups drifted with the host by a fifth
/// between sets of runs minutes apart. The 10th percentile reads the
/// faster speed; work moved into set-up still adds to every sample.
const SETUP_QUANTILE: f64 = 0.1;

/// Whether a part has gathered enough set-up times.
pub fn setups_done(times: &[f64]) -> bool {
    times.iter().sum::<f64>() >= SETUP_MIN_S
}

const WORKLOADS: [&str; 4] = ["tpcc-disk", "micro-lockstep", "durable-tpcb", "serve-10k"];

/// The quantile of a run's per-chunk rates that `host_txn_per_s` and
/// `sim_minstr_per_s` report.
///
/// A one-worker workload spends its host time computing on one thread.
/// On a shared host that thread runs at one of two speeds, the slower
/// about 0.7 times the faster, for stretches of seconds as other tenants
/// come and go, so a median over chunks reads the share of the run the
/// host was busy. The 95th percentile reads the speed the program keeps
/// while the host leaves it alone, and still moves by the full amount
/// with a change to the program. The two-worker lockstep workloads spend
/// most of theirs waking the other thread's vCPU, whose cost has a slow
/// tail while the host is busy and a fast one while both threads share
/// a vCPU; for them the median is as steady as any quantile.
fn rate_quantile(workload: &str) -> f64 {
    match workload {
        "tpcc-disk" | "durable-tpcb" => 0.95,
        _ => 0.5,
    }
}

/// What one run (or one part of it) measured and whether its outputs
/// held.
#[derive(Default)]
pub struct Outcome {
    /// The metrics the run prints.
    pub metrics: Metrics,
    /// Untraced samples: host time of each set-up, and per-chunk rates.
    pub setup_s: Vec<f64>,
    pub txn_per_s: Vec<f64>,
    pub minstr_per_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Simulated-state digests of every repeat of the seed.
    pub digests: Vec<u64>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    pub fn digest(&mut self, d: u64) {
        self.digests.push(d);
    }

    /// The line a part process prints for its parent.
    fn part_json(&self) -> String {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj(vec![
            ("setup_s", nums(&self.setup_s)),
            ("txn_per_s", nums(&self.txn_per_s)),
            ("minstr_per_s", nums(&self.minstr_per_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::str(e)).collect()),
            ),
            (
                "digests",
                Json::Arr(
                    self.digests
                        .iter()
                        .map(|d| Json::str(&format!("{d:016x}")))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Fold in a part's line.
    fn absorb(&mut self, line: &str) -> Result<(), String> {
        let j = obs::json::parse(line)?;
        let field = |k: &str| j.get(k).ok_or(format!("part result lacks {k}"));
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            field(k)?
                .as_arr()
                .ok_or(format!("{k} is not a list"))?
                .iter()
                .map(|x| x.as_f64().ok_or(format!("{k} holds a non-number")))
                .collect()
        };
        let num = |k: &str| field(k)?.as_f64().ok_or(format!("{k} is not a number"));
        let strs = |k: &str| -> Result<Vec<String>, String> {
            field(k)?
                .as_arr()
                .ok_or(format!("{k} is not a list"))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{k} holds a non-string"))
                })
                .collect()
        };
        self.setup_s.extend(nums("setup_s")?);
        self.txn_per_s.extend(nums("txn_per_s")?);
        self.minstr_per_s.extend(nums("minstr_per_s")?);
        self.peak_rss_mb = self.peak_rss_mb.max(num("peak_rss_mb")?);
        self.attempted += num("attempted")? as u64;
        self.failed += num("failed")? as u64;
        self.errors.extend(strs("errors")?);
        for d in strs("digests")? {
            self.digests
                .push(u64::from_str_radix(&d, 16).map_err(|e| format!("digest {d}: {e}"))?);
        }
        Ok(())
    }
}

/// An untraced run: [`PARTS`] part processes, one after another, each
/// measuring a share of the run phase; their samples are pooled.
fn run_parts(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.fail(format!("cannot locate the benchmark binary: {e}"));
            return out;
        }
    };
    for part in 0..PARTS {
        let res = Command::new(&exe)
            .args(["--workload", &a.workload])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &(a.seconds / PARTS as f64).to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let line = match &res {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("part ").map(str::to_string)),
            _ => None,
        };
        match line.map(|l| out.absorb(&l)) {
            Some(Ok(())) => {}
            Some(Err(e)) => out.fail(format!("part {part}: {e}")),
            None => out.fail(format!("part {part} failed: {:?}", res.map(|o| o.status))),
        }
    }
    let q = rate_quantile(&a.workload);
    println!(
        "rates: quantile {q} of {} samples, setup: quantile {SETUP_QUANTILE} of {}",
        out.txn_per_s.len(),
        out.setup_s.len()
    );
    let mut m = Metrics::default();
    m.put("setup_s", quantile(&out.setup_s, SETUP_QUANTILE), "s");
    m.put("host_txn_per_s", quantile(&out.txn_per_s, q), "txn/s");
    m.put(
        "sim_minstr_per_s",
        quantile(&out.minstr_per_s, q),
        "Minstr/s",
    );
    out.metrics = m;
    out
}

/// Sum of one metric of an `obs::metrics` registry delta over all its
/// label sets.
pub fn registry_sum(delta: &obs::metrics::Snapshot, name: &str) -> f64 {
    delta
        .metrics
        .iter()
        .filter(|(k, _)| k.name == name)
        .filter_map(|(_, v)| v.scalar())
        .sum::<u64>() as f64
}

/// HyPer's micro-benchmark read-write mix, one row per transaction,
/// 1 MB (cache-resident).
pub fn micro_rw(seed: u64) -> MicroBench {
    MicroBench::new(DbSize::Mb1)
        .rows_per_txn(1)
        .read_write()
        .seed(seed)
}

fn tpcc(seed: u64) -> TpcC {
    TpcC::with_scale(TpcCScale::paper_100gb()).seed(seed)
}

fn tpcc_check(w: &TpcC, db: &dyn Db) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| w.check_consistency(db))).map_err(|e| {
        let why = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("TPC-C consistency check failed: {why}")
    })
}

fn tpcb(seed: u64) -> TpcB {
    TpcB::new().seed(seed)
}

/// Every AccountUpdate adds the same delta to one branch and one teller.
fn tpcb_check(w: &TpcB, db: &dyn Db) -> Result<(), String> {
    let (branch, teller) = (w.total_balance(db, "branch"), w.total_balance(db, "teller"));
    if branch != teller {
        return Err(format!(
            "TPC-B branch total {branch} != teller total {teller}"
        ));
    }
    Ok(())
}

fn no_check<W>(_: &W, _: &dyn Db) -> Result<(), String> {
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the part processes of an untraced run.
    part: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut part = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--part" => part = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

fn run(a: &Args) -> Outcome {
    let first = a.part.unwrap_or(0) == 0;
    match a.workload.as_str() {
        "tpcc-disk" => Plan {
            system: SystemKind::ShoreMt,
            workers: 1,
            durable: false,
            chunk: 100,
            make: tpcc,
            check: tpcc_check,
        }
        .run(a.seed, a.seconds, a.trace, first),
        "micro-lockstep" => Plan {
            system: SystemKind::HyPer,
            workers: 2,
            durable: false,
            chunk: 10_000,
            make: micro_rw,
            check: no_check,
        }
        .run(a.seed, a.seconds, a.trace, first),
        "durable-tpcb" => Plan {
            system: SystemKind::ShoreMt,
            workers: 1,
            durable: true,
            chunk: 500,
            make: tpcb,
            check: tpcb_check,
        }
        .run(a.seed, a.seconds, a.trace, first),
        "serve-10k" => serve::run(a.seed, a.seconds, a.trace),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

fn main() -> ExitCode {
    let wall = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.part.is_some() {
        let mut out = run(&args);
        out.peak_rss_mb = report::peak_rss_mb();
        println!("part {}", out.part_json());
        return ExitCode::SUCCESS;
    }
    let mut out = if args.trace {
        run(&args)
    } else {
        let mut out = run_parts(&args);
        out.metrics.put("wall_s", wall.elapsed().as_secs_f64(), "s");
        out.metrics.put("peak_rss_mb", out.peak_rss_mb, "MB");
        out
    };
    if out.attempted == 0 {
        out.fail("no transaction ran".into());
    }
    let digest = out.digests.first().copied().unwrap_or(0);
    if out.digests.iter().any(|&d| d != digest) {
        out.fail(format!(
            "sim_digest differs between repeats of seed {}: {:x?}",
            args.seed, out.digests
        ));
    }
    print!("{}", out.metrics.table());
    println!(
        "sim_digest {digest:016x} ({} repeat(s) of seed {})",
        out.digests.len(),
        args.seed
    );
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{}",
        out.metrics.result_json(correct, out.attempted, out.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
