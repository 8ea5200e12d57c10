//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures all            # every figure + results/*.csv + EXPERIMENTS.md
//! figures fig1 ... fig27 # one figure as a text table
//! figures scaling        # worker-count scaling grid + results/scaling.csv
//! figures islands [--smoke]
//!                        # NUMA placement x cross-socket mix grid + results/islands.csv
//! figures cc [--smoke]   # CC protocol x contention grid + results/cc_grid.csv
//! figures calibrate      # quick per-(system,size) metric dump
//! figures record <system> <workload> <out.json>
//!                        # record one traced run for differential analysis
//! figures diff <a.json> <b.json> [--threshold PCT]
//!                        # decompose the throughput delta between two
//!                        # recorded runs; exit 1 past the regression gate
//! ```
//!
//! Set `IMOLTP_SCALE=<f64>` to scale measurement windows (e.g. `0.2` for a
//! smoke run).

use std::path::PathBuf;

use bench::args::{self, Parsed, Spec};
use bench::figures::{Fig, Figures};
use bench::suite;

/// Parse this subcommand's trailing arguments with the shared parser;
/// unknown flags exit 2 instead of being silently ignored.
fn parse_figures_args(cmd: &str, specs: &[Spec]) -> Parsed {
    let argv: Vec<String> = std::env::args().skip(2).collect();
    args::parse(&format!("figures {cmd}"), &argv, specs).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "help".into());
    let mut f = Figures::new();
    let fig: Option<Fig> = match arg.as_str() {
        "all" => {
            let root = repo_root();
            let failed = suite::run_all(&root);
            std::process::exit(if failed == 0 { 0 } else { 1 });
        }
        "calibrate" => {
            calibrate();
            return;
        }
        "scaling" => {
            let p = parse_figures_args("scaling", &[Spec::flag("--smoke")]);
            print!("{}", bench::scaling::run(&repo_root(), p.has("--smoke")));
            return;
        }
        "islands" => {
            let p = parse_figures_args("islands", &[Spec::flag("--smoke")]);
            let out = bench::islands::run(&repo_root(), p.has("--smoke"));
            print!("{out}");
            std::process::exit(if out.contains("FAIL:") { 1 } else { 0 });
        }
        "fig1" => Some(Fig::Scalar(f.fig_ipc_vs_size(true))),
        "fig2" => Some(Fig::Stall(f.fig_spki_vs_size(true))),
        "fig3" => Some(Fig::Stall(f.fig_spt_100gb(true))),
        "fig4" => Some(Fig::Scalar(f.fig_ipc_vs_rows(true))),
        "fig5" => Some(Fig::Stall(f.fig_spki_vs_rows(true))),
        "fig6" => Some(Fig::Stall(f.fig_spt_vs_rows(true))),
        "fig7" => Some(Fig::Scalar(f.fig_engine_share())),
        "fig8" => Some(Fig::Scalar(f.fig_tpcb_ipc())),
        "fig9" => Some(Fig::Stall(f.fig_tpcb_spki())),
        "fig10" => Some(Fig::Scalar(f.fig_tpcc_ipc())),
        "fig11" => Some(Fig::Stall(f.fig_tpcc_spki())),
        "fig12" => Some(Fig::Stall(f.fig_tpcc_spt())),
        "fig13" => Some(Fig::Stall(f.fig_index_compilation_micro(true))),
        "fig14" => Some(Fig::Stall(f.fig_index_compilation_tpcc())),
        "fig15" => Some(Fig::Stall(f.fig_data_types(true))),
        "fig16" => Some(Fig::Scalar(f.fig_mt_ipc(false))),
        "fig17" => Some(Fig::Scalar(f.fig_mt_ipc(true))),
        "fig18" => Some(Fig::Stall(f.fig_mt_spki(false))),
        "fig19" => Some(Fig::Stall(f.fig_mt_spki(true))),
        "fig20" => Some(Fig::Scalar(f.fig_ipc_vs_size(false))),
        "fig21" => Some(Fig::Stall(f.fig_spki_vs_size(false))),
        "fig22" => Some(Fig::Stall(f.fig_spt_100gb(false))),
        "fig23" => Some(Fig::Scalar(f.fig_ipc_vs_rows(false))),
        "fig24" => Some(Fig::Stall(f.fig_spki_vs_rows(false))),
        "fig25" => Some(Fig::Stall(f.fig_spt_vs_rows(false))),
        "fig26" => Some(Fig::Stall(f.fig_index_compilation_micro(false))),
        "fig27" => Some(Fig::Stall(f.fig_data_types(false))),
        "ablations" => {
            print!("{}", bench::ablations::llc_sweep());
            print!("{}", bench::ablations::prefetch());
            print!("{}", bench::ablations::simple_core());
            print!("{}", bench::ablations::voltdb_multi_partition());
            print!("{}", bench::ablations::overlap_sensitivity());
            return;
        }
        "tpce" => {
            print!("{}", bench::ablations::tpce_similarity());
            return;
        }
        "ablation-llc" => {
            print!("{}", bench::ablations::llc_sweep());
            return;
        }
        "ablation-prefetch" => {
            print!("{}", bench::ablations::prefetch());
            return;
        }
        "ablation-simplecore" => {
            print!("{}", bench::ablations::simple_core());
            return;
        }
        "ablation-voltdb-mp" => {
            print!("{}", bench::ablations::voltdb_multi_partition());
            return;
        }
        "ablation-overlap" => {
            print!("{}", bench::ablations::overlap_sensitivity());
            return;
        }
        "modules" => {
            let workload = std::env::args().nth(2).unwrap_or_else(|| "micro".into());
            for sys in bench::figures::systems() {
                let sys = match sys {
                    engines::SystemKind::DbmsM { .. } if workload == "tpcc" => {
                        engines::SystemKind::dbms_m_for_tpcc()
                    }
                    s => s,
                };
                let b = bench::modules_report::module_breakdown(sys, &workload);
                print!("{}", bench::modules_report::render(&b));
                println!();
            }
            return;
        }
        "phases" => {
            let workload = std::env::args().nth(2).unwrap_or_else(|| "micro".into());
            print!("{}", bench::trace::phases_table(&workload));
            return;
        }
        "record" => {
            record();
            return;
        }
        "diff" => {
            diff();
            return;
        }
        "cc" => {
            let p = parse_figures_args("cc", &[Spec::flag("--smoke")]);
            let smoke = p.has("--smoke");
            let cfg = if smoke {
                bench::ccgrid::CcGridCfg::smoke()
            } else {
                bench::ccgrid::CcGridCfg::full()
            };
            let rows = bench::ccgrid::run(&cfg);
            print!("{}", bench::ccgrid::render(&rows));
            // Smoke runs land beside the exemplar, never over it: the
            // committed cc_grid.csv is the full-grid reference.
            let name = if smoke {
                "cc_grid_smoke.csv"
            } else {
                "cc_grid.csv"
            };
            let out = repo_root().join("results").join(name);
            std::fs::create_dir_all(out.parent().unwrap()).expect("create results dir");
            std::fs::write(&out, bench::ccgrid::to_csv(&rows)).expect("write cc_grid.csv");
            println!("wrote {}", out.display());
            return;
        }
        "checks" => {
            let checks = f.checks();
            for c in &checks {
                println!(
                    "[{}] {}: {} ({})",
                    if c.pass { "PASS" } else { "FAIL" },
                    c.figure,
                    c.claim,
                    c.detail
                );
            }
            // A failed shape check fails the command, as in `figures all`.
            std::process::exit(if checks.iter().all(|c| c.pass) { 0 } else { 1 });
        }
        other => {
            if other != "help" {
                eprintln!("unknown subcommand: {other}");
            }
            eprintln!(
                "usage: figures <all|fig1..fig27|scaling [--smoke]|islands [--smoke]|cc [--smoke]|checks|calibrate|phases [micro|tpcb|tpcc]|modules [micro|tpcb|tpcc]|tpce|ablations|ablation-{{llc,prefetch,simplecore,voltdb-mp,overlap}}|record <system> <workload> <out.json>|diff <a.json> <b.json> [--threshold PCT]>"
            );
            std::process::exit(if other == "help" { 0 } else { 2 });
        }
    };
    if let Some(fig) = fig {
        print!("{}", fig.render_text());
    }
}

/// `figures record <system> <workload> <out.json>` — run one traced point
/// and persist it as a [`bench::diff::RunRecord`].
fn record() {
    let p = parse_figures_args("record", &[]);
    let (Some(sys_arg), Some(wl_arg), Some(out)) = (p.pos(0), p.pos(1), p.pos(2)) else {
        eprintln!("usage: figures record <system> <workload> <out.json>");
        std::process::exit(2);
    };
    let Some(system) = bench::trace::parse_system(sys_arg) else {
        eprintln!("unknown system: {sys_arg}");
        std::process::exit(2);
    };
    let Some(workload) = bench::trace::parse_workload(wl_arg) else {
        eprintln!("unknown workload: {wl_arg}");
        std::process::exit(2);
    };
    let rec = bench::diff::record_run(system, &workload, wl_arg);
    let path = PathBuf::from(out);
    rec.save(&path).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    });
    println!(
        "recorded {}/{}: {} txns, {:.0} tps, {:.2} ipc, {:.1} cycles/txn -> {}",
        rec.system,
        rec.workload,
        rec.txns,
        rec.tps,
        rec.ipc,
        rec.cycles_per_txn(),
        path.display()
    );
}

/// `figures diff <a.json> <b.json> [--threshold PCT]` — differential
/// top-down decomposition, with a CI regression gate on throughput.
fn diff() {
    let p = parse_figures_args("diff", &[Spec::value("--threshold")]);
    let (Some(a_path), Some(b_path)) = (p.pos(0), p.pos(1)) else {
        eprintln!("usage: figures diff <a.json> <b.json> [--threshold PCT]");
        std::process::exit(2);
    };
    let threshold: f64 = p
        .parsed("--threshold", "threshold")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
        .unwrap_or(10.0);
    let load = |p: &str| {
        bench::diff::RunRecord::load(&PathBuf::from(p)).unwrap_or_else(|e| {
            eprintln!("cannot load run record: {e}");
            std::process::exit(2);
        })
    };
    let a = load(a_path);
    let b = load(b_path);
    let report = bench::diff::diff_runs(&a, &b);
    print!("{}", bench::diff::render(&report));
    if report.regressed(threshold) {
        eprintln!(
            "FAIL: candidate throughput {:.2}% below baseline (threshold {threshold}%)",
            -report.tps_change_pct()
        );
        std::process::exit(1);
    }
    println!(
        "throughput change {:+.2}% within the {threshold}% regression gate",
        report.tps_change_pct()
    );
}

fn repo_root() -> PathBuf {
    // Walk up from the executable's cwd until Cargo.toml with [workspace].
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

/// Quick calibration dump: one line per (system, size) with the key
/// metrics, for tuning engine constants against the paper's shapes.
fn calibrate() {
    use bench::figures::systems;
    use bench::{run_points, Point, WorkloadCfg};
    use workloads::DbSize;

    let mut points = Vec::new();
    for &sys in &systems() {
        for &size in &DbSize::ALL {
            points.push(Point::new(
                sys,
                WorkloadCfg::Micro {
                    size,
                    rows_per_txn: 1,
                    read_only: true,
                    strings: false,
                },
            ));
        }
    }
    let ms = run_points(&points);
    println!(
        "{:<10} {:>6} {:>6} {:>9} {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "system", "size", "IPC", "instr/txn", "tps", "L1I", "L2I", "LLCI", "L1D", "L2D", "LLCD"
    );
    for (p, m) in points.iter().zip(&ms) {
        let &WorkloadCfg::Micro { size, .. } = p.workload() else {
            unreachable!()
        };
        println!(
            "{:<10} {:>6} {:>6.2} {:>9.0} {:>8.0} | {:>6.0} {:>6.0} {:>6.0} {:>6.0} {:>6.0} {:>6.0}",
            p.system().label(),
            size.label(),
            m.ipc,
            m.instr_per_txn,
            m.tps,
            m.spki[0],
            m.spki[1],
            m.spki[2],
            m.spki[3],
            m.spki[4],
            m.spki[5],
        );
    }
}
