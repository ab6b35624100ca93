//! Host CAQR benchmark: four seeded workloads against the public host API
//! (`caqr_cpu`, `backend::drive`, `Service`). See `README.md` next to this
//! package for the workloads, the metrics, and what each layer metric
//! should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tsqr_tall --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, a metadata line, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails, 2 on bad arguments.

mod ceilings;
mod report;
mod service;
mod solo;
mod timed;

use service::Traffic;
use solo::{CAQR_WIDE, TSQR_TALL};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("gflops", "GFLOP/s"),
    ("latency_trimmed_mean_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("completed_share", "share"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("health.check_finite.s", "s"),
    ("health.check_finite.gbs", "GB/s"),
    ("multicore.factor_panel.s", "s"),
    ("multicore.factor_panel.calls", "count"),
    ("multicore.factor_panel.gflops", "GFLOP/s"),
    ("multicore.factor_panel.roofline_share", "share"),
    ("multicore.apply_panel.s", "s"),
    ("multicore.apply_panel.calls", "count"),
    ("multicore.apply_panel.gflops", "GFLOP/s"),
    ("multicore.apply_panel.roofline_share", "share"),
    ("health.q_ones_probe.s", "s"),
    ("health.q_ones_probe.calls", "count"),
    ("backend.drive_self.s", "s"),
    ("backend.drive.s", "s"),
    ("dense.gemm.gflops", "GFLOP/s"),
    ("dense.stream.gbs", "GB/s"),
    ("dense.arena.misses", "count"),
    ("trace.overhead_share", "share"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p90_ms", "ms"),
    ("service.exec_p50_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("service.fused_share", "share"),
    ("service.batch_size_mean", "count"),
    ("service.launch_fusion_ratio", "ratio"),
    ("service.generator_late_ms", "ms"),
    ("service.deadline_misses", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload tsqr_tall|caqr_wide|service_paced|service_burst \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let secs = args.seconds as f64;
    let (params, outcome) = match args.workload.as_str() {
        "tsqr_tall" => (
            TSQR_TALL.params(),
            TSQR_TALL.run(args.seed, secs, args.trace),
        ),
        "caqr_wide" => (
            CAQR_WIDE.params(),
            CAQR_WIDE.run(args.seed, secs, args.trace),
        ),
        "service_paced" => (
            service::params(Traffic::Paced),
            service::run(Traffic::Paced, args.seed, secs, args.trace),
        ),
        "service_burst" => (
            service::params(Traffic::Burst),
            service::run(Traffic::Burst, args.seed, secs, args.trace),
        ),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for &(name, unit) in table {
        match outcome.get(name) {
            Some(v) => println!("{name:>40} = {v:.6} {unit}"),
            None => println!("{name:>40} = 0 {unit} (layer not run by this workload)"),
        }
    }
    // Every end-to-end metric is required; a missing one is a bug.
    let complete = args.trace || END_TO_END.iter().all(|(n, _)| outcome.get(n).is_some());
    let finite = outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let correct = complete && finite && outcome.checks.iter().all(|(_, ok)| *ok);
    println!(
        "meta {}",
        report::metadata(&args.workload, &params, args.seed, args.seconds, args.trace)
    );
    println!("{}", outcome.json(correct, table));
    if !correct {
        std::process::exit(1);
    }
}
