//! Chaos report: runs the resilient CAQR executor under a battery of fault
//! plans, keyed by task ordinal — clean, seeded mixed faults, explicit
//! silent data corruption (under the default budgets, and under budgets
//! that leave the run tier to absorb it), explicit hangs — and prints one
//! table of what the two-tier escalation ladder did:
//! faults absorbed, replays per tier, ABFT overhead share, and stream-lane
//! occupancy. Every faulted run's `R` must be bit-identical to the clean
//! run's, and every scenario but `clean` must inject at least one fault;
//! either failure fails the process (exit 1) — this is the CI chaos smoke
//! gate.
//!
//! `--quick` shrinks the matrix and seed count for the CI smoke run. The
//! full-mode table is modelled time only, so it is deterministic: CI diffs
//! it against `crates/bench/golden/chaos_report.txt`.

use caqr::recovery::{RecoveryPolicy, RecoveryReport};
use caqr::{drive_recovering, BlockSize, CaqrOptions, FaultKind, FaultPlan, ReductionStrategy};
use caqr::{Faulty, SimBackend};
use caqr_bench::Table;
use dense::matrix::Matrix;
use gpu_sim::{DeviceSpec, Gpu, Timeline};

struct Scenario {
    name: String,
    plan: FaultPlan,
    policy: RecoveryPolicy,
}

impl Scenario {
    /// `plan` under the default replay budgets.
    fn new(name: &str, plan: FaultPlan) -> Scenario {
        Scenario {
            name: name.to_string(),
            plan,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// Streams the resilient executor's apply groups fan out over.
const STREAMS: usize = 3;

fn opts() -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h: 64, w: 16 },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
    }
}

/// Occupancy across the run: busy lane-seconds over `streams` lanes against
/// the whole modelled run time. The ledger accumulates intervals across
/// every synchronize, so total modelled seconds is the makespan that covers
/// them all (host-side checksum and snapshot passes included — time the
/// lanes genuinely sat idle).
fn utilization(gpu: &Gpu, streams: usize) -> f64 {
    let l = gpu.ledger();
    let tl = Timeline {
        intervals: l.intervals.clone(),
        makespan: l.seconds,
    };
    tl.utilization(streams)
}

fn run_scenario(
    a: &Matrix<f64>,
    s: &Scenario,
) -> (Matrix<f64>, RecoveryReport, gpu_sim::CostLedger, f64) {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let run = SimBackend::resilient(&gpu, STREAMS).and_then(|sim| {
        let backend = Faulty::new(sim, vec![s.plan.clone()]);
        drive_recovering(&backend, a.clone(), &opts().drive_config(), &s.policy)
    });
    let (f, report) = match run {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("FAIL: scenario '{}' did not recover: {e}", s.name);
            std::process::exit(1);
        }
    };
    let util = utilization(&gpu, STREAMS);
    (f.r(), report, gpu.ledger(), util)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (m, n) = if quick { (2048, 32) } else { (16384, 48) };
    let a = dense::generate::uniform::<f64>(m, n, 17);

    // The plans key faults by task ordinal: each factor chain and each
    // apply chain is one task, and a replay takes the next ordinal. Task 0
    // is the first panel's factor, task 1 its first apply. The seeded mix
    // draws independently per task; a full run draws only about 32 times,
    // so its rates are high enough that every seeded row injects faults.
    // One SDC under budgets with no task replays, so the run tier absorbs
    // it.
    let run_tier = RecoveryPolicy {
        max_task_replays: 0,
        max_run_retries: 1,
    };
    let mut scenarios = vec![
        Scenario::new("clean", FaultPlan::default()),
        Scenario::new("explicit-sdc", FaultPlan::at(FaultKind::Sdc, &[0, 1])),
        Scenario {
            policy: run_tier,
            ..Scenario::new("sdc/run-tier", FaultPlan::at(FaultKind::Sdc, &[0]))
        },
        Scenario::new("explicit-hang", FaultPlan::at(FaultKind::Hang, &[0])),
    ];
    let seeds: &[u64] = if quick { &[11] } else { &[11, 12, 13, 14] };
    for &seed in seeds {
        let plan = FaultPlan::seeded_mix(seed, 0.10, 0.10, 0.05);
        scenarios.push(Scenario::new(&format!("seeded-mix/{seed}"), plan));
    }

    let mut table = Table::new(&[
        "scenario",
        "ms",
        "faults",
        "hangs",
        "sdc",
        "ck fail",
        "replays t/r",
        "launches",
        "abft %",
        "util %",
        "R",
    ]);
    let mut clean_r: Option<Matrix<f64>> = None;
    let mut failed = false;
    for s in &scenarios {
        let (r, report, ledger, util) = run_scenario(&a, s);
        let identical = match &clean_r {
            None => {
                clean_r = Some(r);
                true
            }
            Some(clean) => *clean == r,
        };
        if !identical {
            eprintln!(
                "FAIL: scenario '{}' diverged from the clean run's R",
                s.name
            );
            failed = true;
        }
        let injected = ledger.faults + ledger.hangs + ledger.sdc_injected;
        if s.name != "clean" && injected == 0 {
            eprintln!("FAIL: scenario '{}' injected no fault", s.name);
            failed = true;
        }
        // ABFT share: detection passes + snapshot traffic, as a fraction of
        // the whole modelled run (DESIGN.md §10's measurable-overhead claim).
        let abft: f64 = ["checksum_verify", "snapshot"]
            .iter()
            .filter_map(|op| ledger.per_op.get(op))
            .map(|o| o.seconds)
            .sum();
        table.row(vec![
            s.name.clone(),
            format!("{:.3}", ledger.seconds * 1e3),
            format!("{}", ledger.faults),
            format!("{}", ledger.hangs),
            format!("{}", ledger.sdc_injected),
            format!("{}", report.checksum_failures),
            format!("{}/{}", report.task_replays, report.run_retries),
            format!("{}", report.launches),
            format!("{:.1}", abft / ledger.seconds * 100.0),
            format!("{:.1}", util * 100.0),
            if identical {
                "ok".into()
            } else {
                "DIVERGED".into()
            },
        ]);
    }
    print!("{}", table.render());

    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "chaos_report: {} scenarios at {m}x{n}, every recovered R bit-identical to clean",
        scenarios.len()
    );
}
