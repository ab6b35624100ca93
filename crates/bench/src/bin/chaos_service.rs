//! Chaos soak for the multi-tenant QR service (DESIGN.md §15): drives a
//! seeded mixed-fault storm — launch faults, silent data corruption,
//! hangs, host panics, periodic worker kills — through [`caqr::Service`]
//! with batch verification on, and gates the service-tier resilience
//! contract:
//!
//! 1. **Every ticket resolves.** A watchdog thread kills the process
//!    (exit 2) if the soak wedges; a bounded resubmission loop must drive
//!    every job to a successful factorization.
//! 2. **Bit identity.** Every recovered matrix equals a standalone
//!    `caqr_cpu` run, bit for bit — carve-outs and retries never perturb
//!    riders or survivors.
//! 3. **Ledger reconciliation.** Per-tenant rows (shed/lost/retry
//!    counters included) sum exactly to the global row after the storm.
//! 4. **Fault-free overhead.** The plain fused path must stay within 10%
//!    of the `BENCH_service.json` throughput floor recorded by
//!    `service_report` (compared only when that file's `--quick` mode
//!    matches this run's).
//!
//! `--quick` shrinks the workload for the CI smoke run; `--check` turns
//! gate violations into a nonzero exit. Emits `BENCH_chaos_service.json`.

use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::{
    factor_many, FaultPlan, JobSpec, Priority, ResilienceConfig, RetryBudget, Service,
    ServiceConfig, ServiceFaultPlan, ShedPolicy, TreeShape,
};
use caqr_bench::Table;
use dense::Matrix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn opts(h: usize, w: usize) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree: TreeShape::DeviceArity,
        verify_checksums: false,
    }
}

/// Swallow the backtraces of deliberately injected panics (worker kills,
/// host-panic faults); anything else still prints.
fn silence_injected_panics() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()));
        if msg.as_deref().is_some_and(|m| m.contains("injected")) {
            return;
        }
        hook(info);
    }));
}

/// Pull the fused-gate `batched_gflops` floor out of `BENCH_service.json`
/// by string search (the repo carries no JSON parser), but only when that
/// report was produced in the same `--quick` mode as this run — the gate
/// bag dimensions differ between modes, so cross-mode floors do not
/// compare.
fn parse_floor(json: &str, quick: bool) -> Option<f64> {
    if !json.contains(&format!("\"quick\": {quick}")) {
        return None;
    }
    let key = "\"batched_gflops\": ";
    let at = json.find(key)? + key.len();
    let rest = &json[at..];
    let end = rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let mut failed = false;
    silence_injected_panics();

    // ---- Phase 1: fault-free overhead gate ----------------------------
    // Same bag dimensions as service_report's fused gate, so the stored
    // floor compares like for like. The plain path (what fault-free
    // traffic takes through the service) must hold ≥ 90% of the recorded
    // floor; the verified path's ABFT overhead is reported alongside.
    let (gm, gn, gh, gw, gjobs, reps) = if quick {
        (384, 32, 48, 16, 48, 5)
    } else {
        (512, 32, 64, 16, 96, 3)
    };
    let gate_opts = opts(gh, gw);
    let inputs: Vec<Matrix<f64>> = (0..gjobs)
        .map(|i| dense::generate::uniform::<f64>(gm, gn, 0xCAFE + i as u64))
        .collect();
    let bag = || -> Vec<(Matrix<f64>, CpuCaqrOptions)> {
        inputs.iter().map(|a| (a.clone(), gate_opts)).collect()
    };
    let total_gflop = dense::geqrf_flops(gm, gn) * gjobs as f64 / 1e9;

    // Warm both paths once so the measured reps run out of the arena.
    drop(factor_many(bag(), &[], false));
    drop(factor_many(bag(), &[], true));

    let mut plain_best_s = f64::INFINITY;
    let mut verified_best_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (results, _) = factor_many(bag(), &[], false);
        plain_best_s = plain_best_s.min(t0.elapsed().as_secs_f64());
        assert!(results.iter().all(Result::is_ok), "gate bag must factor");

        let t0 = Instant::now();
        let (results, _) = factor_many(bag(), &[], true);
        verified_best_s = verified_best_s.min(t0.elapsed().as_secs_f64());
        assert!(
            results.iter().all(Result::is_ok),
            "verified gate bag must factor"
        );
    }
    let plain_gflops = total_gflop / plain_best_s;
    let verified_gflops = total_gflop / verified_best_s;
    let floor = std::fs::read_to_string("BENCH_service.json")
        .ok()
        .and_then(|j| parse_floor(&j, quick));

    let mut gate_table = Table::new(&["path", "GFLOP/s", "time ms", "vs floor"]);
    let vs = |g: f64| {
        floor.map_or_else(
            || "n/a".to_string(),
            |f| format!("{:+.1}%", (g / f - 1.0) * 100.0),
        )
    };
    gate_table.row(vec![
        "plain fused".into(),
        format!("{plain_gflops:.3}"),
        format!("{:.3}", plain_best_s * 1e3),
        vs(plain_gflops),
    ]);
    gate_table.row(vec![
        "verified fused".into(),
        format!("{verified_gflops:.3}"),
        format!("{:.3}", verified_best_s * 1e3),
        vs(verified_gflops),
    ]);
    gate_table.emit(&format!(
        "fault-free overhead gate: {gjobs} x {gm}x{gn} (h {gh}, w {gw}), best of {reps}, floor {}",
        floor.map_or_else(|| "unavailable".to_string(), |f| format!("{f:.3} GFLOP/s"))
    ));

    if check {
        match floor {
            Some(f) if plain_gflops < 0.9 * f => {
                eprintln!(
                    "FAIL: fault-free fused path {plain_gflops:.3} GFLOP/s fell below 90% of the BENCH_service.json floor {f:.3}"
                );
                failed = true;
            }
            Some(_) => {}
            None => eprintln!(
                "note: no mode-matching BENCH_service.json floor; overhead gate compared nothing"
            ),
        }
    }

    // ---- Phase 2: seeded chaos soak -----------------------------------
    let (njobs, seed, budget_s) = if quick { (24, 11, 120) } else { (96, 11, 300) };
    let shapes = [(160usize, 8usize, 24usize, 8usize), (240, 16, 48, 16)];
    let tenants = ["acme", "globex", "initech"];
    let queue_capacity = if quick { 16 } else { 32 };
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity,
        max_batch: 4,
        shed: ShedPolicy::recommended(queue_capacity),
        resilience: ResilienceConfig {
            verify_batches: true,
            faults: Some(
                ServiceFaultPlan::new(FaultPlan::seeded_service_mix(seed, 0.05, 0.05, 0.03, 0.02))
                    .worker_panic_every(7),
            ),
            retry: RetryBudget {
                max_retries: 3,
                backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
            },
        },
        ..ServiceConfig::default()
    };

    // Watchdog: every admitted ticket must resolve — if the soak wedges
    // (a lost wakeup, an unresolved flight), die loudly instead of letting
    // CI time the whole job out.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(budget_s));
            if !done.load(Ordering::SeqCst) {
                eprintln!("FAIL: chaos soak wedged — a ticket failed to resolve in {budget_s}s");
                std::process::exit(2);
            }
        });
    }

    let svc = Service::<f64>::start(cfg);
    // The workload: njobs across two shape classes, three tenants, three
    // priority classes, with a standalone `caqr_cpu` answer for each.
    struct Job {
        a: Matrix<f64>,
        o: CpuCaqrOptions,
        tenant: &'static str,
        priority: Priority,
        want: Matrix<f64>,
    }
    let jobs: Vec<Job> = (0..njobs as u64)
        .map(|s| {
            let (m, n, h, w) = shapes[(s % 2) as usize];
            let a = dense::generate::uniform::<f64>(m, n, 0xD00D + s);
            let o = opts(h, w);
            let want = caqr_cpu(a.clone(), o)
                .expect("standalone reference factors")
                .a;
            Job {
                a,
                o,
                tenant: tenants[(s % 3) as usize],
                priority: Priority::ALL[(s % 3) as usize],
                want,
            }
        })
        .collect();

    // Bounded resubmission: typed failures (worker lost, overload shed,
    // retry exhausted, carved terminal errors) go back into the queue —
    // a fresh submission draws a fresh fault sequence — until every job
    // has factored bitwise or the round budget is spent.
    let max_rounds = 50usize;
    let mut pending: Vec<usize> = (0..jobs.len()).collect();
    let mut rounds = 0usize;
    let mut resubmitted = 0u64;
    let mut typed_failures = 0u64;
    let soak_t0 = Instant::now();
    while !pending.is_empty() {
        rounds += 1;
        if rounds > max_rounds {
            eprintln!(
                "FAIL: {} jobs still unresolved after {max_rounds} resubmission rounds",
                pending.len()
            );
            failed = true;
            break;
        }
        let tickets: Vec<_> = pending
            .iter()
            .map(|&j| {
                let job = &jobs[j];
                svc.submit(
                    JobSpec::new(job.a.clone(), job.o)
                        .tenant(job.tenant)
                        .priority(job.priority),
                )
                .expect("chaos soak submissions are admitted")
            })
            .collect();
        let mut next = Vec::new();
        for (&j, t) in pending.iter().zip(tickets) {
            // Gate 1: the ticket resolves (the watchdog catches a wedge).
            let out = t.wait().expect("every chaos ticket resolves");
            match out.result {
                Ok(f) => {
                    // Gate 2: bit identity against the standalone answer.
                    if f.a != jobs[j].want {
                        eprintln!("FAIL: job {j} diverges bitwise from standalone caqr_cpu");
                        failed = true;
                    }
                }
                Err(e) => {
                    typed_failures += 1;
                    resubmitted += 1;
                    let _ = e; // typed error: resubmit next round
                    next.push(j);
                }
            }
        }
        pending = next;
    }
    let soak_s = soak_t0.elapsed().as_secs_f64();
    let ledger = svc.ledger();
    svc.shutdown();
    done.store(true, Ordering::SeqCst);

    // Gate 3: the ledger reconciles after the storm.
    if let Err(e) = ledger.reconcile() {
        eprintln!("FAIL: post-chaos ledger does not reconcile: {e}");
        failed = true;
    }

    let g = &ledger.global;
    let mut soak_table = Table::new(&["counter", "value"]);
    for (name, v) in [
        ("jobs factored bitwise", njobs as u64),
        ("resubmission rounds", rounds as u64),
        ("typed failures resubmitted", resubmitted),
        ("jobs_completed", g.jobs_completed),
        ("jobs_failed", g.jobs_failed),
        ("jobs_lost (worker died)", g.jobs_lost),
        ("jobs_shed_overload", g.jobs_shed_overload),
        ("deadline/shed", g.jobs_shed),
        ("retry_jobs", g.retry_jobs),
        ("retry_attempts", g.retry_attempts),
        ("retry_launches", g.retry_launches),
        ("worker_panics", ledger.worker_panics),
        ("breaker_opens", ledger.breaker_opens),
        ("breaker_closes", ledger.breaker_closes),
    ] {
        soak_table.row(vec![name.into(), v.to_string()]);
    }
    soak_table.emit(&format!(
        "chaos soak: {njobs} jobs, seeded mix (seed {seed}), worker kill every 7th batch, {soak_s:.2}s"
    ));

    // ---- JSON ---------------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"chaos_service\",\n  \"quick\": {quick},\n  \"gate\": {{\"jobs\": {gjobs}, \"m\": {gm}, \"n\": {gn}, \"plain_gflops\": {plain_gflops:.4}, \"verified_gflops\": {verified_gflops:.4}, \"verify_overhead\": {:.4}, \"floor_gflops\": {}}},\n  \"soak\": {{\"jobs\": {njobs}, \"seed\": {seed}, \"rounds\": {rounds}, \"resubmitted\": {resubmitted}, \"typed_failures\": {typed_failures}, \"wall_s\": {soak_s:.4}, \"jobs_completed\": {}, \"jobs_failed\": {}, \"jobs_lost\": {}, \"jobs_shed_overload\": {}, \"jobs_shed\": {}, \"retry_jobs\": {}, \"retry_attempts\": {}, \"retry_launches\": {}, \"retry_seconds\": {:.6}, \"worker_panics\": {}, \"breaker_opens\": {}, \"breaker_closes\": {}}}\n}}\n",
        plain_gflops / verified_gflops,
        floor.map_or_else(|| "null".to_string(), |f| format!("{f:.4}")),
        g.jobs_completed,
        g.jobs_failed,
        g.jobs_lost,
        g.jobs_shed_overload,
        g.jobs_shed,
        g.retry_jobs,
        g.retry_attempts,
        g.retry_launches,
        g.retry_seconds,
        ledger.worker_panics,
        ledger.breaker_opens,
        ledger.breaker_closes,
    );
    std::fs::write("BENCH_chaos_service.json", &json).expect("write BENCH_chaos_service.json");
    eprintln!("wrote BENCH_chaos_service.json");

    if check {
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "check: all tickets resolved, every recovered matrix bit-identical, ledger reconciles, fault-free path within 10% of floor"
        );
    }
}
