//! Throughput/latency report for the multi-tenant QR service (DESIGN.md
//! §14): a seeded open-loop synthetic workload — mixed shapes, Poisson
//! arrivals, three tenants, three priority classes — driven through
//! [`caqr::Service`] twice (shape-fused batching vs one-at-a-time), plus a
//! direct `factor_many` vs sequential `caqr_cpu` throughput gate on a
//! fused-shape bag. Emits p50/p99 latency per priority class, aggregate
//! GFLOP/s for both modes, and the per-tenant ledger to
//! `BENCH_service.json` alongside human-readable tables.
//!
//! `--quick` shrinks everything for the CI smoke run. `--check` gates the
//! run (exit 1 on failure): on the fused-shape workload, timed in
//! alternating reps, the median per-rep ratio of one-at-a-time to batched
//! time must be at least 1 (batched is not slower), the measured fused reps
//! must run with zero steady-state arena misses, every serviced matrix
//! must be bit-identical to a standalone `caqr_cpu` run, and the ledger
//! must reconcile (per-tenant counters summing to the global row).

use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::{factor_many, JobOutcome, JobSpec, Priority, Service, ServiceConfig};
use caqr::{BatchStats, TreeShape};
use caqr_bench::Table;
use dense::Matrix;
use std::time::{Duration, Instant};

/// splitmix64: tiny, seeded, dependency-free (rand is only a dev-dep).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given mean (Poisson process).
    fn exp_ms(&mut self, mean_ms: f64) -> f64 {
        -mean_ms * (1.0 - self.unit()).ln()
    }
}

#[derive(Clone, Copy)]
struct Shape {
    m: usize,
    n: usize,
    h: usize,
    w: usize,
    weight: u64,
}

fn opts(h: usize, w: usize) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree: TreeShape::DeviceArity,
        verify_checksums: false,
    }
}

/// One planned arrival of the open-loop workload.
struct Planned {
    at: Duration,
    shape: Shape,
    tenant: &'static str,
    priority: Priority,
    deadline: Option<Duration>,
    seed: u64,
}

fn pick_shape(shapes: &[Shape], rng: &mut Rng) -> Shape {
    let total: u64 = shapes.iter().map(|s| s.weight).sum();
    let mut roll = rng.next() % total;
    for s in shapes {
        if roll < s.weight {
            return *s;
        }
        roll -= s.weight;
    }
    shapes[shapes.len() - 1]
}

fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

struct ClassLatency {
    class: Priority,
    jobs: usize,
    p50_ms: f64,
    p99_ms: f64,
}

struct ServiceRun {
    label: &'static str,
    wall_s: f64,
    gflops: f64,
    fused_jobs: u64,
    solo_jobs: u64,
    batches: u64,
    shed: u64,
    failed: u64,
    classes: Vec<ClassLatency>,
    ledger: caqr::ServiceLedger,
    outcomes: Vec<JobOutcome<f64>>,
}

fn run_service(plan: &[Planned], label: &'static str, max_batch: usize) -> ServiceRun {
    let svc = Service::<f64>::start(ServiceConfig {
        workers: 2,
        queue_capacity: 512,
        max_batch,
        ..ServiceConfig::default()
    });
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(plan.len());
    for p in plan {
        // Open loop: arrivals fire on the wall-clock schedule regardless of
        // how far behind the service is running.
        if let Some(gap) = p.at.checked_sub(start.elapsed()) {
            std::thread::sleep(gap);
        }
        let a = dense::generate::uniform::<f64>(p.shape.m, p.shape.n, p.seed);
        let mut spec = JobSpec::new(a, opts(p.shape.h, p.shape.w))
            .tenant(p.tenant)
            .priority(p.priority);
        if let Some(d) = p.deadline {
            spec = spec.deadline(d);
        }
        tickets.push(svc.submit(spec).expect("admission while running"));
    }
    let outcomes: Vec<JobOutcome<f64>> = tickets
        .into_iter()
        .map(|t| t.wait().expect("service delivers every outcome"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let ledger = svc.ledger();
    svc.shutdown();

    let mut classes = Vec::new();
    for class in Priority::ALL {
        let mut lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.priority == class && o.result.is_ok())
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        classes.push(ClassLatency {
            class,
            jobs: lat.len(),
            p50_ms: percentile_ms(&lat, 0.50),
            p99_ms: percentile_ms(&lat, 0.99),
        });
    }
    ServiceRun {
        label,
        wall_s,
        gflops: ledger.global.flops / wall_s / 1e9,
        fused_jobs: ledger.global.fused_jobs,
        solo_jobs: ledger.global.solo_jobs,
        batches: ledger.batches,
        shed: ledger.global.jobs_shed,
        failed: ledger.global.jobs_failed,
        classes,
        ledger,
        outcomes,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let mut failed = false;

    // ---- Phase 1: fused-shape throughput gate -------------------------
    // A bag of identically shaped jobs, factored batched (`factor_many`,
    // one fused launch sequence for the whole bag) vs one at a time
    // (sequential `caqr_cpu`). Same arithmetic, same results, fewer
    // parallel regions and one shared panel geometry — batched must not be
    // slower.
    // Batching pays in the many-small-jobs regime the service exists for:
    // per-job launch/geometry overhead is the dominant cost there, and the
    // fused group's working set still fits in cache. (Single large
    // factorizations do not need a batching service in the first place.)
    let (gm, gn, gh, gw, gjobs, reps) = if quick {
        (384, 32, 48, 16, 48, 9)
    } else {
        (512, 32, 64, 16, 96, 5)
    };
    let gate_opts = opts(gh, gw);
    let inputs: Vec<Matrix<f64>> = (0..gjobs)
        .map(|i| dense::generate::uniform::<f64>(gm, gn, 0x5EED + i as u64))
        .collect();
    let total_gflop = dense::geqrf_flops(gm, gn) * gjobs as f64 / 1e9;
    let bag = |inputs: &[Matrix<f64>]| -> Vec<(Matrix<f64>, CpuCaqrOptions)> {
        inputs.iter().map(|a| (a.clone(), gate_opts)).collect()
    };

    // Warm up both paths: fills the arena's thread caches and global pool
    // so the measured reps below run allocation-free. Each measured rep
    // runs while the previous rep's results are still held, and those
    // results own pooled level-0 `V` slabs, so the batched warm-up runs
    // twice the same way to leave two bags' worth of slabs in the pool.
    dense::arena::prewarm::<f64>(2 * gn.min(gw * 2), 8);
    let (warm, _) = factor_many(bag(&inputs), &[], false);
    let (warm_next, _) = factor_many(bag(&inputs), &[], false);
    for a in &inputs {
        drop(caqr_cpu(a.clone(), gate_opts).expect("warmup solo factor"));
    }
    drop(warm);
    drop(warm_next);

    // The two sides are timed alternately, rep by rep, and each rep swaps
    // which side goes first, so a slow phase of a shared host lands on
    // both sides instead of on whichever window it happens to hit. The gate
    // reads the median of the per-rep time ratios; the table reports each
    // side's best rep.
    let mut batched_best_s = f64::INFINITY;
    let mut solo_best_s = f64::INFINITY;
    let mut ratios = Vec::with_capacity(reps);
    let (mut arena_hits, mut arena_misses) = (0, 0);
    let mut last_stats = BatchStats::default();
    let mut last_results = Vec::new();
    for rep in 0..reps {
        let mut pair = [0.0f64; 2];
        for side in [rep % 2, 1 - rep % 2] {
            let jobs = bag(&inputs);
            if side == 0 {
                // Only the fused side's arena traffic is gated.
                let before = dense::arena::stats::<f64>();
                let t0 = Instant::now();
                let (results, stats) = factor_many(jobs, &[], false);
                pair[0] = t0.elapsed().as_secs_f64();
                let after = dense::arena::stats::<f64>();
                arena_hits += after.hits - before.hits;
                arena_misses += after.misses - before.misses;
                assert!(results.iter().all(|r| r.is_ok()), "gate bag must factor");
                last_stats = stats;
                last_results = results;
            } else {
                let t0 = Instant::now();
                for (a, o) in jobs {
                    drop(caqr_cpu(a, o).expect("gate bag must factor solo"));
                }
                pair[1] = t0.elapsed().as_secs_f64();
            }
        }
        batched_best_s = batched_best_s.min(pair[0]);
        solo_best_s = solo_best_s.min(pair[1]);
        ratios.push(pair[1] / pair[0]);
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[reps / 2];
    let batched_gflops = total_gflop / batched_best_s;
    let solo_gflops = total_gflop / solo_best_s;

    let mut gate_table = Table::new(&["mode", "GFLOP/s", "time ms", "launches"]);
    gate_table.row(vec![
        "batched".into(),
        format!("{batched_gflops:.3}"),
        format!("{:.3}", batched_best_s * 1e3),
        last_stats.fused_launches.to_string(),
    ]);
    gate_table.row(vec![
        "one-at-a-time".into(),
        format!("{solo_gflops:.3}"),
        format!("{:.3}", solo_best_s * 1e3),
        last_stats.logical_launches.to_string(),
    ]);
    gate_table.emit(&format!(
        "fused-shape gate: {gjobs} x {gm}x{gn} (h {gh}, w {gw}), best of {reps} alternating reps, \
         median one-at-a-time/batched time {median_ratio:.3}, arena {arena_hits}/{arena_misses} hit/miss"
    ));

    if check {
        if median_ratio < 1.0 {
            eprintln!(
                "FAIL: batched is slower than one-at-a-time: median per-rep time ratio \
                 {median_ratio:.3} < 1 over {reps} alternating reps"
            );
            failed = true;
        }
        if arena_misses != 0 {
            eprintln!(
                "FAIL: {arena_misses} steady-state arena misses across {reps} fused reps (want 0)"
            );
            failed = true;
        }
        for (i, (r, a)) in last_results.iter().zip(&inputs).enumerate() {
            let standalone = caqr_cpu(a.clone(), gate_opts).expect("standalone factors");
            if r.as_ref().expect("batched factors").a != standalone.a {
                eprintln!("FAIL: gate job {i} diverges bitwise from standalone caqr_cpu");
                failed = true;
            }
        }
    }
    drop(last_results);

    // ---- Phase 2: open-loop service workload --------------------------
    // Poisson arrivals of mixed shapes from three tenants across the three
    // priority classes, replayed identically against a batching service
    // (max_batch 8) and a one-at-a-time service (max_batch 1).
    let shapes: &[Shape] = if quick {
        &[
            Shape {
                m: 384,
                n: 32,
                h: 48,
                w: 16,
                weight: 6,
            },
            Shape {
                m: 512,
                n: 24,
                h: 64,
                w: 24,
                weight: 3,
            },
            Shape {
                m: 320,
                n: 40,
                h: 40,
                w: 20,
                weight: 1,
            },
        ]
    } else {
        &[
            Shape {
                m: 768,
                n: 48,
                h: 48,
                w: 16,
                weight: 6,
            },
            Shape {
                m: 1024,
                n: 32,
                h: 64,
                w: 32,
                weight: 3,
            },
            Shape {
                m: 512,
                n: 64,
                h: 64,
                w: 16,
                weight: 1,
            },
        ]
    };
    let (njobs, mean_gap_ms) = if quick { (60, 1.0) } else { (240, 8.0) };
    let tenants = ["acme", "globex", "initech"];
    let mut rng = Rng(0xC0FF_EE00_D15E_A5E5);
    let mut t_ms = 0.0f64;
    let plan: Vec<Planned> = (0..njobs)
        .map(|i| {
            t_ms += rng.exp_ms(mean_gap_ms);
            let shape = pick_shape(shapes, &mut rng);
            let priority = match rng.next() % 10 {
                0..=1 => Priority::Interactive,
                2..=7 => Priority::Standard,
                _ => Priority::Batch,
            };
            Planned {
                at: Duration::from_secs_f64(t_ms / 1e3),
                shape,
                tenant: tenants[(rng.next() % tenants.len() as u64) as usize],
                priority,
                // Generous: deadline misses are recorded, nothing is shed
                // unless the machine stalls outright.
                deadline: (priority == Priority::Interactive).then(|| Duration::from_secs(30)),
                seed: 0xA11CE + i as u64,
            }
        })
        .collect();

    let batched = run_service(&plan, "batched", 8);
    let solo = run_service(&plan, "one-at-a-time", 1);

    let mut svc_table = Table::new(&["mode", "class", "jobs", "p50 ms", "p99 ms", "GFLOP/s"]);
    for run in [&batched, &solo] {
        for c in &run.classes {
            svc_table.row(vec![
                run.label.into(),
                c.class.name().into(),
                c.jobs.to_string(),
                format!("{:.3}", c.p50_ms),
                format!("{:.3}", c.p99_ms),
                format!("{:.3}", run.gflops),
            ]);
        }
    }
    svc_table.emit(&format!(
        "open-loop service: {njobs} Poisson arrivals (mean gap {mean_gap_ms} ms), 3 tenants; batched fused {}/{} jobs over {} batches",
        batched.fused_jobs,
        batched.fused_jobs + batched.solo_jobs,
        batched.batches
    ));

    if check {
        for run in [&batched, &solo] {
            if let Err(e) = run.ledger.reconcile() {
                eprintln!("FAIL: {} ledger does not reconcile: {e}", run.label);
                failed = true;
            }
            if run.failed != 0 || run.shed != 0 {
                eprintln!(
                    "FAIL: {} run lost jobs (failed {}, shed {})",
                    run.label, run.failed, run.shed
                );
                failed = true;
            }
        }
        // Every serviced matrix must be bit-identical to a standalone run.
        for (i, (p, o)) in plan.iter().zip(&batched.outcomes).enumerate() {
            let a = dense::generate::uniform::<f64>(p.shape.m, p.shape.n, p.seed);
            let standalone = caqr_cpu(a, opts(p.shape.h, p.shape.w)).expect("standalone factors");
            match &o.result {
                Ok(f) if f.a == standalone.a => {}
                Ok(_) => {
                    eprintln!("FAIL: serviced job {i} diverges bitwise from caqr_cpu");
                    failed = true;
                }
                Err(e) => {
                    eprintln!("FAIL: serviced job {i} errored: {e}");
                    failed = true;
                }
            }
        }
    }

    // ---- JSON ---------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"service\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"fused_gate\": {{\"jobs\": {gjobs}, \"m\": {gm}, \"n\": {gn}, \"tile_rows\": {gh}, \"panel_width\": {gw}, \"reps\": {reps}, \"batched_gflops\": {batched_gflops:.4}, \"one_at_a_time_gflops\": {solo_gflops:.4}, \"speedup\": {:.4}, \"fused_launches\": {}, \"logical_launches\": {}, \"arena_hits\": {}, \"arena_misses\": {}}},\n",
        median_ratio,
        last_stats.fused_launches,
        last_stats.logical_launches,
        arena_hits,
        arena_misses
    ));
    json.push_str(&format!(
        "  \"workload\": {{\"jobs\": {njobs}, \"mean_gap_ms\": {mean_gap_ms}, \"tenants\": {}, \"shapes\": [{}]}},\n",
        tenants.len(),
        shapes
            .iter()
            .map(|s| format!(
                "{{\"m\": {}, \"n\": {}, \"tile_rows\": {}, \"panel_width\": {}, \"weight\": {}}}",
                s.m, s.n, s.h, s.w, s.weight
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"service\": [\n");
    for (ri, run) in [&batched, &solo].into_iter().enumerate() {
        let classes = run
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\": \"{}\", \"jobs\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
                    c.class.name(),
                    c.jobs,
                    c.p50_ms,
                    c.p99_ms
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let ledger = run
            .ledger
            .tenants
            .iter()
            .map(|(t, c)| {
                format!(
                    "{{\"tenant\": \"{t}\", \"jobs\": {}, \"fused\": {}, \"solo\": {}, \"gflop\": {:.4}, \"queue_s\": {:.6}, \"service_s\": {:.6}}}",
                    c.jobs_completed, c.fused_jobs, c.solo_jobs, c.flops / 1e9, c.queue_seconds, c.service_seconds
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let g = &run.ledger.global;
        let resilience = format!(
            "{{\"shed_overload\": {}, \"lost\": {}, \"aborted\": {}, \"retry_jobs\": {}, \"retry_attempts\": {}, \"retry_launches\": {}, \"retry_seconds\": {:.6}, \"worker_panics\": {}, \"breaker_opens\": {}, \"breaker_closes\": {}}}",
            g.jobs_shed_overload,
            g.jobs_lost,
            g.jobs_aborted,
            g.retry_jobs,
            g.retry_attempts,
            g.retry_launches,
            g.retry_seconds,
            run.ledger.worker_panics,
            run.ledger.breaker_opens,
            run.ledger.breaker_closes
        );
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"wall_s\": {:.6}, \"gflops\": {:.4}, \"batches\": {}, \"fused_jobs\": {}, \"solo_jobs\": {}, \"shed\": {}, \"failed\": {}, \"resilience\": {resilience}, \"classes\": [{classes}], \"tenants\": [{ledger}]}}{}\n",
            run.label,
            run.wall_s,
            run.gflops,
            run.batches,
            run.fused_jobs,
            run.solo_jobs,
            run.shed,
            run.failed,
            if ri == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    eprintln!("wrote BENCH_service.json");

    if check {
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "check: batched >= one-at-a-time (median alternating-rep time ratio) on the fused-shape gate, zero steady-state arena misses, all serviced matrices bit-identical, ledgers reconcile"
        );
    }
}
