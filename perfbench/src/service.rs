//! The `Service` workloads: a seeded three-shape, three-tenant job mix
//! driven through one service worker, either open-loop at a fixed arrival
//! rate (`Paced`) or as back-to-back bursts all due at once (`Burst`).
//! Every job's latency is measured from when it was due, and every result
//! is compared bit for bit with a standalone `caqr_cpu` run of its input.

use crate::ceilings::Ceilings;
use crate::report::{median, percentile, sorted, trimmed_mean, windowed, Outcome, Rng};
use crate::timed::same_bits;
use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::service::logical_launches;
use caqr::{JobOutcome, JobSpec, Priority, Service, ServiceConfig, ServiceError, TenantCounters};
use caqr::{Ticket, TreeShape};
use dense::Matrix;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How jobs arrive.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Open loop: `RATE` jobs per second at Poisson arrival times.
    Paced,
    /// Bursts of `BURST` jobs, every job of a burst due at its start.
    Burst,
}

/// One shape class of the mix: matrix shape, tile shape, mix weight.
struct Shape {
    m: usize,
    n: usize,
    h: usize,
    w: usize,
    weight: usize,
}

const SHAPES: [Shape; 3] = [
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
];

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// Interactive / Standard / Batch split 20 / 60 / 20.
const CLASSES: [(Priority, usize); 3] = [
    (Priority::Interactive, 1),
    (Priority::Standard, 3),
    (Priority::Batch, 1),
];

/// Offered load of `Paced`: about 60% of one worker's solo capacity.
const RATE: f64 = 250.0;

/// Jobs per burst of `Burst`.
const BURST: usize = 240;

/// Distinct inputs per shape; jobs draw from this pool so each result can
/// be checked against a reference computed once.
const POOL: usize = 8;

/// Largest fused group a worker gathers.
const MAX_BATCH: usize = 8;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn opts(s: &Shape) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: s.h,
        panel_width: s.w,
        tree: TreeShape::DeviceArity,
        verify_checksums: false,
    }
}

pub fn params(traffic: Traffic) -> String {
    let mix: Vec<String> = SHAPES
        .iter()
        .map(|s| format!("{}x{} h{} w{} x{}", s.m, s.n, s.h, s.w, s.weight))
        .collect();
    let arrivals = match traffic {
        Traffic::Paced => format!("open-loop poisson {RATE} jobs/s"),
        Traffic::Burst => format!("bursts of {BURST} jobs due at once"),
    };
    format!(
        "f64 mix [{}] tenants 3 classes 20/60/20 workers 1 max_batch {MAX_BATCH} pool {POOL} {arrivals}",
        mix.join(", ")
    )
}

/// One planned job: shape class, pool input, tenant, class, and when it is
/// due (seconds after the phase starts).
struct Job {
    shape: usize,
    input: usize,
    tenant: usize,
    priority: Priority,
    due: f64,
}

/// `n` category indices in the exact proportions of `weights` (largest
/// remainder), in seeded random order.
fn stratified(rng: &mut Rng, n: usize, weights: &[usize]) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| n * w / total).collect();
    let mut short = n - counts.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(n * weights[i] % total));
    for &i in order.iter().cycle() {
        if short == 0 {
            break;
        }
        counts[i] += 1;
        short -= 1;
    }
    let mut v: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    rng.shuffle(&mut v);
    v
}

/// `n` jobs with the mix's exact proportions, all due at `dues`.
fn plan(rng: &mut Rng, dues: &[f64]) -> Vec<Job> {
    let n = dues.len();
    let weights: Vec<usize> = SHAPES.iter().map(|s| s.weight).collect();
    let shapes = stratified(rng, n, &weights);
    let tenants = stratified(rng, n, &[1; TENANTS.len()]);
    let class_w: Vec<usize> = CLASSES.iter().map(|c| c.1).collect();
    let classes = stratified(rng, n, &class_w);
    (0..n)
        .map(|i| Job {
            shape: shapes[i],
            input: rng.below(POOL),
            tenant: tenants[i],
            priority: CLASSES[classes[i]].0,
            due: dues[i],
        })
        .collect()
}

/// Inputs and their standalone `caqr_cpu` results, per shape.
struct Pool {
    inputs: Vec<Vec<Matrix<f64>>>,
    refs: Vec<Vec<Matrix<f64>>>,
}

impl Pool {
    fn new(seed: u64) -> Result<Pool, String> {
        let mut inputs = Vec::new();
        let mut refs = Vec::new();
        for (si, s) in SHAPES.iter().enumerate() {
            let mut ins = Vec::new();
            let mut rs = Vec::new();
            for i in 0..POOL {
                let stream = ((si * POOL + i) as u64) << 32;
                let a = dense::generate::uniform::<f64>(s.m, s.n, seed ^ stream);
                let f = caqr_cpu(a.clone(), opts(s)).map_err(|e| e.to_string())?;
                ins.push(a);
                rs.push(f.a);
            }
            inputs.push(ins);
            refs.push(rs);
        }
        Ok(Pool { inputs, refs })
    }

    fn spec(&self, j: &Job) -> JobSpec<f64> {
        JobSpec::new(
            self.inputs[j.shape][j.input].clone(),
            opts(&SHAPES[j.shape]),
        )
        .tenant(TENANTS[j.tenant])
        .priority(j.priority)
    }
}

/// Running tallies over the resolved jobs of the timed phase.
#[derive(Default)]
struct Tally {
    /// Latency from due, queue wait, and execution time, in seconds.
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    exec: Vec<f64>,
    completed: u64,
    failed: u64,
    mismatches: u64,
    flops: f64,
    /// Logical launches of jobs that ran solo (each issued its own regions).
    solo_launches: u64,
    /// Latest submission after its due time, in seconds.
    late_max: f64,
    /// Busy span of the phase, in seconds (summed over bursts).
    span: f64,
}

impl Tally {
    /// Account one job that was due at `due` and submitted at `submitted`
    /// (both seconds after its phase started); returns its completion time.
    fn resolve(
        &mut self,
        pool: &Pool,
        job: &Job,
        submitted: f64,
        outcome: Option<Result<JobOutcome<f64>, ServiceError>>,
    ) -> f64 {
        self.late_max = self.late_max.max(submitted - job.due);
        let Some(Ok(o)) = outcome else {
            self.failed += 1;
            return submitted;
        };
        let f = match o.result {
            Ok(f) => f,
            Err(_) => {
                self.failed += 1;
                return submitted;
            }
        };
        let latency = o.latency.as_secs_f64();
        let queue_wait = o.queue_wait.as_secs_f64();
        self.latency.push(submitted - job.due + latency);
        self.queue_wait.push(queue_wait);
        self.exec.push(latency - queue_wait);
        self.completed += 1;
        let (m, n) = f.a.shape();
        self.flops += dense::geqrf_flops(m, n);
        if o.fused_with == 1 {
            self.solo_launches += logical_launches(&f) as u64;
        }
        self.mismatches += u64::from(!same_bits(&f.a, &pool.refs[job.shape][job.input]));
        submitted + latency
    }
}

fn start_service(capacity: usize) -> Service<f64> {
    Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: capacity,
        max_batch: MAX_BATCH,
        ..ServiceConfig::default()
    })
}

/// Submit `jobs` all at once (pre-built specs), wait for every outcome,
/// and account them; returns the busy span from the first due time to the
/// last completion.
fn run_burst(svc: &Service<f64>, pool: &Pool, jobs: &[Job], tally: &mut Tally) -> f64 {
    let specs: Vec<JobSpec<f64>> = jobs.iter().map(|j| pool.spec(j)).collect();
    let t0 = Instant::now();
    let tickets: Vec<(f64, Option<Ticket<f64>>)> = specs
        .into_iter()
        .map(|s| (t0.elapsed().as_secs_f64(), svc.submit(s).ok()))
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|(at, t)| (at, t.map(Ticket::wait)))
        .collect();
    let mut end = 0.0f64;
    for (job, (at, o)) in jobs.iter().zip(outcomes) {
        end = end.max(tally.resolve(pool, job, at, o));
    }
    end
}

/// Open loop: a generator thread submits each job at its due time (its
/// spec built while waiting for the previous due time); this thread
/// resolves the tickets in submission order.
fn run_paced(svc: &Service<f64>, pool: &Pool, jobs: &[Job], tally: &mut Tally) -> f64 {
    let (tx, rx) = mpsc::channel::<(usize, f64, Option<Ticket<f64>>)>();
    let t0 = Instant::now();
    let mut end = 0.0f64;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut next = jobs.first().map(|j| pool.spec(j));
            for (i, job) in jobs.iter().enumerate() {
                let spec = next.take().expect("spec built ahead of its due time");
                let due = Duration::from_secs_f64(job.due);
                if let Some(gap) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(gap);
                }
                let at = t0.elapsed().as_secs_f64();
                let ticket = svc.submit(spec).ok();
                if tx.send((i, at, ticket)).is_err() {
                    return;
                }
                next = jobs.get(i + 1).map(|j| pool.spec(j));
            }
        });
        for (i, at, ticket) in rx {
            end = end.max(tally.resolve(pool, &jobs[i], at, ticket.map(Ticket::wait)));
        }
    });
    end
}

pub fn run(traffic: Traffic, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng(seed);
    // Plan the timed phase first so the set-up can size the queue for it.
    let paced_jobs = (traffic == Traffic::Paced).then(|| {
        let n = (RATE * seconds).round().max(1.0) as usize;
        let dues = sorted((0..n).map(|_| rng.unit() * seconds).collect());
        plan(&mut rng, &dues)
    });
    let capacity = paced_jobs
        .as_ref()
        .map_or(BURST, Vec::len)
        .max(2 * SHAPES.len() * POOL);

    // Set-up: pool inputs and references, arena prewarm, service start, and
    // one warm-up burst through the service.
    let mut setups = Vec::new();
    let mut ready = None;
    let mut warm_tally = Tally::default();
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        if let Some((svc, _)) = ready.take() {
            Service::shutdown(svc);
        }
        let t0 = Instant::now();
        let pool = match Pool::new(seed) {
            Ok(p) => p,
            Err(e) => {
                out.check(format!("reference factorizations: {e}"), false);
                return out;
            }
        };
        for s in &SHAPES {
            dense::arena::prewarm::<f64>(s.h * s.w, 16);
            dense::arena::prewarm::<f64>(s.w * s.w, 16);
        }
        let svc = start_service(capacity);
        let warm: Vec<Job> = (0..2 * SHAPES.len() * POOL)
            .map(|i| Job {
                shape: i / (2 * POOL),
                input: i % POOL,
                tenant: i % TENANTS.len(),
                priority: Priority::Standard,
                due: 0.0,
            })
            .collect();
        run_burst(&svc, &pool, &warm, &mut warm_tally);
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((svc, pool));
    }
    out.check(
        format!(
            "{} warm-up jobs bit-identical to caqr_cpu ({} failed, {} differ)",
            warm_tally.completed, warm_tally.failed, warm_tally.mismatches
        ),
        warm_tally.failed == 0 && warm_tally.mismatches == 0,
    );
    let (svc, pool) = ready.expect("at least one set-up ran");
    let ceilings = trace.then(Ceilings::measure);

    // Timed phase.
    let before = svc.ledger();
    let mut tally = Tally::default();
    dense::arena::reset_stats::<f64>();
    match &paced_jobs {
        Some(jobs) => tally.span = run_paced(&svc, &pool, jobs, &mut tally),
        None => {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < seconds || tally.span == 0.0 {
                let jobs = plan(&mut rng, &[0.0; BURST]);
                tally.span += run_burst(&svc, &pool, &jobs, &mut tally);
            }
        }
    }
    let misses = dense::arena::stats::<f64>().misses;
    let ledger = svc.ledger();
    svc.shutdown();
    // Ledger counters accrued by the timed phase alone.
    let grew = |f: fn(&TenantCounters) -> u64| f(&ledger.global) - f(&before.global);
    let ledger_completed = grew(|c| c.jobs_completed);

    out.attempted = tally.completed + tally.failed;
    out.failed = tally.failed;
    out.check(
        format!(
            "{} jobs bit-identical to standalone caqr_cpu ({} differ)",
            tally.completed, tally.mismatches
        ),
        tally.mismatches == 0,
    );
    let rec = ledger.reconcile();
    out.check(
        format!(
            "ledger reconciles: {}",
            rec.as_ref().err().map_or("ok", String::as_str)
        ),
        rec.is_ok(),
    );
    out.check(
        format!(
            "ledger counts {} completed jobs, the tickets {}",
            ledger_completed, tally.completed
        ),
        ledger_completed == tally.completed,
    );

    let lat = sorted(tally.latency.clone());
    let p99 = percentile(&lat, 0.99) * 1e3;
    match ceilings {
        None => {
            out.metric("gflops", tally.flops / tally.span / 1e9);
            out.metric(
                "latency_trimmed_mean_ms",
                trimmed_mean(&tally.latency) * 1e3,
            );
            out.metric("latency_p90_ms", windowed(&tally.latency, 0.9) * 1e3);
            out.metric(
                "completed_share",
                tally.completed as f64 / out.attempted.max(1) as f64,
            );
            out.metric("setup_s", median(setups));
            println!(
                "samples: {} jobs; latency p99 {p99:.3} ms (recorded, not gated)",
                lat.len()
            );
        }
        Some(c) => {
            let qw = sorted(tally.queue_wait.clone());
            out.metric("service.queue_wait_p50_ms", percentile(&qw, 0.5) * 1e3);
            out.metric("service.queue_wait_p90_ms", percentile(&qw, 0.9) * 1e3);
            out.metric("service.exec_p50_ms", median(tally.exec.clone()) * 1e3);
            out.metric("service.latency_p99_ms", p99);
            let fused = grew(|c| c.fused_jobs) as f64;
            let dispatched = fused + grew(|c| c.solo_jobs) as f64;
            let batches = (ledger.batches - before.batches) as f64;
            out.metric("service.fused_share", fused / dispatched);
            out.metric("service.batch_size_mean", dispatched / batches);
            let issued = ledger.fused_launches - before.fused_launches + tally.solo_launches;
            let logical = grew(|c| c.launches) as f64;
            out.metric("service.launch_fusion_ratio", logical / issued as f64);
            out.metric("service.generator_late_ms", tally.late_max * 1e3);
            let late_jobs = grew(|c| c.deadline_misses) as f64;
            out.metric("service.deadline_misses", late_jobs);
            out.metric("dense.gemm.gflops", c.gemm_gflops);
            out.metric("dense.stream.gbs", c.stream_gbs);
            out.metric("dense.arena.misses", misses as f64);
            println!("samples: {} jobs", lat.len());
        }
    }
    out
}
