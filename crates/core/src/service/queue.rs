//! The admission queue, supervised worker pool, and dispatch loop: bounded
//! backpressured admission with per-tenant quotas, priority-aware batch
//! gathering, the overload circuit breaker, the fault-isolating dispatch
//! path (batch carve-out + bounded solo retry), and worker supervision
//! that guarantees every admitted [`Ticket`] resolves.

use super::batch::{factor_many_resilient, factor_many_with_stats, fuse_key, FuseKey};
use super::ledger::ServiceLedger;
use super::resilience::TenantQuota;
use super::{
    lock, logical_launches, run_solo_resilient, service_retryable, JobSpec, Priority,
    ServiceConfig, ServiceError, SubmitError,
};
use crate::backend::Factorization;
use crate::multicore::CpuCaqrOptions;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the service hands back for one job.
pub struct JobOutcome<T: Scalar> {
    /// The factorization, or the typed failure.
    pub result: Result<Factorization<T>, ServiceError>,
    /// Tenant the job was charged to.
    pub tenant: String,
    /// Priority class the job ran under.
    pub priority: Priority,
    /// Time spent queued before dispatch.
    pub queue_wait: Duration,
    /// Submission-to-completion latency.
    pub latency: Duration,
    /// Size of the fused group the job ran in (1 = solo).
    pub fused_with: usize,
    /// The job completed after its deadline (still served).
    pub missed_deadline: bool,
    /// Solo retries spent on the job after a batch-path fault (0 on the
    /// fault-free path).
    pub retries: u32,
}

/// Claim check for a submitted job.
pub struct Ticket<T: Scalar> {
    pub(super) rx: mpsc::Receiver<JobOutcome<T>>,
}

impl<T: Scalar> Ticket<T> {
    /// Block until the job resolves. Never hangs: every admitted job is
    /// guaranteed an outcome — served, shed, aborted at shutdown, or
    /// resolved by the supervisor when its worker died. A closed channel
    /// (every sender dropped without a message — a structurally lost
    /// worker) surfaces as [`ServiceError::WorkerLost`].
    pub fn wait(self) -> Result<JobOutcome<T>, ServiceError> {
        self.rx
            .recv()
            .map_err(|_| ServiceError::WorkerLost { worker: None })
    }
}

pub(super) struct QueuedJob<T: Scalar> {
    pub(super) spec: JobSpec<T>,
    pub(super) key: Option<FuseKey>,
    pub(super) seq: u64,
    pub(super) submitted: Instant,
    pub(super) tx: mpsc::Sender<JobOutcome<T>>,
}

pub(super) struct QueueState<T: Scalar> {
    pub(super) q: VecDeque<QueuedJob<T>>,
    seq: u64,
    shutdown: bool,
    /// Jobs currently queued per tenant, for quota admission.
    tenant_queued: BTreeMap<String, usize>,
}

/// One job's dispatch outcome before accounting: the result plus the solo
/// retries spent on it, the logical launches those retries cost, and the
/// seconds the retry loop (backoff included) took.
type Resolved<T> = (Result<Factorization<T>, ServiceError>, u32, u64, f64);

/// One dispatched job's supervision record: enough to resolve its ticket
/// with [`ServiceError::WorkerLost`] if the serving worker dies before
/// sending an outcome. Posted to the worker's flight board at dispatch,
/// marked resolved when the outcome is sent, reaped by the supervisor.
struct Flight<T: Scalar> {
    tx: Mutex<mpsc::Sender<JobOutcome<T>>>,
    tenant: String,
    priority: Priority,
    submitted: Instant,
    deadline: Option<Duration>,
    resolved: AtomicBool,
}

/// The overload circuit breaker's state (policy in
/// [`super::ShedPolicy`]): open/closed, plus the sliding window of
/// deadline-carrying completions the miss-rate trigger watches.
struct Breaker {
    open: bool,
    window: VecDeque<bool>,
}

pub(super) struct Shared<T: Scalar> {
    pub(super) state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    pub(super) ledger: Mutex<ServiceLedger>,
    capacity: usize,
    max_batch: usize,
    cfg: ServiceConfig,
    breaker: Mutex<Breaker>,
    /// Per-worker flight boards (indexed by worker id).
    flights: Vec<Mutex<Vec<Arc<Flight<T>>>>>,
    /// Batches dispatched, for the injected worker-panic cadence.
    batch_ordinal: AtomicU64,
}

impl<T: Scalar> Shared<T> {
    pub(super) fn new(cfg: &ServiceConfig) -> Shared<T> {
        Shared {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                seq: 0,
                shutdown: false,
                tenant_queued: BTreeMap::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            ledger: Mutex::new(ServiceLedger::default()),
            capacity: cfg.queue_capacity.max(1),
            max_batch: cfg.max_batch.max(1),
            breaker: Mutex::new(Breaker {
                open: false,
                window: VecDeque::new(),
            }),
            flights: (0..cfg.workers.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            batch_ordinal: AtomicU64::new(0),
            cfg: cfg.clone(),
        }
    }

    pub(super) fn push(&self, st: &mut QueueState<T>, spec: JobSpec<T>) -> Ticket<T> {
        let (tx, rx) = mpsc::channel();
        let key = fuse_key(&spec.a, &spec.opts);
        lock(&self.ledger).charge(&spec.tenant, |c| c.jobs_submitted += 1);
        *st.tenant_queued.entry(spec.tenant.clone()).or_insert(0) += 1;
        st.q.push_back(QueuedJob {
            spec,
            key,
            seq: st.seq,
            submitted: Instant::now(),
            tx,
        });
        st.seq += 1;
        self.not_empty.notify_one();
        Ticket { rx }
    }

    /// The tenant's current admission cap, if any ([`TenantQuota`]).
    fn quota_cap(&self, st: &QueueState<T>, tenant: &str) -> Option<usize> {
        match self.cfg.quota {
            TenantQuota::Unlimited => None,
            TenantQuota::MaxQueued(k) => Some(k),
            TenantQuota::FairShare { min } => {
                let mut active = st.tenant_queued.values().filter(|&&v| v > 0).count();
                if st.tenant_queued.get(tenant).is_none_or(|&v| v == 0) {
                    active += 1;
                }
                Some((self.capacity / active.max(1)).max(min))
            }
        }
    }

    /// Quota admission check: fail-fast, never blocks — a tenant at its
    /// cap cannot park on the backpressure path and starve the rest.
    #[allow(clippy::result_large_err)] // the Err hands the JobSpec back
    fn check_quota(
        &self,
        st: &QueueState<T>,
        spec: JobSpec<T>,
    ) -> Result<JobSpec<T>, SubmitError<T>> {
        if let Some(cap) = self.quota_cap(st, &spec.tenant) {
            let queued = st.tenant_queued.get(&spec.tenant).copied().unwrap_or(0);
            if queued >= cap {
                return Err(SubmitError::QuotaExceeded {
                    spec,
                    queued,
                    quota: cap,
                });
            }
        }
        Ok(spec)
    }

    /// Non-blocking admission: reject with the job when full, over quota,
    /// or shut down.
    #[allow(clippy::result_large_err)] // the Err hands the JobSpec back
    pub(super) fn try_push(&self, spec: JobSpec<T>) -> Result<Ticket<T>, SubmitError<T>> {
        let mut st = lock(&self.state);
        if st.shutdown {
            return Err(SubmitError::Shutdown(spec));
        }
        let spec = self.check_quota(&st, spec)?;
        if st.q.len() >= self.capacity {
            return Err(SubmitError::Full(spec));
        }
        Ok(self.push(&mut st, spec))
    }

    /// Blocking admission: wait for queue space (backpressure). Quota
    /// violations still fail fast instead of blocking.
    #[allow(clippy::result_large_err)] // the Err hands the JobSpec back
    pub(super) fn push_blocking(&self, spec: JobSpec<T>) -> Result<Ticket<T>, SubmitError<T>> {
        let mut st = lock(&self.state);
        if st.shutdown {
            return Err(SubmitError::Shutdown(spec));
        }
        let spec = self.check_quota(&st, spec)?;
        while st.q.len() >= self.capacity && !st.shutdown {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if st.shutdown {
            return Err(SubmitError::Shutdown(spec));
        }
        Ok(self.push(&mut st, spec))
    }

    /// Pull the next batch: the best-(priority, admission-order) job leads,
    /// and up to `max_batch - 1` queued jobs of the same shape class ride
    /// along regardless of their own priority — opportunistic fusion makes
    /// them near-free. Returns `None` when shut down and drained.
    pub(super) fn next_batch(&self) -> Option<Vec<QueuedJob<T>>> {
        let mut st = lock(&self.state);
        loop {
            if !st.q.is_empty() {
                break;
            }
            if st.shutdown {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let lead =
            st.q.iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.spec.priority, j.seq))
                .map(|(i, _)| i)
                .expect("queue verified non-empty");
        let lead_key = st.q[lead].key;
        let mut picks = vec![lead];
        if let Some(key) = lead_key {
            for (i, job) in st.q.iter().enumerate() {
                if picks.len() >= self.max_batch {
                    break;
                }
                if i != lead && job.key == Some(key) {
                    picks.push(i);
                }
            }
        }
        // Preserve admission order within the batch; remove back-to-front
        // so earlier indices stay valid.
        picks.sort_unstable();
        let mut batch: Vec<QueuedJob<T>> = Vec::with_capacity(picks.len());
        for &i in picks.iter().rev() {
            batch.push(st.q.remove(i).expect("picked index in bounds"));
        }
        batch.reverse();
        for job in &batch {
            if let Some(v) = st.tenant_queued.get_mut(&job.spec.tenant) {
                *v = v.saturating_sub(1);
            }
        }
        drop(st);
        self.not_full.notify_all();
        Some(batch)
    }

    /// Serve one batch on worker `worker`: post flights for supervision,
    /// shed expired-deadline and breaker-shed jobs, run the rest through
    /// the (resilient) fused engine with bounded solo retry, account
    /// everything, resolve the tickets, and update the circuit breaker.
    pub(super) fn serve(&self, batch: Vec<QueuedJob<T>>, worker: usize) {
        let dispatch = Instant::now();
        let depth = lock(&self.state).q.len() + batch.len();
        let breaker_open = lock(&self.breaker).open;

        // Post every job to the flight board *before* any work: if this
        // worker dies anywhere past this point, the supervisor resolves
        // the unresolved flights with `WorkerLost` and respawns.
        let mut flights: Vec<Arc<Flight<T>>> = Vec::with_capacity(batch.len());
        {
            let mut board = lock(&self.flights[worker]);
            for job in &batch {
                let fl = Arc::new(Flight {
                    tx: Mutex::new(job.tx.clone()),
                    tenant: job.spec.tenant.clone(),
                    priority: job.spec.priority,
                    submitted: job.submitted,
                    deadline: job.spec.deadline,
                    resolved: AtomicBool::new(false),
                });
                board.push(Arc::clone(&fl));
                flights.push(fl);
            }
        }

        // Injected worker kill (chaos / supervision tests): the panic fires
        // after the flights are posted, so every ticket still resolves.
        if let Some(fp) = &self.cfg.resilience.faults {
            if let Some(every) = fp.worker_panic_every {
                let bo = self.batch_ordinal.fetch_add(1, Ordering::Relaxed);
                if (bo + 1).is_multiple_of(every) {
                    panic!("injected worker panic: batch #{bo}");
                }
            }
        }

        // Shed phase: expired deadlines, then the open breaker (which
        // sheds only `Batch`-class work).
        let mut live: Vec<(QueuedJob<T>, Arc<Flight<T>>)> = Vec::with_capacity(batch.len());
        for (job, fl) in batch.into_iter().zip(flights) {
            let queued = dispatch.duration_since(job.submitted);
            match job.spec.deadline {
                Some(deadline) if queued > deadline => {
                    lock(&self.ledger).charge(&job.spec.tenant, |c| {
                        c.jobs_shed += 1;
                        c.queue_seconds += queued.as_secs_f64();
                    });
                    let _ = job.tx.send(JobOutcome {
                        result: Err(ServiceError::DeadlineExpired { queued, deadline }),
                        tenant: job.spec.tenant,
                        priority: job.spec.priority,
                        queue_wait: queued,
                        latency: queued,
                        fused_with: 1,
                        missed_deadline: true,
                        retries: 0,
                    });
                    fl.resolved.store(true, Ordering::SeqCst);
                }
                _ if breaker_open && job.spec.priority == Priority::Batch => {
                    lock(&self.ledger).charge(&job.spec.tenant, |c| {
                        c.jobs_shed_overload += 1;
                        c.queue_seconds += queued.as_secs_f64();
                    });
                    let _ = job.tx.send(JobOutcome {
                        result: Err(ServiceError::Overloaded {
                            queue_depth: depth,
                            priority: job.spec.priority,
                        }),
                        tenant: job.spec.tenant,
                        priority: job.spec.priority,
                        queue_wait: queued,
                        latency: queued,
                        fused_with: 1,
                        missed_deadline: false,
                        retries: 0,
                    });
                    fl.resolved.store(true, Ordering::SeqCst);
                }
                _ => live.push((job, fl)),
            }
        }
        let mut misses: Vec<bool> = Vec::new();
        if live.is_empty() {
            lock(&self.flights[worker]).retain(|f| !f.resolved.load(Ordering::SeqCst));
            self.update_breaker(&misses);
            return;
        }

        // The engine: plain fused when resilience is off, the verified /
        // fault-injecting engine when it's on.
        let res = &self.cfg.resilience;
        let active = res.active();
        let inputs: Vec<(Matrix<T>, CpuCaqrOptions)> = live
            .iter()
            .map(|(j, _)| (j.spec.a.clone(), j.spec.opts))
            .collect();
        let (results, stats) = if active {
            let drawn: Vec<_> = live
                .iter()
                .map(|(j, _)| res.faults.as_ref().and_then(|fp| fp.draw(j.seq, 0)))
                .collect();
            factor_many_resilient(inputs, &drawn, res.verify_batches, &res.recovery)
        } else {
            factor_many_with_stats(inputs)
        };

        // Bounded solo retry with exponential backoff for members that
        // failed retryably (carved out of a fused group, or a solo fault).
        let finals: Vec<Resolved<T>> = live
            .iter()
            .zip(results)
            .map(|((job, _), result)| match result {
                Ok(f) => (Ok(f), 0, 0, 0.0),
                Err(e) if active && res.retry.max_retries > 0 && service_retryable(&e) => {
                    let t0 = Instant::now();
                    let mut attempts = 0u32;
                    let mut last = e;
                    let (outcome, launches) = loop {
                        if attempts >= res.retry.max_retries {
                            break (Err(ServiceError::RetryExhausted { attempts, last }), 0);
                        }
                        attempts += 1;
                        std::thread::sleep(res.retry.backoff_for(attempts));
                        let fault = res
                            .faults
                            .as_ref()
                            .and_then(|fp| fp.draw(job.seq, attempts));
                        match run_solo_resilient(
                            job.spec.a.clone(),
                            job.spec.opts,
                            fault,
                            &res.recovery,
                        ) {
                            Ok((f, _)) => {
                                let l = logical_launches(&f) as u64;
                                break (Ok(f), l);
                            }
                            Err(e2) if service_retryable(&e2) => last = e2,
                            Err(e2) => break (Err(ServiceError::Caqr(e2)), 0),
                        }
                    };
                    (outcome, attempts, launches, t0.elapsed().as_secs_f64())
                }
                Err(e) => (Err(ServiceError::Caqr(e)), 0, 0, 0.0),
            })
            .collect();
        let service_secs = dispatch.elapsed().as_secs_f64();
        let fused_with = if stats.fused_jobs > 0 {
            stats.fused_jobs
        } else {
            1
        };

        // Accounting + ticket resolution. Fault-free launches land in
        // `launches`; work done by the retry path lands in the dedicated
        // `retry_*` counters so the two costs stay separable (and both
        // reconcile per tenant against the global row).
        {
            let mut ledger = lock(&self.ledger);
            ledger.batches += 1;
            ledger.fused_launches += stats.fused_launches as u64;
            for ((job, fl), (result, retries, retry_launches, retry_secs)) in
                live.into_iter().zip(finals)
            {
                let queued = dispatch.duration_since(job.submitted);
                let latency = job.submitted.elapsed();
                let missed = job.spec.deadline.is_some_and(|d| latency > d);
                let in_fused = stats.fused_jobs > 0 && job.key.is_some();
                ledger.charge(&job.spec.tenant, |c| {
                    c.queue_seconds += queued.as_secs_f64();
                    c.service_seconds += service_secs;
                    if missed {
                        c.deadline_misses += 1;
                    }
                    if in_fused {
                        c.fused_jobs += 1;
                    } else {
                        c.solo_jobs += 1;
                    }
                    if retries > 0 {
                        c.retry_jobs += 1;
                        c.retry_attempts += retries as u64;
                        c.retry_launches += retry_launches;
                        c.retry_seconds += retry_secs;
                    }
                    match &result {
                        Ok(f) => {
                            c.jobs_completed += 1;
                            c.panels += f.panels.len() as u64;
                            if retries == 0 {
                                c.launches += logical_launches(f) as u64;
                            }
                            let (m, n) = f.a.shape();
                            c.flops += dense::geqrf_flops(m, n);
                        }
                        Err(_) => c.jobs_failed += 1,
                    }
                });
                if job.spec.deadline.is_some() {
                    misses.push(missed);
                }
                let _ = job.tx.send(JobOutcome {
                    result,
                    tenant: job.spec.tenant,
                    priority: job.spec.priority,
                    queue_wait: queued,
                    latency,
                    fused_with: if in_fused { fused_with } else { 1 },
                    missed_deadline: missed,
                    retries,
                });
                fl.resolved.store(true, Ordering::SeqCst);
            }
        }
        lock(&self.flights[worker]).retain(|f| !f.resolved.load(Ordering::SeqCst));
        self.update_breaker(&misses);
    }

    /// Advance the circuit breaker (DESIGN.md §15): feed the sliding
    /// deadline-miss window, open on depth or miss-rate, close on drained
    /// depth — with the `open_depth`/`close_depth` hysteresis gap.
    fn update_breaker(&self, misses: &[bool]) {
        let shed = &self.cfg.shed;
        if !shed.enabled() {
            return;
        }
        let depth = lock(&self.state).q.len();
        let (mut opened, mut closed) = (0u64, 0u64);
        {
            let mut br = lock(&self.breaker);
            if shed.miss_window > 0 {
                for &m in misses {
                    br.window.push_back(m);
                    while br.window.len() > shed.miss_window {
                        br.window.pop_front();
                    }
                }
            }
            if br.open {
                if depth <= shed.close_depth {
                    br.open = false;
                    br.window.clear();
                    closed = 1;
                }
            } else {
                let miss_trigger = shed.miss_window > 0
                    && br.window.len() >= shed.miss_window
                    && br.window.iter().filter(|&&m| m).count() as f64
                        >= shed.open_miss_rate * br.window.len() as f64;
                if depth >= shed.open_depth || miss_trigger {
                    br.open = true;
                    br.window.clear();
                    opened = 1;
                }
            }
        }
        if opened + closed > 0 {
            let mut l = lock(&self.ledger);
            l.breaker_opens += opened;
            l.breaker_closes += closed;
        }
    }

    /// Supervisor path: worker `worker` died mid-serve. Resolve every
    /// still-unresolved flight on its board with
    /// [`ServiceError::WorkerLost`] and account the loss; the caller then
    /// re-enters the serve loop (the respawn).
    fn reap(&self, worker: usize) {
        // Count the death before resolving its flights: a waiter woken by
        // a `WorkerLost` outcome must already see the supervision counters.
        {
            let mut l = lock(&self.ledger);
            l.worker_panics += 1;
            l.workers_respawned += 1;
        }
        let dead: Vec<Arc<Flight<T>>> = lock(&self.flights[worker]).drain(..).collect();
        for fl in dead {
            if fl.resolved.swap(true, Ordering::SeqCst) {
                continue;
            }
            let waited = fl.submitted.elapsed();
            let missed = fl.deadline.is_some_and(|d| waited > d);
            lock(&self.ledger).charge(&fl.tenant, |c| {
                c.jobs_lost += 1;
                c.queue_seconds += waited.as_secs_f64();
            });
            let _ = lock(&fl.tx).send(JobOutcome {
                result: Err(ServiceError::WorkerLost {
                    worker: Some(worker),
                }),
                tenant: fl.tenant.clone(),
                priority: fl.priority,
                queue_wait: waited,
                latency: waited,
                fused_with: 1,
                missed_deadline: missed,
                retries: 0,
            });
        }
    }

    /// The supervised worker body: pull-and-serve until shutdown, with the
    /// whole loop under `catch_unwind`. A panic (an injected worker kill,
    /// a bug in a serve path) reaps the worker's flights and re-enters the
    /// loop — the pool never shrinks and no ticket is ever orphaned.
    fn worker_loop(&self, worker: usize) {
        loop {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                while let Some(batch) = self.next_batch() {
                    self.serve(batch, worker);
                }
            }));
            match ran {
                Ok(()) => break,
                Err(_) => self.reap(worker),
            }
        }
    }
}

/// The batched multi-tenant QR service: supervised worker threads over a
/// bounded admission queue, dispatching shape-fused [`factor_many`]
/// batches with optional service-tier fault tolerance (DESIGN.md §15).
///
/// ```no_run
/// use caqr::service::{JobSpec, Service, ServiceConfig};
/// use caqr::CpuCaqrOptions;
///
/// let svc = Service::<f64>::start(ServiceConfig::default());
/// let a = dense::generate::uniform::<f64>(4096, 16, 1);
/// let ticket = svc
///     .submit(JobSpec::new(a, CpuCaqrOptions::tuned_for_width(16)).tenant("alice"))
///     .unwrap_or_else(|_| panic!("service accepting"));
/// let outcome = ticket.wait().expect("job served");
/// let f = outcome.result.expect("factorization succeeded");
/// println!("R is {}x{}", f.r().rows(), f.r().cols());
/// svc.shutdown();
/// ```
///
/// [`factor_many`]: super::factor_many
pub struct Service<T: Scalar> {
    shared: Arc<Shared<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Scalar> Service<T> {
    /// Start the worker pool.
    pub fn start(cfg: ServiceConfig) -> Service<T> {
        let shared = Arc::new(Shared::new(&cfg));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("caqr-service-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn service worker thread")
            })
            .collect();
        Service { shared, workers }
    }

    /// Submit a job, blocking while the queue is at capacity
    /// (backpressure). Fails fast on quota violations and once the
    /// service is shutting down.
    // A rejected submit hands the whole `JobSpec` (matrix included) back to
    // the caller for retry — the large `Err` is the point, not an accident.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, spec: JobSpec<T>) -> Result<Ticket<T>, SubmitError<T>> {
        self.shared.push_blocking(spec)
    }

    /// Submit without blocking: a full queue returns the job immediately.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, spec: JobSpec<T>) -> Result<Ticket<T>, SubmitError<T>> {
        self.shared.try_push(spec)
    }

    /// Snapshot the per-tenant ledger.
    pub fn ledger(&self) -> ServiceLedger {
        lock(&self.shared.ledger).clone()
    }

    /// Graceful shutdown: stop admitting, serve everything queued, join
    /// the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Immediate shutdown: stop admitting, **drain** still-queued jobs —
    /// resolving each ticket with [`ServiceError::ShuttingDown`], in
    /// admission order — and join the workers (in-flight batches finish).
    pub fn shutdown_now(mut self) {
        let drained: Vec<QueuedJob<T>> = {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            st.tenant_queued.clear();
            st.q.drain(..).collect()
        };
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for job in drained {
            let queued = job.submitted.elapsed();
            lock(&self.shared.ledger).charge(&job.spec.tenant, |c| {
                c.jobs_aborted += 1;
                c.queue_seconds += queued.as_secs_f64();
            });
            let _ = job.tx.send(JobOutcome {
                result: Err(ServiceError::ShuttingDown),
                tenant: job.spec.tenant,
                priority: job.spec.priority,
                queue_wait: queued,
                latency: queued,
                fused_with: 1,
                missed_deadline: false,
                retries: 0,
            });
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<T: Scalar> Drop for Service<T> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::TreeShape;
    use crate::multicore::caqr_cpu;
    use crate::service::{ResilienceConfig, RetryBudget, ServiceFaultPlan, ShedPolicy};
    use gpu_sim::FaultPlan;

    fn opts(h: usize, w: usize) -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: h,
            panel_width: w,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }

    #[test]
    fn service_end_to_end_matches_caqr_cpu_and_reconciles() {
        let svc = Service::<f64>::start(ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            max_batch: 4,
            ..ServiceConfig::default()
        });
        let tenants = ["alpha", "beta"];
        let mut expected = Vec::new();
        let mut tickets = Vec::new();
        for s in 0..10u64 {
            let a = dense::generate::uniform::<f64>(240, 12, 20 + s);
            let o = opts(48, 12);
            expected.push(caqr_cpu(a.clone(), o).unwrap().a);
            let spec = JobSpec::new(a, o)
                .tenant(tenants[(s % 2) as usize])
                .priority(Priority::ALL[(s % 3) as usize]);
            tickets.push(svc.submit(spec).unwrap_or_else(|_| panic!("accepting")));
        }
        for (ticket, want) in tickets.into_iter().zip(expected) {
            let out = ticket.wait().expect("served");
            assert_eq!(out.result.expect("factored").a, want);
        }
        let ledger = svc.ledger();
        assert_eq!(ledger.global.jobs_submitted, 10);
        assert_eq!(ledger.global.jobs_completed, 10);
        assert_eq!(ledger.global.fused_jobs + ledger.global.solo_jobs, 10);
        assert_eq!(ledger.tenants.len(), 2);
        ledger.reconcile().expect("split accounting holds");
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_jobs_are_shed_with_a_typed_error() {
        let svc = Service::<f64>::start(ServiceConfig::default());
        let a = dense::generate::uniform::<f64>(200, 8, 31);
        let ticket = svc
            .submit(JobSpec::new(a, opts(32, 8)).deadline(Duration::ZERO))
            .unwrap_or_else(|_| panic!("accepting"));
        let out = ticket.wait().expect("resolved");
        match out.result {
            Err(ServiceError::DeadlineExpired { deadline, .. }) => {
                assert_eq!(deadline, Duration::ZERO)
            }
            other => panic!("expected shed, got {:?}", other.map(|f| f.a.shape())),
        }
        let ledger = svc.ledger();
        assert_eq!(ledger.global.jobs_shed, 1);
        ledger.reconcile().expect("shed accounting reconciles");
        svc.shutdown();
    }

    #[test]
    fn priority_leads_and_same_shape_followers_fuse() {
        // Drive the picker directly (no workers) so the batch composition
        // is deterministic: a later Interactive job must lead, and only
        // same-shape-class jobs ride along, capped by max_batch.
        let shared: Shared<f64> = Shared::new(&ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 3,
            ..ServiceConfig::default()
        });
        let mk = |m: usize, p: Priority| {
            JobSpec::new(dense::generate::uniform::<f64>(m, 8, m as u64), opts(32, 8)).priority(p)
        };
        {
            let mut st = lock(&shared.state);
            for spec in [
                mk(200, Priority::Batch),
                mk(300, Priority::Batch),
                mk(300, Priority::Interactive),
                mk(300, Priority::Batch),
                mk(300, Priority::Batch),
            ] {
                let _ = shared.push(&mut st, spec);
            }
        }
        let batch = shared.next_batch().expect("queue non-empty");
        assert_eq!(batch.len(), 3, "max_batch caps the gather");
        assert!(batch
            .iter()
            .any(|j| j.spec.priority == Priority::Interactive));
        assert!(batch.iter().all(|j| j.spec.a.rows() == 300));
        // The 200-row job and one surplus 300-row job remain queued.
        assert_eq!(lock(&shared.state).q.len(), 2);
    }

    #[test]
    fn try_submit_backpressure_returns_the_job() {
        let shared: Shared<f64> = Shared::new(&ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 8,
            ..ServiceConfig::default()
        });
        let mk = || JobSpec::new(dense::generate::uniform::<f64>(64, 4, 1), opts(16, 4));
        assert!(shared.try_push(mk()).is_ok());
        assert!(shared.try_push(mk()).is_ok());
        match shared.try_push(mk()) {
            Err(SubmitError::Full(spec)) => assert_eq!(spec.a.shape(), (64, 4)),
            other => panic!("expected Full, got {:?}", other.err()),
        }
    }

    #[test]
    fn dead_workers_resolve_tickets_and_the_pool_survives() {
        // Every batch kills its worker: each ticket must still resolve
        // (with WorkerLost), the supervisor must respawn every time, and
        // the service must keep accepting work instead of deadlocking.
        let cfg = ServiceConfig {
            workers: 1,
            resilience: ResilienceConfig {
                faults: Some(ServiceFaultPlan::new(FaultPlan::explicit([])).worker_panic_every(1)),
                ..ResilienceConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = Service::<f64>::start(cfg);
        for s in 0..3u64 {
            let a = dense::generate::uniform::<f64>(96, 4, s);
            let ticket = svc
                .submit(JobSpec::new(a, opts(16, 4)).tenant("t"))
                .unwrap_or_else(|_| panic!("accepting"));
            let out = ticket.wait().expect("supervisor resolves the ticket");
            match out.result {
                Err(ServiceError::WorkerLost { worker }) => assert_eq!(worker, Some(0)),
                other => panic!("expected WorkerLost, got {:?}", other.map(|f| f.a.shape())),
            }
        }
        let ledger = svc.ledger();
        assert_eq!(ledger.global.jobs_lost, 3);
        assert!(ledger.worker_panics >= 3);
        assert_eq!(ledger.worker_panics, ledger.workers_respawned);
        ledger.reconcile().expect("loss accounting reconciles");
        svc.shutdown();
    }

    #[test]
    fn shutdown_now_drains_queued_jobs_in_admission_order() {
        // No worker threads: build the Service by hand so queued jobs are
        // guaranteed to still be queued when shutdown_now runs.
        let shared: Arc<Shared<f64>> = Arc::new(Shared::new(&ServiceConfig::default()));
        let mut tickets = Vec::new();
        {
            let mut st = lock(&shared.state);
            for s in 0..4u64 {
                let spec = JobSpec::new(dense::generate::uniform::<f64>(64, 4, s), opts(16, 4))
                    .tenant(format!("t{}", s % 2));
                tickets.push(shared.push(&mut st, spec));
            }
        }
        let svc = Service {
            shared: Arc::clone(&shared),
            workers: Vec::new(),
        };
        svc.shutdown_now();
        for ticket in tickets {
            match ticket.wait().expect("drained tickets resolve") {
                JobOutcome {
                    result: Err(ServiceError::ShuttingDown),
                    ..
                } => {}
                out => panic!(
                    "expected ShuttingDown, got {:?}",
                    out.result.map(|f| f.a.shape())
                ),
            }
        }
        let ledger = lock(&shared.ledger).clone();
        assert_eq!(ledger.global.jobs_aborted, 4);
        ledger.reconcile().expect("abort accounting reconciles");
    }

    #[test]
    fn breaker_opens_sheds_batch_class_and_closes_with_hysteresis() {
        // Drive the dispatch loop by hand (no worker threads) so breaker
        // transitions are deterministic: distinct shapes mean one job per
        // batch, depth crosses open_depth=2, and only Batch class is shed.
        let shared: Shared<f64> = Shared::new(&ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 8,
            shed: ShedPolicy {
                open_depth: 2,
                close_depth: 0,
                miss_window: 0,
                open_miss_rate: 1.1,
            },
            ..ServiceConfig::default()
        });
        let mut tickets = Vec::new();
        {
            let mut st = lock(&shared.state);
            for (i, p) in [
                Priority::Interactive,
                Priority::Interactive,
                Priority::Batch,
                Priority::Interactive,
            ]
            .into_iter()
            .enumerate()
            {
                let m = 64 + 16 * i; // distinct shapes: no fusion
                let spec =
                    JobSpec::new(dense::generate::uniform::<f64>(m, 4, i as u64), opts(16, 4))
                        .priority(p);
                tickets.push(shared.push(&mut st, spec));
            }
        }
        // Serve everything; after the first batch (depth 3 >= 2) the
        // breaker opens, shedding the Batch job at its dispatch.
        while let Some(batch) = {
            let empty = lock(&shared.state).q.is_empty();
            if empty {
                None
            } else {
                shared.next_batch()
            }
        } {
            shared.serve(batch, 0);
        }
        let mut shed = 0;
        let mut served = 0;
        for t in tickets {
            match t.wait().expect("resolved").result {
                Err(ServiceError::Overloaded { priority, .. }) => {
                    assert_eq!(priority, Priority::Batch);
                    shed += 1;
                }
                Ok(_) => served += 1,
                other => panic!("unexpected outcome {:?}", other.err()),
            }
        }
        assert_eq!(shed, 1, "exactly the Batch job is shed");
        assert_eq!(served, 3, "Interactive jobs ride through the open breaker");
        let ledger = lock(&shared.ledger).clone();
        assert_eq!(ledger.global.jobs_shed_overload, 1);
        assert_eq!(ledger.breaker_opens, 1);
        assert_eq!(ledger.breaker_closes, 1, "drained depth closes the breaker");
        ledger.reconcile().expect("shed accounting reconciles");
    }

    #[test]
    fn tenant_quotas_reject_without_blocking() {
        let shared: Shared<f64> = Shared::new(&ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 8,
            quota: TenantQuota::MaxQueued(2),
            ..ServiceConfig::default()
        });
        let mk = |t: &str| {
            JobSpec::new(dense::generate::uniform::<f64>(64, 4, 1), opts(16, 4)).tenant(t)
        };
        assert!(shared.push_blocking(mk("a")).is_ok());
        assert!(shared.push_blocking(mk("a")).is_ok());
        match shared.push_blocking(mk("a")) {
            Err(SubmitError::QuotaExceeded { queued, quota, .. }) => {
                assert_eq!((queued, quota), (2, 2));
            }
            other => panic!("expected QuotaExceeded, got {:?}", other.err()),
        }
        // Another tenant is unaffected.
        assert!(shared.push_blocking(mk("b")).is_ok());

        // Fair share: the cap tightens as tenants contend.
        let fair: Shared<f64> = Shared::new(&ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 8,
            quota: TenantQuota::FairShare { min: 1 },
            ..ServiceConfig::default()
        });
        for _ in 0..4 {
            assert!(fair.push_blocking(mk("a")).is_ok(), "solo tenant gets 8/1");
        }
        assert!(
            fair.push_blocking(mk("b")).is_ok(),
            "b activates: cap 8/2=4"
        );
        match fair.push_blocking(mk("a")) {
            Err(SubmitError::QuotaExceeded { queued, quota, .. }) => {
                assert_eq!((queued, quota), (4, 4));
            }
            other => panic!("expected QuotaExceeded, got {:?}", other.err()),
        }
    }

    #[test]
    fn chaotic_service_resolves_everything_bitwise_and_reconciles() {
        // A miniature chaos soak: seeded SDC/hang/launch/host-panic faults
        // plus periodic worker kills, verified batches, bounded retry.
        // Every ticket must resolve; every success must be bit-identical
        // to standalone caqr_cpu; the ledger must reconcile.
        let cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 4,
            resilience: ResilienceConfig {
                verify_batches: true,
                faults: Some(
                    ServiceFaultPlan::new(FaultPlan::seeded_service_mix(7, 0.10, 0.10, 0.05, 0.05))
                        .worker_panic_every(5),
                ),
                retry: RetryBudget {
                    max_retries: 3,
                    backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(1),
                },
                ..ResilienceConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = Service::<f64>::start(cfg);
        let mut want = Vec::new();
        let mut tickets = Vec::new();
        for s in 0..24u64 {
            let (m, w) = if s % 3 == 0 { (180, 8) } else { (240, 12) };
            let o = opts(4 * w, w);
            let a = dense::generate::uniform::<f64>(m, w, 500 + s);
            want.push(caqr_cpu(a.clone(), o).unwrap().a);
            let spec = JobSpec::new(a, o).tenant(if s % 2 == 0 { "even" } else { "odd" });
            tickets.push(svc.submit(spec).unwrap_or_else(|_| panic!("accepting")));
        }
        let mut completed = 0;
        let mut lost = 0;
        for (ticket, want) in tickets.into_iter().zip(want) {
            let out = ticket.wait().expect("every ticket resolves");
            match out.result {
                Ok(f) => {
                    assert_eq!(f.a, want, "recovered output must stay bitwise");
                    completed += 1;
                }
                Err(ServiceError::WorkerLost { .. }) => lost += 1,
                Err(ServiceError::Caqr(e)) => {
                    panic!("typed errors in chaos should be retried or terminal-by-design: {e}")
                }
                Err(ServiceError::RetryExhausted { .. }) => {}
                Err(e) => panic!("unexpected outcome {e}"),
            }
        }
        assert!(completed > 0, "some jobs must complete under chaos");
        let ledger = svc.ledger();
        assert_eq!(
            ledger.global.jobs_completed + ledger.global.jobs_failed + ledger.global.jobs_lost,
            24
        );
        assert_eq!(ledger.global.jobs_lost, lost);
        ledger.reconcile().expect("chaos accounting reconciles");
        svc.shutdown();
    }
}
