//! The admission queue, supervised worker pool, and dispatch loop: bounded
//! backpressured admission with per-tenant quotas, priority-aware batch
//! gathering, the overload circuit breaker, the fault-isolating dispatch
//! path (batch carve-out + bounded retry rounds), and worker supervision
//! that guarantees every admitted [`Ticket`] resolves. Every ticket ends in
//! [`Shared::resolve`].

use super::batch::{factor_many_reported, fuse_key, FuseKey};
use super::ledger::ServiceLedger;
use super::resilience::TenantQuota;
use super::{
    lock, logical_launches, service_retryable, JobSpec, Priority, ServiceConfig, ServiceError,
    SubmitError,
};
use crate::backend::Factorization;
use crate::fault::PlannedFault;
use crate::multicore::CpuCaqrOptions;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Retry rounds the job took part in after its batch attempt carved it
    /// out (0 on the fault-free path).
    pub retries: u32,
}

/// Claim check for a submitted job.
pub struct Ticket<T: Scalar> {
    pub(super) rx: mpsc::Receiver<JobOutcome<T>>,
}

impl<T: Scalar> Ticket<T> {
    /// Block until the job resolves. Never hangs: every admitted job is
    /// guaranteed an outcome — served, shed, aborted at shutdown, or
    /// resolved by its worker after a caught panic. A closed channel
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

/// How the batch engine served a job that reached it, completed or
/// failed: what [`Shared::resolve`] charges beyond the job's result.
struct Served {
    /// `Some(k)` if the batch attempt ran the job in a fused group of `k`.
    fused_with: Option<usize>,
    /// Retry rounds the job took part in.
    retries: u32,
    /// Seconds from the first retry round's start to the end of its last.
    retry_secs: f64,
    /// Seconds of batch execution, dispatch to the last retry round.
    service_secs: f64,
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
    pub(super) fn next_batch(&self) -> Option<VecDeque<QueuedJob<T>>> {
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
        let mut batch = VecDeque::with_capacity(picks.len());
        for &i in picks.iter().rev() {
            batch.push_front(st.q.remove(i).expect("picked index in bounds"));
        }
        for job in &batch {
            if let Some(v) = st.tenant_queued.get_mut(&job.spec.tenant) {
                *v = v.saturating_sub(1);
            }
        }
        drop(st);
        self.not_full.notify_all();
        Some(batch)
    }

    /// Serve one batch: shed expired-deadline and breaker-shed jobs, run
    /// the rest through the (resilient) fused engine with bounded retry
    /// rounds, resolve the tickets, and update the circuit breaker. A job
    /// leaves `batch` only as its ticket resolves, so if this panics,
    /// `batch` holds exactly the jobs still owed an outcome.
    pub(super) fn serve(&self, batch: &mut VecDeque<QueuedJob<T>>) {
        let dispatch = Instant::now();
        let depth = lock(&self.state).q.len() + batch.len();
        let breaker_open = lock(&self.breaker).open;

        // Injected worker kill (chaos / supervision tests): the panic fires
        // with the whole batch unresolved, so every ticket ends `WorkerLost`.
        let res = &self.cfg.resilience;
        let plan = res.faults.as_ref();
        if let Some(every) = plan.and_then(|fp| fp.worker_panic_every) {
            let bo = self.batch_ordinal.fetch_add(1, Ordering::Relaxed);
            if (bo + 1).is_multiple_of(every) {
                panic!("injected worker panic: batch #{bo}");
            }
        }

        // Shed phase: expired deadlines, then the open breaker (which
        // sheds only `Batch`-class work).
        for _ in 0..batch.len() {
            let job = batch.pop_front().expect("one pop per queued job");
            let queued = dispatch.duration_since(job.submitted);
            let err = match job.spec.deadline {
                Some(deadline) if queued > deadline => {
                    ServiceError::DeadlineExpired { queued, deadline }
                }
                _ if breaker_open && job.spec.priority == Priority::Batch => {
                    ServiceError::Overloaded {
                        queue_depth: depth,
                        priority: Priority::Batch,
                    }
                }
                _ => {
                    batch.push_back(job);
                    continue;
                }
            };
            self.resolve(job, Err(err), queued, None);
        }
        if batch.is_empty() {
            self.update_breaker(&[]);
            return;
        }

        // The engine: one batch attempt, then retry rounds for the jobs it
        // carved out retryably. With resilience off no fault is drawn and
        // nothing verifies, so the attempt is the plain fused engine. The
        // attempt takes each job's matrix unless a retry round may re-run
        // the job from its spec.
        let rounds = if res.active() {
            res.retry.max_retries
        } else {
            0
        };
        let inputs: Vec<Matrix<T>> = (batch.iter_mut())
            .map(|job| match rounds {
                0 => std::mem::replace(&mut job.spec.a, Matrix::zeros(0, 0)),
                _ => job.spec.a.clone(),
            })
            .collect();
        let run = |inputs: Vec<Matrix<T>>, jobs: &[usize], attempt: u32| {
            let inputs: Vec<(Matrix<T>, CpuCaqrOptions)> = (jobs.iter().zip(inputs))
                .map(|(&i, a)| (a, batch[i].spec.opts))
                .collect();
            let drawn: Vec<Option<PlannedFault>> = (jobs.iter())
                .map(|&i| plan.and_then(|fp| fp.draw(batch[i].seq, attempt)))
                .collect();
            factor_many_reported(inputs, &drawn, res.verify_batches)
        };
        let all: Vec<usize> = (0..batch.len()).collect();
        // Each job is charged fused or solo as the engine ran it in the
        // batch attempt.
        let (ran, stats) = run(inputs, &all, 0);
        let (mut results, fused_with): (Vec<_>, Vec<_>) = ran.into_iter().unzip();

        // Retry rounds with exponential backoff: each round re-runs every
        // still-retryable job from its spec, fused with the others, under
        // a fresh fault draw for `(seq, attempt)`. Per job: the rounds it
        // took part in, and the seconds until its last one ended.
        let mut retries = vec![0u32; batch.len()];
        let mut retry_secs = vec![0.0; batch.len()];
        let retry_t0 = Instant::now();
        for attempt in 1..=rounds {
            let jobs: Vec<usize> = (all.iter().copied())
                .filter(|&i| results[i].as_ref().is_err_and(service_retryable))
                .collect();
            if jobs.is_empty() {
                break;
            }
            std::thread::sleep(res.retry.backoff_for(attempt));
            let inputs = jobs.iter().map(|&i| batch[i].spec.a.clone()).collect();
            let (rerun, _) = run(inputs, &jobs, attempt);
            let secs = retry_t0.elapsed().as_secs_f64();
            for (i, (r, _)) in jobs.into_iter().zip(rerun) {
                (results[i], retries[i], retry_secs[i]) = (r, attempt, secs);
            }
        }
        let service_secs = dispatch.elapsed().as_secs_f64();

        {
            let mut ledger = lock(&self.ledger);
            ledger.batches += 1;
            ledger.fused_launches += stats.fused_launches as u64;
        }
        let mut misses: Vec<bool> = Vec::new();
        for (i, (result, fused_with)) in results.into_iter().zip(fused_with).enumerate() {
            // A job still retryable after a round spent the budget.
            let result = match result {
                Err(last) if retries[i] > 0 && service_retryable(&last) => {
                    Err(ServiceError::RetryExhausted {
                        attempts: retries[i],
                        last,
                    })
                }
                r => r.map_err(ServiceError::Caqr),
            };
            let job = batch.pop_front().expect("one result per job");
            let queued = dispatch.duration_since(job.submitted);
            let served = Served {
                fused_with,
                retries: retries[i],
                retry_secs: retry_secs[i],
                service_secs,
            };
            misses.extend(self.resolve(job, result, queued, Some(served)));
        }
        self.update_breaker(&misses);
    }

    /// The one way a ticket ends. Build the job's outcome, charge its queue
    /// wait and terminal counters to its tenant under one ledger lock, then
    /// send it, so a waiter woken by the outcome already sees its charge.
    /// `served` is `Some` for a job the batch engine ran, whose latency runs
    /// to now; every other job's latency is its queue wait. Returns whether
    /// the job missed its deadline, if it carried one.
    fn resolve(
        &self,
        job: QueuedJob<T>,
        result: Result<Factorization<T>, ServiceError>,
        queued: Duration,
        served: Option<Served>,
    ) -> Option<bool> {
        let spec = job.spec;
        let latency = match served {
            Some(_) => job.submitted.elapsed(),
            None => queued,
        };
        // An expired job missed by definition; a shed or aborted one is
        // never counted late.
        let missed = match &result {
            Err(ServiceError::DeadlineExpired { .. }) => true,
            Err(ServiceError::Overloaded { .. } | ServiceError::ShuttingDown) => false,
            _ => spec.deadline.is_some_and(|d| latency > d),
        };
        lock(&self.ledger).charge(&spec.tenant, |c| {
            c.queue_seconds += queued.as_secs_f64();
            match &result {
                Ok(f) => {
                    c.jobs_completed += 1;
                    c.panels += f.panels.len() as u64;
                    let (m, n) = f.a.shape();
                    c.flops += dense::geqrf_flops(m, n);
                }
                Err(ServiceError::Caqr(_) | ServiceError::RetryExhausted { .. }) => {
                    c.jobs_failed += 1
                }
                Err(ServiceError::DeadlineExpired { .. }) => c.jobs_shed += 1,
                Err(ServiceError::Overloaded { .. }) => c.jobs_shed_overload += 1,
                Err(ServiceError::WorkerLost { .. }) => c.jobs_lost += 1,
                Err(ServiceError::ShuttingDown) => c.jobs_aborted += 1,
            }
            let Some(s) = &served else { return };
            // Fault-free launches land in `launches`; work done by retry
            // rounds lands in the `retry_*` counters, so the two costs stay
            // separable.
            let launches = result.as_ref().map_or(0, logical_launches) as u64;
            c.service_seconds += s.service_secs;
            c.deadline_misses += missed as u64;
            if s.fused_with.is_some() {
                c.fused_jobs += 1;
            } else {
                c.solo_jobs += 1;
            }
            if s.retries > 0 {
                c.retry_jobs += 1;
                c.retry_attempts += s.retries as u64;
                c.retry_launches += launches;
                c.retry_seconds += s.retry_secs;
            } else {
                c.launches += launches;
            }
        });
        let _ = job.tx.send(JobOutcome {
            result,
            priority: spec.priority,
            queue_wait: queued,
            latency,
            fused_with: served.as_ref().and_then(|s| s.fused_with).unwrap_or(1),
            missed_deadline: missed,
            retries: served.map_or(0, |s| s.retries),
            tenant: spec.tenant,
        });
        spec.deadline.map(|_| missed)
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

    /// The supervised worker body: pull-and-serve until shutdown, with the
    /// loop under `catch_unwind`. The batch being served lives in this
    /// frame, outside the unwind, and holds only jobs still owed an
    /// outcome. After a panic (an injected worker kill, a bug in a serve
    /// path) the worker counts its death, resolves what is left with
    /// [`ServiceError::WorkerLost`] and re-enters the loop: the pool never
    /// shrinks and no ticket is ever orphaned.
    fn worker_loop(&self, worker: usize) {
        let mut batch = VecDeque::new();
        loop {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                while let Some(next) = self.next_batch() {
                    batch = next;
                    self.serve(&mut batch);
                }
            }));
            if ran.is_ok() {
                break;
            }
            // Count the panic first: a waiter woken by a `WorkerLost`
            // outcome must already see it.
            lock(&self.ledger).worker_panics += 1;
            for job in batch.drain(..) {
                let waited = job.submitted.elapsed();
                let lost = ServiceError::WorkerLost {
                    worker: Some(worker),
                };
                self.resolve(job, Err(lost), waited, None);
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
///     .submit(JobSpec::new(a, CpuCaqrOptions::for_width(16)).tenant("alice"))
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
            (self.shared).resolve(job, Err(ServiceError::ShuttingDown), queued, None);
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
    use crate::error::CaqrError;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::multicore::caqr_cpu;
    use crate::service::{ResilienceConfig, ServiceFaultPlan, ShedPolicy};

    fn opts(h: usize, w: usize) -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: h,
            panel_width: w,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
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
    fn a_member_failing_the_input_scan_is_charged_solo() {
        // Three same-shape jobs in one batch, the middle one with a NaN:
        // the engine fuses the two clean jobs and runs the NaN job alone
        // (it never passes the scan), and the ledger must say the same.
        let shared: Shared<f64> = Shared::new(&ServiceConfig::default());
        let mut mats: Vec<Matrix<f64>> = (1..4)
            .map(|s| dense::generate::uniform(300, 16, s))
            .collect();
        mats[1][(17, 3)] = f64::NAN;
        let tickets: Vec<Ticket<f64>> = (mats.into_iter())
            .map(|a| shared.push(&mut lock(&shared.state), JobSpec::new(a, opts(48, 16))))
            .collect();
        shared.serve(&mut shared.next_batch().expect("queue non-empty"));
        let outs: Vec<JobOutcome<f64>> = (tickets.into_iter())
            .map(|t| t.wait().expect("served"))
            .collect();
        let nan = &outs[1].result;
        assert!(matches!(
            nan,
            Err(ServiceError::Caqr(CaqrError::NonFinite { .. }))
        ));
        let fused_with: Vec<usize> = outs.iter().map(|o| o.fused_with).collect();
        assert_eq!(fused_with, [2, 1, 2]);
        let ledger = lock(&shared.ledger).clone();
        assert_eq!((ledger.global.fused_jobs, ledger.global.solo_jobs), (2, 1));
        ledger.reconcile().expect("split accounting holds");
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
        // (with WorkerLost), the worker must count each death once and
        // before the ticket resolves, and the service must keep accepting
        // work instead of deadlocking.
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
            let out = ticket.wait().expect("the worker resolves the ticket");
            match out.result {
                Err(ServiceError::WorkerLost { worker }) => assert_eq!(worker, Some(0)),
                other => panic!("expected WorkerLost, got {:?}", other.map(|f| f.a.shape())),
            }
            let ledger = svc.ledger();
            assert_eq!(
                ledger.worker_panics,
                s + 1,
                "one count per panic, before the ticket"
            );
            assert_eq!(ledger.global.jobs_lost, s + 1);
        }
        let ledger = svc.ledger();
        assert_eq!(ledger.global.jobs_lost, 3);
        assert!(ledger.worker_panics >= 3);
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
        while let Some(mut batch) = {
            let empty = lock(&shared.state).q.is_empty();
            if empty {
                None
            } else {
                shared.next_batch()
            }
        } {
            shared.serve(&mut batch);
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

    /// Run `f` on its own thread and fail unless it finishes within
    /// `secs`: a ticket that never resolves fails the test instead of
    /// wedging it.
    fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let case = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("a ticket failed to resolve in {secs}s"),
            got => {
                // A case that panicked re-raises its panic here.
                if let Err(panic) = case.join() {
                    std::panic::resume_unwind(panic);
                }
                got.expect("the case sent its result")
            }
        }
    }

    /// Every admitted job ends in exactly one terminal counter, and the
    /// split ledger reconciles.
    fn assert_conserved(ledger: &ServiceLedger, case: &str) {
        let g = &ledger.global;
        let ended = [
            g.jobs_completed,
            g.jobs_failed,
            g.jobs_shed,
            g.jobs_shed_overload,
        ];
        let ended = ended.iter().sum::<u64>() + g.jobs_lost + g.jobs_aborted;
        assert_eq!(g.jobs_submitted, ended, "{case}: {g:?}");
        ledger.reconcile().unwrap_or_else(|e| panic!("{case}: {e}"));
    }

    #[test]
    fn edge_configs_resolve_every_ticket_and_reconcile() {
        // Each case: a config change and how each job must end — `S`
        // served bitwise, `E` expired (it carries a zero deadline), `Q`
        // rejected by its quota, `F` failed with a typed error and no
        // retry. Jobs alternate between two shape classes.
        fn inject(c: &mut ServiceConfig, plan: FaultPlan, max_retries: u32) {
            c.resilience.faults = Some(ServiceFaultPlan::new(plan));
            c.resilience.retry.max_retries = max_retries;
        }
        type Case = (&'static str, fn(&mut ServiceConfig), &'static str);
        let cases: [Case; 7] = [
            ("capacity 1", |c| c.queue_capacity = 1, "SSSSSS"),
            ("max_batch 0", |c| c.max_batch = 0, "SSSSSS"),
            ("max_batch 1", |c| c.max_batch = 1, "SSSSSS"),
            ("expired", |_| {}, "ESE"),
            ("quota 0", |c| c.quota = TenantQuota::MaxQueued(0), "QQQ"),
            (
                "no retries",
                |c| inject(c, FaultPlan::at(FaultKind::LaunchFail, &[0, 2]), 0),
                "FSFS",
            ),
            // A lost device is terminal: the retry budget goes unspent.
            (
                "device loss",
                |c| inject(c, FaultPlan::at(FaultKind::DeviceLoss, &[1]), 2),
                "SF",
            ),
        ];
        for (case, change, expect) in cases {
            let mut cfg = ServiceConfig::default();
            change(&mut cfg);
            let unfused = cfg.max_batch <= 1;
            let (ends, ledger) = within(60, move || {
                let svc = Service::<f64>::start(cfg);
                let mut ends = vec!['Q'; expect.len()];
                let mut tickets = Vec::new();
                for (s, end) in expect.chars().enumerate() {
                    let a = dense::generate::uniform::<f64>(64 + 16 * (s % 2), 4, s as u64);
                    let want = caqr_cpu(a.clone(), opts(16, 4)).unwrap().a;
                    let mut spec = JobSpec::new(a, opts(16, 4));
                    spec.deadline = (end == 'E').then_some(Duration::ZERO);
                    match svc.submit(spec) {
                        Ok(t) => tickets.push((s, t, want)),
                        Err(SubmitError::QuotaExceeded { .. }) => {}
                        Err(e) => panic!("{case}: unexpected rejection {e}"),
                    }
                }
                for (s, t, want) in tickets {
                    let out = t.wait().expect("every ticket resolves");
                    let typed = |e: &CaqrError| {
                        matches!(e, CaqrError::Fault { .. } | CaqrError::DeviceLost { .. })
                    };
                    ends[s] = match out.result {
                        Ok(f) if f.a == want => 'S',
                        Err(ServiceError::DeadlineExpired { deadline, .. })
                            if deadline.is_zero() =>
                        {
                            'E'
                        }
                        Err(ServiceError::Caqr(e)) if typed(&e) && out.retries == 0 => 'F',
                        other => panic!("{case}: job {s}: {:?}", other.map(|_| "diverged")),
                    };
                }
                let ledger = svc.ledger();
                svc.shutdown();
                (ends.into_iter().collect::<String>(), ledger)
            });
            assert_eq!(ends, expect, "{case}");
            assert_conserved(&ledger, case);
            let expired = expect.chars().filter(|&e| e == 'E').count() as u64;
            assert_eq!(ledger.global.jobs_shed, expired, "{case}");
            assert_eq!(ledger.global.retry_jobs, 0, "{case}");
            assert!(
                !unfused || ledger.global.fused_jobs == 0,
                "{case}: no fusion"
            );
        }
    }

    #[test]
    fn shutdown_racing_submit_resolves_every_admitted_ticket() {
        for now in [false, true] {
            let case = if now { "shutdown_now" } else { "shutdown" };
            let ledger = within(60, move || {
                let svc = Service::<f64>::start(ServiceConfig {
                    queue_capacity: 2,
                    ..ServiceConfig::default()
                });
                let shared = Arc::clone(&svc.shared);
                let (admitting, admitted) = mpsc::channel();
                let submitter = std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    for s in 0u64.. {
                        let a = dense::generate::uniform::<f64>(64, 4, s);
                        match shared.push_blocking(JobSpec::new(a, opts(16, 4))) {
                            Ok(t) => tickets.push(t),
                            Err(SubmitError::Shutdown(_)) => break,
                            Err(e) => panic!("unexpected rejection {e}"),
                        }
                        let _ = admitting.send(());
                    }
                    tickets
                });
                // Shut down while the submitter is admitting jobs.
                admitted.recv().expect("the submitter admits a job");
                let shared = Arc::clone(&svc.shared);
                if now {
                    svc.shutdown_now();
                } else {
                    svc.shutdown();
                }
                for t in submitter.join().expect("submitter finishes") {
                    match t.wait().expect("every admitted ticket resolves").result {
                        Ok(_) | Err(ServiceError::ShuttingDown) => {}
                        Err(e) => panic!("unexpected outcome {e}"),
                    }
                }
                let ledger = lock(&shared.ledger).clone();
                ledger
            });
            assert_conserved(&ledger, case);
        }
    }
}
