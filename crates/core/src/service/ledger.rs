//! The per-tenant accounting ledger: every charge lands on a tenant's row
//! and the global row in the same critical section, so the split-accounting
//! invariant — per-tenant sums equal the global row — holds at every
//! instant, including mid-chaos (worker deaths, shed storms, retries).

use std::collections::BTreeMap;

/// Counters charged to one tenant (and, summed, to the global row of the
/// [`ServiceLedger`]). Every charge is applied to the tenant's row and the
/// global row in the same critical section, so the reconciliation invariant
/// — per-tenant sums equal the global row — holds at every instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantCounters {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs factored successfully.
    pub jobs_completed: u64,
    /// Jobs that surfaced a [`CaqrError`](crate::error::CaqrError).
    pub jobs_failed: u64,
    /// Jobs shed at dispatch because their deadline had already expired.
    pub jobs_shed: u64,
    /// Jobs shed at dispatch by the open overload circuit breaker
    /// ([`super::ShedPolicy`]).
    pub jobs_shed_overload: u64,
    /// Jobs whose serving worker panicked before delivering a result;
    /// the worker resolved their tickets with
    /// [`super::ServiceError::WorkerLost`].
    pub jobs_lost: u64,
    /// Jobs still queued when [`super::Service::shutdown_now`] drained the
    /// queue; resolved with [`super::ServiceError::ShuttingDown`].
    pub jobs_aborted: u64,
    /// Jobs served past their deadline (completed, but late).
    pub deadline_misses: u64,
    /// Panels factored on behalf of the tenant.
    pub panels: u64,
    /// Per-job logical launch chains, as the synchronous driver counts
    /// them. Fault-free work only: launches spent inside retry rounds land
    /// in [`retry_launches`](Self::retry_launches) instead, so the
    /// fault-free cost of a tenant's traffic stays legible.
    pub launches: u64,
    /// Jobs that ran inside a fused group in their batch attempt.
    pub fused_jobs: u64,
    /// Jobs that ran alone in their batch attempt: a group of one, or a
    /// member that failed the input scan.
    pub solo_jobs: u64,
    /// Jobs that took part in at least one retry round after the batch
    /// carved them out.
    pub retry_jobs: u64,
    /// Total retry rounds across the tenant's jobs.
    pub retry_attempts: u64,
    /// Logical launches spent inside successful retry rounds — the extra
    /// work faults cost this tenant, kept out of `launches`.
    pub retry_launches: u64,
    /// Useful flops factored (`geqrf` count of each completed job).
    pub flops: f64,
    /// Seconds jobs spent queued before dispatch.
    pub queue_seconds: f64,
    /// Seconds of batch execution the jobs participated in.
    pub service_seconds: f64,
    /// Seconds from the first retry round's start (backoff included) to
    /// the end of the round that resolved the job.
    pub retry_seconds: f64,
}

impl TenantCounters {
    fn add(&mut self, o: &TenantCounters) {
        self.jobs_submitted += o.jobs_submitted;
        self.jobs_completed += o.jobs_completed;
        self.jobs_failed += o.jobs_failed;
        self.jobs_shed += o.jobs_shed;
        self.jobs_shed_overload += o.jobs_shed_overload;
        self.jobs_lost += o.jobs_lost;
        self.jobs_aborted += o.jobs_aborted;
        self.deadline_misses += o.deadline_misses;
        self.panels += o.panels;
        self.launches += o.launches;
        self.fused_jobs += o.fused_jobs;
        self.solo_jobs += o.solo_jobs;
        self.retry_jobs += o.retry_jobs;
        self.retry_attempts += o.retry_attempts;
        self.retry_launches += o.retry_launches;
        self.flops += o.flops;
        self.queue_seconds += o.queue_seconds;
        self.service_seconds += o.service_seconds;
        self.retry_seconds += o.retry_seconds;
    }
}

/// Service accounting, split per tenant with a global row — the
/// multi-tenant analogue of the gpu-sim `CostLedger`.
#[derive(Clone, Debug, Default)]
pub struct ServiceLedger {
    /// Sum over all tenants.
    pub global: TenantCounters,
    /// Per-tenant rows, keyed by tenant id.
    pub tenants: BTreeMap<String, TenantCounters>,
    /// Batches dispatched (fused or solo).
    pub batches: u64,
    /// Parallel regions actually issued by fused execution.
    pub fused_launches: u64,
    /// Panics a worker caught while serving. The worker goes back to
    /// serving, and the counter moves before the panic's `WorkerLost`
    /// tickets resolve.
    pub worker_panics: u64,
    /// Overload circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Overload circuit-breaker close transitions.
    pub breaker_closes: u64,
}

impl ServiceLedger {
    /// Apply one charge to a tenant's row *and* the global row.
    pub(super) fn charge(&mut self, tenant: &str, f: impl Fn(&mut TenantCounters)) {
        f(self.tenants.entry(tenant.to_string()).or_default());
        f(&mut self.global);
    }

    /// Verify the split-accounting invariant: summing every per-tenant row
    /// reproduces the global row (exactly for the integer counters, to a
    /// 1e-9 relative tolerance for the float accumulators, whose summation
    /// order differs between the two sides).
    pub fn reconcile(&self) -> Result<(), String> {
        let mut sum = TenantCounters::default();
        for row in self.tenants.values() {
            sum.add(row);
        }
        let ints = [
            (
                "jobs_submitted",
                sum.jobs_submitted,
                self.global.jobs_submitted,
            ),
            (
                "jobs_completed",
                sum.jobs_completed,
                self.global.jobs_completed,
            ),
            ("jobs_failed", sum.jobs_failed, self.global.jobs_failed),
            ("jobs_shed", sum.jobs_shed, self.global.jobs_shed),
            (
                "jobs_shed_overload",
                sum.jobs_shed_overload,
                self.global.jobs_shed_overload,
            ),
            ("jobs_lost", sum.jobs_lost, self.global.jobs_lost),
            ("jobs_aborted", sum.jobs_aborted, self.global.jobs_aborted),
            (
                "deadline_misses",
                sum.deadline_misses,
                self.global.deadline_misses,
            ),
            ("panels", sum.panels, self.global.panels),
            ("launches", sum.launches, self.global.launches),
            ("fused_jobs", sum.fused_jobs, self.global.fused_jobs),
            ("solo_jobs", sum.solo_jobs, self.global.solo_jobs),
            ("retry_jobs", sum.retry_jobs, self.global.retry_jobs),
            (
                "retry_attempts",
                sum.retry_attempts,
                self.global.retry_attempts,
            ),
            (
                "retry_launches",
                sum.retry_launches,
                self.global.retry_launches,
            ),
        ];
        for (name, got, want) in ints {
            if got != want {
                return Err(format!(
                    "ledger split broken: tenant {name} sum {got} != global {want}"
                ));
            }
        }
        let floats = [
            ("flops", sum.flops, self.global.flops),
            (
                "queue_seconds",
                sum.queue_seconds,
                self.global.queue_seconds,
            ),
            (
                "service_seconds",
                sum.service_seconds,
                self.global.service_seconds,
            ),
            (
                "retry_seconds",
                sum.retry_seconds,
                self.global.retry_seconds,
            ),
        ];
        for (name, got, want) in floats {
            if (got - want).abs() > 1e-9 * (1.0 + want.abs()) {
                return Err(format!(
                    "ledger split broken: tenant {name} sum {got} != global {want}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_catches_a_skewed_row() {
        let mut ledger = ServiceLedger::default();
        ledger.charge("a", |c| {
            c.jobs_submitted += 2;
            c.retry_attempts += 3;
            c.retry_seconds += 0.25;
        });
        ledger.charge("b", |c| c.jobs_lost += 1);
        ledger.reconcile().expect("paired charges reconcile");
        ledger.global.retry_launches += 7; // skew the global row only
        let err = ledger.reconcile().expect_err("skew must be caught");
        assert!(err.contains("retry_launches"), "{err}");
    }
}
