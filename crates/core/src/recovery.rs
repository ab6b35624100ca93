//! Tile-granular fault recovery: ABFT-verified CAQR with a two-tier
//! replay ladder (DESIGN.md §10).
//!
//! The ladder is a policy of the driver's one panel loop, not a loop of its
//! own: given a [`RecoveryPolicy`], a [`Mode::Sync`] run verifies every
//! task's output against the algorithm-based checksums of
//! [`crate::health`] and replays what fails. [`caqr_resilient`] runs it as
//! a group of one on the simulator's barrier executor:
//!
//! * a **factor task** (the panel's `factor` + `factor_tree` chain) is
//!   checked with the column-norm invariant (`||R[:,j]|| == ||A[:,j]||`)
//!   and the orthogonality probe `||Q_p . 1||^2 == m` over the packed
//!   compact-WY factors the applies will consume;
//! * an **apply task** (one slot group of trailing column blocks) is
//!   checked against predicted post-update column sums (`u^T C`).
//!
//! A detected fault — a checksum mismatch from silent data corruption, a
//! [`CaqrError::Fault`] from a failed launch, or a [`CaqrError::Timeout`]
//! from the hang watchdog — triggers replay of *only the affected task*
//! from an arena-backed snapshot of its input. A task that keeps failing
//! spends its task budget and escalates: retry the whole run from the
//! pristine input, then give up with a typed [`CaqrError::Unrecoverable`].
//! Snapshots restore bit-exact input state and every replay is a new task
//! with a fresh ordinal (so a fault plan redraws), which makes a recovered
//! run **bit-identical** to a fault-free run of the same schedule.
//!
//! Faults come from [`RecoveryOptions::faults`], injected by the one fault
//! injector, [`Faulty`], over the simulator backend.
//!
//! Detection is not free and is charged honestly: checksum passes appear
//! in the ledger under `checksum_verify`, snapshot save/restore traffic
//! under `snapshot`, and watchdog stalls under `watchdog_stall` — so the
//! overhead of resilience is measurable (`wallclock_report
//! --check-overhead` gates it in CI).
//!
//! [`Mode::Sync`]: crate::backend::Mode::Sync

use crate::backend::{drive_group, CaqrBackend, Factorization, Faulty, Mode, SimBackend};
use crate::caqr::CaqrOptions;
use crate::error::CaqrError;
use crate::fault::FaultPlan;
use dense::arena;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::Gpu;

/// Replay budgets of the escalation ladder. Each tier's budget is per
/// scope: `max_task_replays` per task attempt streak, `max_run_retries`
/// per call.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Tier 1: how many times one task (factor chain or apply group) may be
    /// replayed from its input snapshot before escalating.
    pub max_task_replays: u32,
    /// Tier 2: how many times the whole run may restart from the pristine
    /// input before returning [`CaqrError::Unrecoverable`].
    pub max_run_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_task_replays: 3,
            max_run_retries: 1,
        }
    }
}

/// Options for [`caqr_resilient`].
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// The numerical configuration (block size, strategy, tree shape).
    pub caqr: CaqrOptions,
    /// Streams the apply groups fan out over (barrier schedule).
    pub streams: usize,
    /// Replay budgets.
    pub policy: RecoveryPolicy,
    /// Faults to inject, keyed by task ordinal (none by default).
    pub faults: FaultPlan,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            caqr: CaqrOptions::default(),
            streams: 4,
            policy: RecoveryPolicy::default(),
            faults: FaultPlan::default(),
        }
    }
}

/// What the recovery executor did, for assertions and reporting. The
/// same tier counters are mirrored into the GPU's [`gpu_sim::CostLedger`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Individual checksum comparisons performed.
    pub checksum_checks: u64,
    /// Comparisons that failed (each triggers a replay).
    pub checksum_failures: u64,
    /// Tier-1 replays of a single task from its snapshot.
    pub task_replays: u64,
    /// Tier-2 whole-run retries from the pristine input.
    pub run_retries: u64,
    /// Watchdog timeouts the executor recovered from (or escalated past).
    pub timeouts: u64,
    /// Tasks failed by a launch fault.
    pub launch_faults: u64,
    /// Kernel launches enqueued across every attempt (replays included).
    pub launches: u64,
    /// Tier-3 failovers: whole devices lost and their work adopted by a
    /// survivor. Always 0 on a single device — `DeviceLost` is terminal
    /// there; the multi-device driver (`distributed`) fills this in.
    pub device_failovers: u64,
}

impl RecoveryReport {
    /// Count a task failure by kind.
    pub(crate) fn observe(&mut self, e: &CaqrError) {
        match e {
            CaqrError::Timeout { .. } => self.timeouts += 1,
            CaqrError::Fault { .. } => self.launch_faults += 1,
            CaqrError::ChecksumMismatch { .. } => self.checksum_failures += 1,
            _ => {}
        }
    }
}

/// A recoverable fault: retrying the producing task (with a fresh task
/// ordinal and restored inputs) can plausibly succeed. Everything else —
/// bad shapes, non-finite input, launch-config violations, a deadlocked
/// schedule — is deterministic and propagates immediately. `DeviceLost`
/// is deliberately *not* transient: a dead device answers no retry, so on
/// a single device the ladder fails fast; recovering from device loss
/// needs a survivor to fail over to (`distributed::distributed_tsqr`).
pub(crate) fn is_transient(e: &CaqrError) -> bool {
    matches!(
        e,
        CaqrError::Fault { .. } | CaqrError::Timeout { .. } | CaqrError::ChecksumMismatch { .. }
    )
}

/// An arena-backed copy of the rows `row0..m` of a set of column ranges —
/// the input state of one task, restored bit-exactly on replay. Snapshot
/// traffic (a DRAM read + write) is charged through
/// [`CaqrBackend::charge_snapshot`] under the `snapshot` op.
pub(crate) struct RegionSnapshot<T: Scalar> {
    row0: usize,
    cols: Vec<(usize, usize)>,
    data: arena::ArenaBuf<T>,
}

impl<T: Scalar> RegionSnapshot<T> {
    pub(crate) fn save<B: CaqrBackend<T>>(
        backend: &B,
        a: &Matrix<T>,
        row0: usize,
        cols: &[(usize, usize)],
    ) -> Self {
        let rows = a.rows() - row0;
        let ncols: usize = cols.iter().map(|&(_, wc)| wc).sum();
        let mut data = arena::take_dirty::<T>(rows * ncols);
        let mut off = 0;
        for &(c0, wc) in cols {
            for j in c0..c0 + wc {
                data[off..off + rows].copy_from_slice(&a.col(j)[row0..]);
                off += rows;
            }
        }
        backend.charge_snapshot(rows * ncols);
        RegionSnapshot {
            row0,
            cols: cols.to_vec(),
            data,
        }
    }

    pub(crate) fn restore<B: CaqrBackend<T>>(&self, backend: &B, a: &mut Matrix<T>) {
        let rows = a.rows() - self.row0;
        let mut off = 0;
        for &(c0, wc) in &self.cols {
            for j in c0..c0 + wc {
                a.col_mut(j)[self.row0..].copy_from_slice(&self.data[off..off + rows]);
                off += rows;
            }
        }
        backend.charge_snapshot(self.data.len());
    }
}

/// Factor `a` with ABFT-verified, fault-recovering CAQR. Numerically
/// bit-identical to [`crate::caqr::caqr`] / [`crate::schedule::caqr_dag`]
/// with the same [`CaqrOptions`] — including runs that recovered from
/// injected faults. Returns the factorization and a [`RecoveryReport`] of
/// what the escalation ladder did.
///
/// A [`Mode::Sync`] run of the driver's panel loop as a group of one on a
/// barrier-mode [`SimBackend`] (DESIGN.md §13), under `opts.policy`, with
/// `opts.faults` injected by [`Faulty`]: the factor runs on the panel's
/// home stream and the trailing update fans out over every stream.
pub fn caqr_resilient<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    opts: RecoveryOptions,
) -> Result<(Factorization<T>, RecoveryReport), CaqrError> {
    let backend = Faulty::new(SimBackend::resilient(gpu, opts.streams)?, vec![opts.faults]);
    let cfg = opts.caqr.drive_config();
    drive_group(&backend, vec![a], &cfg, Mode::Sync, Some(&opts.policy)).solo()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockSize, TreeShape};
    use crate::caqr::caqr;
    use crate::fault::FaultKind;
    use crate::microkernels::ReductionStrategy;
    use dense::generate;
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn opts() -> RecoveryOptions {
        RecoveryOptions {
            caqr: CaqrOptions {
                bs: BlockSize { h: 32, w: 8 },
                strategy: ReductionStrategy::RegisterSerialTransposed,
                tree: TreeShape::DeviceArity,
            },
            streams: 3,
            policy: RecoveryPolicy::default(),
            faults: FaultPlan::default(),
        }
    }

    #[test]
    fn fault_free_run_matches_plain_caqr_bitwise() {
        let a = generate::uniform::<f64>(200, 24, 9);
        let clean = caqr(&gpu(), a.clone(), opts().caqr).unwrap();
        let g = gpu();
        let (f, report) = caqr_resilient(&g, a, opts()).unwrap();
        for j in 0..24 {
            for i in 0..200 {
                assert_eq!(f.a[(i, j)], clean.a[(i, j)], "({i},{j})");
            }
        }
        assert_eq!(report.task_replays, 0);
        assert_eq!(report.run_retries, 0);
        assert_eq!(report.checksum_failures, 0);
        assert!(report.checksum_checks > 0);
        // Detection cost is visible in the ledger.
        assert!(g.ledger().per_op.contains_key("checksum_verify"));
    }

    #[test]
    fn sdc_in_an_apply_is_detected_and_replayed_to_bit_identity() {
        let a = generate::uniform::<f64>(200, 24, 10);
        let clean = caqr(&gpu(), a.clone(), opts().caqr).unwrap();
        let g = gpu();
        // 200x24 in panels of 8 on 3 streams issues the tasks F A A F A F
        // when clean, and a replay takes the next ordinal: corrupt two
        // tasks, whichever they turn out to be.
        let faults = FaultPlan::at(FaultKind::Sdc, &[2, 5]);
        let (f, report) = caqr_resilient(&g, a, RecoveryOptions { faults, ..opts() }).unwrap();
        for j in 0..24 {
            for i in 0..200 {
                assert_eq!(f.a[(i, j)], clean.a[(i, j)], "({i},{j})");
            }
        }
        assert_eq!(g.ledger().sdc_injected, 2);
        assert!(report.checksum_failures >= 1, "{report:?}");
        assert!(report.task_replays >= 1, "{report:?}");
        assert_eq!(report.run_retries, 0);
        // Tier counters are mirrored to the ledger.
        assert_eq!(g.ledger().task_replays, report.task_replays);
    }

    #[test]
    fn unrecoverable_hang_surfaces_typed_error_not_a_panic() {
        let g = gpu();
        // Every task hangs: both tiers must drain, then a typed
        // Unrecoverable (the first factor task never gets through).
        let faults = FaultPlan::seeded_mix(3, 0.0, 0.0, 1.0);
        let a = generate::uniform::<f64>(96, 16, 11);
        let e = match caqr_resilient(&g, a, RecoveryOptions { faults, ..opts() }) {
            Err(e) => e,
            Ok(_) => panic!("an always-hanging plan cannot succeed"),
        };
        assert!(
            matches!(e, CaqrError::Unrecoverable { .. }),
            "expected Unrecoverable, got {e:?}"
        );
        assert!(g.ledger().hangs > 0);
    }
}
