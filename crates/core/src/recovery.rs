//! Tile-granular fault recovery: ABFT-verified CAQR with a two-tier
//! replay ladder (DESIGN.md §10).
//!
//! The ladder is a policy of the driver's one panel loop, not a loop of its
//! own: given a [`RecoveryPolicy`], a [`Mode::Sync`] run verifies every
//! task's output against the algorithm-based checksums of
//! [`crate::health`] and replays what fails. [`drive_recovering`] runs it
//! as a group of one on any backend; on the simulator, on a [`Faulty`]
//! [`SimBackend::resilient`] barrier executor:
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
//! Faults come from the [`FaultPlan`](crate::fault::FaultPlan) the one
//! fault injector, [`Faulty`], is built with over the executing backend.
//!
//! Detection is not free and is charged honestly: checksum passes appear
//! in the ledger under `checksum_verify`, snapshot save/restore traffic
//! under `snapshot`, and watchdog stalls under `watchdog_stall` — so the
//! overhead of resilience is measurable (`wallclock_report
//! --check-overhead` gates it in CI).
//!
//! [`Mode::Sync`]: crate::backend::Mode::Sync
//! [`drive_recovering`]: crate::backend::drive_recovering
//! [`Faulty`]: crate::backend::Faulty
//! [`SimBackend::resilient`]: crate::backend::SimBackend::resilient

use crate::backend::CaqrBackend;
use crate::error::CaqrError;
use dense::arena;
use dense::matrix::Matrix;
use dense::scalar::Scalar;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{drive, drive_recovering, Factorization, Faulty, Mode, SimBackend};
    use crate::block::{BlockSize, TreeShape};
    use crate::caqr::CaqrOptions;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::microkernels::ReductionStrategy;
    use dense::generate;
    use gpu_sim::{DeviceSpec, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn opts() -> CaqrOptions {
        CaqrOptions {
            bs: BlockSize { h: 32, w: 8 },
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
        }
    }

    fn plain(a: Matrix<f64>) -> Factorization<f64> {
        drive(
            &SimBackend::sync(&gpu()),
            a,
            &opts().drive_config(),
            Mode::Sync,
        )
        .unwrap()
    }

    /// The resilient executor on 3 streams under the default budgets, with
    /// `faults` injected.
    fn recovering(
        g: &Gpu,
        a: Matrix<f64>,
        faults: FaultPlan,
    ) -> Result<(Factorization<f64>, RecoveryReport), CaqrError> {
        let backend = Faulty::new(SimBackend::resilient(g, 3)?, vec![faults]);
        let policy = RecoveryPolicy::default();
        drive_recovering(&backend, a, &opts().drive_config(), &policy)
    }

    #[test]
    fn fault_free_run_matches_plain_caqr_bitwise() {
        let a = generate::uniform::<f64>(200, 24, 9);
        let clean = plain(a.clone());
        let g = gpu();
        let (f, report) = recovering(&g, a, FaultPlan::default()).unwrap();
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
        let clean = plain(a.clone());
        let g = gpu();
        // 200x24 in panels of 8 on 3 streams issues the tasks F A A F A F
        // when clean, and a replay takes the next ordinal: corrupt two
        // tasks, whichever they turn out to be.
        let faults = FaultPlan::at(FaultKind::Sdc, &[2, 5]);
        let (f, report) = recovering(&g, a, faults).unwrap();
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
        let e = match recovering(&g, a, faults) {
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
