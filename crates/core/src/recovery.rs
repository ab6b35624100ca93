//! Tile-granular fault recovery: ABFT-verified CAQR with a three-tier
//! replay ladder (DESIGN.md §10).
//!
//! [`caqr_resilient`] runs the barrier-mode DAG schedule of
//! [`crate::schedule::caqr_dag`] task by task, verifying every task's
//! output against the algorithm-based checksums of [`crate::health`]:
//!
//! * a **factor task** (the panel's `factor` + `factor_tree` chain) is
//!   checked with the column-norm invariant (`||R[:,j]|| == ||A[:,j]||`)
//!   and the orthogonality probe `||Q_p . 1||^2 == m` over the packed
//!   compact-WY factors the applies will consume;
//! * an **apply task** (one home-stream group of trailing column blocks)
//!   is checked against predicted post-update column sums (`u^T C`).
//!
//! A detected fault — a checksum mismatch from silent data corruption, a
//! [`CaqrError::Fault`] that outlived the launch-level retries, or a
//! [`CaqrError::Timeout`] from the hang watchdog — triggers replay of
//! *only the affected task* from an arena-backed snapshot of its input.
//! Repeated task failures escalate: replay the whole panel, then retry the
//! whole run from the pristine input, then give up with a typed
//! [`CaqrError::Unrecoverable`]. Snapshots restore bit-exact input state
//! and launch ordinals advance on every attempt (so a seeded fault plan
//! redraws), which makes a recovered run **bit-identical** to a fault-free
//! run of the same schedule.
//!
//! Detection is not free and is charged honestly: checksum passes appear
//! in the ledger under `checksum_verify`, snapshot save/restore traffic
//! under `snapshot`, and watchdog stalls under `watchdog_stall` — so the
//! overhead of resilience is measurable (`wallclock_report
//! --check-overhead` gates it in CI).

use crate::backend::{CaqrBackend, DagGeometry, DriveConfig, Factorization, PanelStep, SimBackend};
use crate::caqr::CaqrOptions;
use crate::error::{checked_elems, CaqrError};
use crate::health::{
    actual_col_sums, panel_col_sumsq, predicted_col_sums, r_col_sumsq, verify_apply_checksums,
    verify_factor_checksums, verify_probe,
};
use crate::tsqr::PanelFactor;
use dense::arena;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::Gpu;

/// Replay budgets of the escalation ladder. Each tier's budget is per
/// scope: `max_task_replays` per task attempt streak, `max_panel_replays`
/// per panel, `max_run_retries` per call.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Tier 1: how many times one task (factor chain or apply group) may be
    /// replayed from its input snapshot before escalating.
    pub max_task_replays: u32,
    /// Tier 2: how many times a whole panel may be rolled back and redone.
    pub max_panel_replays: u32,
    /// Tier 3: how many times the whole run may restart from the pristine
    /// input before returning [`CaqrError::Unrecoverable`].
    pub max_run_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_task_replays: 3,
            max_panel_replays: 2,
            max_run_retries: 1,
        }
    }
}

/// Options for [`caqr_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOptions {
    /// The numerical configuration (block size, strategy, tree shape).
    pub caqr: CaqrOptions,
    /// Streams the apply groups fan out over (barrier schedule).
    pub streams: usize,
    /// Replay budgets.
    pub policy: RecoveryPolicy,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            caqr: CaqrOptions::default(),
            streams: 4,
            policy: RecoveryPolicy::default(),
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
    /// Tier-2 whole-panel rollbacks.
    pub panel_replays: u64,
    /// Tier-3 whole-run retries from the pristine input.
    pub run_retries: u64,
    /// Watchdog timeouts the executor recovered from (or escalated past).
    pub timeouts: u64,
    /// Launch faults that outlived the launch-level retries.
    pub launch_faults: u64,
    /// Kernel launches enqueued across every attempt (replays included).
    pub launches: u64,
    /// Tier-4 failovers: whole devices lost and their work adopted by a
    /// survivor. Always 0 on a single device — `DeviceLost` is terminal
    /// there; the multi-device driver (`distributed`) fills this in.
    pub device_failovers: u64,
}

impl RecoveryReport {
    fn observe(&mut self, e: &CaqrError) {
        match e {
            CaqrError::Timeout { .. } => self.timeouts += 1,
            CaqrError::Fault { .. } => self.launch_faults += 1,
            CaqrError::ChecksumMismatch { .. } => self.checksum_failures += 1,
            _ => {}
        }
    }
}

/// A recoverable fault: retrying the producing task (with fresh launch
/// ordinals and restored inputs) can plausibly succeed. Everything else —
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
struct RegionSnapshot<T: Scalar> {
    row0: usize,
    cols: Vec<(usize, usize)>,
    data: arena::ArenaBuf<T>,
}

impl<T: Scalar> RegionSnapshot<T> {
    fn save<B: CaqrBackend<T>>(
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

    fn restore<B: CaqrBackend<T>>(&self, backend: &B, a: &mut Matrix<T>) {
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
/// A thin shim over the generic [`drive_resilient`] on a barrier-mode
/// [`SimBackend`] (DESIGN.md §13): the escalation ladder itself is written
/// once against [`CaqrBackend`] and works on any executor.
pub fn caqr_resilient<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    opts: RecoveryOptions,
) -> Result<(Factorization<T>, RecoveryReport), CaqrError> {
    let backend = SimBackend::resilient(gpu, opts.streams)?;
    drive_resilient(&backend, a, &opts.caqr.drive_config(), &opts.policy)
}

/// The generic resilient driver: the barrier-mode DAG schedule of
/// [`crate::backend::drive`] run task by task on any [`CaqrBackend`], with
/// ABFT verification of every task and the three-tier snapshot/replay
/// escalation ladder described in the module docs. Written once against
/// the trait — the single-device executor ([`caqr_resilient`]) and any
/// future backend get identical recovery semantics.
pub fn drive_resilient<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    pristine: Matrix<T>,
    cfg: &DriveConfig,
    policy: &RecoveryPolicy,
) -> Result<(Factorization<T>, RecoveryReport), CaqrError> {
    cfg.bs.validate().map_err(CaqrError::BadShape)?;
    let (m, n) = pristine.shape();
    if m == 0 || n == 0 {
        return Err(CaqrError::BadShape(format!("empty matrix {m}x{n}")));
    }
    checked_elems(m, n, "matrix element count")?;
    let geo = DagGeometry::new(m, n, cfg.bs.w, backend.slots());
    let mut report = RecoveryReport::default();
    let mut run_attempt = 0u32;
    loop {
        match run_once(backend, &geo, &pristine, cfg, policy, &mut report) {
            Ok(out) => return Ok((out, report)),
            Err(e) if is_transient(&e) => {
                backend.sync()?;
                if run_attempt >= policy.max_run_retries {
                    return Err(CaqrError::Unrecoverable {
                        context: format!(
                            "run retry budget ({}) exhausted; last error: {e}",
                            policy.max_run_retries
                        ),
                    });
                }
                run_attempt += 1;
                report.run_retries += 1;
                backend.note_run_retry();
            }
            Err(e) => {
                backend.sync()?;
                return Err(e);
            }
        }
    }
}

/// One full factorization attempt over a fresh copy of the pristine input.
/// Transient errors bubbling out of here have already exhausted the task
/// and panel tiers for their panel.
fn run_once<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    geo: &DagGeometry,
    pristine: &Matrix<T>,
    cfg: &DriveConfig,
    policy: &RecoveryPolicy,
    report: &mut RecoveryReport,
) -> Result<Factorization<T>, CaqrError> {
    let mut a = pristine.clone();
    let (m, n) = a.shape();
    let mut launches = 0usize;

    if cfg.check_finite {
        launches += backend.check_finite(&a, cfg.bs, cfg.health_context)?;
    }
    if cfg.strategy.needs_pretranspose() {
        launches += backend.pretranspose(m, n, cfg.bs)?;
    }

    let mut panels: Vec<PanelFactor<T>> = Vec::with_capacity(geo.steps.len());
    for step in &geo.steps {
        let pf = run_panel(
            backend,
            geo,
            &mut a,
            step,
            cfg,
            policy,
            report,
            &mut launches,
        )?;
        panels.push(pf);
    }
    backend.sync()?;
    report.launches += launches as u64;
    Ok(Factorization {
        a,
        panels,
        launches,
    })
}

/// One panel with tier-2 recovery: snapshot the panel-start state of every
/// region the panel writes, run the panel's tasks (tier-1 recovery
/// inside), and on an escalated task failure roll everything back and
/// redo the panel — until the panel budget is spent.
#[allow(clippy::too_many_arguments)]
fn run_panel<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    geo: &DagGeometry,
    a: &mut Matrix<T>,
    step: &PanelStep,
    cfg: &DriveConfig,
    policy: &RecoveryPolicy,
    report: &mut RecoveryReport,
    launches: &mut usize,
) -> Result<PanelFactor<T>, CaqrError> {
    // Barrier geometry: every trailing block, partitioned by home slot.
    let groups = geo.groups(step, step.p + 1);
    let mut panel_attempt = 0u32;
    loop {
        // The factor snapshot doubles as the factor *task's* input snapshot
        // (taken before any factor attempt, so tier-1 restores reuse it);
        // the group snapshots are taken inside run_panel_tasks just before
        // each group's first apply. On rollback the union restores the
        // panel-start state exactly: the regions are disjoint and nothing
        // else writes them.
        let factor_snap = RegionSnapshot::save(backend, a, step.c, &[(step.c, step.width)]);
        match run_panel_tasks(
            backend,
            geo,
            a,
            step,
            &groups,
            &factor_snap,
            cfg,
            policy,
            report,
            launches,
        ) {
            Ok(pf) => return Ok(pf),
            Err((e, group_snaps)) if is_transient(&e) => {
                if panel_attempt >= policy.max_panel_replays {
                    return Err(e);
                }
                panel_attempt += 1;
                report.panel_replays += 1;
                backend.note_panel_replay();
                backend.sync()?;
                factor_snap.restore(backend, a);
                for snap in &group_snaps {
                    snap.restore(backend, a);
                }
            }
            Err((e, _)) => return Err(e),
        }
    }
}

type TaskError<T> = (CaqrError, Vec<RegionSnapshot<T>>);

/// The panel's task sequence with tier-1 recovery: factor chain (verified
/// by column norms + orthogonality probe), then one apply chain per home
/// stream (verified by predicted column sums). Errors return the group
/// snapshots taken so far so the caller can roll the panel back.
#[allow(clippy::too_many_arguments)]
fn run_panel_tasks<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    geo: &DagGeometry,
    a: &mut Matrix<T>,
    step: &PanelStep,
    groups: &[Vec<(usize, usize)>],
    factor_snap: &RegionSnapshot<T>,
    cfg: &DriveConfig,
    policy: &RecoveryPolicy,
    report: &mut RecoveryReport,
    launches: &mut usize,
) -> Result<PanelFactor<T>, TaskError<T>> {
    let m = a.rows();
    let rows = m - step.c;
    let slot = geo.home(step.p);
    let mut group_snaps: Vec<RegionSnapshot<T>> = Vec::new();

    // --- factor task -------------------------------------------------------
    let pre = panel_col_sumsq(a, step.c, step.c, step.width);
    backend.charge_verify(rows * step.width);
    let mut attempt = 0u32;
    let (pf, u) = loop {
        let result = (|| -> Result<(PanelFactor<T>, Vec<T>), CaqrError> {
            let pf = backend.factor_panel(slot, a, step.c, step.c, step.width, cfg)?;
            backend.sync()?;
            *launches += 1 + pf.levels.len();
            // Column-norm invariance of the surviving R (catches corrupted
            // R elements and corrupted reflectors feeding the tree).
            let post = r_col_sumsq(a, step.c, step.c, step.width);
            report.checksum_checks += step.width as u64;
            verify_factor_checksums::<T>(&pre, &post, rows, step.p, step.c)?;
            // Orthogonality probe over the packed factors (catches
            // corrupted V/T/tau copies, which the matrix checks can't see).
            let u = backend.q_ones_probe(m, &pf);
            report.checksum_checks += 1;
            verify_probe(&u, step.p, step.c)?;
            backend.charge_verify(rows * step.width + m);
            Ok((pf, u))
        })();
        match result {
            Ok(out) => break out,
            Err(e) if is_transient(&e) => {
                report.observe(&e);
                if attempt >= policy.max_task_replays {
                    return Err((e, group_snaps));
                }
                attempt += 1;
                report.task_replays += 1;
                backend.note_task_replay();
                if backend.sync().is_err() {
                    return Err((e, group_snaps));
                }
                factor_snap.restore(backend, a);
            }
            Err(e) => return Err((e, group_snaps)),
        }
    };

    // --- apply tasks -------------------------------------------------------
    // Enqueue every group first (slots overlap in the resolved timeline),
    // then barrier once and verify each group; only a failing group replays.
    let mut preds: Vec<(usize, Vec<(f64, f64)>)> = Vec::new();
    for (t, cols) in groups.iter().enumerate() {
        if cols.is_empty() {
            continue;
        }
        group_snaps.push(RegionSnapshot::save(backend, a, step.c, cols));
        let pred = predicted_col_sums(&u, a, cols);
        backend.charge_verify(m * pred.len());
        preds.push((t, pred));
        let ap = MatPtr::new(a);
        if let Err(e) = backend.apply_panel(t, ap, &pf, cols, true) {
            report.observe(&e);
            return Err((e, group_snaps));
        }
        *launches += 1 + pf.levels.len();
    }
    if let Err(e) = backend.sync() {
        return Err((e, group_snaps));
    }
    for (si, (t, pred)) in preds.iter().enumerate() {
        let cols = &groups[*t];
        let mut attempt = 0u32;
        loop {
            let actual = actual_col_sums(a, cols);
            report.checksum_checks += pred.len() as u64;
            backend.charge_verify(m * pred.len());
            let verdict = verify_apply_checksums::<T>(pred, &actual, cols, m, step.p);
            let e = match verdict {
                Ok(()) => break,
                Err(e) => e,
            };
            report.observe(&e);
            if attempt >= policy.max_task_replays {
                return Err((e, group_snaps));
            }
            attempt += 1;
            report.task_replays += 1;
            backend.note_task_replay();
            group_snaps[si].restore(backend, a);
            let ap = MatPtr::new(a);
            let replay = backend
                .apply_panel(*t, ap, &pf, cols, true)
                .and_then(|()| backend.sync());
            match replay {
                Ok(()) => *launches += 1 + pf.levels.len(),
                Err(e) if is_transient(&e) => {
                    // A faulted replay attempt consumes task budget too; the
                    // next loop iteration re-verifies the restored-but-stale
                    // region and keeps going until the budget runs out.
                    report.observe(&e);
                    group_snaps[si].restore(backend, a);
                }
                Err(e) => return Err((e, group_snaps)),
            }
        }
    }
    Ok(pf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockSize, TreeShape};
    use crate::caqr::caqr;
    use crate::microkernels::ReductionStrategy;
    use dense::generate;
    use gpu_sim::{DeviceSpec, FaultPlan};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn opts() -> RecoveryOptions {
        RecoveryOptions {
            caqr: CaqrOptions {
                bs: BlockSize { h: 32, w: 8 },
                strategy: ReductionStrategy::RegisterSerialTransposed,
                tree: TreeShape::DeviceArity,
                check_finite: true,
            },
            streams: 3,
            policy: RecoveryPolicy::default(),
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
        assert_eq!(report.panel_replays, 0);
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
        // Launch 0 is the health check; corrupt a later launch so an apply
        // or factor output takes the hit (either way recovery must fix it).
        g.set_fault_plan(FaultPlan::sdc_at_launches(&[2, 5]));
        let (f, report) = caqr_resilient(&g, a, opts()).unwrap();
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
        // Every launch hangs forever: all tiers must drain, then a typed
        // Unrecoverable (the health check itself times out first).
        g.set_fault_plan(FaultPlan::seeded_mix(3, 0.0, 0.0, 1.0));
        let a = generate::uniform::<f64>(96, 16, 11);
        let e = match caqr_resilient(&g, a, opts()) {
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
