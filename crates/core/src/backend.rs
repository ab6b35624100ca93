//! The execution-backend abstraction: **one** CAQR algorithm, pluggable
//! executors (DESIGN.md §13).
//!
//! The paper's algorithm — TSQR panels reduced up a tree, trailing updates
//! applied as compact-WY BLAS3 — does not care *where* a panel factors or a
//! column block updates; only the execution substrate differs between the
//! host-multicore path, the single-device simulator (synchronous or
//! stream-DAG), the resilient executor and the multi-device cluster. This
//! module separates the two concerns the way Demmel et al. separate the
//! reduction tree from the machine (arXiv:0806.2159), and the way faer-libs
//! layers entity/backend traits under one algorithm:
//!
//! * [`CaqrBackend`] is the executor surface: launch a panel factor chain or
//!   an apply chain on a *slot* (a stream lane, or the lone slot of a
//!   sequential executor), order slots with record/wait tokens, synchronize,
//!   scan input health, and charge/account detection work.
//! * [`drive`] is the single generic driver: the Figure-4 host loop
//!   ([`Mode::Sync`]) and the stream-scheduled task DAG with optional
//!   lookahead ([`Mode::Dag`]), including the optional ABFT detection
//!   checksums — written once, bit-identical across every backend because
//!   all backends run the same `blockops` arithmetic in host order.
//! * One panel loop walks the schedule for every run, against a sink that
//!   either executes on a backend or only charges the analytic chain costs
//!   of [`crate::model`], so the modelled sweeps issue the launches the
//!   executors issue.
//! * The executing sink runs a group of same-shape matrices (a standalone
//!   run is a group of one) and takes a failure policy as an argument:
//!   without one a failing member is carved out with its typed error; with
//!   a [`RecoveryPolicy`] it climbs the two-tier replay ladder of
//!   [`crate::recovery`].
//! * [`Faulty`] is the one fault injector: a decorator over any backend
//!   that fails or corrupts the group tasks a [`FaultPlan`] names.
//!
//! Dispatch is static: a simulator caller names its executor as a value
//! ([`SimBackend::sync`], [`SimBackend::streams`], a [`Faulty`]
//! [`SimBackend::resilient`]) and calls [`drive`] or [`drive_recovering`]
//! on it; `caqr_cpu`, `distributed_tsqr` and fused `factor_many` groups
//! instantiate the same driver with their own backend type — no `dyn`
//! anywhere on the hot path.

use crate::block::{BlockSize, TreeShape};
use crate::error::{checked_elems, CaqrError};
use crate::fault::{FaultKind, FaultPlan, PlannedFault};
use crate::health;
use crate::microkernels::ReductionStrategy;
use crate::model::{charge_health, charge_pretranspose, PanelChains, ELEM_BYTES};
use crate::multicore::{apply_panels, factor_panels, q_ones_probe};
use crate::recovery::{is_transient, RecoveryPolicy, RecoveryReport, RegionSnapshot};
use crate::tsqr::{col_blocks, PanelFactor};
use dense::blas2::trsv_upper;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::{EventId, Exec, Gpu, StreamId, Timeline, DEFAULT_WATCHDOG_US};
use rayon::prelude::*;
use std::cell::Cell;

/// How the generic driver schedules the panel loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The synchronous Figure-4 loop: factor, then one whole-trailing apply
    /// chain, panel after panel, all on slot 0.
    Sync,
    /// The stream-scheduled task DAG: the Figure-4 loop as a task graph
    /// (panel TSQR chains, per-column-block trailing updates) mapped onto
    /// the backend's slots. On a [`SimBackend::streams`] executor the
    /// resolved per-stream timeline is read with `Gpu::try_synchronize`
    /// after the run.
    ///
    /// **Stream assignment and correctness.** Columns are partitioned into
    /// a *fixed* global grid of `w`-wide blocks (block `j` covers columns
    /// `[j*w, min((j+1)*w, n))`), and block `j` is permanently owned by
    /// slot `j % s`. Every operation that touches block `j` — each panel's
    /// apply and, when `j` indexes a panel, its factor — is queued on that
    /// one slot, so in-slot FIFO order alone gives each column block the
    /// same operation sequence the synchronous loop issues. The only
    /// cross-slot dependencies are "apply of panel `k` needs the factor of
    /// panel `k`", expressed with one recorded token per factor chain.
    ///
    /// Numerics are *bit-identical* to [`Mode::Sync`]: the simulator only
    /// charges each launch to its stream, while the host's panel
    /// arithmetic runs eagerly in issue order (a valid topological order
    /// of this DAG), operations on disjoint column blocks commute exactly,
    /// and within the apply kernels each column is processed independently
    /// of how columns are grouped into launches. The equivalence tests in
    /// `tests/stream_scheduling.rs` assert this across shapes.
    ///
    /// The [`crate::service`] batcher is the same idea one level up: it
    /// runs *many independent* factorizations as one synchronous group of
    /// the driver, with the same bit-identity argument (tasks of different
    /// jobs touch disjoint matrices, so fusing their launches cannot
    /// reorder any job's own arithmetic).
    Dag {
        /// Factor panel `k+1` as soon as its own column block is updated,
        /// ahead of panel `k`'s bulk trailing update. `false` reproduces
        /// the barrier schedule: each factor waits for the whole previous
        /// update.
        lookahead: bool,
    },
}

/// What [`SimBackend::model`] charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Modelled {
    /// Factor the matrix on the schedule [`drive`] runs under this mode.
    Factor(Mode),
    /// Form explicit `Q` over `nc` columns from the factorization.
    GenerateQ {
        /// Columns of `Q` to form.
        nc: usize,
    },
}

/// Numerical + detection configuration of one [`drive`] run. This is the
/// backend-independent subset of the per-path option structs, which
/// translate themselves into it (`CaqrOptions::drive_config`,
/// `CpuCaqrOptions::drive_config`).
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Block size (panel width = `bs.w`).
    pub bs: BlockSize,
    /// Kernel tuning strategy (modelled cost only; also decides whether the
    /// strategy-4 pre-transpose pass runs).
    pub strategy: ReductionStrategy,
    /// Reduction-tree shape.
    pub tree: TreeShape,
    /// Scan the input for NaN/inf before factoring.
    pub check_finite: bool,
    /// Run the ABFT detection checksums of [`crate::health`] around every
    /// panel (factor column norms, `Q·1` probe, predicted trailing column
    /// sums). Only honoured by [`Mode::Sync`], since the checks run in
    /// barrier order; a failing member is carved out. Under a
    /// [`RecoveryPolicy`] ([`drive_recovering`]) the checks always run and
    /// a failed task replays instead.
    pub verify_checksums: bool,
    /// Context string for the typed [`CaqrError::NonFinite`] error.
    pub health_context: &'static str,
}

/// A completed CAQR factorization — what every executor returns: the
/// implicit `Q` as the factored matrix plus its per-panel TSQR factors,
/// and the exact number of kernel launches the schedule issued (0-cost
/// backends count logical chains the same way).
///
/// Its `Q` operations are written once against [`CaqrBackend::apply_panel`]
/// (the `*_on` methods); the host shorthands run them on [`CpuBackend`],
/// and a simulator caller passes [`SimBackend::sync`].
pub struct Factorization<T: Scalar> {
    /// The factored matrix: `R` in the upper triangle, Householder tails
    /// below it.
    pub a: Matrix<T>,
    /// Per-panel TSQR factors, in factorization order.
    pub panels: Vec<PanelFactor<T>>,
    /// Kernel launches issued (factor chains, apply chains, health check,
    /// pre-transpose), counted as the schedule enqueued them. A fused
    /// `factor_many` member carries its group's shared count.
    pub launches: usize,
}

impl<T: Scalar> Factorization<T> {
    /// The `min(m,n) x n` upper-triangular factor.
    pub fn r(&self) -> Matrix<T> {
        self.a.upper_triangular()
    }

    /// Apply `Q^T` (`transpose`, panels in factorization order) or `Q`
    /// (panels reversed) to `c` in place on `backend`; `c` must have the
    /// factored matrix's row count.
    pub fn apply_on<B: CaqrBackend<T>>(
        &self,
        backend: &B,
        c: &mut Matrix<T>,
        transpose: bool,
    ) -> Result<(), CaqrError> {
        if c.rows() != self.a.rows() {
            return Err(CaqrError::BadShape(format!(
                "apply target has {} rows; factorization has {}",
                c.rows(),
                self.a.rows()
            )));
        }
        // Every panel shares the block width of the run that produced it.
        let w = self.panels.first().map_or(1, |pf| pf.bs.w);
        let cols = col_blocks(0, c.cols(), w);
        let cp = MatPtr::new(c);
        let apply = |pf: &PanelFactor<T>| backend.apply_panel(0, cp, pf, &cols, transpose);
        if transpose {
            self.panels.iter().try_for_each(apply)
        } else {
            self.panels.iter().rev().try_for_each(apply)
        }
    }

    /// Form the explicit `m x k` orthogonal factor on `backend` (the
    /// `SORGQR` analogue).
    pub fn generate_q_on<B: CaqrBackend<T>>(
        &self,
        backend: &B,
        k: usize,
    ) -> Result<Matrix<T>, CaqrError> {
        let m = self.a.rows();
        if k > m {
            return Err(CaqrError::BadShape(format!(
                "cannot form {k} Q columns from an {m}-row factorization"
            )));
        }
        let mut q = Matrix::<T>::eye(m, k);
        self.apply_on(backend, &mut q, false)?;
        Ok(q)
    }

    /// Solve `min ||A X - B||` on `backend` for every column of `b`: one
    /// `Q^T` sweep over all columns, then a triangular solve per column.
    /// Returns the `n x nrhs` solution.
    pub fn least_squares_on<B: CaqrBackend<T>>(
        &self,
        backend: &B,
        b: &Matrix<T>,
    ) -> Result<Matrix<T>, CaqrError> {
        let (m, n) = self.a.shape();
        if m < n {
            return Err(CaqrError::BadShape(format!(
                "least squares needs a tall matrix (got {m}x{n})"
            )));
        }
        if b.rows() != m {
            return Err(CaqrError::BadShape(format!(
                "right-hand side has {} rows; expected {m}",
                b.rows()
            )));
        }
        let mut c = b.clone();
        self.apply_on(backend, &mut c, true)?;
        let mut x = Matrix::<T>::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = x.col_mut(j);
            col.copy_from_slice(&c.col(j)[..n]);
            trsv_upper(self.a.view(0, 0, n, n), col);
        }
        Ok(x)
    }

    /// [`Self::apply_on`] on the host ([`CpuBackend`]).
    pub fn apply(&self, c: &mut Matrix<T>, transpose: bool) -> Result<(), CaqrError> {
        self.apply_on(&CpuBackend, c, transpose)
    }

    /// [`Self::generate_q_on`] on the host ([`CpuBackend`]).
    pub fn generate_q(&self, k: usize) -> Result<Matrix<T>, CaqrError> {
        self.generate_q_on(&CpuBackend, k)
    }

    /// The single-right-hand-side [`Self::least_squares_on`] on the host
    /// ([`CpuBackend`]).
    pub fn least_squares(&self, b: &[T]) -> Result<Vec<T>, CaqrError> {
        let b = Matrix::from_col_major(b.len(), 1, b.to_vec());
        Ok(self.least_squares_on(&CpuBackend, &b)?.col(0).to_vec())
    }
}

/// An execution substrate for the CAQR algorithm.
///
/// A backend owns a fixed set of *slots* — ordered work lanes. The
/// sequential executors (host CPU, synchronous simulator, cluster) expose
/// one slot; the stream-DAG executor exposes one per CUDA stream. The
/// driver expresses every cross-slot dependency through [`record`] /
/// [`wait`] tokens, so a backend with eager in-order execution may make
/// both no-ops.
///
/// All methods take `&self`: backends needing mutable state (ledgers,
/// failover maps) use interior mutability, which keeps the driver free of
/// borrow gymnastics while the host control flow stays single-threaded.
///
/// The `*_group` methods serve the driver, which runs a group of
/// same-shape matrices in lockstep (a standalone run is a group of one) on
/// the slot the schedule names. Their provided bodies loop over the
/// members with the per-matrix methods; a backend that can pack many
/// members into one launch (the host [`CpuBackend`]) overrides them.
///
/// [`record`]: CaqrBackend::record
/// [`wait`]: CaqrBackend::wait
pub trait CaqrBackend<T: Scalar> {
    /// Ordering token returned by [`CaqrBackend::record`].
    type Token: Copy;

    /// Number of work lanes the DAG scheduler may fan out over.
    fn slots(&self) -> usize;

    /// Scan `a` for NaN/inf, surfacing [`CaqrError::NonFinite`]. Returns
    /// the number of kernel launches the scan issued (0 for a host scan).
    fn check_finite(
        &self,
        a: &Matrix<T>,
        bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError>;

    /// Run the strategy-4 out-of-place pre-transpose pass, if this backend
    /// models it. Returns the number of launches issued.
    fn pretranspose(&self, m: usize, n: usize, bs: BlockSize) -> Result<usize, CaqrError>;

    /// Factor the panel at `(row0, col0)` of width `width` on `slot`: one
    /// level-0 factor launch plus one `factor_tree` launch per tree level.
    fn factor_panel(
        &self,
        slot: usize,
        a: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Result<PanelFactor<T>, CaqrError>;

    /// Apply the panel's `Q^T` (or `Q`) to the column blocks `cols` on
    /// `slot`: one horizontal launch plus one per tree level.
    fn apply_panel(
        &self,
        slot: usize,
        c: MatPtr<T>,
        pf: &PanelFactor<T>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError>;

    /// Group health scan: [`CaqrBackend::check_finite`] over each live
    /// member `mats[j]`, `j` in `live` (rising), one verdict per live member.
    fn check_finite_group(
        &self,
        mats: &[Matrix<T>],
        live: &[usize],
        bs: BlockSize,
        context: &'static str,
    ) -> Vec<Result<usize, CaqrError>> {
        live.iter()
            .map(|&j| self.check_finite(&mats[j], bs, context))
            .collect()
    }

    /// Group factor: [`CaqrBackend::factor_panel`] on `slot` for each live
    /// member `mats[j]`, `j` in `live` (rising), one result per live member
    /// in `live` order. A failed member fails alone.
    #[allow(clippy::too_many_arguments)]
    fn factor_panel_group(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        live: &[usize],
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Vec<Result<PanelFactor<T>, CaqrError>> {
        live.iter()
            .map(|&j| self.factor_panel(slot, &mut mats[j], row0, col0, width, cfg))
            .collect()
    }

    /// Group apply: [`CaqrBackend::apply_panel`] on `slot` of each member's
    /// own panel factor to the column blocks `cols` of `mats[j]`, one result
    /// per `(j, factor)` pair of `work` (`j` rising). A failed member fails
    /// alone.
    fn apply_panel_group(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        work: &[(usize, &PanelFactor<T>)],
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Vec<Result<(), CaqrError>> {
        work.iter()
            .map(|&(j, pf)| self.apply_panel(slot, MatPtr::new(&mut mats[j]), pf, cols, transpose))
            .collect()
    }

    /// Record an ordering token after the work queued so far on `slot`.
    fn record(&self, slot: usize) -> Self::Token;

    /// Make future work on `slot` wait for `token`.
    fn wait(&self, slot: usize, token: Self::Token);

    /// Resolve all queued work (modelled timing included).
    fn sync(&self) -> Result<(), CaqrError>;

    /// The `‖Q·1‖² = m` orthogonality probe over the panel's packed
    /// compact-WY factors, on the host for every backend. Overridable so a
    /// wrapper can observe it.
    fn q_ones_probe(&self, m: usize, pf: &PanelFactor<T>) -> Vec<T> {
        q_ones_probe(m, pf)
    }

    /// Charge one ABFT checksum pass over `elems` elements (a streamed read
    /// at DRAM bandwidth, two flops per element) to the backend's ledger.
    /// No-op on backends without a cost model.
    fn charge_verify(&self, elems: usize) {
        let _ = elems;
    }

    /// Charge snapshot save/restore traffic over `elems` elements (DRAM
    /// read + write). No-op on backends without a cost model.
    fn charge_snapshot(&self, elems: usize) {
        let _ = elems;
    }

    /// Mirror the replays of a finished run's ladder into the backend's
    /// ledger. No-op on backends without one.
    fn note_recovery(&self, report: &RecoveryReport) {
        let _ = report;
    }

    /// Charge one injected fault of a task on `slot` ([`Faulty`]): a task
    /// it failed before it ran, or the SDC it applied after. No-op on
    /// backends without a cost model.
    fn charge_fault(&self, slot: usize, kind: FaultKind) {
        let _ = (slot, kind);
    }
}

/// The static shape of one panel step of the schedule.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PanelStep {
    /// Panel index.
    pub(crate) p: usize,
    /// First column (== first row) of the panel.
    pub(crate) c: usize,
    /// Panel width.
    pub(crate) width: usize,
}

/// Backend-independent schedule geometry: the fixed global column grid, its
/// home-slot ownership, and the panel steps — shared by the executing runs
/// and the cost model, so they enqueue, event-for-event, the same
/// schedule.
pub(crate) struct DagGeometry {
    w: usize,
    n: usize,
    /// Global column-grid block count.
    pub(crate) nb: usize,
    /// Work-lane count the blocks are distributed over.
    pub(crate) slots: usize,
    /// Panel steps over the leading `min(m, n)` columns.
    pub(crate) steps: Vec<PanelStep>,
}

impl DagGeometry {
    pub(crate) fn new(m: usize, n: usize, w: usize, slots: usize) -> DagGeometry {
        let k = m.min(n);
        let mut steps = Vec::with_capacity(k.div_ceil(w));
        let mut c = 0;
        while c < k {
            let width = w.min(k - c);
            steps.push(PanelStep {
                p: steps.len(),
                c,
                width,
            });
            c += width;
        }
        DagGeometry {
            w,
            n,
            nb: n.div_ceil(w),
            slots,
            steps,
        }
    }

    /// Home slot index of global column block `j`.
    pub(crate) fn home(&self, j: usize) -> usize {
        j % self.slots
    }

    /// The fixed-grid column block `j`.
    pub(crate) fn block(&self, j: usize) -> (usize, usize) {
        let start = j * self.w;
        (start, self.w.min(self.n - start))
    }

    /// The trailing column ranges panel `step` must update, already
    /// partitioned by home slot: fixed-grid blocks `first_block..nb`, plus
    /// — for a narrow last panel of a wide matrix — the tail of the panel's
    /// own block (columns `[c + width, min((p+1)*w, n))`), which stays on
    /// the panel's slot.
    pub(crate) fn groups(&self, step: &PanelStep, first_block: usize) -> Vec<Vec<(usize, usize)>> {
        let mut groups = vec![Vec::new(); self.slots];
        let tail_end = ((step.p + 1) * self.w).min(self.n);
        if step.c + step.width < tail_end {
            groups[self.home(step.p)].push((step.c + step.width, tail_end - step.c - step.width));
        }
        for j in first_block..self.nb {
            groups[self.home(j)].push(self.block(j));
        }
        groups
    }
}

/// Factor `a` with CAQR on any [`CaqrBackend`] — the one generic driver
/// every entry point routes through.
///
/// Both modes run the driver's one panel loop as a group of one.
/// [`Mode::Sync`] reproduces the Figure-4 host loop (and, with
/// `cfg.verify_checksums`, the detection-only ABFT flow of the host path);
/// [`Mode::Dag`] reproduces the stream-scheduled task DAG with optional
/// lookahead, unchecked. Numerics are bit-identical across modes and
/// backends: every backend runs the same `blockops` arithmetic eagerly in
/// host order (a valid topological order of the DAG), operations on
/// disjoint column blocks commute exactly, and within the apply kernels
/// each column is processed independently of how columns are grouped into
/// launches.
pub fn drive<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    a: Matrix<T>,
    cfg: &DriveConfig,
    mode: Mode,
) -> Result<Factorization<T>, CaqrError> {
    drive_group(backend, vec![a], cfg, mode, None)
        .solo()
        .map(|(f, _)| f)
}

/// Factor `a` with ABFT-verified, fault-recovering CAQR on any
/// [`CaqrBackend`]: a [`Mode::Sync`] run of the driver's panel loop under
/// `policy`, climbing the two-tier replay ladder of [`crate::recovery`].
/// A recovered run is bit-identical to a fault-free [`drive`]. Returns the
/// factorization and a [`RecoveryReport`] of what the ladder did.
///
/// The simulator's recovering executor is a [`Faulty`] over
/// [`SimBackend::resilient`]: its factor runs on the panel's home stream
/// and the trailing update fans out over every stream.
pub fn drive_recovering<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    a: Matrix<T>,
    cfg: &DriveConfig,
    policy: &RecoveryPolicy,
) -> Result<(Factorization<T>, RecoveryReport), CaqrError> {
    drive_group(backend, vec![a], cfg, Mode::Sync, Some(policy)).solo()
}

/// Reject an empty or overflowing shape and an invalid block size.
pub(crate) fn validate(cfg: &DriveConfig, m: usize, n: usize) -> Result<(), CaqrError> {
    cfg.bs.validate().map_err(CaqrError::BadShape)?;
    if m == 0 || n == 0 {
        return Err(CaqrError::BadShape(format!("empty matrix {m}x{n}")));
    }
    // Overflow guard: every later size/byte product is bounded by the
    // element count, so reject adversarial shapes once, up front.
    checked_elems(m, n, "matrix element count")?;
    Ok(())
}

/// What [`drive_group`] produced: one outcome and one [`RecoveryReport`]
/// per member, in input order, and the launches the group issued (each
/// counted once, however many members it served).
pub(crate) struct GroupOutcome<T: Scalar> {
    pub(crate) members: Vec<Result<Factorization<T>, CaqrError>>,
    pub(crate) reports: Vec<RecoveryReport>,
    pub(crate) launches: usize,
}

impl<T: Scalar> GroupOutcome<T> {
    /// The outcome of a group of one, with its report.
    pub(crate) fn solo(mut self) -> Result<(Factorization<T>, RecoveryReport), CaqrError> {
        let report = self.reports.pop().unwrap_or_default();
        Ok((one(self.members)?, report))
    }
}

/// The CAQR loop over a group of same-shape matrices walked in lockstep —
/// behind [`drive`], [`drive_recovering`], `distributed_tsqr` and fused
/// `factor_many` groups. The group is a
/// [`PanelSink`] of [`run_panels`]: per panel, one group factor on the
/// panel's home slot, one group apply per slot group of the trailing
/// matrix ([`DagGeometry::groups`]; one per panel on a one-slot backend),
/// then the panel's checks. [`Mode::Dag`] adds lookahead and never checks.
///
/// In [`Mode::Sync`], with `cfg.verify_checksums` or a `policy`, every
/// live member gets the ABFT flow of [`crate::health`] in barrier order:
/// pre-factor column sums and the factor-norm check, the `Q·1` probe
/// (reused as the apply predictor), and the apply-sum check. Without a
/// `policy` a failing member is carved out with its typed error while the
/// others continue untouched (each member's tasks touch only its own
/// matrix). With one it climbs the two-tier §10 ladder: a task that fails
/// transiently — caught by a checksum, or its launch failed or hung —
/// replays from a [`RegionSnapshot`] of its input, for the failing members
/// only; once its task budget is spent the member restarts from its
/// pristine input; then it gives up with [`CaqrError::Unrecoverable`].
/// Snapshots restore bit-exact state, so a recovered member is
/// bit-identical to a fault-free one.
pub(crate) fn drive_group<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    mats: Vec<Matrix<T>>,
    cfg: &DriveConfig,
    mode: Mode,
    policy: Option<&RecoveryPolicy>,
) -> GroupOutcome<T> {
    let g = mats.len();
    let (m, n) = mats.first().map_or((0, 0), Matrix::shape);
    debug_assert!(mats.iter().all(|a| a.shape() == (m, n)));
    if let Err(e) = validate(cfg, m, n) {
        return GroupOutcome {
            members: (0..g).map(|_| Err(e.clone())).collect(),
            reports: vec![RecoveryReport::default(); g],
            launches: 0,
        };
    }
    let verify = policy.is_some() || (mode == Mode::Sync && cfg.verify_checksums);
    let lookahead = mode == (Mode::Dag { lookahead: true });
    debug_assert!(!(verify && lookahead), "checks run in barrier order");
    // A run retry restarts a member from its input.
    let pristine = policy.map_or(Vec::new(), |_| mats.clone());
    let geo = DagGeometry::new(m, n, cfg.bs.w, backend.slots());
    let mut run = GroupRun {
        backend,
        cfg,
        policy,
        verify,
        shape: (m, n),
        mats,
        members: (0..g).collect(),
        err: vec![None; g],
        panels: (0..g).map(|_| Vec::new()).collect(),
        reports: vec![RecoveryReport::default(); g],
        launches: vec![0; g],
        group_launches: 0,
        probe: vec![None; g],
        tasks: Vec::new(),
    };
    for round in 0.. {
        run.attempt(&geo, lookahead);
        let left = policy.is_some_and(|p| round < p.max_run_retries);
        let ran = std::mem::take(&mut run.members);
        run.members = run.retry(&ran, left, |r| r.run_retries += 1);
        if run.members.is_empty() {
            break;
        }
        for &j in &run.members {
            run.mats[j] = pristine[j].clone();
            run.panels[j].clear();
        }
    }
    run.reports.iter().for_each(|r| backend.note_recovery(r));

    let members = (run.mats.into_iter().zip(run.panels))
        .zip(run.err.into_iter().zip(run.launches))
        .map(|((a, panels), (err, launches))| match (err, policy) {
            (None, _) => Ok(Factorization {
                a,
                panels,
                launches,
            }),
            // A member still failing transiently has spent its run budget.
            (Some(e), Some(p)) if is_transient(&e) => Err(CaqrError::Unrecoverable {
                context: format!(
                    "run retry budget ({}) exhausted; last error: {e}",
                    p.max_run_retries
                ),
            }),
            (Some(e), _) => Err(e),
        })
        .collect();
    GroupOutcome {
        members,
        reports: run.reports,
        launches: run.group_launches,
    }
}

/// The state of one [`drive_group`] run. Per member: its matrix, the
/// error that ended its current attempt, its panel factors, its report
/// and the launches of its current attempt; for the panel in flight, its
/// `Q·1` probe and the apply tasks still to settle.
struct GroupRun<'a, T: Scalar, B> {
    backend: &'a B,
    cfg: &'a DriveConfig,
    policy: Option<&'a RecoveryPolicy>,
    /// Run the ABFT checks: asked for, or needed by the ladder to see a
    /// fault at all.
    verify: bool,
    /// Every member's `(rows, cols)`.
    shape: (usize, usize),
    mats: Vec<Matrix<T>>,
    /// The members the current attempt runs.
    members: Vec<usize>,
    err: Vec<Option<CaqrError>>,
    panels: Vec<Vec<PanelFactor<T>>>,
    reports: Vec<RecoveryReport>,
    launches: Vec<usize>,
    group_launches: usize,
    probe: Vec<Option<Vec<T>>>,
    tasks: Vec<ApplyTask<T>>,
}

/// One group apply of the panel in flight: panel `p`'s factors applied to
/// `cols` on `slot`. Per member (indexed like the group): its input
/// snapshot under a policy, its predicted column sums when checking, and
/// the outcome of its latest launch.
struct ApplyTask<T: Scalar> {
    slot: usize,
    p: usize,
    cols: Vec<(usize, usize)>,
    members: Vec<usize>,
    snaps: Vec<Option<RegionSnapshot<T>>>,
    preds: Vec<Option<Vec<(f64, f64, bool)>>>,
    launched: Vec<Result<(), CaqrError>>,
}

impl<T: Scalar, B: CaqrBackend<T>> GroupRun<'_, T, B> {
    /// The members of `of` still without an error.
    fn live_of(&self, of: &[usize]) -> Vec<usize> {
        (of.iter().copied())
            .filter(|&j| self.err[j].is_none())
            .collect()
    }

    /// The live members of the current attempt.
    fn live(&self) -> Vec<usize> {
        self.live_of(&self.members)
    }

    /// A member's task failed with `e`.
    fn fail_task(&mut self, j: usize, e: CaqrError) {
        self.reports[j].observe(&e);
        self.err[j] = Some(e);
    }

    /// Whether a task that failed `round` times may replay.
    fn task_left(&self, round: u32) -> bool {
        self.policy.is_some_and(|p| round < p.max_task_replays)
    }

    /// The members of `ran` whose task or attempt failed transiently, if
    /// their tier has budget `left`: counted on the tier and cleared for
    /// another round. The caller restores their input.
    fn retry(&mut self, ran: &[usize], left: bool, count: fn(&mut RecoveryReport)) -> Vec<usize> {
        let mut retry = ran.to_vec();
        retry.retain(|&j| left && self.err[j].as_ref().is_some_and(is_transient));
        for &j in &retry {
            count(&mut self.reports[j]);
            self.err[j] = None;
        }
        retry
    }

    /// One attempt of the current members over the whole schedule: health
    /// scan, pre-transpose and the panel loop. Every launch of the attempt
    /// lands in the members' reports, whether it succeeds or not.
    fn attempt(&mut self, geo: &DagGeometry, lookahead: bool) {
        let (backend, cfg) = (self.backend, self.cfg);
        let members = self.members.clone();
        members.iter().for_each(|&j| self.launches[j] = 0);
        // Numerical health check: reject NaN/inf input with a typed error
        // before any arithmetic.
        if cfg.check_finite {
            let scans =
                backend.check_finite_group(&self.mats, &members, cfg.bs, cfg.health_context);
            let mut issued = 0;
            for (&j, scan) in members.iter().zip(scans) {
                match scan {
                    // Every member's scan issues the same launches.
                    Ok(l) => (issued, self.launches[j]) = (l, l),
                    Err(e) => self.err[j] = Some(e),
                }
            }
            self.group_launches += issued;
        }
        // Strategy 4's out-of-place preprocessing, once for the group.
        let live = self.live();
        if cfg.strategy.needs_pretranspose() && !live.is_empty() {
            let (m, n) = self.shape;
            match backend.pretranspose(m, n, cfg.bs) {
                Ok(l) => {
                    self.group_launches += l;
                    live.iter().for_each(|&j| self.launches[j] += l);
                }
                Err(e) => live.iter().for_each(|&j| self.err[j] = Some(e.clone())),
            }
        }
        // The group's failures are its members', kept in `err`: its sink
        // never fails the walk.
        let _ = run_panels(self, geo, lookahead);
        // A checked attempt resolves everything, failed work included,
        // before the next round. An unchecked one leaves the queued work to
        // the caller, which reads its timeline (`Gpu::try_synchronize`
        // after a [`Mode::Dag`] run).
        if self.verify {
            if let Err(e) = backend.sync() {
                members.iter().for_each(|&j| self.err[j] = Some(e.clone()));
            }
        }
        for &j in &members {
            self.reports[j].launches += self.launches[j] as u64;
        }
    }

    /// One launch of `task` for `members`, keeping each member's outcome.
    fn launch(&mut self, task: &mut ApplyTask<T>, members: &[usize]) {
        let work: Vec<(usize, &PanelFactor<T>)> = (members.iter())
            .map(|&j| (j, &self.panels[j][task.p]))
            .collect();
        let chain = work.first().map_or(0, |(_, pf)| 1 + pf.levels.len());
        let applied =
            (self.backend).apply_panel_group(task.slot, &mut self.mats, &work, &task.cols, true);
        self.group_launches += chain;
        for (&j, r) in members.iter().zip(applied) {
            if r.is_ok() {
                self.launches[j] += chain;
            }
            task.launched[j] = r;
        }
    }

    /// Settle one apply task with the task tier of the ladder: a member
    /// fails it by its launch's error or, when checking, by its predicted
    /// column sums, and replays it from its snapshot while its task budget
    /// lasts.
    fn settle(&mut self, mut task: ApplyTask<T>) {
        let (backend, m) = (self.backend, self.shape.0);
        let mut checking = self.live_of(&task.members);
        for round in 0.. {
            for &j in &checking {
                let launched = std::mem::replace(&mut task.launched[j], Ok(()));
                let checked = launched.and_then(|()| {
                    let Some(pred) = &task.preds[j] else {
                        return Ok(());
                    };
                    self.reports[j].checksum_checks += pred.len() as u64;
                    backend.charge_verify(m * pred.len());
                    health::apply_sum_check::<T>(&self.mats[j], pred, &task.cols, m, task.p)
                });
                if let Err(e) = checked {
                    self.fail_task(j, e);
                }
            }
            let retry = self.retry(&checking, self.task_left(round), |r| r.task_replays += 1);
            if retry.is_empty() {
                return;
            }
            for &j in &retry {
                let a = &mut self.mats[j];
                task.snaps[j].iter().for_each(|s| s.restore(backend, a));
            }
            self.launch(&mut task, &retry);
            self.sync(&retry);
            checking = self.live_of(&retry);
        }
    }

    /// Resolve the work of the members of `members` still live, failing
    /// them if the schedule cannot be resolved.
    fn sync(&mut self, members: &[usize]) {
        let live = self.live_of(members);
        if let Some(Err(e)) = (!live.is_empty()).then(|| self.backend.sync()) {
            live.iter().for_each(|&j| self.err[j] = Some(e.clone()));
        }
    }
}

impl<T: Scalar, B: CaqrBackend<T>> PanelSink for GroupRun<'_, T, B> {
    /// A checked run resolves its work at host syncs, so it orders nothing
    /// with tokens (a token recorded before a sync cannot be waited on
    /// after it).
    type Token = Option<B::Token>;

    /// The factor task with the task tier of the ladder: snapshot each
    /// live member's panel under a policy, take its pre-factor column sums
    /// when checking, and run one group factor. When checking, sync and
    /// check it by the column norms of `R` and the `Q·1` probe; a member
    /// that fails transiently replays from its snapshot. Members that come
    /// through keep the panel's factor.
    fn factor(&mut self, slot: usize, step: &PanelStep) -> Result<(), CaqrError> {
        let backend = self.backend;
        let ((m, n), p, c, width) = (self.shape, step.p, step.c, step.width);
        let rows = m - c;
        // The ladder probes every panel; detection alone probes only where
        // the probe also predicts an apply (the cost is in DESIGN.md §10).
        let probe = self.policy.is_some() || c + width < n;
        let mut pending = self.live();
        let mut snaps: Vec<Option<RegionSnapshot<T>>> = (self.mats.iter()).map(|_| None).collect();
        for &j in pending.iter().filter(|_| self.policy.is_some()) {
            snaps[j] = Some(RegionSnapshot::save(
                backend,
                &self.mats[j],
                c,
                &[(c, width)],
            ));
        }
        let mut pre = vec![None; self.mats.len()];
        for &j in pending.iter().filter(|_| self.verify) {
            backend.charge_verify(rows * width);
            pre[j] = Some(health::panel_col_norms(&self.mats[j], c, c, width));
        }
        for round in 0.. {
            if pending.is_empty() {
                break;
            }
            let factored =
                backend.factor_panel_group(slot, &mut self.mats, &pending, c, c, width, self.cfg);
            let synced = if self.verify { backend.sync() } else { Ok(()) };
            let issued = (factored.iter().flatten().next()).map_or(0, |pf| 1 + pf.levels.len());
            self.group_launches += issued;
            for (&j, r) in pending.iter().zip(factored) {
                let checked = r.and_then(|pf| {
                    synced.clone()?;
                    self.launches[j] += 1 + pf.levels.len();
                    let Some(pre) = &pre[j] else {
                        return Ok((pf, None));
                    };
                    self.reports[j].checksum_checks += width as u64;
                    health::factor_norm_check::<T>(&self.mats[j], pre, m, p, c, width)?;
                    let u = probe.then(|| backend.q_ones_probe(m, &pf));
                    if let Some(u) = &u {
                        self.reports[j].checksum_checks += 1;
                        health::verify_probe(u, p, c)?;
                    }
                    backend.charge_verify(rows * width + u.as_ref().map_or(0, Vec::len));
                    Ok((pf, u))
                });
                match checked {
                    Ok((pf, u)) => {
                        self.panels[j].push(pf);
                        self.probe[j] = u;
                    }
                    Err(e) => self.fail_task(j, e),
                }
            }
            let left = synced.is_ok() && self.task_left(round);
            pending = self.retry(&pending, left, |r| r.task_replays += 1);
            for &j in &pending {
                let a = &mut self.mats[j];
                snaps[j].iter().for_each(|s| s.restore(backend, a));
            }
        }
        Ok(())
    }

    /// The apply task: snapshot each live member's input under a policy,
    /// predict its column sums when checking, then one group apply. Its
    /// failures wait for [`PanelSink::finish_panel`].
    fn apply(
        &mut self,
        slot: usize,
        step: &PanelStep,
        cols: &[(usize, usize)],
    ) -> Result<(), CaqrError> {
        let live = self.live();
        if live.is_empty() {
            return Ok(());
        }
        let g = self.mats.len();
        let mut task = ApplyTask {
            slot,
            p: step.p,
            cols: cols.to_vec(),
            members: live.clone(),
            snaps: (0..g).map(|_| None).collect(),
            preds: vec![None; g],
            launched: vec![Ok(()); g],
        };
        for &j in &live {
            let a = &self.mats[j];
            if self.policy.is_some() {
                task.snaps[j] = Some(RegionSnapshot::save(self.backend, a, step.c, cols));
            }
            if let Some(u) = &self.probe[j] {
                let pred = health::predicted_col_sums(u, a, cols);
                self.backend.charge_verify(a.rows() * pred.len());
                task.preds[j] = Some(pred);
            }
        }
        self.launch(&mut task, &live);
        self.tasks.push(task);
        Ok(())
    }

    /// After the panel's applies: when checking, one sync; then every
    /// apply task settles, in the order it was issued.
    fn finish_panel(&mut self) {
        let tasks = std::mem::take(&mut self.tasks);
        if self.verify && !tasks.is_empty() {
            self.sync(&self.members.clone());
        }
        tasks.into_iter().for_each(|task| self.settle(task));
    }

    fn record(&mut self, slot: usize) -> Self::Token {
        (!self.verify).then(|| self.backend.record(slot))
    }

    fn wait(&mut self, slot: usize, token: Self::Token) {
        if let Some(token) = token {
            self.backend.wait(slot, token);
        }
    }
}

/// Where the panel schedule's work goes: a group of matrices on an
/// executing backend ([`GroupRun`]) or the cost model ([`CostSink`]).
trait PanelSink {
    type Token: Copy;
    /// Factor the panel of `step` on `slot`.
    fn factor(&mut self, slot: usize, step: &PanelStep) -> Result<(), CaqrError>;
    /// Apply panel `step.p` to the column blocks `cols` on `slot`.
    fn apply(
        &mut self,
        slot: usize,
        step: &PanelStep,
        cols: &[(usize, usize)],
    ) -> Result<(), CaqrError>;
    /// Close a panel after its applies (the checks and replays of an
    /// executing group).
    fn finish_panel(&mut self) {}
    fn record(&mut self, slot: usize) -> Self::Token;
    fn wait(&mut self, slot: usize, token: Self::Token);
}

/// The panel schedule, written once: per panel, a factor chain on the
/// panel's home slot, then one apply chain per slot group of the trailing
/// matrix ([`DagGeometry::groups`]), cross-slot dependencies expressed
/// with tokens, then the sink closes the panel. Barrier mode makes each
/// factor wait for the whole previous update; lookahead updates the next
/// panel's own block and factors it ahead of the bulk update.
fn run_panels<S: PanelSink>(
    sink: &mut S,
    geo: &DagGeometry,
    lookahead: bool,
) -> Result<(), CaqrError> {
    let npanels = geo.steps.len();
    // Barrier mode: apply-completion tokens the next factor waits on.
    let mut pending: Vec<S::Token> = Vec::new();
    // Lookahead mode: the next panel's factor, done ahead of schedule.
    let mut next: Option<S::Token> = None;
    for (p, step) in geo.steps.iter().enumerate() {
        let f_tok = match next.take() {
            Some(tok) => tok,
            None => {
                let h = geo.home(p);
                for tok in pending.drain(..) {
                    sink.wait(h, tok);
                }
                sink.factor(h, step)?;
                sink.record(h)
            }
        };
        let mut first_block = p + 1;
        if lookahead && p + 1 < npanels {
            // Update only the next panel's column block and factor it
            // immediately; the bulk update below skips that block.
            let h_next = geo.home(p + 1);
            if h_next != geo.home(p) {
                sink.wait(h_next, f_tok);
            }
            sink.apply(h_next, step, &[geo.block(p + 1)])?;
            sink.factor(h_next, &geo.steps[p + 1])?;
            next = Some(sink.record(h_next));
            first_block = p + 2;
        }
        for (t, cols) in geo.groups(step, first_block).into_iter().enumerate() {
            if cols.is_empty() {
                continue;
            }
            if t != geo.home(p) {
                sink.wait(t, f_tok);
            }
            sink.apply(t, step, &cols)?;
            if !lookahead && p + 1 < npanels {
                pending.push(sink.record(t));
            }
        }
        sink.finish_panel();
    }
    Ok(())
}

/// The cost-only sink: the simulator's slots charged with each chain's
/// launches ([`PanelChains`]) for an `m`-row single-precision matrix,
/// without doing the arithmetic.
struct CostSink<'a, 'g> {
    sim: &'a SimBackend<'g>,
    cfg: &'a DriveConfig,
    m: usize,
}

impl PanelSink for CostSink<'_, '_> {
    type Token = Option<EventId>;

    fn factor(&mut self, slot: usize, step: &PanelStep) -> Result<(), CaqrError> {
        let chains = PanelChains::planned(self.cfg, self.m, step.c, step.width, ELEM_BYTES);
        chains.charge_factor(self.sim.gpu, self.sim.execs[slot])
    }

    fn apply(
        &mut self,
        slot: usize,
        step: &PanelStep,
        cols: &[(usize, usize)],
    ) -> Result<(), CaqrError> {
        let chains = PanelChains::planned(self.cfg, self.m, step.c, step.width, ELEM_BYTES);
        chains.charge_apply(self.sim.gpu, self.sim.execs[slot], cols, true)
    }

    fn record(&mut self, slot: usize) -> Self::Token {
        CaqrBackend::<f32>::record(self.sim, slot)
    }

    fn wait(&mut self, slot: usize, token: Self::Token) {
        CaqrBackend::<f32>::wait(self.sim, slot, token);
    }
}

/// The host-multicore backend: no simulator, no cost model, real rayon
/// execution through [`crate::blockops`]. One slot; record/wait are no-ops
/// because execution is eager and in-order.
pub struct CpuBackend;

impl<T: Scalar> CaqrBackend<T> for CpuBackend {
    type Token = ();

    fn slots(&self) -> usize {
        1
    }

    fn check_finite(
        &self,
        a: &Matrix<T>,
        _bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError> {
        if let Some((row, col)) = health::first_nonfinite(a) {
            return Err(CaqrError::NonFinite { context, row, col });
        }
        Ok(0)
    }

    fn pretranspose(&self, _m: usize, _n: usize, _bs: BlockSize) -> Result<usize, CaqrError> {
        // The CPU analogue of the strategy-4 pre-transpose is the per-tile
        // V pack each apply makes once (`multicore::apply_panels`); no
        // separate pass runs.
        Ok(0)
    }

    fn factor_panel(
        &self,
        _slot: usize,
        a: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Result<PanelFactor<T>, CaqrError> {
        one(factor_panels(&[MatPtr::new(a)], row0, col0, width, cfg))
    }

    fn apply_panel(
        &self,
        _slot: usize,
        c: MatPtr<T>,
        pf: &PanelFactor<T>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        one(apply_panels(&[(c, pf)], cols, transpose))
    }

    fn check_finite_group(
        &self,
        mats: &[Matrix<T>],
        live: &[usize],
        bs: BlockSize,
        context: &'static str,
    ) -> Vec<Result<usize, CaqrError>> {
        // One region over the members. A one-item region runs inline on
        // the caller without marking it as inside a region, so a lone
        // member's scan still forks over its columns.
        live.par_iter()
            .map(|&j| self.check_finite(&mats[j], bs, context))
            .collect()
    }

    fn factor_panel_group(
        &self,
        _slot: usize,
        mats: &mut [Matrix<T>],
        live: &[usize],
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Vec<Result<PanelFactor<T>, CaqrError>> {
        // Lifetime-erased handles, one per distinct member: every packed
        // task touches only its own member's disjoint tile (see `MatPtr`).
        assert!(live.windows(2).all(|p| p[0] < p[1]), "members must rise");
        let ptrs: Vec<MatPtr<T>> = live.iter().map(|&j| MatPtr::new(&mut mats[j])).collect();
        factor_panels(&ptrs, row0, col0, width, cfg)
    }

    fn apply_panel_group(
        &self,
        _slot: usize,
        mats: &mut [Matrix<T>],
        work: &[(usize, &PanelFactor<T>)],
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Vec<Result<(), CaqrError>> {
        assert!(
            work.windows(2).all(|p| p[0].0 < p[1].0),
            "members must rise"
        );
        let work: Vec<(MatPtr<T>, &PanelFactor<T>)> = work
            .iter()
            .map(|&(j, pf)| (MatPtr::new(&mut mats[j]), pf))
            .collect();
        apply_panels(&work, cols, transpose)
    }

    fn record(&self, _slot: usize) -> Self::Token {}

    fn wait(&self, _slot: usize, _token: Self::Token) {}

    fn sync(&self) -> Result<(), CaqrError> {
        Ok(())
    }
}

/// The lone result of a one-member packed launch.
fn one<R>(mut results: Vec<R>) -> R {
    results
        .pop()
        .expect("a one-member launch returns one result")
}

/// The single-device simulator backend, covering three executor shapes
/// through its constructors: the synchronous Figure-4 loop
/// ([`SimBackend::sync`]), the stream DAG ([`SimBackend::streams`]) and
/// the resilient barrier executor ([`SimBackend::resilient`], which keeps
/// the health/pre-transpose passes synchronous the way the recovery
/// schedule issues them).
///
/// Each method first charges its launch chain through the walks of
/// [`crate::model`], which the model-only sweeps charge too, and then runs
/// [`CpuBackend`]'s method for the arithmetic. A failed admission (device
/// loss) ends the call before any arithmetic, and the factors it returns
/// are the host's bit for bit.
pub struct SimBackend<'g> {
    gpu: &'g Gpu,
    streams: Vec<StreamId>,
    execs: Vec<Exec>,
    health_exec: Exec,
    pre_exec: Exec,
}

impl<'g> SimBackend<'g> {
    /// Synchronous executor: one slot running `Exec::Sync`.
    pub fn sync(gpu: &'g Gpu) -> SimBackend<'g> {
        SimBackend {
            gpu,
            streams: Vec::new(),
            execs: vec![Exec::Sync],
            health_exec: Exec::Sync,
            pre_exec: Exec::Sync,
        }
    }

    /// Stream-DAG executor: `s` streams, health check and pre-transpose
    /// queued first on stream 0 (arithmetic runs eagerly at enqueue, so a
    /// NaN aborts before any factor work is queued).
    pub fn streams(gpu: &'g Gpu, s: usize) -> Result<SimBackend<'g>, CaqrError> {
        let streams = Self::make_streams(gpu, s)?;
        let first = Exec::Stream(streams[0]);
        Ok(SimBackend {
            gpu,
            execs: streams.iter().map(|&sid| Exec::Stream(sid)).collect(),
            streams,
            health_exec: first,
            pre_exec: first,
        })
    }

    /// Resilient barrier executor: `s` streams for the panel tasks, but the
    /// health check and pre-transpose run synchronously (the recovery
    /// schedule host-barriers between tasks anyway).
    pub fn resilient(gpu: &'g Gpu, s: usize) -> Result<SimBackend<'g>, CaqrError> {
        let streams = Self::make_streams(gpu, s)?;
        Ok(SimBackend {
            gpu,
            execs: streams.iter().map(|&sid| Exec::Stream(sid)).collect(),
            streams,
            health_exec: Exec::Sync,
            pre_exec: Exec::Sync,
        })
    }

    fn make_streams(gpu: &Gpu, s: usize) -> Result<Vec<StreamId>, CaqrError> {
        if s == 0 {
            return Err(CaqrError::BadShape("streams must be >= 1".into()));
        }
        Ok((0..s).map(|_| gpu.create_stream()).collect())
    }

    /// Model a run without data: charge what an unchecked [`drive`]
    /// ([`Modelled::Factor`]) or [`Factorization::generate_q_on`]
    /// ([`Modelled::GenerateQ`]) issues on this backend for an `m x n`
    /// single-precision matrix, with the chain costs of [`crate::model`] in
    /// place of the arithmetic — so Table-I-scale shapes (1M x 192) are
    /// modelled without 768 MB of arithmetic. Returns the modelled seconds
    /// (on a streamed backend, the schedule's makespan) and the resolved
    /// [`Timeline`] of the stream intervals, empty on a synchronous one.
    pub fn model(
        &self,
        m: usize,
        n: usize,
        cfg: &DriveConfig,
        what: Modelled,
    ) -> Result<(f64, Timeline), CaqrError> {
        validate(cfg, m, n)?;
        let t0 = self.gpu.elapsed();
        match what {
            Modelled::Factor(mode) => {
                if cfg.check_finite {
                    charge_health(self.gpu, self.health_exec, m, n, cfg.bs, ELEM_BYTES)?;
                }
                if cfg.strategy.needs_pretranspose() {
                    charge_pretranspose(self.gpu, self.pre_exec, m, n, cfg.bs, ELEM_BYTES)?;
                }
                let geo = DagGeometry::new(m, n, cfg.bs.w, self.execs.len());
                let lookahead = mode == (Mode::Dag { lookahead: true });
                run_panels(&mut CostSink { sim: self, cfg, m }, &geo, lookahead)?;
            }
            // One apply chain per panel over the column grid, in the order
            // `generate_q_on` executes them: panels last to first, each
            // chain tree levels first.
            Modelled::GenerateQ { nc } => {
                checked_elems(m, nc, "apply target element count")?;
                let geo = DagGeometry::new(m, n, cfg.bs.w, 1);
                let cols = col_blocks(0, nc, cfg.bs.w);
                (geo.steps.iter().rev()).try_for_each(|step| {
                    let chains = PanelChains::planned(cfg, m, step.c, step.width, ELEM_BYTES);
                    chains.charge_apply(self.gpu, self.execs[0], &cols, false)
                })?;
            }
        }
        let timeline =
            (self.gpu.try_synchronize()).map_err(|context| CaqrError::Breakdown { context })?;
        Ok((self.gpu.elapsed() - t0, timeline))
    }
}

impl<'g, T: Scalar> CaqrBackend<T> for SimBackend<'g> {
    type Token = Option<EventId>;

    fn slots(&self) -> usize {
        self.execs.len()
    }

    fn check_finite(
        &self,
        a: &Matrix<T>,
        bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError> {
        let (m, n) = a.shape();
        charge_health(self.gpu, self.health_exec, m, n, bs, T::BYTES)?;
        CpuBackend.check_finite(a, bs, context)?;
        Ok(1)
    }

    fn pretranspose(&self, m: usize, n: usize, bs: BlockSize) -> Result<usize, CaqrError> {
        charge_pretranspose(self.gpu, self.pre_exec, m, n, bs, T::BYTES)?;
        Ok(1)
    }

    fn factor_panel(
        &self,
        slot: usize,
        a: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Result<PanelFactor<T>, CaqrError> {
        let chains = PanelChains::planned(cfg, a.rows(), row0, width, T::BYTES);
        chains.charge_factor(self.gpu, self.execs[slot])?;
        CpuBackend.factor_panel(slot, a, row0, col0, width, cfg)
    }

    fn apply_panel(
        &self,
        slot: usize,
        c: MatPtr<T>,
        pf: &PanelFactor<T>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        PanelChains::of(pf).charge_apply(self.gpu, self.execs[slot], cols, transpose)?;
        CpuBackend.apply_panel(slot, c, pf, cols, transpose)
    }

    fn record(&self, slot: usize) -> Self::Token {
        self.streams
            .get(slot)
            .map(|&sid| self.gpu.record_event(sid))
    }

    fn wait(&self, slot: usize, token: Self::Token) {
        if let (Some(&sid), Some(ev)) = (self.streams.get(slot), token) {
            self.gpu.wait_event(sid, ev);
        }
    }

    fn sync(&self) -> Result<(), CaqrError> {
        self.gpu
            .try_synchronize()
            .map(|_| ())
            .map_err(|context| CaqrError::Breakdown { context })
    }

    fn charge_verify(&self, elems: usize) {
        let bytes = elems as f64 * T::BYTES as f64;
        self.gpu.host_work(
            "checksum_verify",
            bytes / (self.gpu.spec().dram_bw_gbs * 1e9),
            2.0 * elems as f64,
        );
    }

    fn charge_snapshot(&self, elems: usize) {
        let bytes = 2.0 * elems as f64 * T::BYTES as f64;
        self.gpu
            .host_work("snapshot", bytes / (self.gpu.spec().dram_bw_gbs * 1e9), 0.0);
    }

    fn note_recovery(&self, r: &RecoveryReport) {
        self.gpu.note_replays(r.task_replays, r.run_retries);
    }

    /// A failed task costs the launch overhead of its rejected first
    /// launch, a hung one the watchdog deadline of stall on its slot.
    fn charge_fault(&self, slot: usize, kind: FaultKind) {
        match kind {
            FaultKind::Sdc => self.gpu.note_sdc(),
            kind => (self.gpu).charge_failed_launch(self.execs[slot], kind == FaultKind::Hang),
        }
    }
}

/// The one fault injector: a decorator over any backend that fails or
/// corrupts the group tasks a [`FaultPlan`] names (DESIGN.md §8).
///
/// Each group member counts its own tasks from 0 in issue order: a group
/// factor (one factor chain) or a group apply (one apply chain) is one
/// task per member it serves, and a replay is a new task with a fresh
/// ordinal. Member `j` draws `plans[j].fault(ordinal, 0)` per task; a
/// member without a plan never faults. A launch fault, hang, device loss
/// or host panic fails the task with a typed error before it runs (a host
/// panic as the [`CaqrError::Panicked`] its member's caught unwind gives).
/// An SDC lets the task run, then corrupts one value of its output inside
/// checksum coverage: a factor's `R` diagonal on an even payload or the
/// packed `T` the `Q·1` probe guards on an odd one (`R` on the last
/// panel), an apply's first trailing column. Each fault is charged through
/// [`CaqrBackend::charge_fault`]. Everything else, the per-matrix methods
/// included, passes straight through.
pub struct Faulty<B> {
    inner: B,
    plans: Vec<FaultPlan>,
    /// Per member: tasks issued so far.
    issued: Vec<Cell<u64>>,
}

impl<B> Faulty<B> {
    /// Plan `plans[j]` against member `j` of every group run on `inner` (a
    /// standalone run is member 0).
    pub fn new(inner: B, plans: Vec<FaultPlan>) -> Faulty<B> {
        let issued = vec![Cell::new(0); plans.len()];
        Faulty {
            inner,
            plans,
            issued,
        }
    }

    /// Count one task of member `j` and draw its fault.
    fn draw(&self, j: usize) -> Option<PlannedFault> {
        let (plan, issued) = (self.plans.get(j)?, &self.issued[j]);
        let ordinal = issued.replace(issued.get() + 1);
        plan.fault(ordinal, 0)
    }

    /// One group task: draw a fault for every member of `work`, fail the
    /// members whose fault stops the task, run the rest in one `launch` of
    /// the inner backend, then let `sdc` corrupt the output of any member
    /// whose fault is an SDC. One result per member of `work`.
    #[allow(clippy::too_many_arguments)]
    fn group_task<T: Scalar, W: Copy, R>(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        work: &[W],
        member: impl Fn(W) -> usize,
        kernel: &'static str,
        launch: impl FnOnce(&mut [Matrix<T>], &[W]) -> Vec<Result<R, CaqrError>>,
        sdc: impl Fn(&mut Matrix<T>, &mut R, W, u64),
    ) -> Vec<Result<R, CaqrError>>
    where
        B: CaqrBackend<T>,
    {
        // Per member: the error its fault stops the task with, or the
        // payload of an SDC to apply once the task has run.
        let drawn: Vec<Result<Option<u64>, CaqrError>> = work
            .iter()
            .map(|&w| {
                let Some(f) = self.draw(member(w)) else {
                    return Ok(None);
                };
                let launch_index = f.ordinal;
                let stop = match f.kind {
                    FaultKind::Sdc => return Ok(Some(f.payload)),
                    FaultKind::LaunchFail => CaqrError::Fault {
                        kernel,
                        launch_index,
                    },
                    FaultKind::Hang => CaqrError::Timeout {
                        kernel,
                        launch_index,
                        deadline_us: DEFAULT_WATCHDOG_US as u64,
                    },
                    FaultKind::DeviceLoss => CaqrError::DeviceLost {
                        kernel,
                        launch_index,
                    },
                    FaultKind::HostPanic => CaqrError::Panicked {
                        context: format!("injected host panic: {kernel} task"),
                    },
                };
                self.inner.charge_fault(slot, f.kind);
                Err(stop)
            })
            .collect();
        let run: Vec<W> = work
            .iter()
            .zip(&drawn)
            .filter(|(_, d)| d.is_ok())
            .map(|(&w, _)| w)
            .collect();
        let mut results = launch(mats, &run).into_iter();
        work.iter()
            .zip(drawn)
            .map(|(&w, drawn)| {
                let payload = drawn?;
                let mut r = results.next().expect("one result per member run")?;
                if let Some(payload) = payload {
                    sdc(&mut mats[member(w)], &mut r, w, payload);
                    self.inner.charge_fault(slot, FaultKind::Sdc);
                }
                Ok(r)
            })
            .collect()
    }
}

/// The SDC corruption `x -> 2x + 1` of one value: it always changes the
/// value and never makes it non-finite, so the checksums, not the
/// finiteness scan, must catch it.
fn corrupt<T: Scalar>(x: &mut T) {
    *x = *x + *x + T::ONE;
}

/// A factor-task SDC: on an even payload one diagonal entry of the panel's
/// `R`, inside the column-norm check's coverage; on an odd one a diagonal
/// entry of one tile's packed `T`, which the `Q·1` probe guards. A
/// detection-only run probes only panels with trailing columns (DESIGN.md
/// §10), so on the last panel the SDC lands on `R` whatever the payload.
fn corrupt_factor<T: Scalar>(a: &mut Matrix<T>, pf: &mut PanelFactor<T>, payload: u64) {
    let bits = (payload / 2) as usize;
    if payload.is_multiple_of(2) || pf.col0 + pf.width == a.cols() {
        let d = pf.col0 + bits % pf.width;
        corrupt(&mut a[(d, d)]);
    } else {
        let tiles = pf.wy0.len();
        let t = &mut pf.wy0[bits % tiles].t;
        let d = bits % t.rows();
        corrupt(&mut t[(d, d)]);
    }
}

impl<T: Scalar, B: CaqrBackend<T>> CaqrBackend<T> for Faulty<B> {
    type Token = B::Token;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn check_finite(
        &self,
        a: &Matrix<T>,
        bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError> {
        self.inner.check_finite(a, bs, context)
    }

    fn pretranspose(&self, m: usize, n: usize, bs: BlockSize) -> Result<usize, CaqrError> {
        self.inner.pretranspose(m, n, bs)
    }

    fn factor_panel(
        &self,
        slot: usize,
        a: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Result<PanelFactor<T>, CaqrError> {
        self.inner.factor_panel(slot, a, row0, col0, width, cfg)
    }

    fn apply_panel(
        &self,
        slot: usize,
        c: MatPtr<T>,
        pf: &PanelFactor<T>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        self.inner.apply_panel(slot, c, pf, cols, transpose)
    }

    fn check_finite_group(
        &self,
        mats: &[Matrix<T>],
        live: &[usize],
        bs: BlockSize,
        context: &'static str,
    ) -> Vec<Result<usize, CaqrError>> {
        self.inner.check_finite_group(mats, live, bs, context)
    }

    fn factor_panel_group(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        live: &[usize],
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Vec<Result<PanelFactor<T>, CaqrError>> {
        self.group_task(
            slot,
            mats,
            live,
            |j| j,
            "factor",
            |mats, run| (self.inner).factor_panel_group(slot, mats, run, row0, col0, width, cfg),
            |a, pf, _, payload| corrupt_factor(a, pf, payload),
        )
    }

    fn apply_panel_group(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        work: &[(usize, &PanelFactor<T>)],
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Vec<Result<(), CaqrError>> {
        self.group_task(
            slot,
            mats,
            work,
            |(j, _)| j,
            "apply",
            |mats, run| (self.inner).apply_panel_group(slot, mats, run, cols, transpose),
            |c, _, (_, pf), _| corrupt(&mut c[(pf.row0, cols[0].0)]),
        )
    }

    fn record(&self, slot: usize) -> Self::Token {
        self.inner.record(slot)
    }

    fn wait(&self, slot: usize, token: Self::Token) {
        self.inner.wait(slot, token)
    }

    fn sync(&self) -> Result<(), CaqrError> {
        self.inner.sync()
    }

    fn q_ones_probe(&self, m: usize, pf: &PanelFactor<T>) -> Vec<T> {
        self.inner.q_ones_probe(m, pf)
    }

    fn charge_verify(&self, elems: usize) {
        self.inner.charge_verify(elems)
    }

    fn charge_snapshot(&self, elems: usize) {
        self.inner.charge_snapshot(elems)
    }

    fn note_recovery(&self, report: &RecoveryReport) {
        self.inner.note_recovery(report)
    }

    fn charge_fault(&self, slot: usize, kind: FaultKind) {
        self.inner.charge_fault(slot, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicore::{caqr_cpu, CpuCaqrOptions};
    use gpu_sim::DeviceSpec;

    /// Recover `a` on `backend` under the default policy, check the bits
    /// against `want`, and return the `[task, run]` replays.
    fn recover<B: CaqrBackend<f64>>(
        backend: &B,
        a: &Matrix<f64>,
        cfg: &DriveConfig,
        want: &Matrix<f64>,
        case: &str,
    ) -> [u64; 2] {
        let (f, r) = drive_recovering(backend, a.clone(), cfg, &RecoveryPolicy::default())
            .unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
        assert_eq!(&f.a, want, "{case}: bits must match caqr_cpu");
        [r.task_replays, r.run_retries]
    }

    #[test]
    fn one_injector_on_every_backend() {
        // 400x24 in panels of 16 then 8: the first panel's update is one
        // column block, so the host and the 3-stream simulator both issue
        // the tasks F A F. The same plan goes through `Faulty` over each.
        let opts = CpuCaqrOptions {
            tile_rows: 48,
            panel_width: 16,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        };
        let a = dense::generate::uniform::<f64>(400, 24, 77);
        let want = caqr_cpu(a.clone(), opts).unwrap().a;
        let cfg = opts.drive_config();
        // An SDC payload's parity picks its site in a factor task: R's
        // diagonal when even, the packed T when odd.
        let faults = [
            (FaultKind::LaunchFail, 0),
            (FaultKind::Hang, 0),
            (FaultKind::Sdc, 0),
            (FaultKind::Sdc, 1),
        ];
        for ordinal in 0..3 {
            for (kind, payload) in faults {
                let case = format!("{kind:?} (payload {payload}) at task {ordinal}");
                let plan = FaultPlan::explicit([PlannedFault {
                    kind,
                    ordinal,
                    payload,
                }]);
                let host = Faulty::new(CpuBackend, vec![plan.clone()]);
                let cpu = recover(&host, &a, &cfg, &want, &case);
                let gpu = Gpu::new(DeviceSpec::c2050());
                let device = Faulty::new(SimBackend::resilient(&gpu, 3).unwrap(), vec![plan]);
                let sim = recover(&device, &a, &cfg, &want, &case);
                assert_eq!(cpu, sim, "{case}: backends disagree");
                assert_eq!(cpu, [1, 0], "{case}: one task replay");
                let l = gpu.ledger();
                let charged = [l.faults, l.hangs, l.sdc_injected];
                assert_eq!(charged.iter().sum::<u64>(), 1, "{case}: {charged:?}");
            }
        }
    }
}
