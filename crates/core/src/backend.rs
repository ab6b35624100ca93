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
//! * [`crate::recovery::drive_resilient`] layers the snapshot/replay
//!   escalation ladder over the same trait.
//!
//! Dispatch is static: every entry point (`caqr`, `caqr_dag`, `caqr_cpu`,
//! `caqr_resilient`, `distributed_tsqr`) is a thin shim that instantiates
//! `drive` with a concrete backend type — no `dyn` anywhere on the hot path.

use crate::block::{BlockSize, TreeShape};
use crate::error::{checked_elems, CaqrError};
use crate::health;
use crate::kernels::PretransposeKernel;
use crate::microkernels::ReductionStrategy;
use crate::multicore::{apply_panels, factor_panels, q_ones_probe_host};
use crate::tsqr::{apply_panel_ptr_on, col_blocks, factor_panel_with_tree_on, PanelFactor};
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::{EventId, Exec, Gpu, StreamId};
use rayon::prelude::*;

/// How the generic driver schedules the panel loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The synchronous Figure-4 loop: factor, then one whole-trailing apply
    /// chain, panel after panel, all on slot 0.
    Sync,
    /// The stream-scheduled task DAG: column blocks owned by home slots,
    /// cross-slot dependencies expressed with record/wait tokens.
    Dag {
        /// Factor panel `k+1` as soon as its own column block is updated,
        /// ahead of panel `k`'s bulk trailing update.
        lookahead: bool,
    },
}

/// Numerical + detection configuration of one [`drive`] run. This is the
/// backend-independent subset of the per-path option structs; the shims
/// translate their own options into it.
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
    /// sums). Only honoured by [`Mode::Sync`]; detection-with-replay lives
    /// in [`crate::recovery::drive_resilient`].
    pub verify_checksums: bool,
    /// Context string for the typed [`CaqrError::NonFinite`] error.
    pub health_context: &'static str,
}

/// What [`drive`] produced: the factored matrix, the per-panel TSQR factors
/// in factorization order, and the exact number of kernel launches the
/// schedule issued (0-cost backends count logical chains the same way).
pub struct DriveOutcome<T: Scalar> {
    /// The factored matrix: `R` in the upper triangle, Householder tails
    /// below it.
    pub a: Matrix<T>,
    /// Per-panel factors.
    pub panels: Vec<PanelFactor<T>>,
    /// Kernel launches issued (factor chains, apply chains, health check,
    /// pre-transpose), counted as the schedule enqueued them.
    pub launches: usize,
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
/// The `*_group` methods serve [`Mode::Sync`], which runs a group of
/// same-shape matrices in lockstep (a standalone run is a group of one).
/// Their provided bodies loop over the members with the per-matrix
/// methods; a backend that can pack many members into one launch (the
/// host [`CpuBackend`]) overrides them.
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

    /// Group health scan: [`CaqrBackend::check_finite`] over every member
    /// of a same-shape group, one verdict per member.
    fn check_finite_group(
        &self,
        mats: &[Matrix<T>],
        bs: BlockSize,
        context: &'static str,
    ) -> Vec<Result<usize, CaqrError>> {
        mats.iter()
            .map(|a| self.check_finite(a, bs, context))
            .collect()
    }

    /// Group factor: [`CaqrBackend::factor_panel`] on slot 0 for each live
    /// member `mats[j]`, `j` in `live` (rising), one result per live member
    /// in `live` order. A failed member fails alone.
    fn factor_panel_group(
        &self,
        mats: &mut [Matrix<T>],
        live: &[usize],
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Vec<Result<PanelFactor<T>, CaqrError>> {
        live.iter()
            .map(|&j| self.factor_panel(0, &mut mats[j], row0, col0, width, cfg))
            .collect()
    }

    /// Group apply: [`CaqrBackend::apply_panel`] on slot 0 of each member's
    /// own panel factor to the column blocks `cols` of `mats[j]`, one result
    /// per `(j, factor)` pair of `work` (`j` rising). A failed member fails
    /// alone.
    fn apply_panel_group(
        &self,
        mats: &mut [Matrix<T>],
        work: &[(usize, &PanelFactor<T>)],
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Vec<Result<(), CaqrError>> {
        work.iter()
            .map(|&(j, pf)| self.apply_panel(0, MatPtr::new(&mut mats[j]), pf, cols, transpose))
            .collect()
    }

    /// Record an ordering token after the work queued so far on `slot`.
    fn record(&self, slot: usize) -> Self::Token;

    /// Make future work on `slot` wait for `token`.
    fn wait(&self, slot: usize, token: Self::Token);

    /// Resolve all queued work (modelled timing included).
    fn sync(&self) -> Result<(), CaqrError>;

    /// The `‖Q·1‖² = m` orthogonality probe over the panel's packed
    /// compact-WY factors. Overridable so the host backend can use its
    /// one-column fast path.
    fn q_ones_probe(&self, m: usize, pf: &PanelFactor<T>) -> Vec<T> {
        health::q_ones_probe(m, pf)
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

    /// Count `n` individual checksum comparisons in the backend's report.
    fn note_checksum_checks(&self, n: u64) {
        let _ = n;
    }

    /// Mirror a tier-1 task replay into the backend's ledger.
    fn note_task_replay(&self) {}

    /// Mirror a tier-2 panel replay into the backend's ledger.
    fn note_panel_replay(&self) {}

    /// Mirror a tier-3 run retry into the backend's ledger.
    fn note_run_retry(&self) {}
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
/// home-slot ownership, and the panel steps — shared by the generic driver,
/// the model-only replay ([`crate::schedule`]) and the resilient executor
/// ([`crate::recovery`]) so all three enqueue, event-for-event, the same
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

    /// The panel steps of the schedule over the leading `min(m, n)`
    /// columns — the one grid every executor walks. A fused `factor_many`
    /// group of [`crate::service`] is a [`Mode::Sync`] run over many
    /// members, so it walks these steps by construction.
    pub(crate) fn panel_steps(m: usize, n: usize, w: usize) -> Vec<PanelStep> {
        DagGeometry::new(m, n, w, 1).steps
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
/// [`Mode::Sync`] reproduces the Figure-4 host loop (and, with
/// `cfg.verify_checksums`, the detection-only ABFT flow of the host path)
/// as a group of one, through the same loop that runs fused groups;
/// [`Mode::Dag`] reproduces the stream-scheduled task DAG with optional
/// lookahead. Numerics are bit-identical across modes and backends: every
/// backend runs the same `blockops` arithmetic eagerly in host order (a
/// valid topological order of the DAG), operations on disjoint column
/// blocks commute exactly, and within the apply kernels each column is
/// processed independently of how columns are grouped into launches.
pub fn drive<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    a: Matrix<T>,
    cfg: &DriveConfig,
    mode: Mode,
) -> Result<DriveOutcome<T>, CaqrError> {
    match mode {
        Mode::Sync => one(drive_group(backend, vec![a], cfg).members),
        Mode::Dag { lookahead } => drive_dag(backend, a, cfg, lookahead),
    }
}

/// Reject an empty or overflowing shape and an invalid block size.
fn validate(cfg: &DriveConfig, m: usize, n: usize) -> Result<(), CaqrError> {
    cfg.bs.validate().map_err(CaqrError::BadShape)?;
    if m == 0 || n == 0 {
        return Err(CaqrError::BadShape(format!("empty matrix {m}x{n}")));
    }
    // Overflow guard: every later size/byte product is bounded by the
    // element count, so reject adversarial shapes once, up front.
    checked_elems(m, n, "matrix element count")?;
    Ok(())
}

/// What [`drive_group`] produced: one outcome per member, in input order,
/// and the launches the group issued (each counted once, however many
/// members it served).
pub(crate) struct GroupOutcome<T: Scalar> {
    pub(crate) members: Vec<Result<DriveOutcome<T>, CaqrError>>,
    pub(crate) launches: usize,
}

/// The [`Mode::Sync`] loop over a group of same-shape matrices walked in
/// lockstep: per panel, one group factor, then one group apply of the
/// whole trailing matrix. With `cfg.verify_checksums` every live member
/// gets the ABFT flow of [`crate::health`]: pre-factor column sums and the
/// factor-norm check, the `Q·1` probe (reused as the apply predictor), and
/// the apply-sum check. A member whose backend call or check fails is
/// carved out with that typed error and the others continue; their
/// arithmetic is untouched, because every member's tasks touch only its
/// own matrix.
pub(crate) fn drive_group<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    mut mats: Vec<Matrix<T>>,
    cfg: &DriveConfig,
) -> GroupOutcome<T> {
    let g = mats.len();
    let (m, n) = mats.first().map_or((0, 0), Matrix::shape);
    debug_assert!(mats.iter().all(|a| a.shape() == (m, n)));
    if let Err(e) = validate(cfg, m, n) {
        return GroupOutcome {
            members: (0..g).map(|_| Err(e.clone())).collect(),
            launches: 0,
        };
    }
    let w = cfg.bs.w;
    let mut dead: Vec<Option<CaqrError>> = vec![None; g];
    let mut launches = 0usize;

    // Numerical health check: reject NaN/inf input with a typed error
    // before any arithmetic.
    if cfg.check_finite {
        let scans = backend.check_finite_group(&mats, cfg.bs, cfg.health_context);
        for (d, scan) in dead.iter_mut().zip(scans) {
            match scan {
                // Every member's scan issues the same launches.
                Ok(l) => launches = l,
                Err(e) => *d = Some(e),
            }
        }
    }
    // Strategy 4's out-of-place preprocessing, once for the group.
    if cfg.strategy.needs_pretranspose() && dead.iter().any(Option::is_none) {
        match backend.pretranspose(m, n, cfg.bs) {
            Ok(l) => launches += l,
            Err(e) => dead
                .iter_mut()
                .filter(|d| d.is_none())
                .for_each(|d| *d = Some(e.clone())),
        }
    }

    let mut panels: Vec<Vec<PanelFactor<T>>> = (0..g)
        .map(|_| Vec::with_capacity(m.min(n).div_ceil(w)))
        .collect();
    for step in DagGeometry::panel_steps(m, n, w) {
        let (p, c, width) = (step.p, step.c, step.width);
        let trailing = c + width < n;
        let live: Vec<usize> = (0..g).filter(|&j| dead[j].is_none()).collect();
        if live.is_empty() {
            break;
        }
        let pre: Vec<Option<Vec<f64>>> = live
            .iter()
            .map(|&j| {
                cfg.verify_checksums
                    .then(|| health::panel_col_sumsq(&mats[j], c, c, width))
            })
            .collect();
        // Grid redraw: panel p starts at row == its first column.
        let factored = backend.factor_panel_group(&mut mats, &live, c, c, width, cfg);
        let mut chain = 0;
        // Per surviving member: its factor and, when verifying a panel
        // with trailing columns, its `Q·1` probe.
        let mut done = Vec::with_capacity(live.len());
        for ((j, pre), r) in live.iter().copied().zip(pre).zip(factored) {
            let checked = r.and_then(|pf| {
                chain = 1 + pf.levels.len();
                if let Some(pre) = &pre {
                    backend.note_checksum_checks(width as u64);
                    backend.charge_verify((m - c) * width);
                    health::factor_norm_check::<T>(&mats[j], pre, m, p, c, width)?;
                }
                // The probe doubles as the apply-stage predictor, so it is
                // computed once and only for panels that have trailing
                // columns to predict; a final panel's R stays covered by
                // the norm checksum above.
                let u = (cfg.verify_checksums && trailing).then(|| backend.q_ones_probe(m, &pf));
                if let Some(u) = &u {
                    backend.note_checksum_checks(1);
                    health::verify_probe(u, p, c)?;
                }
                Ok((pf, u))
            });
            match checked {
                Ok((pf, u)) => done.push((j, pf, u)),
                Err(e) => dead[j] = Some(e),
            }
        }
        launches += chain;

        if trailing && !done.is_empty() {
            let cols = col_blocks(c + width, n, w);
            let preds: Vec<Option<Vec<(f64, f64)>>> = done
                .iter()
                .map(|(j, _, u)| {
                    u.as_ref()
                        .map(|u| health::predicted_col_sums(u, &mats[*j], &cols))
                })
                .collect();
            let work: Vec<(usize, &PanelFactor<T>)> =
                done.iter().map(|(j, pf, _)| (*j, pf)).collect();
            let applied = backend.apply_panel_group(&mut mats, &work, &cols, true);
            launches += chain;
            for ((&(j, _), r), pred) in work.iter().zip(applied).zip(preds) {
                let checked = r.and_then(|()| match pred {
                    Some(pred) => {
                        backend.note_checksum_checks(pred.len() as u64);
                        backend.charge_verify(m * pred.len());
                        health::apply_sum_check::<T>(&mats[j], &pred, &cols, m, p)
                    }
                    None => Ok(()),
                });
                if let Err(e) = checked {
                    dead[j] = Some(e);
                }
            }
        }
        for (j, pf, _) in done {
            if dead[j].is_none() {
                panels[j].push(pf);
            }
        }
    }

    let members = mats
        .into_iter()
        .zip(panels)
        .zip(dead)
        .map(|((a, panels), d)| match d {
            None => Ok(DriveOutcome {
                a,
                panels,
                launches,
            }),
            Some(e) => Err(e),
        })
        .collect();
    GroupOutcome { members, launches }
}

/// The [`Mode::Dag`] schedule of [`drive`] for one matrix.
fn drive_dag<T: Scalar, B: CaqrBackend<T>>(
    backend: &B,
    mut a: Matrix<T>,
    cfg: &DriveConfig,
    lookahead: bool,
) -> Result<DriveOutcome<T>, CaqrError> {
    let (m, n) = a.shape();
    validate(cfg, m, n)?;
    let w = cfg.bs.w;
    let mut launches = 0usize;
    if cfg.check_finite {
        launches += backend.check_finite(&a, cfg.bs, cfg.health_context)?;
    }
    if cfg.strategy.needs_pretranspose() {
        launches += backend.pretranspose(m, n, cfg.bs)?;
    }

    let geo = DagGeometry::new(m, n, w, backend.slots());
    let npanels = geo.steps.len();
    let mut panels: Vec<PanelFactor<T>> = Vec::with_capacity(npanels);
    // Barrier mode: apply-completion tokens the next factor waits on.
    let mut pending: Vec<B::Token> = Vec::new();
    // Lookahead mode: the next panel's factor, done ahead of schedule.
    let mut next: Option<(PanelFactor<T>, B::Token)> = None;

    for p in 0..npanels {
        let step = &geo.steps[p];
        let (pf, f_tok) = match next.take() {
            Some(x) => x,
            None => {
                let h = geo.home(p);
                for tok in pending.drain(..) {
                    backend.wait(h, tok);
                }
                let pf = backend.factor_panel(h, &mut a, step.c, step.c, step.width, cfg)?;
                launches += 1 + pf.levels.len();
                let tok = backend.record(h);
                (pf, tok)
            }
        };
        let chain = 1 + pf.levels.len();

        if lookahead && p + 1 < npanels {
            // Lookahead: update only the next panel's column block,
            // factor it immediately, then fan the bulk update out.
            let h_next = geo.home(p + 1);
            if h_next != geo.home(p) {
                backend.wait(h_next, f_tok);
            }
            backend.apply_panel(h_next, MatPtr::new(&mut a), &pf, &[geo.block(p + 1)], true)?;
            launches += chain;

            let (nc, nw) = {
                let nstep = &geo.steps[p + 1];
                (nstep.c, nstep.width)
            };
            let pf2 = backend.factor_panel(h_next, &mut a, nc, nc, nw, cfg)?;
            launches += 1 + pf2.levels.len();
            let tok2 = backend.record(h_next);
            next = Some((pf2, tok2));

            for (t, cols) in geo.groups(step, p + 2).into_iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                if t != geo.home(p) {
                    backend.wait(t, f_tok);
                }
                backend.apply_panel(t, MatPtr::new(&mut a), &pf, &cols, true)?;
                launches += chain;
            }
        } else {
            // Barrier mode (and the last panel of either mode): fan
            // the whole trailing update out, one apply chain per slot.
            for (t, cols) in geo.groups(step, p + 1).into_iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                if t != geo.home(p) {
                    backend.wait(t, f_tok);
                }
                backend.apply_panel(t, MatPtr::new(&mut a), &pf, &cols, true)?;
                launches += chain;
                if !lookahead && p + 1 < npanels {
                    pending.push(backend.record(t));
                }
            }
        }
        panels.push(pf);
    }

    Ok(DriveOutcome {
        a,
        panels,
        launches,
    })
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
        // The CPU analogue of the strategy-4 pre-transpose is the packed
        // per-tile V copy made at factor time; no separate pass runs.
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
        bs: BlockSize,
        context: &'static str,
    ) -> Vec<Result<usize, CaqrError>> {
        // One region over the members. A one-item region runs inline on
        // the caller without marking it as inside a region, so a lone
        // member's scan still forks over its columns.
        mats.par_iter()
            .map(|a| self.check_finite(a, bs, context))
            .collect()
    }

    fn factor_panel_group(
        &self,
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

    fn q_ones_probe(&self, m: usize, pf: &PanelFactor<T>) -> Vec<T> {
        q_ones_probe_host(m, pf)
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
        health::check_matrix_finite(self.gpu, self.health_exec, a, bs, context)?;
        Ok(1)
    }

    fn pretranspose(&self, m: usize, n: usize, bs: BlockSize) -> Result<usize, CaqrError> {
        let kernel = PretransposeKernel {
            blocks: m.div_ceil(bs.h) * n.div_ceil(bs.w),
            tile_rows: bs.h,
            tile_cols: bs.w,
            spec: self.gpu.spec(),
        };
        self.gpu.launch_on::<T>(self.pre_exec, &kernel)?;
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
        factor_panel_with_tree_on(
            self.gpu,
            self.execs[slot],
            a,
            row0,
            col0,
            width,
            cfg.bs,
            cfg.strategy,
            cfg.tree,
        )
    }

    fn apply_panel(
        &self,
        slot: usize,
        c: MatPtr<T>,
        pf: &PanelFactor<T>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        apply_panel_ptr_on(self.gpu, self.execs[slot], c, pf, cols, transpose)
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

    fn note_task_replay(&self) {
        self.gpu.note_task_replay();
    }

    fn note_panel_replay(&self) {
        self.gpu.note_panel_replay();
    }

    fn note_run_retry(&self) {
        self.gpu.note_run_retry();
    }
}
