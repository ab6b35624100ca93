//! DAG-scheduled CAQR: the Figure-4 host loop re-expressed as a task graph
//! (panel TSQR chains, per-column-block trailing updates) mapped onto
//! simulated CUDA streams, with optional lookahead — panel `k+1` is factored
//! as soon as its own column block has been updated by panel `k`, while the
//! bulk trailing update of panel `k` is still in flight on other streams.
//!
//! # Stream assignment and correctness
//!
//! Columns are partitioned into a *fixed* global grid of `w`-wide blocks
//! (block `j` covers columns `[j*w, min((j+1)*w, n))`), and block `j` is
//! permanently owned by stream `j % s`. Every operation that touches block
//! `j` — each panel's apply and, when `j` indexes a panel, its factor — is
//! queued on that one stream, so in-stream FIFO order alone gives each
//! column block the same operation sequence the synchronous loop issues.
//! The only cross-stream dependencies are "apply of panel `k` needs the
//! factor of panel `k`", expressed with one recorded event per factor chain.
//!
//! Numerics are *bit-identical* to [`crate::caqr::caqr`]: the simulator runs
//! kernel arithmetic eagerly at enqueue time in host order (a valid
//! topological order of this DAG), operations on disjoint column blocks
//! commute exactly, and within the apply kernels each column is processed
//! independently of how columns are grouped into launches. The equivalence
//! tests in `tests/stream_scheduling.rs` assert this across shapes.
//!
//! This module packs one factorization's tasks across streams; the
//! [`crate::service`] batcher is the same idea one level up — it runs *many
//! independent* factorizations as one synchronous group of the generic
//! driver, packing their lockstep panel steps into shared parallel
//! regions, with the same bit-identity argument (tasks of different jobs
//! touch disjoint matrices, so fusing their launches cannot reorder any
//! job's own arithmetic).

use crate::backend::{drive, DagGeometry, DriveConfig, Mode, SimBackend};
use crate::caqr::{Caqr, CaqrOptions, LaunchPlan};
use crate::error::CaqrError;
use crate::model::{
    model_apply_chain_on, model_factor_chain_on, model_health_on, model_pretranspose_on,
};
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::{EventId, Exec, Gpu, StreamId, Timeline};

/// Options for a stream-scheduled CAQR factorization.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleOptions {
    /// The numerical configuration (block size, strategy, tree shape).
    pub caqr: CaqrOptions,
    /// Number of streams to spread the DAG over. `1` degenerates to the
    /// synchronous schedule (identical modelled time up to the extra apply
    /// chain the lookahead split issues).
    pub streams: usize,
    /// Factor panel `k+1` as soon as panel `k` has updated its column block,
    /// ahead of panel `k`'s bulk trailing update. `false` reproduces the
    /// barrier schedule: each factor waits for the whole previous update.
    pub lookahead: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            caqr: CaqrOptions::default(),
            streams: 4,
            lookahead: true,
        }
    }
}

/// Factor `a` with stream-scheduled CAQR. The result is numerically
/// bit-identical to [`crate::caqr::caqr`] with `opts.caqr`; the returned
/// [`Timeline`] holds the resolved per-stream kernel intervals (its
/// `makespan` is what [`Gpu::elapsed`] advanced by).
///
/// A thin shim over the generic [`crate::backend::drive`] loop in
/// [`Mode::Dag`] on a streamed [`SimBackend`] (DESIGN.md §13): the schedule
/// described above lives there now, shared with the model replay below and
/// the fault-recovery executor.
pub fn caqr_dag<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    opts: ScheduleOptions,
) -> Result<(Caqr<T>, Timeline), CaqrError> {
    let o = opts.caqr;
    o.bs.validate().map_err(CaqrError::BadShape)?;
    let backend = SimBackend::streams(gpu, opts.streams)?;
    let cfg = DriveConfig {
        bs: o.bs,
        strategy: o.strategy,
        tree: o.tree,
        check_finite: o.check_finite,
        verify_checksums: false,
        health_context: "caqr input",
    };
    let out = drive(
        &backend,
        a,
        &cfg,
        Mode::Dag {
            lookahead: opts.lookahead,
        },
    )?;
    let timeline = gpu
        .try_synchronize()
        .map_err(|context| CaqrError::Breakdown { context })?;
    Ok((
        Caqr {
            a: out.a,
            panels: out.panels,
            opts: o,
            launch_plan: LaunchPlan::Dag {
                launches: out.launches,
            },
        },
        timeline,
    ))
}

/// Shared validation + geometry + stream creation for the model replay,
/// mirroring what the executing path's shim and driver do.
fn model_setup(
    gpu: &Gpu,
    m: usize,
    n: usize,
    opts: &ScheduleOptions,
) -> Result<(DagGeometry, Vec<StreamId>), CaqrError> {
    opts.caqr.bs.validate().map_err(CaqrError::BadShape)?;
    if m == 0 || n == 0 {
        return Err(CaqrError::BadShape(format!("empty matrix {m}x{n}")));
    }
    if opts.streams == 0 {
        return Err(CaqrError::BadShape("streams must be >= 1".into()));
    }
    let geo = DagGeometry::new(m, n, opts.caqr.bs.w, opts.streams);
    let streams = (0..opts.streams).map(|_| gpu.create_stream()).collect();
    Ok((geo, streams))
}

/// Model-only replay of [`caqr_dag`] for an `m x n` single-precision matrix:
/// the same streams, events and launch sequence, with per-block costs from
/// the analytic cost functions instead of execution — so Table-I-scale
/// shapes (1M x 192) can be scheduled without 768 MB of arithmetic. Returns
/// the modelled seconds (the schedule's makespan).
pub fn model_caqr_dag_seconds(
    gpu: &Gpu,
    m: usize,
    n: usize,
    opts: ScheduleOptions,
) -> Result<f64, CaqrError> {
    Ok(model_caqr_dag_timeline(gpu, m, n, opts)?.0)
}

/// [`model_caqr_dag_seconds`], also returning the resolved [`Timeline`]
/// (for per-stream interval inspection and Chrome trace export).
pub fn model_caqr_dag_timeline(
    gpu: &Gpu,
    m: usize,
    n: usize,
    opts: ScheduleOptions,
) -> Result<(f64, Timeline), CaqrError> {
    let t0 = gpu.elapsed();
    let (geo, streams) = model_setup(gpu, m, n, &opts)?;
    let o = opts.caqr;

    if o.check_finite {
        model_health_on(gpu, Exec::Stream(streams[0]), m, n, o.bs)?;
    }
    if o.strategy.needs_pretranspose() {
        model_pretranspose_on(gpu, Exec::Stream(streams[0]), m, n, o.bs)?;
    }

    let npanels = geo.steps.len();
    let mut pending: Vec<EventId> = Vec::new();
    let mut next: Option<EventId> = None;

    for p in 0..npanels {
        let step = &geo.steps[p];
        let f_ev = match next.take() {
            Some(ev) => ev,
            None => {
                let sid = streams[geo.home(p)];
                for ev in pending.drain(..) {
                    gpu.wait_event(sid, ev);
                }
                model_factor_chain_on(
                    gpu,
                    Exec::Stream(sid),
                    m,
                    step.c,
                    step.width,
                    o.bs,
                    o.strategy,
                    o.tree,
                )?;
                gpu.record_event(sid)
            }
        };

        if opts.lookahead && p + 1 < npanels {
            let sid_next = streams[geo.home(p + 1)];
            if geo.home(p + 1) != geo.home(p) {
                gpu.wait_event(sid_next, f_ev);
            }
            model_apply_chain_on(
                gpu,
                Exec::Stream(sid_next),
                m,
                step.c,
                step.width,
                &[geo.block(p + 1)],
                o.bs,
                o.strategy,
                o.tree,
            )?;
            let nstep = &geo.steps[p + 1];
            model_factor_chain_on(
                gpu,
                Exec::Stream(sid_next),
                m,
                nstep.c,
                nstep.width,
                o.bs,
                o.strategy,
                o.tree,
            )?;
            next = Some(gpu.record_event(sid_next));

            for (t, cols) in geo.groups(step, p + 2).into_iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                if t != geo.home(p) {
                    gpu.wait_event(streams[t], f_ev);
                }
                model_apply_chain_on(
                    gpu,
                    Exec::Stream(streams[t]),
                    m,
                    step.c,
                    step.width,
                    &cols,
                    o.bs,
                    o.strategy,
                    o.tree,
                )?;
            }
        } else {
            for (t, cols) in geo.groups(step, p + 1).into_iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                if t != geo.home(p) {
                    gpu.wait_event(streams[t], f_ev);
                }
                model_apply_chain_on(
                    gpu,
                    Exec::Stream(streams[t]),
                    m,
                    step.c,
                    step.width,
                    &cols,
                    o.bs,
                    o.strategy,
                    o.tree,
                )?;
                if !opts.lookahead && p + 1 < npanels {
                    pending.push(gpu.record_event(streams[t]));
                }
            }
        }
    }

    let tl = gpu
        .try_synchronize()
        .map_err(|context| CaqrError::Breakdown { context })?;
    Ok((gpu.elapsed() - t0, tl))
}

/// Convenience mirror of [`crate::model::model_caqr_gflops`] for the
/// stream-scheduled path (SGEQRF flops over the DAG's modelled makespan).
pub fn model_caqr_dag_gflops(
    gpu: &Gpu,
    m: usize,
    n: usize,
    opts: ScheduleOptions,
) -> Result<f64, CaqrError> {
    let secs = model_caqr_dag_seconds(gpu, m, n, opts)?;
    Ok(dense::geqrf_flops(m, n) / secs / 1.0e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockSize, TreeShape};
    use crate::caqr::caqr;
    use crate::microkernels::ReductionStrategy;
    use dense::generate;
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn opts(streams: usize, lookahead: bool) -> ScheduleOptions {
        ScheduleOptions {
            caqr: CaqrOptions {
                bs: BlockSize { h: 32, w: 8 },
                strategy: ReductionStrategy::RegisterSerialTransposed,
                tree: TreeShape::DeviceArity,
                check_finite: true,
            },
            streams,
            lookahead,
        }
    }

    #[test]
    fn dag_r_is_bit_identical_to_synchronous() {
        for &(m, n) in &[(256usize, 24usize), (213, 29), (40, 70), (200, 8)] {
            let a = generate::uniform::<f64>(m, n, 77);
            let sync = caqr(&gpu(), a.clone(), opts(4, true).caqr).unwrap();
            for &s in &[1usize, 2, 4, 5] {
                for &la in &[false, true] {
                    let (f, _tl) = caqr_dag(&gpu(), a.clone(), opts(s, la)).unwrap();
                    for j in 0..n {
                        for i in 0..m {
                            assert_eq!(
                                f.a[(i, j)],
                                sync.a[(i, j)],
                                "factored matrix diverged at ({i},{j}) for {m}x{n} s={s} la={la}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dag_launch_count_matches_ledger() {
        for &la in &[false, true] {
            let g = gpu();
            let a = generate::uniform::<f64>(256, 24, 31);
            let (f, _tl) = caqr_dag(&g, a, opts(3, la)).unwrap();
            assert_eq!(f.launches() as u64, g.ledger().calls, "lookahead={la}");
        }
    }

    #[test]
    fn model_replay_matches_execution() {
        for &(m, n) in &[(256usize, 32usize), (301, 27), (64, 80)] {
            for &s in &[1usize, 3, 4] {
                for &la in &[false, true] {
                    let o = opts(s, la);
                    let g1 = gpu();
                    let a = generate::uniform::<f32>(m, n, 42);
                    let (f, _tl) = caqr_dag(&g1, a, o).unwrap();
                    let exec = g1.ledger();

                    let g2 = gpu();
                    let secs = model_caqr_dag_seconds(&g2, m, n, o).unwrap();
                    let modeled = g2.ledger();

                    assert_eq!(exec.calls, modeled.calls, "{m}x{n} s={s} la={la}");
                    assert_eq!(f.launches() as u64, modeled.calls);
                    let dt = (exec.seconds - modeled.seconds).abs() / exec.seconds;
                    assert!(
                        dt < 1e-9,
                        "{m}x{n} s={s} la={la}: {} vs {}",
                        exec.seconds,
                        modeled.seconds
                    );
                    assert!((secs - exec.seconds).abs() / exec.seconds < 1e-9);
                }
            }
        }
    }

    #[test]
    fn lookahead_beats_barrier_on_tall_skinny() {
        // Launch-bound Table-I-style shape: overlapping the next factor with
        // the trailing update must shorten the modelled makespan.
        let o = ScheduleOptions {
            caqr: CaqrOptions::default(),
            streams: 4,
            lookahead: true,
        };
        let t_look = model_caqr_dag_seconds(&gpu(), 100_000, 192, o).unwrap();
        let t_barrier = model_caqr_dag_seconds(
            &gpu(),
            100_000,
            192,
            ScheduleOptions {
                lookahead: false,
                ..o
            },
        )
        .unwrap();
        assert!(
            t_look < t_barrier,
            "lookahead {t_look} should beat barrier {t_barrier}"
        );
    }

    #[test]
    fn zero_streams_rejected() {
        let a = generate::uniform::<f64>(64, 16, 1);
        assert!(caqr_dag(&gpu(), a, opts(0, true)).is_err());
    }
}
