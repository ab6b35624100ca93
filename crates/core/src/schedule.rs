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
//! Numerics are *bit-identical* to [`crate::caqr::caqr`]: the simulator
//! only charges each launch to its stream, while the host's panel
//! arithmetic runs eagerly in issue order (a valid topological order of
//! this DAG), operations on disjoint column blocks commute exactly, and
//! within the apply kernels each column is processed independently of how
//! columns are grouped into launches. The equivalence
//! tests in `tests/stream_scheduling.rs` assert this across shapes.
//!
//! This module packs one factorization's tasks across streams; the
//! [`crate::service`] batcher is the same idea one level up — it runs *many
//! independent* factorizations as one synchronous group of the generic
//! driver, packing their lockstep panel steps into shared parallel
//! regions, with the same bit-identity argument (tasks of different jobs
//! touch disjoint matrices, so fusing their launches cannot reorder any
//! job's own arithmetic).

use crate::backend::{drive, Factorization, Mode, SimBackend};
use crate::caqr::CaqrOptions;
use crate::error::CaqrError;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::{Gpu, Timeline};

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
/// described above lives there, and [`SimBackend::model`] runs the same one
/// without data.
pub fn caqr_dag<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    opts: ScheduleOptions,
) -> Result<(Factorization<T>, Timeline), CaqrError> {
    let f = drive(
        &SimBackend::streams(gpu, opts.streams)?,
        a,
        &opts.caqr.drive_config(),
        Mode::Dag {
            lookahead: opts.lookahead,
        },
    )?;
    let timeline = gpu
        .try_synchronize()
        .map_err(|context| CaqrError::Breakdown { context })?;
    Ok((f, timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Modelled;
    use crate::block::{BlockSize, TreeShape};
    use crate::caqr::caqr;
    use crate::microkernels::ReductionStrategy;
    use dense::generate;
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    /// Modelled makespan of a stream-scheduled factorization.
    fn dag_seconds(gpu: &Gpu, m: usize, n: usize, o: ScheduleOptions) -> f64 {
        let what = Modelled::Factor(Mode::Dag {
            lookahead: o.lookahead,
        });
        let sim = SimBackend::streams(gpu, o.streams).unwrap();
        sim.model(m, n, &o.caqr.drive_config(), what).unwrap().0
    }

    fn opts(streams: usize, lookahead: bool) -> ScheduleOptions {
        ScheduleOptions {
            caqr: CaqrOptions {
                bs: BlockSize { h: 32, w: 8 },
                strategy: ReductionStrategy::RegisterSerialTransposed,
                tree: TreeShape::DeviceArity,
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
            assert_eq!(f.launches as u64, g.ledger().calls, "lookahead={la}");
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
                    let secs = dag_seconds(&g2, m, n, o);
                    let modeled = g2.ledger();

                    assert_eq!(exec.calls, modeled.calls, "{m}x{n} s={s} la={la}");
                    assert_eq!(f.launches as u64, modeled.calls);
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
        let t_look = dag_seconds(&gpu(), 100_000, 192, o);
        let barrier = ScheduleOptions {
            lookahead: false,
            ..o
        };
        let t_barrier = dag_seconds(&gpu(), 100_000, 192, barrier);
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
