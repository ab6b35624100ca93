//! The `caqr_cpu` workloads: one matrix factored back to back, timed per
//! factorization. With tracing on, untraced `caqr_cpu` runs alternate with
//! runs of `drive` over the timing decorator, which gives the layer
//! breakdown and the cost of tracing in the same run.

use crate::ceilings::Ceilings;
use crate::report::{median, percentile, sorted, trimmed_mean, windowed, Outcome};
use crate::timed::{same_bits, selftest, traced_caqr, Layers};
use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::TreeShape;
use dense::norms::{orthogonality_error, reconstruction_error};
use dense::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// One single-matrix workload.
pub struct Solo {
    m: usize,
    n: usize,
    tile_rows: usize,
    panel_width: usize,
    verify_checksums: bool,
}

/// The paper's TSQR case: one 32-wide panel, 256 tiles, a 2-level tree.
pub const TSQR_TALL: Solo = Solo {
    m: 131_072,
    n: 32,
    tile_rows: 512,
    panel_width: 32,
    verify_checksums: false,
};

/// Full CAQR with 16 panels, gemm-rich trailing updates and the inline
/// ABFT verify flow, on an 8 MiB matrix: at 8192 rows (32 MiB) the time per
/// factorization followed the host's shared-cache contention, up to 30%
/// between runs.
pub const CAQR_WIDE: Solo = Solo {
    m: 2048,
    n: 512,
    tile_rows: 256,
    panel_width: 32,
    verify_checksums: true,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Fewest timed factorizations per run, however short `--seconds` is.
const MIN_SAMPLES: usize = 5;

impl Solo {
    fn opts(&self) -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: self.tile_rows,
            panel_width: self.panel_width,
            tree: TreeShape::DeviceArity,
            verify_checksums: self.verify_checksums,
        }
    }

    pub fn params(&self) -> String {
        format!(
            "f64 {}x{} tile_rows {} panel_width {} tree device_arity verify_checksums {}",
            self.m, self.n, self.tile_rows, self.panel_width, self.verify_checksums
        )
    }

    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Outcome {
        let mut out = Outcome::default();
        let opts = self.opts();

        // Set-up: input generation, arena prewarm, one warm-up factor whose
        // output is the reference every timed run must reproduce.
        let mut setups = Vec::new();
        let mut prepared = None;
        for _ in 0..if trace { 1 } else { SETUP_REPS } {
            drop(prepared.take());
            let t0 = Instant::now();
            let a = dense::generate::uniform::<f64>(self.m, self.n, seed);
            let scratch = self.tile_rows * self.panel_width;
            dense::arena::prewarm::<f64>(scratch, 16);
            dense::arena::prewarm::<f64>(self.panel_width * self.panel_width, 16);
            let warm = caqr_cpu(a.clone(), opts);
            setups.push(t0.elapsed().as_secs_f64());
            prepared = Some((a, warm));
        }
        let (a, warm) = prepared.expect("at least one set-up ran");
        let reference = match warm {
            Ok(f) => f,
            Err(e) => {
                out.check(format!("warm-up factorization: {e}"), false);
                return out;
            }
        };
        self.check_accuracy(&a, &reference, &mut out);
        let reference = reference.a;

        let ceilings = trace.then(Ceilings::measure);
        if trace {
            let st = selftest();
            out.check(
                format!(
                    "timing decorator self-test: {}",
                    st.as_ref().err().map_or("ok", |e| e)
                ),
                st.is_ok(),
            );
        }

        // Timed loop. The copy `caqr_cpu` consumes is made before the clock
        // starts, into the buffer the previous run handed back; the bitwise
        // check and the drop of the panel factors come after.
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut layers = Layers::default();
        let mut mismatches = 0u64;
        let mut buf = a.clone();
        dense::arena::reset_stats::<f64>();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || plain.len() < MIN_SAMPLES {
            out.attempted += 1;
            let traced_turn = trace && out.attempted % 2 == 0;
            let t0 = Instant::now();
            let result = if traced_turn {
                traced_caqr(black_box(buf), &opts)
            } else {
                caqr_cpu(black_box(buf), opts).map(|f| (f.a, Layers::default()))
            };
            let dt = t0.elapsed().as_secs_f64();
            buf = match result {
                Ok((f, l)) => {
                    mismatches += u64::from(!same_bits(&f, &reference));
                    if traced_turn {
                        traced.push(dt);
                        layers.add(&l);
                    } else {
                        plain.push(dt);
                    }
                    f
                }
                Err(_) => {
                    out.failed += 1;
                    a.clone()
                }
            };
            buf.as_mut_slice().copy_from_slice(a.as_slice());
        }
        let misses = dense::arena::stats::<f64>().misses;
        out.check(
            format!(
                "{} timed outputs bit-identical to the warm-up output ({mismatches} differ)",
                plain.len() + traced.len()
            ),
            mismatches == 0,
        );

        match ceilings {
            None => {
                let flops = dense::geqrf_flops(self.m, self.n);
                out.metric(
                    "gflops",
                    flops * plain.len() as f64 / plain.iter().sum::<f64>() / 1e9,
                );
                let s = sorted(plain.clone());
                out.metric("latency_trimmed_mean_ms", trimmed_mean(&plain) * 1e3);
                out.metric("latency_p90_ms", windowed(&plain, 0.9) * 1e3);
                let ok = out.attempted - out.failed;
                out.metric("completed_share", ok as f64 / out.attempted as f64);
                out.metric("setup_s", median(setups));
                println!(
                    "samples: {} factorizations; ms min {:.3} p10 {:.3} p50 {:.3} p99 {:.3} max {:.3}",
                    s.len(),
                    s[0] * 1e3,
                    percentile(&s, 0.1) * 1e3,
                    percentile(&s, 0.5) * 1e3,
                    percentile(&s, 0.99) * 1e3,
                    s[s.len() - 1] * 1e3
                );
            }
            Some(c) => {
                let overhead = median(traced.clone()) / median(plain.clone()) - 1.0;
                self.layer_metrics(&layers, traced.len(), &c, &mut out);
                out.metric("dense.arena.misses", misses as f64);
                out.metric("trace.overhead_share", overhead);
                println!(
                    "samples: {} untraced, {} traced factorizations",
                    plain.len(),
                    traced.len()
                );
            }
        }
        out
    }

    /// Backward error and loss of orthogonality of the reference output,
    /// each within `m n eps`.
    fn check_accuracy(&self, a: &Matrix<f64>, f: &caqr::CpuCaqr<f64>, out: &mut Outcome) {
        let bound = (self.m * self.n) as f64 * f64::EPSILON;
        let q = match f.generate_q(self.n) {
            Ok(q) => q,
            Err(e) => return out.check(format!("forming Q: {e}"), false),
        };
        let backward = reconstruction_error(a, &q, &f.r());
        let orth = orthogonality_error(&q);
        out.check(
            format!("|A-QR|/|A| = {backward:.3e} <= m*n*eps = {bound:.3e}"),
            backward <= bound,
        );
        out.check(
            format!("|I-Q'Q| = {orth:.3e} <= m*n*eps = {bound:.3e}"),
            orth <= bound,
        );
    }

    /// Per-factorization layer numbers from `iters` traced runs.
    fn layer_metrics(&self, l: &Layers, iters: usize, c: &Ceilings, out: &mut Outcome) {
        let per = |x: f64| x / iters.max(1) as f64;
        let rate = |work: f64, secs: f64| if secs > 0.0 { work / secs / 1e9 } else { 0.0 };
        let cf = &l.check_finite;
        out.metric("health.check_finite.s", per(cf.secs));
        out.metric("health.check_finite.gbs", rate(cf.bytes, cf.secs));
        let fp = &l.factor_panel;
        out.metric("multicore.factor_panel.s", per(fp.secs));
        out.metric("multicore.factor_panel.calls", per(fp.calls as f64));
        out.metric("multicore.factor_panel.gflops", rate(fp.flops, fp.secs));
        out.metric(
            "multicore.factor_panel.roofline_share",
            c.roofline_share(fp.flops, fp.bytes, fp.secs),
        );
        let ap = &l.apply_panel;
        out.metric("multicore.apply_panel.s", per(ap.secs));
        out.metric("multicore.apply_panel.calls", per(ap.calls as f64));
        out.metric("multicore.apply_panel.gflops", rate(ap.flops, ap.secs));
        out.metric(
            "multicore.apply_panel.roofline_share",
            c.roofline_share(ap.flops, ap.bytes, ap.secs),
        );
        out.metric("health.q_ones_probe.s", per(l.q_ones_probe.secs));
        out.metric(
            "health.q_ones_probe.calls",
            per(l.q_ones_probe.calls as f64),
        );
        out.metric("backend.drive_self.s", per(l.drive_self()));
        out.metric("backend.drive.s", per(l.drive_wall));
        out.metric("dense.gemm.gflops", c.gemm_gflops);
        out.metric("dense.stream.gbs", c.stream_gbs);
    }
}
