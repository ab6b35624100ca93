//! The timing decorator: a [`CaqrBackend`] over [`CpuBackend`] that times
//! every call the generic driver makes into it and counts the useful work
//! of each call. Passing it to `caqr::drive` attributes a `caqr_cpu` run to
//! its layers from outside the library.

use caqr::backend::{drive, CaqrBackend, DriveConfig, Mode};
use caqr::multicore::CpuCaqrOptions;
use caqr::{BlockSize, CaqrError, CpuBackend, PanelFactor, ReductionStrategy};
use dense::{MatPtr, Matrix};
use std::cell::Cell;
use std::time::Instant;

/// Bytes per element: every workload runs in f64.
const F64: f64 = 8.0;

/// Busy time, call count, and computed work of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub secs: f64,
    pub calls: u64,
    /// Useful flops (LAPACK `geqrf` convention).
    pub flops: f64,
    /// Bytes the layer must read and write at least once (computed from
    /// the operand sizes, not measured).
    pub bytes: f64,
}

impl Layer {
    fn add(&mut self, o: &Layer) {
        self.secs += o.secs;
        self.calls += o.calls;
        self.flops += o.flops;
        self.bytes += o.bytes;
    }
}

/// Layer totals of one or more traced `drive` calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub check_finite: Layer,
    pub factor_panel: Layer,
    pub apply_panel: Layer,
    pub q_ones_probe: Layer,
    /// Wall time of the `drive` calls themselves.
    pub drive_wall: f64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.check_finite.add(&o.check_finite);
        self.factor_panel.add(&o.factor_panel);
        self.apply_panel.add(&o.apply_panel);
        self.q_ones_probe.add(&o.q_ones_probe);
        self.drive_wall += o.drive_wall;
    }

    /// Seconds spent in the decorated calls.
    pub fn attributed(&self) -> f64 {
        self.check_finite.secs
            + self.factor_panel.secs
            + self.apply_panel.secs
            + self.q_ones_probe.secs
    }

    /// `drive`'s own time: loop control plus the inline ABFT checks.
    pub fn drive_self(&self) -> f64 {
        self.drive_wall - self.attributed()
    }
}

/// [`CpuBackend`] with every call `drive` makes into it timed. `drive` keeps
/// host control flow on one thread, so a plain cell suffices. Only the
/// methods `CpuBackend` implements are forwarded; the trait's no-op
/// defaults cover the rest, as they do for `CpuBackend` itself.
#[derive(Default)]
pub struct Timed {
    layers: Cell<Layers>,
}

impl Timed {
    fn account(&self, layer: fn(&mut Layers) -> &mut Layer, t0: Instant, flops: f64, bytes: f64) {
        let mut all = self.layers.get();
        let l = layer(&mut all);
        l.secs += t0.elapsed().as_secs_f64();
        l.calls += 1;
        l.flops += flops;
        l.bytes += bytes;
        self.layers.set(all);
    }
}

impl CaqrBackend<f64> for Timed {
    type Token = ();

    fn slots(&self) -> usize {
        CaqrBackend::<f64>::slots(&CpuBackend)
    }

    fn check_finite(
        &self,
        a: &Matrix<f64>,
        bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError> {
        let t0 = Instant::now();
        let r = CpuBackend.check_finite(a, bs, context);
        let bytes = (a.rows() * a.cols()) as f64 * F64;
        self.account(|l| &mut l.check_finite, t0, 0.0, bytes);
        r
    }

    fn pretranspose(&self, m: usize, n: usize, bs: BlockSize) -> Result<usize, CaqrError> {
        CaqrBackend::<f64>::pretranspose(&CpuBackend, m, n, bs)
    }

    fn factor_panel(
        &self,
        slot: usize,
        a: &mut Matrix<f64>,
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Result<PanelFactor<f64>, CaqrError> {
        let rows = a.rows() - row0;
        let t0 = Instant::now();
        let r = CpuBackend.factor_panel(slot, a, row0, col0, width, cfg);
        // The panel is read and written back once.
        let bytes = 2.0 * (rows * width) as f64 * F64;
        let flops = dense::geqrf_flops(rows, width);
        self.account(|l| &mut l.factor_panel, t0, flops, bytes);
        r
    }

    fn apply_panel(
        &self,
        slot: usize,
        c: MatPtr<f64>,
        pf: &PanelFactor<f64>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        let rows = (c.rows() - pf.row0) as f64;
        let k = cols.iter().map(|&(_, w)| w).sum::<usize>() as f64;
        let w = pf.width as f64;
        let t0 = Instant::now();
        let r = CpuBackend.apply_panel(slot, c, pf, cols, transpose);
        // `w` reflectors of length `rows - j` applied to `k` columns; the
        // trailing block is read and written, the reflectors read once.
        let flops = 4.0 * rows * w * k - 2.0 * w * w * k;
        let bytes = (2.0 * rows * k + rows * w) * F64;
        self.account(|l| &mut l.apply_panel, t0, flops, bytes);
        r
    }

    fn record(&self, _slot: usize) {}

    fn wait(&self, _slot: usize, _token: ()) {}

    fn sync(&self) -> Result<(), CaqrError> {
        CaqrBackend::<f64>::sync(&CpuBackend)
    }

    fn q_ones_probe(&self, m: usize, pf: &PanelFactor<f64>) -> Vec<f64> {
        let t0 = Instant::now();
        let u = CpuBackend.q_ones_probe(m, pf);
        self.account(|l| &mut l.q_ones_probe, t0, 0.0, 0.0);
        u
    }
}

/// The `DriveConfig` `caqr_cpu` builds from `opts`, so a traced `drive`
/// runs exactly the schedule `caqr_cpu` runs.
fn cpu_drive_config(opts: &CpuCaqrOptions) -> DriveConfig {
    DriveConfig {
        bs: BlockSize {
            h: opts.tile_rows,
            w: opts.panel_width,
        },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: opts.tree,
        check_finite: true,
        verify_checksums: opts.verify_checksums,
        health_context: "caqr_cpu input",
    }
}

/// Factor `a` through `drive` on a timed [`CpuBackend`]: the factored
/// matrix plus the layer breakdown of this one call.
pub fn traced_caqr(
    a: Matrix<f64>,
    opts: &CpuCaqrOptions,
) -> Result<(Matrix<f64>, Layers), CaqrError> {
    let backend = Timed::default();
    let cfg = cpu_drive_config(opts);
    let t0 = Instant::now();
    let out = drive(&backend, a, &cfg, Mode::Sync)?;
    let mut layers = backend.layers.get();
    layers.drive_wall = t0.elapsed().as_secs_f64();
    Ok((out.a, layers))
}

/// Bitwise equality of two f64 matrices (unlike `==`, tells `-0.0` from
/// `0.0` and matches NaN payloads).
pub fn same_bits(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    // OR-accumulate XORs per block instead of short-circuiting per element,
    // so the comparison vectorizes.
    a.shape() == b.shape()
        && a.as_slice()
            .chunks(64)
            .zip(b.as_slice().chunks(64))
            .all(|(x, y)| {
                x.iter()
                    .zip(y)
                    .fold(0u64, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits()))
                    == 0
            })
}

/// Self-test of the decorator on small shapes, with checksums off and on:
/// the traced factorization must be bit-identical to `caqr_cpu`, each
/// layer must be called the expected number of times, and the layer
/// seconds must fit inside the traced wall time. Returns the first failure.
pub fn selftest() -> Result<(), String> {
    let cases = [(600usize, 40usize, 64usize, 16usize), (1000, 16, 128, 16)];
    for (m, n, h, w) in cases {
        for verify in [false, true] {
            let opts = CpuCaqrOptions {
                tile_rows: h,
                panel_width: w,
                tree: caqr::TreeShape::DeviceArity,
                verify_checksums: verify,
            };
            let a = dense::generate::uniform::<f64>(m, n, (m * n) as u64);
            let want =
                caqr::caqr_cpu(a.clone(), opts).map_err(|e| format!("caqr_cpu {m}x{n}: {e}"))?;
            let (got, l) = traced_caqr(a, &opts).map_err(|e| format!("traced {m}x{n}: {e}"))?;
            let case = format!("{m}x{n} h{h} w{w} verify={verify}");
            if !same_bits(&want.a, &got) {
                return Err(format!("{case}: traced output differs from caqr_cpu"));
            }
            let panels = n.div_ceil(w) as u64;
            if l.factor_panel.calls != panels || l.check_finite.calls != 1 {
                return Err(format!("{case}: unexpected call counts {l:?}"));
            }
            let probes = if verify { panels - 1 } else { 0 };
            if l.apply_panel.calls != panels - 1 || l.q_ones_probe.calls != probes {
                return Err(format!("{case}: unexpected call counts {l:?}"));
            }
            // `drive_self` is the residual, so the breakdown sums to the
            // wall time exactly; what can fail is nesting: the timed calls
            // must fit inside the `drive` call that made them.
            if l.drive_self() < 0.0 {
                return Err(format!(
                    "{case}: layers {:.6} s exceed the traced wall {:.6} s",
                    l.attributed(),
                    l.drive_wall
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn decorator_is_transparent_and_accounts_every_second() {
        super::selftest().unwrap();
    }
}
