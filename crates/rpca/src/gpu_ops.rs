//! Simulated-GPU elementwise and GEMM kernels for the Robust PCA loop, so
//! the whole iteration — not just the QR — runs through the device model
//! with its traffic and launch costs accounted (the paper's pipeline keeps
//! the video matrix resident on the GPU for exactly this reason).

use crate::solver::shrink_scalar;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::{BlockCtx, Gpu, Kernel, LaunchConfig};
use parking_lot::Mutex;

/// Rows per elementwise thread block.
const TILE_ROWS: usize = 4096;

/// Elementwise operations fused into one kernel pass.
#[derive(Clone, Copy, Debug)]
pub enum TriadOp<T> {
    /// `out = a - b + c * scale` — forms `M - S + Y/mu`.
    Combine {
        /// The multiplier on `c` (i.e. `1/mu`).
        scale: T,
    },
    /// `out = shrink(a - b + c * scale, threshold)` — the `S` update.
    Shrink {
        /// The multiplier on `c`.
        scale: T,
        /// Soft threshold (`lambda/mu`).
        threshold: T,
    },
}

/// Three-input elementwise kernel over row tiles of `m x n` matrices.
pub struct TriadKernel<T: Scalar> {
    /// Output matrix.
    pub out: MatPtr<T>,
    /// First input.
    pub a: MatPtr<T>,
    /// Second input (subtracted).
    pub b: MatPtr<T>,
    /// Third input (scaled).
    pub c: MatPtr<T>,
    /// Operation.
    pub op: TriadOp<T>,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
}

impl<T: Scalar> TriadKernel<T> {
    fn tiles(&self) -> usize {
        self.rows.div_ceil(TILE_ROWS)
    }
}

impl<T: Scalar> Kernel<T> for TriadKernel<T> {
    fn name(&self) -> &'static str {
        match self.op {
            TriadOp::Combine { .. } => "ew_combine",
            TriadOp::Shrink { .. } => "ew_shrink",
        }
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: self.tiles(),
            threads_per_block: 256,
            shared_mem_bytes: 0,
            regs_per_thread: 16,
        }
    }

    fn run_block(&self, b: usize, ctx: &mut BlockCtx<T>) {
        let r0 = b * TILE_ROWS;
        let rows = TILE_ROWS.min(self.rows - r0);
        for j in 0..self.cols {
            for i in r0..r0 + rows {
                // SAFETY: row tiles are disjoint across blocks; inputs are
                // read-only during the launch.
                unsafe {
                    let v = match self.op {
                        TriadOp::Combine { scale } => self
                            .c
                            .get(i, j)
                            .mul_add(scale, self.a.get(i, j) - self.b.get(i, j)),
                        TriadOp::Shrink { scale, threshold } => shrink_scalar(
                            self.c
                                .get(i, j)
                                .mul_add(scale, self.a.get(i, j) - self.b.get(i, j)),
                            threshold,
                        ),
                    };
                    self.out.set(i, j, v);
                }
            }
        }
        let elems = (rows * self.cols) as u64;
        ctx.meter.gmem(3 * elems, T::BYTES, true); // three input streams
        ctx.meter.fma(2 * elems); // combine + (shrink) arithmetic
        ctx.meter.gmem(elems, T::BYTES, true); // output stream
    }
}

/// Residual/multiplier kernel: `z = m - l - s; y += mu * z`, accumulating
/// `sum(z^2)` per block for the convergence test.
pub struct ResidualKernel<'a, T: Scalar> {
    /// Observed matrix.
    pub m: MatPtr<T>,
    /// Low-rank iterate.
    pub l: MatPtr<T>,
    /// Sparse iterate.
    pub s: MatPtr<T>,
    /// Multiplier (updated in place).
    pub y: MatPtr<T>,
    /// Penalty parameter.
    pub mu: T,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// Per-block partial sums of `z^2`.
    pub partials: &'a [Mutex<f64>],
}

impl<'a, T: Scalar> Kernel<T> for ResidualKernel<'a, T> {
    fn name(&self) -> &'static str {
        "ew_residual"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: self.rows.div_ceil(TILE_ROWS),
            threads_per_block: 256,
            shared_mem_bytes: 256 * std::mem::size_of::<T>(),
            regs_per_thread: 16,
        }
    }

    fn run_block(&self, b: usize, ctx: &mut BlockCtx<T>) {
        let r0 = b * TILE_ROWS;
        let rows = TILE_ROWS.min(self.rows - r0);
        let mut acc = 0.0f64;
        for j in 0..self.cols {
            for i in r0..r0 + rows {
                // SAFETY: disjoint row tiles; only `y` is written.
                unsafe {
                    let z = self.m.get(i, j) - self.l.get(i, j) - self.s.get(i, j);
                    acc += z.to_f64() * z.to_f64();
                    self.y.set(i, j, self.mu.mul_add(z, self.y.get(i, j)));
                }
            }
        }
        *self.partials[b].lock() += acc;
        let elems = (rows * self.cols) as u64;
        ctx.meter.gmem(4 * elems, T::BYTES, true); // m, l, s, y reads
        ctx.meter.fma(3 * elems);
        ctx.meter.gmem(elems, T::BYTES, true); // y write
        ctx.meter.smem(256); // block reduction of the partial
        ctx.meter.sync();
    }
}

/// Row-tiled GEMM kernel `C = A * B` for the `Q * U` and `L = U' Sigma V^T`
/// back-multiplications (`B` is the small `k x n` factor, staged per block).
pub struct GemmKernel<T: Scalar> {
    /// Output, `m x n`.
    pub c_out: MatPtr<T>,
    /// Left operand, `m x k`.
    pub a: MatPtr<T>,
    /// Right operand (small), `k x n`, staged through fast memory.
    pub b: Matrix<T>,
    /// Rows of `A`/`C`.
    pub rows: usize,
}

impl<T: Scalar> Kernel<T> for GemmKernel<T> {
    fn name(&self) -> &'static str {
        "gpu_gemm"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: self.rows.div_ceil(TILE_ROWS),
            threads_per_block: 256,
            shared_mem_bytes: (self.b.rows() * self.b.cols() * std::mem::size_of::<T>())
                .min(40 * 1024),
            regs_per_thread: 32,
        }
    }

    fn run_block(&self, blk: usize, ctx: &mut BlockCtx<T>) {
        let r0 = blk * TILE_ROWS;
        let rows = TILE_ROWS.min(self.rows - r0);
        let k = self.b.rows();
        let n = self.b.cols();
        for j in 0..n {
            for i in r0..r0 + rows {
                let mut acc = T::ZERO;
                for l in 0..k {
                    // SAFETY: disjoint row tiles of C; A read-only.
                    acc = unsafe { self.a.get(i, l) }.mul_add(self.b[(l, j)], acc);
                }
                unsafe { self.c_out.set(i, j, acc) };
            }
        }
        let elems = (rows * n) as u64;
        ctx.meter.gmem((rows * k) as u64, T::BYTES, true); // A strip
        ctx.meter.gmem((k * n) as u64, T::BYTES, true); // B staged once
        ctx.meter.smem((k * n) as u64);
        ctx.meter.fma(elems * k as u64);
        ctx.meter.gmem(elems, T::BYTES, true); // C out
    }
}

/// Launch helpers used by the all-GPU Robust PCA loop. Each returns the
/// typed [`CaqrError`](caqr::CaqrError) so injected device faults surface to the solver
/// instead of panicking.
pub mod launch {
    use super::*;
    use caqr::CaqrError;

    /// `out = a - b + c * scale` on the device.
    pub fn combine<T: Scalar>(
        gpu: &Gpu,
        out: &mut Matrix<T>,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &Matrix<T>,
        scale: T,
    ) -> Result<(), CaqrError> {
        let (rows, cols) = out.shape();
        let k = TriadKernel {
            out: MatPtr::new(out),
            a: MatPtr::new_readonly(a),
            b: MatPtr::new_readonly(b),
            c: MatPtr::new_readonly(c),
            op: TriadOp::Combine { scale },
            rows,
            cols,
        };
        gpu.launch(&k)?;
        Ok(())
    }

    /// `out = shrink(a - b + c * scale, threshold)` on the device.
    #[allow(clippy::too_many_arguments)]
    pub fn shrink<T: Scalar>(
        gpu: &Gpu,
        out: &mut Matrix<T>,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &Matrix<T>,
        scale: T,
        threshold: T,
    ) -> Result<(), CaqrError> {
        let (rows, cols) = out.shape();
        let k = TriadKernel {
            out: MatPtr::new(out),
            a: MatPtr::new_readonly(a),
            b: MatPtr::new_readonly(b),
            c: MatPtr::new_readonly(c),
            op: TriadOp::Shrink { scale, threshold },
            rows,
            cols,
        };
        gpu.launch(&k)?;
        Ok(())
    }

    /// Residual + multiplier update; returns `||M - L - S||_F`.
    pub fn residual_update<T: Scalar>(
        gpu: &Gpu,
        m: &Matrix<T>,
        l: &Matrix<T>,
        s: &Matrix<T>,
        y: &mut Matrix<T>,
        mu: T,
    ) -> Result<f64, CaqrError> {
        let (rows, cols) = y.shape();
        let partials: Vec<Mutex<f64>> = (0..rows.div_ceil(TILE_ROWS))
            .map(|_| Mutex::new(0.0))
            .collect();
        {
            let k = ResidualKernel {
                m: MatPtr::new_readonly(m),
                l: MatPtr::new_readonly(l),
                s: MatPtr::new_readonly(s),
                y: MatPtr::new(y),
                mu,
                rows,
                cols,
                partials: &partials,
            };
            gpu.launch(&k)?;
        }
        Ok(partials
            .into_iter()
            .map(|p| p.into_inner())
            .sum::<f64>()
            .sqrt())
    }

    /// `C = A * B` with a small `B`, on the device.
    pub fn gemm_small_rhs<T: Scalar>(
        gpu: &Gpu,
        c: &mut Matrix<T>,
        a: &Matrix<T>,
        b: Matrix<T>,
    ) -> Result<(), CaqrError> {
        if a.rows() != c.rows() || a.cols() != b.rows() || b.cols() != c.cols() {
            return Err(CaqrError::BadShape(format!(
                "gemm_small_rhs: C {}x{} vs A {}x{} * B {}x{}",
                c.rows(),
                c.cols(),
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let rows = c.rows();
        let k = GemmKernel {
            c_out: MatPtr::new(c),
            a: MatPtr::new_readonly(a),
            b,
            rows,
        };
        gpu.launch(&k)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::launch;
    use dense::matrix::Matrix;
    use gpu_sim::{DeviceSpec, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::gtx480())
    }

    #[test]
    fn combine_matches_scalar_loop() {
        let g = gpu();
        let a = dense::generate::uniform::<f64>(5000, 3, 1);
        let b = dense::generate::uniform::<f64>(5000, 3, 2);
        let c = dense::generate::uniform::<f64>(5000, 3, 3);
        let mut out = Matrix::<f64>::zeros(5000, 3);
        launch::combine(&g, &mut out, &a, &b, &c, 0.25).unwrap();
        for i in 0..5000 {
            for j in 0..3 {
                let want = a[(i, j)] - b[(i, j)] + 0.25 * c[(i, j)];
                assert!((out[(i, j)] - want).abs() < 1e-14);
            }
        }
        // Two row tiles at 4096 rows per block.
        assert_eq!(g.ledger().per_op["ew_combine"].calls, 1);
    }

    #[test]
    fn shrink_matches_reference() {
        let g = gpu();
        let a = dense::generate::uniform::<f64>(100, 4, 4);
        let z = Matrix::<f64>::zeros(100, 4);
        let mut out = Matrix::<f64>::zeros(100, 4);
        launch::shrink(&g, &mut out, &a, &z, &z, 0.0, 0.3).unwrap();
        for (o, x) in out.as_slice().iter().zip(a.as_slice()) {
            assert_eq!(*o, crate::solver::shrink_scalar(*x, 0.3));
        }
    }

    #[test]
    fn residual_update_returns_frobenius_and_updates_y() {
        let g = gpu();
        let m = dense::generate::uniform::<f64>(300, 5, 5);
        let l = dense::generate::uniform::<f64>(300, 5, 6);
        let s = dense::generate::uniform::<f64>(300, 5, 7);
        let mut y = Matrix::<f64>::zeros(300, 5);
        let r = launch::residual_update(&g, &m, &l, &s, &mut y, 2.0).unwrap();
        let mut want = 0.0f64;
        for i in 0..300 {
            for j in 0..5 {
                let z = m[(i, j)] - l[(i, j)] - s[(i, j)];
                want += z * z;
                assert!((y[(i, j)] - 2.0 * z).abs() < 1e-13);
            }
        }
        assert!((r - want.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn gemm_small_rhs_matches_dense_gemm() {
        let g = gpu();
        let a = dense::generate::uniform::<f64>(5000, 8, 8);
        let b = dense::generate::uniform::<f64>(8, 6, 9);
        let mut c = Matrix::<f64>::zeros(5000, 6);
        launch::gemm_small_rhs(&g, &mut c, &a, b.clone()).unwrap();
        let mut want = Matrix::<f64>::zeros(5000, 6);
        dense::blas3::gemm(
            dense::blas3::Trans::No,
            dense::blas3::Trans::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            want.as_mut(),
        );
        for (x, y) in c.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
    }
}
