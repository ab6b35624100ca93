//! The Robust PCA loop's device charges besides the QR: the launch
//! descriptions of its bulk steps (elementwise passes and the `Q * U` /
//! `L = U' Sigma V^T` GEMMs) and [`LoopWalk`], the one walk that charges
//! them with the transfers and host work around the small SVD of `R`. On a
//! simulated device the whole iteration, not just the QR, is charged with
//! its traffic and launch costs (the paper's pipeline keeps the video
//! matrix resident on the GPU for exactly this reason). The loop in
//! [`crate::solver`] runs the arithmetic on the host and charges the walk
//! beside it; the Table II model in [`crate::timing`] charges the same walk
//! with no data.

use caqr::CaqrError;
use gpu_sim::{BlockCost, CostMeter, CpuSpec, DeviceSpec, Exec, Gpu, Launch, LaunchConfig};

/// Rows per elementwise thread block.
const TILE_ROWS: usize = 4096;

/// Elementwise operations fused into one kernel pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriadOp {
    /// `out = a - b + c * scale` — forms `M - S + Y/mu`.
    Combine,
    /// `out = shrink(a - b + c * scale, threshold)` — the `S` update.
    Shrink,
}

/// Rows of row tile `b` of an `m`-row matrix.
fn tile_rows(m: usize, b: usize) -> usize {
    TILE_ROWS.min(m - b * TILE_ROWS)
}

/// Flops of the small `n x n` SVD of `R`: gesdd-style O(n^3) with a
/// healthy constant.
fn small_svd_flops(n: usize) -> f64 {
    22.0 * (n * n * n) as f64
}

/// Seconds for the small SVD of `R` on the host CPU, cache resident.
pub(crate) fn small_svd_seconds(cpu: &CpuSpec, n: usize) -> f64 {
    small_svd_flops(n) / (cpu.blas2_cache_gflops * 1.0e9)
}

/// The device charges of the Robust PCA loop on an `m x n` matrix of
/// `elem_bytes`-byte elements, one method per bulk step besides the QR, in
/// the order the loop issues them. [`crate::solver::rpca`] and
/// [`crate::svd_via_qr`] call it beside their arithmetic; the Table II
/// model calls [`LoopWalk::iteration`] with no data. Every launch is
/// charged synchronously. Without a device (a host-only run) nothing is
/// charged.
#[derive(Clone, Copy)]
pub struct LoopWalk<'g> {
    gpu: Option<&'g Gpu>,
    m: usize,
    n: usize,
    elem_bytes: u64,
}

impl<'g> LoopWalk<'g> {
    /// The walk of an `m x n` matrix of `elem_bytes`-byte elements on
    /// `gpu`, if any.
    pub fn new(gpu: Option<&'g Gpu>, m: usize, n: usize, elem_bytes: u64) -> Self {
        LoopWalk {
            gpu,
            m,
            n,
            elem_bytes,
        }
    }

    /// Charge the launch `describe` builds for the device's spec.
    fn launch<L: Launch>(
        &self,
        describe: impl FnOnce(&'g DeviceSpec) -> L,
    ) -> Result<(), CaqrError> {
        if let Some(gpu) = self.gpu {
            gpu.charge_on(Exec::Sync, &describe(gpu.spec()))?;
        }
        Ok(())
    }

    /// Charge a pass of three-input elementwise `op` over the matrix.
    fn triad(&self, op: TriadOp) -> Result<(), CaqrError> {
        self.launch(|spec| TriadLaunch {
            spec,
            op,
            rows: self.m,
            cols: self.n,
            elem_bytes: self.elem_bytes,
        })
    }

    /// Charge a row-tiled `m x n` by `n x n` GEMM.
    fn gemm(&self) -> Result<(), CaqrError> {
        self.launch(|spec| GemmLaunch {
            spec,
            rows: self.m,
            k: self.n,
            n: self.n,
            elem_bytes: self.elem_bytes,
        })
    }

    /// The video matrix to the device, once per solve ("the cost of
    /// initially transferring the video matrix to GPU memory is easily
    /// amortized").
    pub fn upload(&self) {
        if let Some(gpu) = self.gpu {
            gpu.transfer_h2d((self.m * self.n) as u64 * self.elem_bytes);
        }
    }

    /// `M - S + Y/mu`, the matrix whose singular values are thresholded.
    pub fn combine(&self) -> Result<(), CaqrError> {
        self.triad(TriadOp::Combine)
    }

    /// The SVD pipeline after its QR: `R` down to the host, its small SVD
    /// there (host work on the critical path, priced on the paper's
    /// Core i7), `U` and `V` back up, and the `Q * U` GEMM.
    pub fn svd_of_r(&self) -> Result<(), CaqrError> {
        if let Some(gpu) = self.gpu {
            let n = self.n;
            let small = (n * n) as u64 * self.elem_bytes;
            gpu.transfer_d2h(small);
            let host = small_svd_seconds(&CpuSpec::corei7_4core(), n);
            gpu.host_work("svd_r", host, small_svd_flops(n));
            gpu.transfer_h2d(2 * small);
        }
        self.gemm()
    }

    /// `L = U' shrink(Sigma) V^T`.
    pub fn low_rank(&self) -> Result<(), CaqrError> {
        self.gemm()
    }

    /// `S = shrink(M - L + Y/mu, lambda/mu)`.
    pub fn shrink(&self) -> Result<(), CaqrError> {
        self.triad(TriadOp::Shrink)
    }

    /// `Z = M - L - S; Y += mu * Z` with the residual norm.
    pub fn residual(&self) -> Result<(), CaqrError> {
        self.launch(|spec| ResidualLaunch {
            spec,
            rows: self.m,
            cols: self.n,
            elem_bytes: self.elem_bytes,
        })
    }

    /// One iteration of the loop, with `qr` charging the QR of the
    /// combined matrix between the combine pass and the SVD of `R`.
    pub fn iteration(&self, qr: impl FnOnce() -> Result<(), CaqrError>) -> Result<(), CaqrError> {
        self.combine()?;
        qr()?;
        self.svd_of_r()?;
        self.low_rank()?;
        self.shrink()?;
        self.residual()
    }
}

/// Three-input elementwise kernel over row tiles of `rows x cols` matrices
/// of `elem_bytes`-byte elements.
pub struct TriadLaunch<'a> {
    /// Device description the block costs are counted for.
    pub spec: &'a DeviceSpec,
    /// Operation.
    pub op: TriadOp,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// Element size in bytes.
    pub elem_bytes: u64,
}

impl Launch for TriadLaunch<'_> {
    fn name(&self) -> &'static str {
        match self.op {
            TriadOp::Combine => "ew_combine",
            TriadOp::Shrink => "ew_shrink",
        }
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: self.rows.div_ceil(TILE_ROWS),
            threads_per_block: 256,
            shared_mem_bytes: 0,
            regs_per_thread: 16,
        }
    }

    fn block_cost(&self, b: usize) -> BlockCost {
        let elems = (tile_rows(self.rows, b) * self.cols) as u64;
        let mut m = CostMeter::new(self.spec);
        m.gmem(3 * elems, self.elem_bytes, true); // three input streams
        m.fma(2 * elems); // combine + (shrink) arithmetic
        m.gmem(elems, self.elem_bytes, true); // output stream
        m.cost
    }
}

/// Residual/multiplier kernel: `z = m - l - s; y += mu * z`, accumulating
/// `sum(z^2)` per block for the convergence test.
pub struct ResidualLaunch<'a> {
    /// Device description the block costs are counted for.
    pub spec: &'a DeviceSpec,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// Element size in bytes.
    pub elem_bytes: u64,
}

impl Launch for ResidualLaunch<'_> {
    fn name(&self) -> &'static str {
        "ew_residual"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: self.rows.div_ceil(TILE_ROWS),
            threads_per_block: 256,
            shared_mem_bytes: 256 * self.elem_bytes as usize,
            regs_per_thread: 16,
        }
    }

    fn block_cost(&self, b: usize) -> BlockCost {
        let elems = (tile_rows(self.rows, b) * self.cols) as u64;
        let mut m = CostMeter::new(self.spec);
        m.gmem(4 * elems, self.elem_bytes, true); // m, l, s, y reads
        m.fma(3 * elems);
        m.gmem(elems, self.elem_bytes, true); // y write
        m.smem(256); // block reduction of the partial
        m.sync();
        m.cost
    }
}

/// Row-tiled GEMM kernel `C = A * B` for the `Q * U` and `L = U' Sigma V^T`
/// back-multiplications: `A` is `rows x k`, `B` the small `k x n` factor
/// staged per block.
pub struct GemmLaunch<'a> {
    /// Device description the block costs are counted for.
    pub spec: &'a DeviceSpec,
    /// Rows of `A`/`C`.
    pub rows: usize,
    /// Inner dimension (rows of `B`).
    pub k: usize,
    /// Columns of `B`/`C`.
    pub n: usize,
    /// Element size in bytes.
    pub elem_bytes: u64,
}

impl Launch for GemmLaunch<'_> {
    fn name(&self) -> &'static str {
        "gpu_gemm"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: self.rows.div_ceil(TILE_ROWS),
            threads_per_block: 256,
            shared_mem_bytes: (self.k * self.n * self.elem_bytes as usize).min(40 * 1024),
            regs_per_thread: 32,
        }
    }

    fn block_cost(&self, blk: usize) -> BlockCost {
        let rows = tile_rows(self.rows, blk);
        let (k, n) = (self.k, self.n);
        let elems = (rows * n) as u64;
        let mut m = CostMeter::new(self.spec);
        m.gmem((rows * k) as u64, self.elem_bytes, true); // A strip
        m.gmem((k * n) as u64, self.elem_bytes, true); // B staged once
        m.smem((k * n) as u64);
        m.fma(elems * k as u64);
        m.gmem(elems, self.elem_bytes, true); // C out
        m.cost
    }
}
