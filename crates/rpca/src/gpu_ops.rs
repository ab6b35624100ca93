//! Launch descriptions of the Robust PCA loop's bulk steps besides the QR —
//! the elementwise passes and the `Q * U` / `L = U' Sigma V^T` GEMMs — so
//! that on a simulated device the whole iteration, not just the QR, is
//! charged with its traffic and launch costs (the paper's pipeline keeps
//! the video matrix resident on the GPU for exactly this reason). They are
//! descriptions only: the loop in [`crate::solver`] runs the arithmetic on
//! the host and charges these to the device.

use caqr::CaqrError;
use gpu_sim::{BlockCost, CostMeter, DeviceSpec, Exec, Gpu, Launch, LaunchConfig};

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

/// Charge the launch `describe` builds for `gpu`'s spec, synchronously.
/// Without a device (a host-only run) nothing is charged.
pub(crate) fn charge<'g, L: Launch>(
    gpu: Option<&'g Gpu>,
    describe: impl FnOnce(&'g DeviceSpec) -> L,
) -> Result<(), CaqrError> {
    if let Some(gpu) = gpu {
        gpu.charge_on(Exec::Sync, &describe(gpu.spec()))?;
    }
    Ok(())
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
