//! The launches of Section IV-D's four GPU kernels — `factor`,
//! `factor_tree`, `apply_qt_h`, `apply_qt_tree` — plus the out-of-place
//! pre-transpose pass of strategy 4 and the input health check.
//!
//! Each of these six launches is described once, by a [`GridLaunch`] built
//! from geometry and element size only: the grid, its resource demands and
//! the analytic per-block cost from the `*_block_cost` functions below. The
//! simulator charges these descriptions through the chain walks of
//! [`crate::model`], whether it then runs the host's panel arithmetic
//! ([`crate::backend::SimBackend`]) or only models the run. The arithmetic
//! of a block lives in [`crate::blockops`]; no kernel keeps a copy of it.

use crate::block::{BlockSize, Tile};
use crate::microkernels::{self as mk, ReductionStrategy};
use gpu_sim::{BlockCost, CostMeter, DeviceSpec, Launch, LaunchConfig};

/// Threads per block for every kernel (the paper's choice).
pub const THREADS: usize = 64;

// ---------------------------------------------------------------------------
// Analytic per-block costs (shared by execution and model-only paths).
// ---------------------------------------------------------------------------

/// Cost of one `factor` block: QR of a `rows x width` tile in fast memory.
pub fn factor_block_cost(
    spec: &DeviceSpec,
    rows: usize,
    width: usize,
    strategy: ReductionStrategy,
    elem_bytes: u64,
) -> BlockCost {
    let mut m = CostMeter::new(spec);
    mk::charge_block_load(&mut m, rows, width, strategy, elem_bytes);
    mk::charge_factor(&mut m, rows, width, THREADS, strategy, elem_bytes);
    mk::charge_block_store(&mut m, rows, width, strategy, elem_bytes);
    m.cost
}

/// Cost of one `factor_tree` block: gather `t` stacked `width x width`
/// R-triangles, factor the stack, scatter the U components back and write
/// the surviving R to the group leader.
pub fn factor_tree_block_cost(
    spec: &DeviceSpec,
    t: usize,
    width: usize,
    strategy: ReductionStrategy,
    elem_bytes: u64,
) -> BlockCost {
    let mut m = CostMeter::new(spec);
    let tri_words = (t * width * (width + 1) / 2) as u64;
    // Gathering distributed triangles is the "irregular, somewhat sparse"
    // access pattern of Section II-C; short 16-element column segments still
    // mostly coalesce on Fermi's 128-byte transactions.
    m.gmem(tri_words, elem_bytes, true);
    mk::charge_factor(&mut m, t * width, width, THREADS, strategy, elem_bytes);
    m.gmem(tri_words, elem_bytes, true); // U overwrites the stacked triangles
    m.gmem((width * (width + 1) / 2) as u64, elem_bytes, true); // leader's R
    m.cost
}

/// Cost of one `apply_qt_h` block: apply a tile's `width` Householder
/// vectors to a `rows x wc` tile of the trailing matrix.
pub fn apply_qt_h_block_cost(
    spec: &DeviceSpec,
    rows: usize,
    width: usize,
    wc: usize,
    strategy: ReductionStrategy,
    elem_bytes: u64,
) -> BlockCost {
    let mut m = CostMeter::new(spec);
    mk::charge_u_load(&mut m, rows, width, elem_bytes);
    mk::charge_block_load(&mut m, rows, wc, strategy, elem_bytes);
    mk::charge_apply_reflectors(&mut m, rows, width, wc, THREADS, strategy, elem_bytes);
    mk::charge_block_store(&mut m, rows, wc, strategy, elem_bytes);
    m.cost
}

/// Cost of one `apply_qt_tree` block: gather `t` distributed `width`-row
/// strips of the trailing matrix, apply the tree-level reflectors, scatter.
pub fn apply_qt_tree_block_cost(
    spec: &DeviceSpec,
    t: usize,
    width: usize,
    wc: usize,
    strategy: ReductionStrategy,
    elem_bytes: u64,
) -> BlockCost {
    let mut m = CostMeter::new(spec);
    let rows = t * width;
    // The stacked U has the triangular sparsity pattern; only its nonzeros
    // are read.
    m.gmem((t * width * (width + 1) / 2) as u64, elem_bytes, true);
    m.smem((t * width * (width + 1) / 2) as u64);
    mk::charge_block_load(&mut m, rows, wc, strategy, elem_bytes);
    mk::charge_apply_reflectors(&mut m, rows, width, wc, THREADS, strategy, elem_bytes);
    mk::charge_block_store(&mut m, rows, wc, strategy, elem_bytes);
    m.cost
}

/// Cost of one block of the pre-transpose preprocessing pass (strategy 4):
/// a shared-memory tiled transpose, read and write both coalesced.
pub fn pretranspose_block_cost(
    spec: &DeviceSpec,
    rows: usize,
    cols: usize,
    elem_bytes: u64,
) -> BlockCost {
    let mut m = CostMeter::new(spec);
    let words = (rows * cols) as u64;
    m.gmem(words, elem_bytes, true);
    m.smem(2 * words);
    m.sync();
    m.gmem(words, elem_bytes, true);
    m.cost
}

/// Cost of one `health_check` block: a single coalesced read pass over a
/// `rows x cols` slab (no flops — comparisons are not counted as useful
/// arithmetic, matching the pretranspose convention).
pub fn health_block_cost(
    spec: &DeviceSpec,
    rows: usize,
    cols: usize,
    elem_bytes: u64,
) -> BlockCost {
    let mut m = CostMeter::new(spec);
    m.gmem((rows * cols) as u64, elem_bytes, true);
    m.cost
}

fn launch_smem_bytes(
    max_rows: usize,
    width: usize,
    wc: usize,
    strategy: ReductionStrategy,
    stage_v: bool,
    elem_bytes: u64,
) -> usize {
    let eb = elem_bytes as usize;
    let mut bytes = mk::smem_bytes(max_rows, wc, THREADS, strategy, eb);
    if stage_v {
        bytes += max_rows * width * eb;
    }
    bytes
}

fn launch_regs(max_rows: usize, wc: usize, strategy: ReductionStrategy) -> usize {
    mk::regs_per_thread(max_rows, wc, THREADS, strategy).min(mk::FERMI_MAX_REGS_PER_THREAD)
}

// ---------------------------------------------------------------------------
// Launch descriptions (shared by execution and model-only paths).
// ---------------------------------------------------------------------------

/// The data-free description of one simulated launch: a grid of row units
/// (tiles, or tree groups) times column blocks, with [`THREADS`] threads
/// per block; with `u` row units, block `b` covers row unit `b % u` and
/// column block `b / u`. The device charges it block for block in grid
/// order, whether a kernel executes alongside it or not.
pub struct GridLaunch {
    name: &'static str,
    cfg: LaunchConfig,
    /// Index into `costs` of each block's shape, in grid order.
    shape: Vec<u16>,
    /// Cost of each distinct `(row unit, column block)` size pair, computed
    /// once: a grid has at most full and remainder tiles times full and
    /// remainder column blocks.
    costs: Vec<BlockCost>,
}

/// The distinct values of `xs` in first-seen order, and the index of each
/// entry's value among them.
fn classify(xs: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut seen = Vec::new();
    let idx = xs
        .iter()
        .map(|x| {
            seen.iter().position(|s| s == x).unwrap_or_else(|| {
                seen.push(*x);
                seen.len() - 1
            })
        })
        .collect();
    (seen, idx)
}

impl GridLaunch {
    fn new(
        name: &'static str,
        rows: Vec<usize>,
        cols: Vec<usize>,
        shared_mem_bytes: usize,
        regs_per_thread: usize,
        cost: impl Fn(usize, usize) -> BlockCost,
    ) -> Self {
        let (row_sizes, row_shape) = classify(&rows);
        let (col_sizes, col_shape) = classify(&cols);
        let nr = row_sizes.len();
        let costs = (col_sizes.iter())
            .flat_map(|&c| row_sizes.iter().map(move |&r| (r, c)))
            .map(|(r, c)| cost(r, c))
            .collect();
        // Looked up per block instead of derived from `b`: the division it
        // would take per block is most of the charge loop's cost.
        let shape = (col_shape.iter())
            .flat_map(|&c| row_shape.iter().map(move |&r| c * nr + r))
            .map(|s| u16::try_from(s).expect("a grid has few distinct block shapes"))
            .collect();
        GridLaunch {
            name,
            cfg: LaunchConfig {
                blocks: rows.len() * cols.len(),
                threads_per_block: THREADS,
                shared_mem_bytes,
                regs_per_thread,
            },
            shape,
            costs,
        }
    }

    /// `factor`: one block per tile, QR of a `rows x width` tile.
    pub fn factor(
        spec: &DeviceSpec,
        tiles: &[Tile],
        width: usize,
        strategy: ReductionStrategy,
        elem_bytes: u64,
    ) -> Self {
        let rows: Vec<usize> = tiles.iter().map(|t| t.rows).collect();
        let max_rows = rows.iter().copied().max().unwrap_or(0);
        GridLaunch::new(
            "factor",
            rows,
            vec![width],
            launch_smem_bytes(max_rows, width, width, strategy, false, elem_bytes),
            launch_regs(max_rows, width, strategy),
            |r, _| factor_block_cost(spec, r, width, strategy, elem_bytes),
        )
    }

    /// `factor_tree`: one block per tree group of the given arities.
    pub fn factor_tree(
        spec: &DeviceSpec,
        arities: Vec<usize>,
        width: usize,
        strategy: ReductionStrategy,
        elem_bytes: u64,
    ) -> Self {
        let rows = arities.iter().copied().max().unwrap_or(2) * width;
        GridLaunch::new(
            "factor_tree",
            arities,
            vec![width],
            launch_smem_bytes(rows, width, width, strategy, false, elem_bytes),
            launch_regs(rows, width, strategy),
            |t, _| factor_tree_block_cost(spec, t, width, strategy, elem_bytes),
        )
    }

    /// `apply_qt_h`: the level-0 reflectors of a `width`-wide panel's
    /// `tiles` applied across the column blocks `cols`.
    pub fn apply_qt_h(
        spec: &DeviceSpec,
        tiles: &[Tile],
        width: usize,
        cols: &[(usize, usize)],
        strategy: ReductionStrategy,
        elem_bytes: u64,
    ) -> Self {
        let rows: Vec<usize> = tiles.iter().map(|t| t.rows).collect();
        let max_rows = rows.iter().copied().max().unwrap_or(0);
        let wcs: Vec<usize> = cols.iter().map(|c| c.1).collect();
        let max_wc = wcs.iter().copied().max().unwrap_or(0);
        GridLaunch::new(
            "apply_qt_h",
            rows,
            wcs,
            launch_smem_bytes(max_rows, width, max_wc, strategy, true, elem_bytes),
            launch_regs(max_rows, max_wc, strategy),
            |r, wc| apply_qt_h_block_cost(spec, r, width.min(r), wc, strategy, elem_bytes),
        )
    }

    /// `apply_qt_tree`: one tree level's groups, of the given arities,
    /// applied across the column blocks `cols`.
    pub fn apply_qt_tree(
        spec: &DeviceSpec,
        arities: Vec<usize>,
        width: usize,
        cols: &[(usize, usize)],
        strategy: ReductionStrategy,
        elem_bytes: u64,
    ) -> Self {
        let rows = arities.iter().copied().max().unwrap_or(2) * width;
        let wcs: Vec<usize> = cols.iter().map(|c| c.1).collect();
        let max_wc = wcs.iter().copied().max().unwrap_or(0);
        GridLaunch::new(
            "apply_qt_tree",
            arities,
            wcs,
            launch_smem_bytes(rows, width, max_wc, strategy, true, elem_bytes),
            launch_regs(rows, max_wc, strategy),
            |t, wc| apply_qt_tree_block_cost(spec, t, width, wc, strategy, elem_bytes),
        )
    }

    /// `health_check`: one block per row tile, each reading its tile
    /// across all `cols` columns.
    pub fn health_check(spec: &DeviceSpec, tiles: &[Tile], cols: usize, elem_bytes: u64) -> Self {
        let rows = tiles.iter().map(|t| t.rows).collect();
        GridLaunch::new("health_check", rows, vec![cols], 0, 8, |r, c| {
            health_block_cost(spec, r, c, elem_bytes)
        })
    }

    /// `pretranspose`, the out-of-place panel-transpose pass of strategy 4
    /// (Section IV-E.4): one block per `bs.h x bs.w` tile of an `m x n`
    /// matrix, each staging its tile through shared memory as 4-byte words.
    /// In the simulator the data stays column-major — the transposed layout
    /// only changes coalescing, which the cost model already credits — so
    /// this launch is charged, never executed, exactly where the real
    /// pipeline would launch it, with its traffic in full.
    pub fn pretranspose(
        spec: &DeviceSpec,
        m: usize,
        n: usize,
        bs: BlockSize,
        elem_bytes: u64,
    ) -> Self {
        GridLaunch::new(
            "pretranspose",
            vec![bs.h; m.div_ceil(bs.h)],
            vec![bs.w; n.div_ceil(bs.w)],
            bs.h * bs.w * std::mem::size_of::<f32>(),
            16,
            |r, c| pretranspose_block_cost(spec, r, c, elem_bytes),
        )
    }
}

impl Launch for GridLaunch {
    fn name(&self) -> &'static str {
        self.name
    }

    fn config(&self) -> LaunchConfig {
        self.cfg
    }

    fn block_cost(&self, b: usize) -> BlockCost {
        self.costs[usize::from(self.shape[b])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_costs_have_flops_and_traffic() {
        let spec = DeviceSpec::c2050();
        let s = ReductionStrategy::RegisterSerialTransposed;
        let f = factor_block_cost(&spec, 128, 16, s, 4);
        assert!(f.flops > 0 && f.gmem_bytes > 0.0 && f.issue_cycles > 0.0);
        let t = factor_tree_block_cost(&spec, 8, 16, s, 4);
        assert!(
            t.flops >= f.flops,
            "an 8x16-stack factor matches a 128-row tile factor"
        );
        let t2 = factor_tree_block_cost(&spec, 2, 16, s, 4);
        assert!(t2.flops < t.flops, "smaller stacks cost less");
        let a = apply_qt_h_block_cost(&spec, 128, 16, 16, s, 4);
        assert!(a.flops > 0);
        let at = apply_qt_tree_block_cost(&spec, 4, 16, 16, s, 4);
        assert!(at.flops > 0);
        let p = pretranspose_block_cost(&spec, 32, 32, 4);
        assert_eq!(p.flops, 0, "transpose moves data, no flops");
        assert!(p.gmem_bytes >= 2.0 * 32.0 * 32.0 * 4.0);
    }

    #[test]
    fn apply_cost_is_compute_bound_for_best_strategy() {
        // The headline claim: CAQR's kernels are compute-bound.
        let spec = DeviceSpec::c2050();
        let c = apply_qt_h_block_cost(
            &spec,
            128,
            16,
            16,
            ReductionStrategy::RegisterSerialTransposed,
            4,
        );
        let issue_t = c.issue_cycles * spec.cycle_seconds() / spec.sms as f64;
        let dram_t = c.gmem_bytes / (spec.dram_bw_gbs * 1e9);
        assert!(
            issue_t > dram_t,
            "apply_qt_h must be compute-bound: {issue_t} vs {dram_t}"
        );
    }

    #[test]
    fn launch_configs_fit_the_device() {
        let spec = DeviceSpec::c2050();
        let bs = BlockSize::c2050_best();
        for strategy in ReductionStrategy::ALL {
            let cfg = LaunchConfig {
                blocks: 10,
                threads_per_block: THREADS,
                shared_mem_bytes: launch_smem_bytes(bs.h + bs.w, bs.w, bs.w, strategy, true, 4),
                regs_per_thread: launch_regs(bs.h + bs.w, bs.w, strategy),
            };
            cfg.validate(&spec)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
    }
}
