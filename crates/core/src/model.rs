//! Model-only CAQR/TSQR timing: the driver's own panel schedule
//! ([`crate::backend`]) run against a cost-only sink, which charges each
//! chain through [`Gpu::launch_with_costs_on`] with the same per-block cost
//! functions the executing kernels charge — block for block, in the same
//! grid order — so a modelled sweep over a 1M x 192 matrix agrees with what
//! executing it would record, without doing the arithmetic (verified
//! against real execution in this module's tests). This module holds the
//! per-chain charges and the public entry points; it has no panel loop of
//! its own.

use crate::backend::{DriveConfig, SimBackend};
use crate::block::{plan_tree, tile_panel, BlockSize};
use crate::caqr::CaqrOptions;
use crate::error::CaqrError;
use crate::health::{health_block_cost, health_cfg, health_tiles};
use crate::kernels::{
    apply_qt_h_block_cost, apply_qt_tree_block_cost, factor_block_cost, factor_tree_block_cost,
    pretranspose_block_cost, THREADS,
};
use crate::microkernels::{self as mk, ReductionStrategy};
use gpu_sim::{BlockCost, Exec, Gpu, LaunchConfig};

/// Element size of the paper's single-precision pipeline.
const ELEM_BYTES: u64 = 4;

fn launch_cfg(
    blocks: usize,
    max_rows: usize,
    width: usize,
    wc: usize,
    strategy: ReductionStrategy,
    stage_v: bool,
) -> LaunchConfig {
    let mut smem = mk::smem_bytes(max_rows, wc, THREADS, strategy, ELEM_BYTES as usize);
    if stage_v {
        smem += max_rows * width * ELEM_BYTES as usize;
    }
    LaunchConfig {
        blocks,
        threads_per_block: THREADS,
        shared_mem_bytes: smem,
        regs_per_thread: mk::regs_per_thread(max_rows, wc, THREADS, strategy)
            .min(mk::FERMI_MAX_REGS_PER_THREAD),
    }
}

/// Tiny memoizer: the grids contain at most a handful of distinct shapes.
struct CostCache<F: FnMut(usize, usize) -> BlockCost> {
    make: F,
    seen: Vec<((usize, usize), BlockCost)>,
}

impl<F: FnMut(usize, usize) -> BlockCost> CostCache<F> {
    fn new(make: F) -> Self {
        CostCache {
            make,
            seen: Vec::new(),
        }
    }
    fn get(&mut self, a: usize, b: usize) -> BlockCost {
        if let Some((_, c)) = self.seen.iter().find(|(k, _)| *k == (a, b)) {
            return *c;
        }
        let c = (self.make)(a, b);
        self.seen.push(((a, b), c));
        c
    }
}

/// Charge one panel-factorization chain (factor + one factor_tree per level)
/// under an [`Exec`] policy.
pub(crate) fn model_factor_chain_on(
    gpu: &Gpu,
    exec: Exec,
    cfg: &DriveConfig,
    m: usize,
    row0: usize,
    width: usize,
) -> Result<(), CaqrError> {
    let (bs, strategy) = (cfg.bs, cfg.strategy);
    let spec = gpu.spec().clone();
    let tiles = tile_panel(row0, m - row0, bs.h, bs.w);
    let max_rows = tiles.iter().map(|t| t.rows).max().unwrap_or(0);

    // factor — one block per tile, exact per-tile cost.
    {
        let mut cache =
            CostCache::new(|rows, _| factor_block_cost(&spec, rows, width, strategy, ELEM_BYTES));
        let costs: Vec<BlockCost> = tiles.iter().map(|t| cache.get(t.rows, 0)).collect();
        gpu.launch_with_costs_on(
            exec,
            "factor",
            launch_cfg(tiles.len(), max_rows, width, width, strategy, false),
            &costs,
        )?;
    }

    // factor_tree per level, exact per-group arity.
    let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
    let plan = plan_tree(&starts, cfg.tree.arity(bs));
    for level in &plan.levels {
        let max_t = level.iter().map(|g| g.members.len()).max().unwrap_or(2);
        let mut cache =
            CostCache::new(|t, _| factor_tree_block_cost(&spec, t, width, strategy, ELEM_BYTES));
        let costs: Vec<BlockCost> = level
            .iter()
            .map(|g| cache.get(g.members.len(), 0))
            .collect();
        gpu.launch_with_costs_on(
            exec,
            "factor_tree",
            launch_cfg(level.len(), max_t * width, width, width, strategy, false),
            &costs,
        )?;
    }
    Ok(())
}

/// Charge one apply chain (apply_qt_h + one apply_qt_tree per level) of the
/// panel at `(row0, width)` across the column blocks `cols`, under an
/// [`Exec`] policy. Grid order is (ti = b % ntiles, cb = b / ntiles),
/// matching ApplyQtHKernel/ApplyQtTreeKernel.
pub(crate) fn model_apply_chain_on(
    gpu: &Gpu,
    exec: Exec,
    cfg: &DriveConfig,
    m: usize,
    row0: usize,
    width: usize,
    cols: &[(usize, usize)],
) -> Result<(), CaqrError> {
    if cols.is_empty() {
        return Ok(());
    }
    let (bs, strategy) = (cfg.bs, cfg.strategy);
    let spec = gpu.spec().clone();
    let tiles = tile_panel(row0, m - row0, bs.h, bs.w);
    let max_rows = tiles.iter().map(|t| t.rows).max().unwrap_or(0);
    let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
    let plan = plan_tree(&starts, cfg.tree.arity(bs));
    let max_wc = cols.iter().map(|c| c.1).max().unwrap_or(0);
    {
        let mut cache = CostCache::new(|rows, wc| {
            apply_qt_h_block_cost(&spec, rows, width.min(rows), wc, strategy, ELEM_BYTES)
        });
        let mut costs = Vec::with_capacity(tiles.len() * cols.len());
        for &(_, wc) in cols {
            for t in &tiles {
                costs.push(cache.get(t.rows, wc));
            }
        }
        gpu.launch_with_costs_on(
            exec,
            "apply_qt_h",
            launch_cfg(
                tiles.len() * cols.len(),
                max_rows,
                width,
                max_wc,
                strategy,
                true,
            ),
            &costs,
        )?;
    }
    for level in &plan.levels {
        let max_t = level.iter().map(|g| g.members.len()).max().unwrap_or(2);
        let mut cache = CostCache::new(|t, wc| {
            apply_qt_tree_block_cost(&spec, t, width, wc, strategy, ELEM_BYTES)
        });
        let mut costs = Vec::with_capacity(level.len() * cols.len());
        for &(_, wc) in cols {
            for g in level {
                costs.push(cache.get(g.members.len(), wc));
            }
        }
        gpu.launch_with_costs_on(
            exec,
            "apply_qt_tree",
            launch_cfg(
                level.len() * cols.len(),
                max_t * width,
                width,
                max_wc,
                strategy,
                true,
            ),
            &costs,
        )?;
    }
    Ok(())
}

/// Modelled seconds for a full CAQR factorization of an `m x n` matrix
/// (the engine behind Figures 8/9 and Table I): the launch sequence
/// [`crate::caqr::caqr`] issues, charged by the cost model.
pub fn model_caqr_seconds(
    gpu: &Gpu,
    m: usize,
    n: usize,
    opts: CaqrOptions,
) -> Result<f64, CaqrError> {
    let t0 = gpu.elapsed();
    SimBackend::sync(gpu).model_factor(m, n, &opts.drive_config(), false)?;
    Ok(gpu.elapsed() - t0)
}

/// Charge the input health check under an [`Exec`] policy, block for block
/// the same launch [`crate::health::check_matrix_finite`] submits.
pub(crate) fn model_health_on(
    gpu: &Gpu,
    exec: Exec,
    m: usize,
    n: usize,
    bs: BlockSize,
) -> Result<(), CaqrError> {
    let spec = gpu.spec().clone();
    let tiles = health_tiles(m, bs);
    let mut cache = CostCache::new(|rows, _| health_block_cost(&spec, rows, n, ELEM_BYTES));
    let costs: Vec<BlockCost> = tiles.iter().map(|t| cache.get(t.rows, 0)).collect();
    gpu.launch_with_costs_on(exec, "health_check", health_cfg(tiles.len()), &costs)?;
    Ok(())
}

/// Charge the pretranspose pass under an [`Exec`] policy, block for block
/// the same launch the executing backend submits.
pub(crate) fn model_pretranspose_on(
    gpu: &Gpu,
    exec: Exec,
    m: usize,
    n: usize,
    bs: BlockSize,
) -> Result<(), CaqrError> {
    let tiles = m.div_ceil(bs.h) * n.div_ceil(bs.w);
    let cfg = LaunchConfig {
        blocks: tiles,
        threads_per_block: THREADS,
        shared_mem_bytes: bs.h * bs.w * ELEM_BYTES as usize,
        regs_per_thread: 16,
    };
    let costs = vec![pretranspose_block_cost(gpu.spec(), bs.h, bs.w, ELEM_BYTES); tiles];
    gpu.launch_with_costs_on(exec, "pretranspose", cfg, &costs)?;
    Ok(())
}

/// Modelled seconds for applying `Q^T` (or generating explicit `Q`) from a
/// CAQR factorization of an `m x n` matrix to `nc` columns. The paper notes
/// `SORGQR` is "just as efficient as factoring the matrix"; this charges
/// the apply chains [`crate::backend::Factorization::apply_on`] issues.
pub fn model_caqr_apply_seconds(
    gpu: &Gpu,
    m: usize,
    n: usize,
    nc: usize,
    opts: CaqrOptions,
) -> Result<f64, CaqrError> {
    let t0 = gpu.elapsed();
    SimBackend::sync(gpu).model_apply(m, n, nc, &opts.drive_config())?;
    Ok(gpu.elapsed() - t0)
}

/// Modelled SGEQRF GFLOP/s for CAQR on an `m x n` single-precision matrix —
/// the paper's reporting convention (`2mn^2 - 2/3 n^3` useful flops over the
/// modelled time, matrix already resident on the GPU).
pub fn model_caqr_gflops(
    gpu: &Gpu,
    m: usize,
    n: usize,
    opts: CaqrOptions,
) -> Result<f64, CaqrError> {
    let secs = model_caqr_seconds(gpu, m, n, opts)?;
    Ok(dense::geqrf_flops(m, n) / secs / 1.0e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::TreeShape;
    use crate::caqr::caqr;
    use crate::schedule::{model_caqr_dag_seconds, ScheduleOptions};
    use dense::generate;
    use gpu_sim::DeviceSpec;

    /// Calls, seconds, flops and DRAM bytes of two ledgers agree to `tol`.
    fn assert_ledgers_match(exec: &gpu_sim::CostLedger, modeled: &gpu_sim::CostLedger, tol: f64) {
        assert_eq!(exec.calls, modeled.calls, "launch counts must match");
        let dt = (exec.seconds - modeled.seconds).abs() / exec.seconds;
        assert!(
            dt < tol,
            "time mismatch {dt}: {} vs {}",
            exec.seconds,
            modeled.seconds
        );
        let df = (exec.flops - modeled.flops).abs() / exec.flops.max(1.0);
        assert!(df < tol, "flop mismatch {df}");
        let db = (exec.dram_bytes - modeled.dram_bytes).abs() / exec.dram_bytes.max(1.0);
        assert!(db < tol, "traffic mismatch {db}");
    }

    fn check_model_matches_execution(bs: BlockSize, m: usize, n: usize, tol: f64) {
        let opts = CaqrOptions {
            bs,
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
        };
        let g1 = Gpu::new(DeviceSpec::c2050());
        let a = generate::uniform::<f32>(m, n, 42);
        let _f = caqr(&g1, a, opts).unwrap();

        let g2 = Gpu::new(DeviceSpec::c2050());
        let secs = model_caqr_seconds(&g2, m, n, opts).unwrap();
        assert_ledgers_match(&g1.ledger(), &g2.ledger(), tol);

        // One stream without lookahead is the synchronous loop.
        let one_stream = ScheduleOptions {
            caqr: opts,
            streams: 1,
            lookahead: false,
        };
        let dag = model_caqr_dag_seconds(&Gpu::new(DeviceSpec::c2050()), m, n, one_stream).unwrap();
        assert!(
            (dag - secs).abs() / secs < tol,
            "{m}x{n}: 1-stream barrier DAG {dag} vs sync {secs}"
        );
    }

    #[test]
    fn model_matches_execution_exactly_for_uniform_tiles() {
        check_model_matches_execution(BlockSize { h: 32, w: 8 }, 256, 32, 1e-9);
    }

    #[test]
    fn model_matches_execution_exactly_for_ragged_tiles() {
        check_model_matches_execution(BlockSize { h: 32, w: 8 }, 301, 27, 1e-9);
    }

    #[test]
    fn model_matches_execution_exactly_for_wide_shapes() {
        // `min(m, n)` is not a multiple of `w`: the narrow last panel's
        // trailing update spans its own block's tail plus the global grid.
        for &(m, n) in &[(20, 29), (20, 60), (44, 132)] {
            check_model_matches_execution(BlockSize { h: 32, w: 8 }, m, n, 1e-9);
        }
        for &(m, n) in &[(44, 53), (60, 69)] {
            check_model_matches_execution(BlockSize { h: 64, w: 16 }, m, n, 1e-9);
        }
    }

    #[test]
    fn apply_model_matches_executed_explicit_q() {
        let opts = CaqrOptions::default();
        for &(m, n) in &[(256, 32), (301, 27), (2048, 100), (4000, 192)] {
            let a = generate::uniform::<f32>(m, n, 7);
            let f = caqr(&Gpu::new(DeviceSpec::c2050()), a, opts).unwrap();
            let g1 = Gpu::new(DeviceSpec::c2050());
            f.generate_q_on(&SimBackend::sync(&g1), n).unwrap();

            let g2 = Gpu::new(DeviceSpec::c2050());
            let secs = model_caqr_apply_seconds(&g2, m, n, n, opts).unwrap();
            let (exec, modeled) = (g1.ledger(), g2.ledger());
            assert_ledgers_match(&exec, &modeled, 1e-9);
            assert!((secs - exec.seconds).abs() / exec.seconds < 1e-9, "{m}x{n}");
        }
    }

    #[test]
    fn overflowing_and_empty_shapes_are_rejected() {
        let g = Gpu::new(DeviceSpec::c2050());
        let opts = CaqrOptions::default();
        let dag = ScheduleOptions {
            caqr: opts,
            ..ScheduleOptions::default()
        };
        for &(m, n) in &[(usize::MAX / 2, 4), (0, 4), (4, 0)] {
            let bad = |r: Result<f64, CaqrError>| matches!(r, Err(CaqrError::BadShape(_)));
            assert!(bad(model_caqr_seconds(&g, m, n, opts)), "{m}x{n}");
            assert!(bad(model_caqr_dag_seconds(&g, m, n, dag)), "{m}x{n}");
            assert!(bad(model_caqr_apply_seconds(&g, m, n, 4, opts)), "{m}x{n}");
        }
        assert_eq!(g.ledger().calls, 0, "a rejected shape charges nothing");
    }

    #[test]
    fn tall_skinny_gflops_grow_with_height() {
        // Table I's trend: 1k -> 10k -> 100k rows at 192 columns climbs
        // steeply (launch overheads amortize, SMs fill).
        let g = Gpu::new(DeviceSpec::c2050());
        let opts = CaqrOptions::default();
        let g1k = model_caqr_gflops(&g, 1_000, 192, opts).unwrap();
        let g10k = model_caqr_gflops(&g, 10_000, 192, opts).unwrap();
        let g100k = model_caqr_gflops(&g, 100_000, 192, opts).unwrap();
        let g1m = model_caqr_gflops(&g, 1_000_000, 192, opts).unwrap();
        assert!(
            g1k < g10k && g10k < g100k && g100k <= g1m * 1.05,
            "{g1k} {g10k} {g100k} {g1m}"
        );
        // Headline scale: ~200 GFLOP/s at the largest size (paper: 195).
        assert!(g1m > 120.0 && g1m < 320.0, "1M x 192 modelled at {g1m}");
        // Small sizes are launch-bound and far below peak (paper: 39.6).
        assert!(g1k < 80.0, "1k x 192 modelled at {g1k}");
    }

    #[test]
    fn explicit_q_is_about_as_fast_as_factoring() {
        // Section V-C: "retrieving Q explicitly (SORGQR) using CAQR is just
        // as efficient as factoring the matrix". Generating Q applies every
        // panel across all n columns (vs. the shrinking trailing matrix),
        // so it lands within ~2x.
        let g = Gpu::new(DeviceSpec::c2050());
        let opts = CaqrOptions::default();
        let f = model_caqr_seconds(&g, 100_000, 192, opts).unwrap();
        let q = model_caqr_apply_seconds(&g, 100_000, 192, 192, opts).unwrap();
        let ratio = q / f;
        assert!(ratio > 0.3 && ratio < 2.2, "apply/factor ratio {ratio}");
    }
}
