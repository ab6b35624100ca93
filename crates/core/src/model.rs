//! The chain walks every simulated charge goes through. A `PanelChains`
//! walks one panel's chains — its tiles, its tree levels, the launch
//! order — and charges every launch through [`Gpu::charge_on`] with its
//! [`GridLaunch`] description. The executing
//! [`SimBackend`](crate::SimBackend) charges a chain
//! this way from its [`PanelFactor`] and then runs the host's panel
//! arithmetic; the one model entry,
//! [`SimBackend::model`](crate::SimBackend::model), runs the
//! driver's own panel schedule against a cost-only sink that charges the
//! same chains from the geometry alone. A modelled sweep over a 1M x 192
//! matrix therefore records what executing it would, without doing the
//! arithmetic. This module has no panel loop and no cost arithmetic of its
//! own.

use crate::backend::DriveConfig;
use crate::block::{plan_tree, tile_panel, BlockSize, Tile};
use crate::error::CaqrError;
use crate::kernels::GridLaunch;
use crate::microkernels::ReductionStrategy;
use crate::tsqr::PanelFactor;
use dense::scalar::Scalar;
use gpu_sim::{Exec, Gpu};

/// Element size of the paper's single-precision pipeline.
pub(crate) const ELEM_BYTES: u64 = 4;

/// The launches of one panel's chains: its level-0 tiles and, per
/// reduction-tree level bottom-up, the arity of each group, for a
/// `width`-wide panel of `elem_bytes`-byte elements.
pub(crate) struct PanelChains {
    tiles: Vec<Tile>,
    levels: Vec<Vec<usize>>,
    width: usize,
    strategy: ReductionStrategy,
    elem_bytes: u64,
}

impl PanelChains {
    /// The chains `cfg` plans for the `width`-wide panel at row `row0` of
    /// an `m`-row matrix: the tiling and tree the executors factor with.
    pub(crate) fn planned(
        cfg: &DriveConfig,
        m: usize,
        row0: usize,
        width: usize,
        elem_bytes: u64,
    ) -> Self {
        let tiles = tile_panel(row0, m - row0, cfg.bs.h, cfg.bs.w);
        let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
        let levels = (plan_tree(&starts, cfg.tree.arity(cfg.bs)).levels.iter())
            .map(|level| level.iter().map(|g| g.members.len()).collect())
            .collect();
        PanelChains {
            tiles,
            levels,
            width,
            strategy: cfg.strategy,
            elem_bytes,
        }
    }

    /// The chains of a factored panel.
    pub(crate) fn of<T: Scalar>(pf: &PanelFactor<T>) -> Self {
        PanelChains {
            tiles: pf.tiles.clone(),
            levels: (pf.levels.iter())
                .map(|nodes| nodes.iter().map(|n| n.members.len()).collect())
                .collect(),
            width: pf.width,
            strategy: pf.strategy,
            elem_bytes: T::BYTES,
        }
    }

    /// Charge the factor chain under an [`Exec`] policy: `factor` over the
    /// tiles, then one `factor_tree` per tree level.
    pub(crate) fn charge_factor(&self, gpu: &Gpu, exec: Exec) -> Result<(), CaqrError> {
        let (spec, w, s, e) = (gpu.spec(), self.width, self.strategy, self.elem_bytes);
        gpu.charge_on(exec, &GridLaunch::factor(spec, &self.tiles, w, s, e))?;
        for arities in &self.levels {
            let tree = GridLaunch::factor_tree(spec, arities.clone(), w, s, e);
            gpu.charge_on(exec, &tree)?;
        }
        Ok(())
    }

    /// Charge the apply chain across the column blocks `cols` under an
    /// [`Exec`] policy, in the order the reflectors apply: for `Q^T`
    /// (`transpose`) `apply_qt_h` and then one `apply_qt_tree` per level
    /// bottom-up, for `Q` the reverse. No columns, no launch.
    pub(crate) fn charge_apply(
        &self,
        gpu: &Gpu,
        exec: Exec,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        if cols.is_empty() {
            return Ok(());
        }
        let (spec, w, s, e) = (gpu.spec(), self.width, self.strategy, self.elem_bytes);
        let horizontal = || {
            gpu.charge_on(
                exec,
                &GridLaunch::apply_qt_h(spec, &self.tiles, w, cols, s, e),
            )
        };
        let tree = |arities: &Vec<usize>| {
            let launch = GridLaunch::apply_qt_tree(spec, arities.clone(), w, cols, s, e);
            gpu.charge_on(exec, &launch).map(drop)
        };
        if transpose {
            horizontal()?;
            self.levels.iter().try_for_each(tree)?;
        } else {
            self.levels.iter().rev().try_for_each(tree)?;
            horizontal()?;
        }
        Ok(())
    }
}

/// Charge the input health scan of an `m x n` matrix of `elem_bytes`-byte
/// elements under an [`Exec`] policy: one block per row tile of the
/// factor grid, each reading its tile across every column.
pub(crate) fn charge_health(
    gpu: &Gpu,
    exec: Exec,
    m: usize,
    n: usize,
    bs: BlockSize,
    elem_bytes: u64,
) -> Result<(), CaqrError> {
    let tiles = tile_panel(0, m, bs.h, bs.w);
    gpu.charge_on(
        exec,
        &GridLaunch::health_check(gpu.spec(), &tiles, n, elem_bytes),
    )?;
    Ok(())
}

/// Charge the pre-transpose pass over an `m x n` matrix of
/// `elem_bytes`-byte elements under an [`Exec`] policy.
pub(crate) fn charge_pretranspose(
    gpu: &Gpu,
    exec: Exec,
    m: usize,
    n: usize,
    bs: BlockSize,
    elem_bytes: u64,
) -> Result<(), CaqrError> {
    gpu.charge_on(
        exec,
        &GridLaunch::pretranspose(gpu.spec(), m, n, bs, elem_bytes),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{drive, Mode, Modelled, SimBackend};
    use crate::block::TreeShape;
    use crate::caqr::CaqrOptions;
    use crate::microkernels::ReductionStrategy;
    use dense::generate;
    use gpu_sim::DeviceSpec;

    /// Modelled seconds of `what` on a synchronous backend.
    fn sync_seconds(
        gpu: &Gpu,
        m: usize,
        n: usize,
        opts: CaqrOptions,
        what: Modelled,
    ) -> Result<f64, CaqrError> {
        let (secs, _) = SimBackend::sync(gpu).model(m, n, &opts.drive_config(), what)?;
        Ok(secs)
    }

    /// Modelled SGEQRF GFLOP/s of a synchronous factorization.
    fn gflops(gpu: &Gpu, m: usize, n: usize, opts: CaqrOptions) -> f64 {
        let secs = sync_seconds(gpu, m, n, opts, Modelled::Factor(Mode::Sync)).unwrap();
        dense::geqrf_flops(m, n) / secs / 1.0e9
    }

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
        let _f = drive(&SimBackend::sync(&g1), a, &opts.drive_config(), Mode::Sync).unwrap();

        let g2 = Gpu::new(DeviceSpec::c2050());
        let secs = sync_seconds(&g2, m, n, opts, Modelled::Factor(Mode::Sync)).unwrap();
        assert_ledgers_match(&g1.ledger(), &g2.ledger(), tol);

        // One stream without lookahead is the synchronous loop.
        let g3 = Gpu::new(DeviceSpec::c2050());
        let barrier = Modelled::Factor(Mode::Dag { lookahead: false });
        let (dag, _) = (SimBackend::streams(&g3, 1).unwrap())
            .model(m, n, &opts.drive_config(), barrier)
            .unwrap();
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
            let g0 = Gpu::new(DeviceSpec::c2050());
            let f = drive(&SimBackend::sync(&g0), a, &opts.drive_config(), Mode::Sync).unwrap();
            let g1 = Gpu::new(DeviceSpec::c2050());
            f.generate_q_on(&SimBackend::sync(&g1), n).unwrap();

            let g2 = Gpu::new(DeviceSpec::c2050());
            let secs = sync_seconds(&g2, m, n, opts, Modelled::GenerateQ { nc: n }).unwrap();
            // Charged in the executed order, launch for launch, so every
            // sum is the same float sum.
            let (exec, modeled) = (g1.ledger(), g2.ledger());
            let per_op = |l: &gpu_sim::CostLedger| -> Vec<(&str, u64, f64, f64, f64)> {
                (l.per_op.iter())
                    .map(|(&op, st)| (op, st.calls, st.seconds, st.flops, st.bytes))
                    .collect()
            };
            assert_eq!(per_op(&exec), per_op(&modeled), "{m}x{n}");
            assert_eq!(
                (exec.calls, exec.seconds, exec.flops, exec.dram_bytes),
                (modeled.calls, secs, modeled.flops, modeled.dram_bytes),
                "{m}x{n}"
            );
        }
    }

    #[test]
    fn overflowing_and_empty_shapes_are_rejected() {
        let g = Gpu::new(DeviceSpec::c2050());
        let cfg = CaqrOptions::default().drive_config();
        let (sync, streams) = (SimBackend::sync(&g), SimBackend::streams(&g, 4).unwrap());
        let bad = |r: Result<(f64, gpu_sim::Timeline), CaqrError>| {
            matches!(r, Err(CaqrError::BadShape(_)))
        };
        let factor = Modelled::Factor(Mode::Sync);
        let dag = Modelled::Factor(Mode::Dag { lookahead: true });
        let q = Modelled::GenerateQ { nc: 4 };
        for &(m, n) in &[(usize::MAX / 2, 4), (0, 4), (4, 0)] {
            assert!(bad(sync.model(m, n, &cfg, factor)), "{m}x{n}");
            assert!(bad(streams.model(m, n, &cfg, dag)), "{m}x{n}");
            assert!(bad(sync.model(m, n, &cfg, q)), "{m}x{n}");
        }
        // An overflowing `Q` width is rejected on a valid factored shape.
        let wide_q = Modelled::GenerateQ { nc: usize::MAX / 2 };
        assert!(bad(sync.model(1024, 4, &cfg, wide_q)));
        assert_eq!(g.ledger().calls, 0, "a rejected shape charges nothing");
    }

    #[test]
    fn tall_skinny_gflops_grow_with_height() {
        // Table I's trend: 1k -> 10k -> 100k rows at 192 columns climbs
        // steeply (launch overheads amortize, SMs fill).
        let g = Gpu::new(DeviceSpec::c2050());
        let opts = CaqrOptions::default();
        let g1k = gflops(&g, 1_000, 192, opts);
        let g10k = gflops(&g, 10_000, 192, opts);
        let g100k = gflops(&g, 100_000, 192, opts);
        let g1m = gflops(&g, 1_000_000, 192, opts);
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
        let f = sync_seconds(&g, 100_000, 192, opts, Modelled::Factor(Mode::Sync)).unwrap();
        let q = sync_seconds(&g, 100_000, 192, opts, Modelled::GenerateQ { nc: 192 }).unwrap();
        let ratio = q / f;
        assert!(ratio > 0.3 && ratio < 2.2, "apply/factor ratio {ratio}");
    }
}
