//! Section III-A — "First option: CPU panel factorization and GPU trailing
//! matrix update" — the heterogeneous mapping of *CAQR itself* that the
//! paper considered and rejected in favour of the all-GPU Option B.
//!
//! Per panel: the CPU factors the panel with TSQR (cache-resident tiles, so
//! no bandwidth cliff), the factors round-trip over PCIe, and the GPU runs
//! the same `apply_qt_h` / `apply_qt_tree` trailing updates as Option B.
//! The panel work can overlap the previous trailing update (the "potential"
//! overlap Section III-A mentions), which we model optimistically — and
//! Option B still wins for skinny matrices, because for them the panel+
//! transfer chain *is* the critical path.

use caqr::block::{plan_tree, tile_panel, BlockSize, TreeShape};
use caqr::kernels::GridLaunch;
use caqr::microkernels::ReductionStrategy;
use caqr::tsqr::col_blocks;
use gpu_sim::{CpuSpec, DeviceSpec, Exec, Gpu, PcieSpec};

/// Modelled seconds for the CPU-side TSQR of one `m_p x w` panel: the panel
/// streams from DRAM twice (read + write) while the per-tile factorizations
/// run from cache across the cores.
fn cpu_tsqr_panel_seconds(cpu: &CpuSpec, mp: usize, w: usize) -> f64 {
    let flops = 2.2 * mp as f64 * (w * w) as f64; // level-0 + tree slack
    let traffic = 2.0 * 4.0 * mp as f64 * w as f64;
    let compute = flops / (cpu.blas2_cache_gflops * 1.0e9);
    let stream = traffic / (cpu.dram_bw_gbs * 1.0e9);
    compute.max(stream) + 2.0 * cpu.call_overhead_us * 1.0e-6
}

/// Modelled seconds for the GPU trailing update of one panel: the
/// `apply_qt_h` and per-level `apply_qt_tree` launches Option B issues,
/// charged by the device's one cost model on a scratch [`Gpu`].
fn gpu_trailing_seconds(
    gpu: &DeviceSpec,
    bs: BlockSize,
    row0: usize,
    m: usize,
    width: usize,
    trailing_cols: usize,
) -> f64 {
    if trailing_cols == 0 {
        return 0.0;
    }
    let strategy = ReductionStrategy::RegisterSerialTransposed;
    let tiles = tile_panel(row0, m - row0, bs.h, bs.w);
    let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
    let plan = plan_tree(&starts, TreeShape::DeviceArity.arity(bs));
    let cbs = col_blocks(row0 + width, row0 + width + trailing_cols, bs.w);
    let scratch = Gpu::new(gpu.clone());
    let charge = |launch: &GridLaunch| {
        (scratch.charge_on(Exec::Sync, launch)).expect("the paper's apply grids fit the device");
    };
    charge(&GridLaunch::apply_qt_h(
        gpu, &tiles, width, &cbs, strategy, 4,
    ));
    for level in &plan.levels {
        let arities = level.iter().map(|g| g.members.len()).collect();
        charge(&GridLaunch::apply_qt_tree(
            gpu, arities, width, &cbs, strategy, 4,
        ));
    }
    scratch.elapsed()
}

/// Modelled seconds for Option A CAQR of an `m x n` matrix: CPU TSQR panels
/// + PCIe round-trips + GPU trailing updates, with panel/update overlap.
pub fn model_caqr_option_a_seconds(
    gpu: &DeviceSpec,
    pcie: &PcieSpec,
    cpu: &CpuSpec,
    m: usize,
    n: usize,
    bs: BlockSize,
) -> f64 {
    let w = bs.w;
    let k = m.min(n);
    let mut total = 0.0;
    let mut pending_update = 0.0;
    let mut c = 0;
    while c < k {
        let width = w.min(k - c);
        let mp = m - c;
        let panel_bytes = (4 * mp * width) as u64;
        let cpu_side = cpu_tsqr_panel_seconds(cpu, mp, width)
            + pcie.transfer_seconds(panel_bytes)   // panel down to the host
            + pcie.transfer_seconds(panel_bytes); // factors back up
        let update = gpu_trailing_seconds(gpu, bs, c, m, width, n - c - width);
        // Overlap the CPU chain with the previous GPU update.
        total += cpu_side.max(pending_update);
        pending_update = update;
        c += width;
    }
    total + pending_update
}

/// Modelled `SGEQRF` GFLOP/s for Option A.
pub fn model_caqr_option_a_gflops(
    gpu: &DeviceSpec,
    pcie: &PcieSpec,
    cpu: &CpuSpec,
    m: usize,
    n: usize,
    bs: BlockSize,
) -> f64 {
    dense::geqrf_flops(m, n) / model_caqr_option_a_seconds(gpu, pcie, cpu, m, n, bs) / 1.0e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DeviceSpec, PcieSpec, CpuSpec, BlockSize) {
        (
            DeviceSpec::c2050(),
            PcieSpec::gen2_x16(),
            CpuSpec::nehalem_8core(),
            BlockSize::c2050_best(),
        )
    }

    #[test]
    fn option_b_wins_for_skinny_matrices() {
        // The paper's §III conclusion: "for this size problem, the latency
        // of transferring data to the CPU will have high adverse impact".
        let (gpu, pcie, cpu, bs) = setup();
        for (m, n) in [(110_592usize, 100usize), (1_000_000, 192), (100_000, 64)] {
            let a = model_caqr_option_a_seconds(&gpu, &pcie, &cpu, m, n, bs);
            let b = crate::QrImpl::Caqr.model_seconds(m, n);
            assert!(b < a, "Option B must beat Option A at {m}x{n}: {b} vs {a}");
        }
    }

    #[test]
    fn option_a_still_beats_plain_magma_on_tall_skinny() {
        // Option A is CAQR-with-CPU-panels: its panels are cache-friendly
        // TSQR, so it should beat MAGMA's cliff-bound BLAS2 panels for very
        // tall matrices even with the same transfer burden.
        let (gpu, pcie, cpu, bs) = setup();
        let a = model_caqr_option_a_gflops(&gpu, &pcie, &cpu, 1_000_000, 192, bs);
        let magma = crate::hybrid::model_hybrid_gflops(
            &gpu,
            &pcie,
            &crate::hybrid::HybridConfig::magma(),
            1_000_000,
            192,
        );
        assert!(a > magma, "Option A {a} vs MAGMA {magma}");
    }

    #[test]
    fn transfer_latency_dominates_small_problems() {
        let (gpu, pcie, cpu, bs) = setup();
        let t = model_caqr_option_a_seconds(&gpu, &pcie, &cpu, 1_000, 192, bs);
        // 12 panels x 2 transfers x >=15 us latency each as a hard floor.
        assert!(t > 12.0 * 2.0 * 15.0e-6, "got {t}");
    }
}
