//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Reduction-tree shape** (§II-B): the GPU wants the highest-arity tree
//!    the block size allows (fewest dependent launches); binomial trees —
//!    the multicore choice — pay a launch per extra level.
//! 2. **Kernel strategy on the full factorization** (§IV-E): the 55->388
//!    GFLOPS kernel progression seen end-to-end.
//! 3. **Communication volume** (the "communication-avoiding" in CAQR):
//!    DRAM passes over the matrix for CAQR vs the BLAS2 QR, against the
//!    Demmel et al. bandwidth lower bound of `caqr::bounds`.
//! 4. **Launch-overhead / bandwidth sensitivity**: which machine parameter
//!    governs which regime of Table I.
//!
//! ```text
//! cargo run -p caqr-bench --release --bin ablations [-- --csv]
//! ```

use baselines::QrImpl;
use caqr::{
    bounds, BlockSize, CaqrError, CaqrOptions, Mode, Modelled, ReductionStrategy, SimBackend,
    TreeShape,
};
use caqr_bench::{gf, Table};
use gpu_sim::{DeviceSpec, Gpu};

/// Modelled SGEQRF GFLOP/s of CAQR on an `m x n` matrix on `gpu`.
fn gflops(gpu: &Gpu, m: usize, n: usize, opts: CaqrOptions) -> Result<f64, CaqrError> {
    let factor = Modelled::Factor(Mode::Sync);
    let (secs, _) = SimBackend::sync(gpu).model(m, n, &opts.drive_config(), factor)?;
    Ok(dense::geqrf_flops(m, n) / secs / 1.0e9)
}

fn main() {
    tree_shape();
    strategy_end_to_end();
    communication();
    sensitivity();
    mapping_options();
}

fn tree_shape() {
    let shapes: [(&str, TreeShape); 4] = [
        ("device (8-ary)", TreeShape::DeviceArity),
        ("quad", TreeShape::Arity(4)),
        ("binomial", TreeShape::Binomial),
        ("flat", TreeShape::Flat),
    ];
    let mut table = Table::new(&["matrix", "device (8-ary)", "quad", "binomial", "flat"]);
    for m in [10_000usize, 100_000, 1_000_000] {
        let mut row = vec![format!("{m} x 192")];
        for &(_, tree) in &shapes {
            let gpu = Gpu::new(DeviceSpec::c2050());
            let opts = CaqrOptions {
                tree,
                ..CaqrOptions::default()
            };
            match gflops(&gpu, m, 192, opts) {
                Ok(g) => row.push(gf(g)),
                Err(_) => row.push("launch fails".into()),
            }
        }
        table.row(row);
    }
    table.emit("Ablation 1: reduction-tree shape (modelled SGEQRF GFLOP/s, C2050)");
    println!(
        "\nThe device-arity tree wins on the GPU (fewest dependent launches);\n\
         binomial — the multicore choice of [10] — pays log2 vs log8 levels.\n\
         The flat tree stacks every panel's R factors into one block whose\n\
         staged U overflows shared memory — the launch fails, exactly the\n\
         constraint that makes reduction trees necessary."
    );
}

fn strategy_end_to_end() {
    let mut table = Table::new(&[
        "strategy",
        "kernel GFLOP/s",
        "full CAQR GFLOP/s (100k x 192)",
    ]);
    let spec = DeviceSpec::c2050();
    for s in ReductionStrategy::ALL {
        let kernel = caqr::microkernels::apply_qt_h_block_gflops(&spec, BlockSize::c2050_best(), s);
        let gpu = Gpu::new(spec.clone());
        let opts = CaqrOptions {
            strategy: s,
            ..CaqrOptions::default()
        };
        let full = gflops(&gpu, 100_000, 192, opts).unwrap();
        table.row(vec![s.to_string(), gf(kernel), gf(full)]);
    }
    table.emit("Ablation 2: tuning strategy, kernel-level vs end-to-end");
}

fn communication() {
    let mut table = Table::new(&[
        "matrix",
        "CAQR passes",
        "BLAS2 QR passes",
        "lower bound",
        "CAQR/bound",
        "BLAS2/bound",
    ]);
    for m in [50_000usize, 200_000, 1_000_000] {
        let n = 192usize;
        let words = m as f64 * n as f64;
        // CAQR: read the modelled DRAM traffic off the ledger.
        let gpu = Gpu::new(DeviceSpec::c2050());
        gflops(&gpu, m, n, CaqrOptions::default()).unwrap();
        let caqr_passes = gpu.ledger().dram_bytes / 4.0 / words;
        let blas2_passes = bounds::blas2_qr_words(m, n) / words;
        let bound = bounds::qr_bandwidth_lower_bound_words(m, n, bounds::BLOCK_FAST_WORDS) / words;
        table.row(vec![
            format!("{m} x {n}"),
            format!("{caqr_passes:.1}"),
            format!("{blas2_passes:.1}"),
            format!("{bound:.2}"),
            format!("{:.1}x", caqr_passes / bound),
            format!("{:.0}x", blas2_passes / bound),
        ]);
    }
    table.emit("Ablation 3: DRAM passes over the matrix (communication volume)");
    println!(
        "\nThe bound is Demmel et al.'s W = max(mn, mn^2/sqrt(M)) words with M the\n\
         6,656 words one thread block commands (caqr::bounds). CAQR's traffic\n\
         is shape-independent and about 10x the bound; the BLAS2 algorithm,\n\
         which re-streams the trailing matrix per reflector (~3n/2 passes at\n\
         n = 192), sits over 120x above it. CAQR's remaining gap tracks\n\
         sqrt(M)/w: its 16-column panel is set by registers, far narrower than\n\
         sqrt(M) = 82."
    );
}

fn mapping_options() {
    // Section III: Option A (CPU TSQR panels + GPU trailing updates) vs
    // Option B (everything on the GPU, the paper's choice).
    use baselines::option_a::model_caqr_option_a_gflops;
    use gpu_sim::{CpuSpec, PcieSpec};
    let gpu = DeviceSpec::c2050();
    let pcie = PcieSpec::gen2_x16();
    let cpu = CpuSpec::nehalem_8core();
    let bs = BlockSize::c2050_best();
    let mut table = Table::new(&["matrix", "Option A (hybrid)", "Option B (all-GPU)", "B/A"]);
    for (m, n) in [
        (1_000usize, 192usize),
        (110_592, 100),
        (1_000_000, 192),
        (8192, 4096),
    ] {
        let a = model_caqr_option_a_gflops(&gpu, &pcie, &cpu, m, n, bs);
        let b = QrImpl::Caqr.model_gflops(m, n);
        table.row(vec![
            format!("{m} x {n}"),
            gf(a),
            gf(b),
            format!("{:.2}x", b / a),
        ]);
    }
    table.emit("Ablation 5: Section III mapping — CPU-panel hybrid vs all-GPU CAQR");
    println!(
        "\nOption B (the paper's choice) wins wherever panels are a large\n\
         fraction of the work — exactly the tall-skinny regime; the PCIe\n\
         round-trip per panel is the Option A tax."
    );
}

fn sensitivity() {
    let mut table = Table::new(&["variant", "1k x 192", "100k x 192", "1M x 192"]);
    let variants: Vec<(&str, DeviceSpec)> = vec![
        ("baseline C2050", DeviceSpec::c2050()),
        ("launch overhead 5 us", {
            let mut s = DeviceSpec::c2050();
            s.launch_overhead_us = 5.0;
            s
        }),
        ("launch overhead 100 us", {
            let mut s = DeviceSpec::c2050();
            s.launch_overhead_us = 100.0;
            s
        }),
        ("2x DRAM bandwidth", {
            let mut s = DeviceSpec::c2050();
            s.dram_bw_gbs *= 2.0;
            s
        }),
        ("2x SM count", {
            let mut s = DeviceSpec::c2050();
            s.sms *= 2;
            s
        }),
    ];
    for (name, spec) in variants {
        let mut row = vec![name.to_string()];
        for m in [1_000usize, 100_000, 1_000_000] {
            let gpu = Gpu::new(spec.clone());
            row.push(gf(gflops(&gpu, m, 192, CaqrOptions::default()).unwrap()));
        }
        table.row(row);
    }
    table.emit("Ablation 4: machine-parameter sensitivity of CAQR (GFLOP/s)");
    println!(
        "\nSmall matrices are launch-overhead-bound (the 1k column moves with\n\
         overhead and barely with bandwidth); large matrices are compute-bound\n\
         (they scale with SM count, not bandwidth) — the paper's compute-bound\n\
         kernels claim."
    );
}
