//! # baselines — the QR implementations the paper compares against
//!
//! Performance models (and, for the CPU path, instrumented real executions)
//! of the four comparison points in Section V:
//!
//! * [`mkl`] — Intel MKL-class multithreaded blocked Householder on the
//!   8-core Nehalem host, plus the `SGESDD` SVD cost for Table II,
//! * [`hybrid`] — MAGMA (CPU panel + GPU update with lookahead overlap) and
//!   CULA/Volkov (same without overlap),
//! * [`blas2gpu`] — the authors' own pre-CAQR bandwidth-bound BLAS2 GPU QR,
//!   the middle row of Table II,
//! * [`panel`] — the shared cache-aware CPU panel cost model.
//!
//! [`QrImpl`] wraps them (together with CAQR itself) behind one enum so the
//! figure harnesses can sweep all implementations uniformly.

#![warn(missing_docs)]

pub mod blas2gpu;
pub mod hybrid;
pub mod mkl;
pub mod option_a;
pub mod panel;

use caqr::{CaqrOptions, Mode, Modelled, SimBackend};
use gpu_sim::{CpuSpec, DeviceSpec, Gpu, PcieSpec};

/// The implementations compared in Figures 8/9 and Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QrImpl {
    /// This paper's CAQR on the C2050 (the `caqr` crate's cost model).
    Caqr,
    /// MAGMA 1.0 hybrid blocked Householder on C2050 + host.
    Magma,
    /// CULA (Volkov-style) blocked Householder on C2050 + host.
    Cula,
    /// Intel MKL on the 8-core Nehalem host.
    Mkl,
}

impl QrImpl {
    /// All four, in the paper's table order.
    pub const ALL: [QrImpl; 4] = [QrImpl::Caqr, QrImpl::Magma, QrImpl::Cula, QrImpl::Mkl];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            QrImpl::Caqr => "CAQR (C2050)",
            QrImpl::Magma => "MAGMA (C2050)",
            QrImpl::Cula => "CULA (C2050)",
            QrImpl::Mkl => "MKL (8 cores)",
        }
    }

    /// Modelled seconds for `SGEQRF` of an `m x n` single-precision matrix
    /// (GPU-resident input for the GPU implementations, as in the paper).
    pub fn model_seconds(self, m: usize, n: usize) -> f64 {
        match self {
            QrImpl::Caqr => {
                let gpu = Gpu::new(DeviceSpec::c2050());
                let cfg = CaqrOptions::default().drive_config();
                (SimBackend::sync(&gpu).model(m, n, &cfg, Modelled::Factor(Mode::Sync)))
                    .expect("CAQR model launch failed")
                    .0
            }
            QrImpl::Magma => hybrid::model_hybrid_seconds(
                &DeviceSpec::c2050(),
                &PcieSpec::gen2_x16(),
                &hybrid::HybridConfig::magma(),
                m,
                n,
            ),
            QrImpl::Cula => hybrid::model_hybrid_seconds(
                &DeviceSpec::c2050(),
                &PcieSpec::gen2_x16(),
                &hybrid::HybridConfig::cula(),
                m,
                n,
            ),
            QrImpl::Mkl => mkl::model_mkl_geqrf_seconds(&CpuSpec::nehalem_8core(), m, n),
        }
    }

    /// Modelled `SGEQRF` GFLOP/s.
    pub fn model_gflops(self, m: usize, n: usize) -> f64 {
        dense::geqrf_flops(m, n) / self.model_seconds(m, n) / 1.0e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ordering_holds_at_1m_x_192() {
        // Paper: CAQR 195 >> MKL 16.5 > MAGMA 11.4 > CULA 7.79.
        let g: Vec<f64> = QrImpl::ALL
            .iter()
            .map(|i| i.model_gflops(1_000_000, 192))
            .collect();
        let (caqr_g, magma, cula, mkl) = (g[0], g[1], g[2], g[3]);
        assert!(caqr_g > 4.0 * mkl, "CAQR {caqr_g} must dominate MKL {mkl}");
        assert!(
            caqr_g > 8.0 * cula,
            "CAQR {caqr_g} must dominate CULA {cula}"
        );
        assert!(mkl > magma, "paper has MKL {mkl} above MAGMA {magma} at 1M");
        assert!(magma > cula, "MAGMA {magma} above CULA {cula}");
    }

    #[test]
    fn speedup_at_1m_x_192_is_order_ten_to_twenty() {
        // "we saw speedups of up to 17x over GPU linear algebra libraries
        // and 12x vs MKL".
        let caqr_g = QrImpl::Caqr.model_gflops(1_000_000, 192);
        let cula = QrImpl::Cula.model_gflops(1_000_000, 192);
        let mkl = QrImpl::Mkl.model_gflops(1_000_000, 192);
        let vs_gpu = caqr_g / cula;
        let vs_mkl = caqr_g / mkl;
        assert!(vs_gpu > 8.0 && vs_gpu < 40.0, "CAQR/CULA speedup {vs_gpu}");
        assert!(vs_mkl > 6.0 && vs_mkl < 25.0, "CAQR/MKL speedup {vs_mkl}");
    }

    #[test]
    fn crossover_near_4000_columns_at_height_8192() {
        // Figure 9: "The crossover point, where CAQR becomes slower than the
        // best GPU libraries, is around 4000 columns wide."
        let best_lib = |n: usize| {
            QrImpl::ALL[1..]
                .iter()
                .map(|i| i.model_gflops(8192, n))
                .fold(0.0, f64::max)
        };
        let caqr_wins_at_1024 = QrImpl::Caqr.model_gflops(8192, 1024) > best_lib(1024);
        let libs_win_at_8192 = QrImpl::Caqr.model_gflops(8192, 8192) < best_lib(8192);
        assert!(caqr_wins_at_1024, "CAQR must win at 1024 columns");
        assert!(libs_win_at_8192, "libraries must win at 8192 columns");
        // Locate the crossover: somewhere between 1.5k and 8k.
        let mut crossover = None;
        for n in [1024, 1536, 2048, 3072, 4096, 6144, 8192] {
            if QrImpl::Caqr.model_gflops(8192, n) < best_lib(n) {
                crossover = Some(n);
                break;
            }
        }
        let c = crossover.expect("no crossover found");
        assert!((1536..=8192).contains(&c), "crossover at {c} columns");
    }

    #[test]
    fn gpu_impls_beat_cpu_for_square() {
        let magma = QrImpl::Magma.model_gflops(8192, 8192);
        let mkl = QrImpl::Mkl.model_gflops(8192, 8192);
        assert!(magma > 3.0 * mkl);
    }
}
