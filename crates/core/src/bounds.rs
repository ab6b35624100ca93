//! Communication lower bounds for QR (the theory CAQR is built on —
//! Demmel, Grigori, Hoemmen, Langou, "Communication-optimal parallel and
//! sequential QR and LU factorizations", LAWN 204, the paper's reference
//! \[6\]).
//!
//! For a sequential machine with fast memory of `M` words, any conventional
//! QR of an `m x n` matrix (`m >= n`) must move
//!
//! ```text
//! W = Omega( max( m*n,  m*n^2 / sqrt(M) ) )
//! ```
//!
//! words between fast and slow memory: everything must be touched once, and
//! the classic Hong-Kung style bound kicks in once the panel no longer fits
//! (`n > sqrt(M)`). With `M` = [`BLOCK_FAST_WORDS`], this module's tests
//! check the modelled CAQR ledger against the bound (within a modest
//! constant) and the BLAS2 algorithm's words far above it; Ablation 3
//! (`ablations` bin) prints both ratios.

/// Fast memory one thread block of the shipping configuration commands, in
/// words: its shared-memory allocation (16 KiB of `V` staging and scratch
/// for a 128 x 16 block) plus its 64 threads' 40 registers each — 6,656
/// words. The sequential bound applies per processing element with the
/// fast memory *it* uses: a block cannot block its panel wider than this.
pub const BLOCK_FAST_WORDS: usize = 16 * 1024 / 4 + 40 * crate::kernels::THREADS;

/// Lower bound on words moved between fast and slow memory for a QR of an
/// `m x n` matrix (`m >= n`) with `fast_words` of fast memory.
pub fn qr_bandwidth_lower_bound_words(m: usize, n: usize, fast_words: usize) -> f64 {
    let (mf, nf) = (m as f64, n as f64);
    let touch_everything = mf * nf;
    let hong_kung = mf * nf * nf / (fast_words.max(1) as f64).sqrt();
    touch_everything.max(hong_kung)
}

/// Lower bound on the number of messages (block transfers / kernel-grain
/// communications) with `fast_words` of fast memory: `W / M`.
pub fn qr_latency_lower_bound_messages(m: usize, n: usize, fast_words: usize) -> f64 {
    qr_bandwidth_lower_bound_words(m, n, fast_words) / fast_words.max(1) as f64
}

/// Words a per-reflector BLAS2 Householder QR moves when the trailing
/// matrix does not fit in fast memory: `sum_j 3 (m-j)(n-j) ~ m n^2` — the
/// algorithm the bound separates CAQR from.
pub fn blas2_qr_words(m: usize, n: usize) -> f64 {
    let mut words = 0.0;
    for j in 0..m.min(n) {
        words += 3.0 * (m - j) as f64 * (n - j) as f64;
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaqrOptions, Mode, Modelled, SimBackend};
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn bound_reduces_to_one_pass_for_skinny_panels() {
        // n <= sqrt(M): the panel fits, the bound is just "touch the data".
        let w = qr_bandwidth_lower_bound_words(1_000_000, 16, 64 * 1024);
        assert_eq!(w, 1.0e6 * 16.0);
    }

    #[test]
    fn bound_grows_past_the_fast_memory_knee() {
        let fast = 16 * 1024; // sqrt = 128
        let below = qr_bandwidth_lower_bound_words(100_000, 128, fast);
        let above = qr_bandwidth_lower_bound_words(100_000, 512, fast);
        // Above the knee the per-word cost rises with n.
        assert!((below / (100_000.0 * 128.0) - 1.0).abs() < 1e-12);
        assert!(above / (100_000.0 * 512.0) > 3.9);
    }

    #[test]
    fn caqr_traffic_is_within_a_modest_constant_of_the_bound() {
        let spec = DeviceSpec::c2050();
        let fast = BLOCK_FAST_WORDS;
        // One constant across heights and widths: tall-skinny panels up to
        // a square 8192x8192.
        let shapes = [
            (200_000usize, 192usize),
            (1_000_000, 192),
            (50_000, 64),
            (8192, 512),
            (8192, 2048),
            (8192, 8192),
        ];
        for (m, n) in shapes {
            let gpu = Gpu::new(spec.clone());
            let cfg = CaqrOptions::default().drive_config();
            (SimBackend::sync(&gpu).model(m, n, &cfg, Modelled::Factor(Mode::Sync))).unwrap();
            let moved_words = gpu.ledger().dram_bytes / 4.0;
            let bound = qr_bandwidth_lower_bound_words(m, n, fast);
            let ratio = moved_words / bound;
            println!("({m},{n}): {ratio:.2}x the lower bound");
            assert!(
                ratio < 12.0,
                "({m},{n}): CAQR moves {ratio:.1}x the lower bound — not communication-avoiding"
            );
            assert!(
                ratio >= 1.0,
                "({m},{n}): ledger below the lower bound ({ratio:.2}x)?!"
            );
        }
    }

    #[test]
    fn blas2_qr_violates_the_bound_by_an_order_of_magnitude() {
        let fast = BLOCK_FAST_WORDS;
        let (m, n) = (1_000_000, 192);
        let blas2 = blas2_qr_words(m, n);
        let bound = qr_bandwidth_lower_bound_words(m, n, fast);
        assert!(
            blas2 / bound > 30.0,
            "BLAS2 at only {:.1}x the bound",
            blas2 / bound
        );
    }

    #[test]
    fn latency_bound_is_consistent() {
        let msgs = qr_latency_lower_bound_messages(1_000_000, 192, 44 * 1024);
        let words = qr_bandwidth_lower_bound_words(1_000_000, 192, 44 * 1024);
        assert!((msgs * 44.0 * 1024.0 - words).abs() < 1.0);
    }
}
