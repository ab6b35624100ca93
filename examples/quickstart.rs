//! Quickstart: factor a tall-skinny matrix with CAQR on the simulated
//! C2050, check the result, and inspect the modelled GPU timeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use caqr::{drive, CaqrOptions, Mode, SimBackend};
use dense::norms::{orthogonality_error, reconstruction_error};
use gpu_sim::{DeviceSpec, Gpu};

fn main() {
    // A 16384 x 64 single-precision matrix — the tall-skinny regime the
    // paper targets (least squares, Krylov bases, video processing).
    let (m, n) = (16_384usize, 64usize);
    let a = dense::generate::uniform::<f32>(m, n, 42);

    // The simulated GPU: kernels do the real arithmetic in parallel on the
    // host while the device model accounts modelled time.
    let gpu = Gpu::new(DeviceSpec::c2050());

    // Factor with the paper's shipping configuration (128x16 blocks,
    // register-file serial reductions with pre-transposed panels) on the
    // synchronous executor, then form the explicit Q on it too.
    let sim = SimBackend::sync(&gpu);
    let cfg = CaqrOptions::default().drive_config();
    let t0 = std::time::Instant::now();
    let f = drive(&sim, a.clone(), &cfg, Mode::Sync).expect("factorization failed");
    let q = f.generate_q_on(&sim, n).expect("forming Q failed");
    let r = f.r();
    let wall = t0.elapsed();

    println!("factored {}x{} with CAQR", m, n);
    println!(
        "  reconstruction  ||A - QR|| / ||A|| = {:.2e}",
        reconstruction_error(&a, &q, &r)
    );
    println!(
        "  orthogonality   ||Q^T Q - I||      = {:.2e}",
        orthogonality_error(&q)
    );
    let mut upper = true;
    for j in 0..r.cols() {
        for i in j + 1..r.rows() {
            upper &= r[(i, j)] == 0.0;
        }
    }
    println!(
        "  R is {}x{}, upper triangular: {}",
        r.rows(),
        r.cols(),
        upper
    );

    let ledger = gpu.ledger();
    println!(
        "\nmodelled C2050 timeline ({} kernel launches):",
        ledger.calls
    );
    print!("{}", ledger.summary());
    println!(
        "modelled SGEQRF rate: {:.1} GFLOP/s   (host wall-clock for the real arithmetic: {:.1} ms)",
        dense::geqrf_flops(m, n) / ledger.seconds / 1e9,
        wall.as_secs_f64() * 1e3
    );
}
