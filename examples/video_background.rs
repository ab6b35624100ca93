//! Stationary-video background subtraction with Robust PCA (Section VI),
//! end to end on a synthetic surveillance clip: the video matrix goes
//! through the inexact-ALM solver whose singular-value threshold uses the
//! SVD-via-QR pipeline with CAQR on the simulated GPU.
//!
//! Renders an ASCII strip of one frame: observed / recovered background /
//! recovered foreground. Exits non-zero unless the solve converges with a
//! foreground F1 of at least 0.9 and a background PSNR of at least 30 dB.
//! The modelled GPU time it prints covers the whole iteration: the QRs,
//! the PCIe transfers, the GEMMs and the elementwise passes.
//!
//! ```text
//! cargo run --release --example video_background
//! ```

use gpu_sim::{DeviceSpec, Gpu};
use rpca::video::{generate, sparsity, VideoConfig};
use rpca::{rpca, GpuCaqrBackend, RpcaParams};

fn main() {
    // A reduced clip (the paper's full 288x384x100 runs the same code, just
    // longer): 64x48 pixels, 48 frames -> a 3072 x 48 video matrix.
    let cfg = VideoConfig {
        width: 64,
        height: 48,
        frames: 48,
        blobs: 3,
        blob_size: 7,
        foreground_intensity: 0.9,
        noise: 0.005,
        illumination_drift: 0.03,
        seed: 99,
    };
    println!(
        "synthetic clip: {}x{} pixels, {} frames -> video matrix {} x {}",
        cfg.width,
        cfg.height,
        cfg.frames,
        cfg.pixels(),
        cfg.frames
    );
    let video = generate::<f64>(&cfg);

    let gpu = Gpu::new(DeviceSpec::gtx480());
    let backend = GpuCaqrBackend {
        gpu: &gpu,
        opts: caqr::CaqrOptions::default(),
    };

    let t0 = std::time::Instant::now();
    let result = rpca(
        &backend,
        &video.matrix,
        &RpcaParams {
            tol: 1e-5,
            ..Default::default()
        },
    )
    .expect("rpca solve failed");
    println!(
        "solved in {} iterations (converged={}, rank(L)={}, residual={:.1e}) — wall {:.2}s, modelled GPU {:.1} ms",
        result.iterations,
        result.converged,
        result.rank,
        result.residual,
        t0.elapsed().as_secs_f64(),
        gpu.elapsed() * 1e3
    );
    println!(
        "foreground sparsity: {:.1}%",
        100.0 * sparsity(&result.s, 0.3)
    );
    let det = rpca::foreground_detection(&result.s, &video.foreground, 0.3, 0.5);
    let psnr = rpca::psnr(&result.l, &video.background, 1.0);
    println!(
        "foreground detection: precision {:.2}  recall {:.2}  F1 {:.2};  background PSNR {:.1} dB",
        det.precision, det.recall, det.f1, psnr
    );
    assert!(result.converged, "rpca did not converge");
    assert!(det.f1 >= 0.9, "foreground F1 {:.3} below 0.9", det.f1);
    assert!(psnr >= 30.0, "background PSNR {psnr:.1} dB below 30 dB");

    // ASCII render of frame `f`: observed | background | foreground.
    let f = cfg.frames / 2;
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let render = |get: &dyn Fn(usize) -> f64| -> Vec<String> {
        (0..cfg.height)
            .step_by(2) // halve vertical resolution for terminal aspect
            .map(|y| {
                (0..cfg.width)
                    .map(|x| {
                        let v = get(y * cfg.width + x).clamp(0.0, 1.0);
                        shades[(v * (shades.len() - 1) as f64).round() as usize]
                    })
                    .collect()
            })
            .collect()
    };
    let obs = render(&|i| video.matrix[(i, f)]);
    let bg = render(&|i| result.l[(i, f)]);
    let fg = render(&|i| result.s[(i, f)].abs());
    println!(
        "\n{:<66}{:<66}{:<66}",
        "observed frame", "recovered background", "recovered foreground"
    );
    for ((o, b), s) in obs.iter().zip(&bg).zip(&fg) {
        println!("{o}  {b}  {s}");
    }

    println!(
        "\nTable II context: at the paper's full 110,592 x 100 scale the modelled \
         rates are {:.1} it/s (CAQR), {:.1} it/s (BLAS2 QR), {:.1} it/s (CPU MKL SVD).",
        rpca::model_iterations_per_second(rpca::RpcaImpl::CaqrGpu),
        rpca::model_iterations_per_second(rpca::RpcaImpl::Blas2GpuQr),
        rpca::model_iterations_per_second(rpca::RpcaImpl::MklSvdCpu),
    );

    // Write the separated frame as viewable PGM images.
    let out = std::env::temp_dir().join("caqr_video");
    std::fs::create_dir_all(&out).expect("create output dir");
    let write_pgm = |name: &str, get: &dyn Fn(usize) -> f64| {
        let path = out.join(name);
        let mut data = format!("P2\n{} {}\n255\n", cfg.width, cfg.height);
        for y in 0..cfg.height {
            for x in 0..cfg.width {
                let v = (get(y * cfg.width + x).clamp(0.0, 1.0) * 255.0).round() as u8;
                data.push_str(&format!("{v} "));
            }
            data.push('\n');
        }
        std::fs::write(&path, data).expect("write pgm");
        path
    };
    let p1 = write_pgm("observed.pgm", &|i| video.matrix[(i, f)]);
    let p2 = write_pgm("background.pgm", &|i| result.l[(i, f)]);
    let p3 = write_pgm("foreground.pgm", &|i| result.s[(i, f)].abs());
    println!(
        "\nwrote {} , {} , {}",
        p1.display(),
        p2.display(),
        p3.display()
    );
}
