//! Measured block-size autotuning of the host CAQR factor path.
//!
//! Sweeps the candidate grid of `caqr::tuning::measured_grid` with real
//! wall-clock (`caqr_cpu`, f64), prints the measured surface, and persists
//! the profile to `target/caqr_tuned.json`. Nothing reads that file unless
//! asked to: `wallclock_report --profile target/caqr_tuned.json` blocks its
//! `caqr_cpu` rows from it, and a library caller passes the loaded profile
//! to `CpuCaqrOptions::from_measured`.
//!
//! `--quick` calibrates on a small shape with one repetition — the CI smoke
//! configuration. The default run uses the paper-scale 65536x16 panel.

use caqr::tuning::{autotune_measured, MeasuredProfile};
use gpu_sim::DeviceSpec;

/// Where the profile is written.
const PROFILE_PATH: &str = "target/caqr_tuned.json";

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (m, n, reps) = if quick { (8192, 16, 1) } else { (65536, 16, 3) };
    let spec = DeviceSpec::c2050();

    eprintln!("calibrating caqr_cpu on {m}x{n} (best of {reps})...");
    let mut profile = autotune_measured(&spec, m, n, reps);
    // A second sweep at half width keeps narrow-panel callers tuned too.
    let narrow = autotune_measured(&spec, m, n / 2, reps);
    profile
        .points
        .extend(narrow.points.iter().filter(|p| p.bs.w <= n / 2));

    println!("{:>6} {:>6} {:>9}", "h", "w", "GFLOP/s");
    for p in &profile.points {
        println!("{:>6} {:>6} {:>9.3}", p.bs.h, p.bs.w, p.gflops);
    }
    for w in [n / 2, n] {
        if let Some(best) = profile.best_for_width(w) {
            println!(
                "best w={w}: {}x{} at {:.3} GFLOP/s",
                best.bs.h, best.bs.w, best.gflops
            );
        }
    }

    let path = std::path::Path::new(PROFILE_PATH);
    profile.save(path).expect("persist tuned profile");
    // Round-trip through `load`, which rejects profiles whose SIMD backend
    // or kernel generation doesn't match this process — proving the file
    // just written carries the tags that will keep it valid (and that a
    // later kernel bump or different machine will retire it).
    let back = MeasuredProfile::load(path)
        .expect("freshly saved profile must reload under the current backend/kernel tags");
    assert_eq!(back.backend, dense::simd::active().name());
    assert_eq!(back.kernel_version, dense::simd::KERNEL_VERSION);
    println!(
        "wrote {} (backend {}, kernel generation {})",
        path.display(),
        back.backend,
        back.kernel_version
    );
}
