//! Fault-injection smoke run: factor the same matrix fault-free and under a
//! seeded plan of launch faults, silent data corruptions and hangs, injected
//! per task by the one fault injector, and verify the recovered run is
//! bit-identical while the ledger shows the absorbed faults. Exits non-zero
//! on any divergence, so CI can run it as a robustness gate.
//!
//! ```text
//! cargo run --release --example fault_smoke
//! ```

use caqr::{drive, drive_recovering, CaqrOptions, FaultPlan, Faulty, Mode, RecoveryPolicy};
use caqr::{ReductionStrategy, SimBackend};
use gpu_sim::{DeviceSpec, Gpu};

fn main() {
    let (m, n) = (32_768usize, 64usize);
    // f64: at this height the f32 checksum tolerance is too soft to catch
    // every SDC (DESIGN.md §10).
    let a = dense::generate::uniform::<f64>(m, n, 7);
    let cfg = CaqrOptions {
        strategy: ReductionStrategy::RegisterSerialTransposed,
        ..CaqrOptions::default()
    }
    .drive_config();

    // Reference: fault-free run.
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = drive(&SimBackend::sync(&clean_gpu), a.clone(), &cfg, Mode::Sync)
        .expect("fault-free run failed");

    // Same factorization under a seeded 10% launch-fault, 5% SDC and 5%
    // hang rate per task (deterministic: the plan is seeded), recovered
    // by the default replay ladder on the 4-stream resilient executor.
    let gpu = Gpu::new(DeviceSpec::c2050());
    let plan = FaultPlan::seeded_mix(2024, 0.10, 0.05, 0.05);
    let backend = Faulty::new(
        SimBackend::resilient(&gpu, 4).expect("4 streams"),
        vec![plan],
    );
    let (faulted, report) = drive_recovering(&backend, a, &cfg, &RecoveryPolicy::default())
        .expect("faulted run unrecoverable");

    let identical = clean.r() == faulted.r();
    let clean_ledger = clean_gpu.ledger();
    let ledger = gpu.ledger();
    let injected = ledger.faults + ledger.hangs + ledger.sdc_injected;
    println!("factored {m}x{n} twice: fault-free and with seeded per-task faults");
    println!(
        "  injected: {} launch faults, {} hangs, {} SDC; recovered by {} task replays, {} run retries",
        ledger.faults, ledger.hangs, ledger.sdc_injected, report.task_replays, report.run_retries
    );
    println!(
        "  modelled time {:.3} ms vs {:.3} ms fault-free ({:+.1}% recovery overhead)",
        ledger.seconds * 1e3,
        clean_ledger.seconds * 1e3,
        (ledger.seconds / clean_ledger.seconds - 1.0) * 100.0
    );
    println!("  R bit-identical across runs: {identical}");

    if !identical || injected == 0 || report.task_replays + report.run_retries == 0 {
        eprintln!("fault smoke FAILED");
        std::process::exit(1);
    }
    println!("fault smoke OK");
}
