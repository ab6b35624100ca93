//! Factor a tall-skinny matrix on 4 streams with lookahead, print the
//! residual against the synchronous loop and the resolved schedule, and
//! dump a Chrome trace next to the binary's working directory. Exits
//! non-zero if the streamed factorization is not bit-identical to the
//! synchronous one, so CI can run it as a gate.
//!
//! ```text
//! cargo run -p caqr-repro --release --example stream_overlap
//! ```

use caqr::{drive, CaqrOptions, Mode, SimBackend};
use gpu_sim::{DeviceSpec, Gpu};

fn main() {
    let (m, n) = (4096, 64);
    let a = dense::generate::uniform::<f32>(m, n, 7);
    let cfg = CaqrOptions::default().drive_config();

    let gs = Gpu::new(DeviceSpec::c2050());
    let sync = drive(&SimBackend::sync(&gs), a.clone(), &cfg, Mode::Sync).unwrap();

    let gd = Gpu::new(DeviceSpec::c2050());
    let streams = SimBackend::streams(&gd, 4).unwrap();
    let f = drive(&streams, a, &cfg, Mode::Dag { lookahead: true }).unwrap();
    let tl = gd.try_synchronize().unwrap();

    let identical = f.a == sync.a;
    println!("{m} x {n} on 4 streams with lookahead:");
    println!("  bit-identical to synchronous loop: {identical}");
    println!(
        "  modelled time: {:.3} ms on {} kernels across {} streams (sync: {:.3} ms)",
        tl.makespan * 1e3,
        tl.intervals.len(),
        1 + tl.intervals.iter().map(|iv| iv.stream).max().unwrap_or(0),
        gs.elapsed() * 1e3,
    );
    std::fs::write("stream_overlap_trace.json", tl.to_chrome_trace()).unwrap();
    println!("  wrote stream_overlap_trace.json (open in chrome://tracing)");
    if !identical {
        eprintln!("stream overlap FAILED: the streamed factorization diverged");
        std::process::exit(1);
    }
}
