//! Figure 9: `SGEQRF` GFLOP/s vs matrix width at fixed height 8192 for
//! CAQR, MAGMA, CULA and MKL. The paper's crossover — where the blocked-
//! Householder libraries overtake CAQR — sits near 4000 columns.
//!
//! With `--explicit-q`, also reports the modelled `SORGQR` (explicit-Q
//! retrieval) time for CAQR, which Section V-C observes is "just as
//! efficient as factoring the matrix".
//!
//! ```text
//! cargo run -p caqr-bench --release --bin fig9_width_sweep [-- --csv] [-- --explicit-q]
//! ```

use baselines::QrImpl;
use caqr::{CaqrOptions, Mode, Modelled, SimBackend};
use caqr_bench::{gf, Table};
use gpu_sim::{DeviceSpec, Gpu};

const HEIGHT: usize = 8192;

fn main() {
    let widths = [
        64usize, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
    ];
    let mut table = Table::new(&[
        "width", "CAQR", "CAQR s=4", "MAGMA", "CULA", "MKL", "winner",
    ]);
    let mut crossover: Option<usize> = None;
    let cfg = CaqrOptions::default().drive_config();
    for n in widths {
        let g: Vec<f64> = QrImpl::ALL
            .iter()
            .map(|i| i.model_gflops(HEIGHT, n))
            .collect();
        let gpu = Gpu::new(DeviceSpec::c2050());
        let lookahead = Modelled::Factor(Mode::Dag { lookahead: true });
        let (dag_s, _) = (SimBackend::streams(&gpu, 4).unwrap())
            .model(HEIGHT, n, &cfg, lookahead)
            .unwrap();
        let dag = dense::geqrf_flops(HEIGHT, n) / dag_s / 1.0e9;
        let best_lib = g[1..].iter().cloned().fold(0.0, f64::max);
        let winner = if g[0] >= best_lib { "CAQR" } else { "library" };
        if g[0] < best_lib && crossover.is_none() {
            crossover = Some(n);
        }
        table.row(vec![
            n.to_string(),
            gf(g[0]),
            gf(dag),
            gf(g[1]),
            gf(g[2]),
            gf(g[3]),
            winner.to_string(),
        ]);
    }
    table.emit("Figure 9: SGEQRF GFLOP/s vs width, height = 8192 (modelled)");
    match crossover {
        Some(n) => println!("\ncrossover: libraries overtake CAQR at ~{n} columns (paper: ~4000)"),
        None => println!("\nno crossover found in the swept range"),
    }

    if std::env::args().any(|a| a == "--explicit-q") {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let sim = SimBackend::sync(&gpu);
        let mut t2 = Table::new(&["width", "factor ms", "explicit-Q ms", "ratio"]);
        for n in [64usize, 192, 512, 1024, 2048] {
            let (f, _) = sim
                .model(HEIGHT, n, &cfg, Modelled::Factor(Mode::Sync))
                .unwrap();
            let (q, _) = sim
                .model(HEIGHT, n, &cfg, Modelled::GenerateQ { nc: n })
                .unwrap();
            t2.row(vec![
                n.to_string(),
                format!("{:.2}", f * 1e3),
                format!("{:.2}", q * 1e3),
                format!("{:.2}", q / f),
            ]);
        }
        t2.emit("Section V-C: SORGQR (explicit Q) vs factorization, height = 8192");
    }
}
