//! Figure 8: speedup of CAQR over each library's `SGEQRF` across a grid of
//! matrix shapes — skinny matrices on the left, square on the right, with a
//! crossover "to the right of which the libraries outperform our QR".
//!
//! The sweep covers heights 2^13..2^20 and widths 2^6..height (capped so a
//! point stays under ~2^26 elements, matching a 256 MB single-precision
//! GPU allocation).
//!
//! The `streams` column reports the stream-scheduled DAG (4 streams,
//! lookahead) relative to the synchronous CAQR loop at the same shape.
//!
//! ```text
//! cargo run -p caqr-bench --release --bin fig8_speedup [-- --csv]
//! ```

use baselines::QrImpl;
use caqr::{CaqrOptions, Mode, Modelled, SimBackend};
use caqr_bench::Table;
use gpu_sim::{DeviceSpec, Gpu};

fn main() {
    let heights = [8192usize, 16384, 65536, 262_144, 1_048_576];
    let widths = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192];
    let max_elems = 1usize << 26;

    let mut table = Table::new(&[
        "height",
        "width",
        "vs MAGMA",
        "vs CULA",
        "vs MKL",
        "streams",
        "CAQR wins",
    ]);
    let mut wins_skinny = 0;
    let mut total_skinny = 0;
    let cfg = CaqrOptions::default().drive_config();
    for m in heights {
        for n in widths {
            if n > m || m * n > max_elems {
                continue;
            }
            let caqr_s = QrImpl::Caqr.model_seconds(m, n);
            let su = |i: QrImpl| i.model_seconds(m, n) / caqr_s;
            let (sm, sc, sk) = (su(QrImpl::Magma), su(QrImpl::Cula), su(QrImpl::Mkl));
            let gpu = Gpu::new(DeviceSpec::c2050());
            let lookahead = Modelled::Factor(Mode::Dag { lookahead: true });
            let (dag_s, _) = (SimBackend::streams(&gpu, 4).unwrap())
                .model(m, n, &cfg, lookahead)
                .unwrap();
            let wins = sm > 1.0 && sc > 1.0;
            if m / n >= 64 {
                total_skinny += 1;
                if wins {
                    wins_skinny += 1;
                }
            }
            table.row(vec![
                m.to_string(),
                n.to_string(),
                format!("{sm:.1}x"),
                format!("{sc:.1}x"),
                format!("{sk:.1}x"),
                format!("{:.2}x", caqr_s / dag_s),
                if wins { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    table.emit("Figure 8: CAQR speedup vs each library's SGEQRF (modelled)");
    println!(
        "\nCAQR beats both GPU libraries on {wins_skinny}/{total_skinny} shapes with aspect ratio >= 64 \
         (paper: CAQR wins everywhere left of the dashed crossover)"
    );
}
