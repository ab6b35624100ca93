//! Overlap ablation: stream-scheduled CAQR (DAG + lookahead) against the
//! synchronous Figure-4 loop on the Table I tall-skinny shapes, sweeping the
//! stream count and toggling lookahead. The numerics are bit-identical
//! across every row (see `tests/stream_scheduling.rs`); only the modelled
//! schedule changes, so the deltas isolate what kernel overlap buys.
//!
//! With `--trace <file>`, also writes the Chrome `trace_event` JSON of the
//! best configuration's 100k x 192 schedule (open in `chrome://tracing` or
//! Perfetto).
//!
//! ```text
//! cargo run -p caqr-bench --release --bin overlap_ablation [-- --csv] [-- --trace trace.json]
//! ```

use baselines::QrImpl;
use caqr::{CaqrOptions, Mode, Modelled, SimBackend};
use caqr_bench::Table;
use gpu_sim::{DeviceSpec, Gpu, Timeline};

const WIDTH: usize = 192;

/// Modelled makespan and timeline of the `m x WIDTH` stream DAG.
fn dag(m: usize, streams: usize, lookahead: bool) -> (f64, Timeline) {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let cfg = CaqrOptions::default().drive_config();
    let what = Modelled::Factor(Mode::Dag { lookahead });
    let sim = SimBackend::streams(&gpu, streams).unwrap();
    sim.model(m, WIDTH, &cfg, what).unwrap()
}

fn main() {
    let heights = [1_000usize, 10_000, 100_000, 1_000_000];

    let mut table = Table::new(&[
        "height",
        "sync ms",
        "s=1 barrier",
        "s=4 barrier",
        "s=2 lookahead",
        "s=4 lookahead",
        "best speedup",
    ]);
    let mut best_overall: Option<(usize, bool, f64)> = None;
    for m in heights {
        let sync = QrImpl::Caqr.model_seconds(m, WIDTH);
        let cases = [(1usize, false), (4, false), (2, true), (4, true)];
        let times: Vec<f64> = cases.iter().map(|&(s, la)| dag(m, s, la).0).collect();
        let (bi, bt) = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let speedup = sync / bt;
        if best_overall.is_none_or(|(_, _, sp)| speedup > sp) {
            best_overall = Some((cases[bi].0, cases[bi].1, speedup));
        }
        let ms = |t: f64| format!("{:.3}", t * 1e3);
        table.row(vec![
            m.to_string(),
            ms(sync),
            ms(times[0]),
            ms(times[1]),
            ms(times[2]),
            ms(times[3]),
            format!("{speedup:.3}x"),
        ]);
    }
    table.emit(&format!(
        "Overlap ablation: modelled CAQR time, n = {WIDTH} (sync loop vs stream DAG)"
    ));
    let (bs, bla, bsp) = best_overall.unwrap();
    println!(
        "\nbest schedule: {bs} streams, lookahead={bla} ({bsp:.3}x over the synchronous loop); \
         1 stream without lookahead reproduces the synchronous time exactly"
    );

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            let path = args.next().expect("--trace needs a file path");
            let streams = 4;
            let (_, tl) = dag(100_000, streams, true);
            std::fs::write(&path, tl.to_chrome_trace()).expect("write trace file");
            println!(
                "wrote {} intervals ({streams} streams, makespan {:.3} ms) to {path}",
                tl.intervals.len(),
                tl.makespan * 1e3
            );
        }
    }
}
