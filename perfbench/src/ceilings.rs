//! Host ceilings measured in the same process as the traced run: the
//! square-gemm rate and the streaming read bandwidth every kernel layer is
//! placed against.

use crate::report::median;
use dense::blas3::{gemm, Trans};
use std::hint::black_box;
use std::time::Instant;

/// Host ceilings.
#[derive(Clone, Copy, Debug)]
pub struct Ceilings {
    pub gemm_gflops: f64,
    pub stream_gbs: f64,
}

impl Ceilings {
    pub fn measure() -> Ceilings {
        Ceilings {
            gemm_gflops: gemm_gflops(),
            stream_gbs: stream_gbs(),
        }
    }

    /// Achieved rate over the roofline bound `min(gemm, intensity x
    /// stream)` for a layer that did `flops` over `bytes` in `secs`.
    pub fn roofline_share(&self, flops: f64, bytes: f64, secs: f64) -> f64 {
        if flops == 0.0 || secs == 0.0 {
            return 0.0;
        }
        let bound = self.gemm_gflops.min(flops / bytes * self.stream_gbs);
        flops / secs / 1e9 / bound
    }
}

/// Median rate of `dense::blas3::gemm` on 256^3 f64, the shape the
/// repository's kernel benches use.
fn gemm_gflops() -> f64 {
    const N: usize = 256;
    let a = dense::generate::uniform::<f64>(N, N, 1);
    let b = dense::generate::uniform::<f64>(N, N, 2);
    let mut c = dense::Matrix::<f64>::zeros(N, N);
    let flops = 2.0 * (N * N * N) as f64;
    let rates: Vec<f64> = (0..205)
        .map(|_| {
            let t0 = Instant::now();
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                black_box(&a).as_ref(),
                black_box(&b).as_ref(),
                0.0,
                c.as_mut(),
            );
            black_box(&c);
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(rates[5..].to_vec())
}

/// Size of the streamed array: 512 MiB, above the 300 MiB L3 the host
/// reports, so the passes run from DRAM.
const STREAM_BYTES: usize = 512 << 20;

/// Median read bandwidth of a parallel sum over a DRAM-sized array, one
/// contiguous chunk per available core (the split the kernels' parallel
/// regions use).
fn stream_gbs() -> f64 {
    let n = STREAM_BYTES / 8;
    let data: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let chunk = n.div_ceil(threads);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let total: f64 = std::thread::scope(|s| {
                let parts: Vec<_> = data
                    .chunks(chunk)
                    .map(|c| s.spawn(move || lane_sum(black_box(c))))
                    .collect();
                parts
                    .into_iter()
                    .map(|p| p.join().expect("stream worker panicked"))
                    .sum()
            });
            black_box(total);
            STREAM_BYTES as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(rates)
}

/// Sum with eight independent accumulators, so the loop is bound by loads
/// rather than by the latency of one serial add chain.
fn lane_sum(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut blocks = x.chunks_exact(8);
    for b in &mut blocks {
        for (a, v) in acc.iter_mut().zip(b) {
            *a += v;
        }
    }
    acc.iter().sum::<f64>() + blocks.remainder().iter().sum::<f64>()
}
