//! Wall-clock kernel report: times the real host arithmetic behind each
//! kernel class (packed GEMM, per-reflector larf apply, the in-place
//! compact-WY larfb apply from packed `V`, the pre-transposed factor micro-kernel vs its pre-arena reference,
//! host CAQR factor) and emits `BENCH_kernels.json` with GFLOP/s and arena
//! hit/miss counts per kernel per shape (and minor page faults per
//! factorization on the host CAQR rows), plus a human-readable table.
//!
//! `--quick` shrinks shapes and repetitions for the CI smoke run; without
//! it the shapes match the EXPERIMENTS.md entries.
//! `--profile <path>` blocks the `caqr_cpu_*` rows from a measured profile
//! written by the `autotune` bin (`CpuCaqrOptions::from_measured`); without
//! it every row uses the `CpuCaqrOptions::for_width` heuristic. A named
//! profile that is missing, malformed or stale (another SIMD backend or
//! kernel generation) fails the run (exit 1) instead of falling back.
//! Every `caqr_cpu_*` row records its `tile_rows`, `panel_width` and
//! profile source (`for_width` or the path).
//! `--check-factor <min_gflops>` fails (exit 1) if any `caqr_cpu_factor`
//! row lands below the threshold or any arena-backed kernel still allocates
//! in steady state — the CI regression gate for the factor hot path.

use caqr::block::tile_panel;
use caqr::blockops;
use caqr::tuning::MeasuredProfile;
use caqr::{caqr_cpu, CpuCaqrOptions};
use caqr_bench::Table;
use dense::arena;
use dense::blas3::{gemm, Trans};
use dense::blocked::PackedV;
use dense::matrix::Matrix;
use dense::{MatPtr, PoolScalar};
use std::time::Instant;

struct Entry {
    kernel: &'static str,
    shape: String,
    /// SIMD backend the row was measured on (`dense::Backend::name()`).
    /// GEMM rows are swept over every reachable backend via the dispatch
    /// override; the other kernels record the auto-selected one.
    backend: String,
    seconds: f64,
    gflops: f64,
    /// Arena requests served from the pool during the timed (steady-state)
    /// repetitions.
    arena_hits: u64,
    /// Arena requests that had to allocate during the timed repetitions.
    /// Zero for every arena-backed kernel once the pool is warm — this is
    /// the "no per-launch allocation" evidence.
    arena_misses: u64,
    /// `caqr_cpu_*` rows only (`None` elsewhere).
    host: Option<HostRow>,
}

/// What a `caqr_cpu_*` row ran with, and its page faults.
struct HostRow {
    tile_rows: usize,
    panel_width: usize,
    /// Where the blocking came from: `for_width` or the profile's path.
    profile: String,
    /// Mean process-wide minor page faults per timed factorization, its
    /// drop included, or `None` where `/proc/self/stat` cannot be read.
    /// Memory the allocator hands back to the kernel between runs shows
    /// up here as re-faults.
    minor_faults: Option<f64>,
}

/// The process's minor page-fault count (field 10 of `/proc/self/stat`),
/// or `None` where that file is absent or unreadable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name (which may hold spaces)
    // start at field 3, so field 10 is the eighth of them.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// The auto-selected SIMD backend's name, recorded on every row that is
/// not explicitly swept over backends.
fn active_name() -> String {
    dense::simd::active().name().to_string()
}

/// Stock the global arena pool with one buffer per pool thread, plus one,
/// of every size class up to `max_len` elements. A kernel's parallel
/// tasks draw scratch from the cache of whichever thread runs them, and a
/// thread that ran no task during the warm-up call finds its cache empty;
/// with every class it can draw on the global shelf, the timed
/// repetitions allocate nothing whatever the schedule.
fn prewarm_classes<T: PoolScalar>(max_len: usize) {
    let count = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    // 32 elements is the smallest pooled class.
    let mut len = 32;
    while len < 2 * max_len {
        arena::prewarm::<T>(len, count);
        len *= 2;
    }
}

/// Best-of-`reps` wall-clock of `f`, charged with `flops` useful flops.
/// `max_len` bounds the largest arena buffer `f` draws, in elements. The
/// pool is stocked up to it and `f` is run once untimed; the hit/miss
/// counters then cover exactly the timed repetitions.
fn time_kernel<T: PoolScalar>(
    reps: usize,
    flops: f64,
    max_len: usize,
    mut f: impl FnMut(),
) -> (f64, f64, u64, u64) {
    prewarm_classes::<T>(max_len);
    f(); // warm caches
    arena::reset_stats::<T>();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let s = arena::stats::<T>();
    (best, flops / best / 1e9, s.hits, s.misses)
}

fn bench_gemm(entries: &mut Vec<Entry>, reps: usize, shapes: &[(usize, usize, usize)]) {
    // Sweep every backend this CPU can reach (the dispatch override forces
    // each in turn) so the report records the full SIMD speedup ladder —
    // scalar is the PR-2 baseline every vector row is compared against.
    for backend in dense::Backend::available() {
        dense::simd::set_backend_override(Some(backend));
        for &(m, n, k) in shapes {
            let a = dense::generate::uniform::<f32>(m, k, 1);
            let b = dense::generate::uniform::<f32>(k, n, 2);
            let mut c = Matrix::<f32>::zeros(m, n);
            // The largest of a task's C block (at most m x n) and its
            // packed A and B panels (at most `(m or n) + MR` by k).
            let max_len = (m.max(n) + 32) * n.max(k);
            let (seconds, gflops, hits, misses) =
                time_kernel::<f32>(reps, 2.0 * (m * n * k) as f64, max_len, || {
                    gemm(
                        Trans::No,
                        Trans::No,
                        1.0,
                        a.as_ref(),
                        b.as_ref(),
                        0.0,
                        c.as_mut(),
                    );
                    std::hint::black_box(&c);
                });
            entries.push(Entry {
                kernel: "gemm",
                shape: format!("{m}x{n}x{k}"),
                backend: backend.name().to_string(),
                seconds,
                gflops,
                arena_hits: hits,
                arena_misses: misses,
                host: None,
            });
        }
    }
    dense::simd::set_backend_override(None);
}

/// The trailing-update apply of a `m x w` panel in `h`-row tiles to an
/// `m x nc` target in `w`-column blocks, as `apply_panels` runs it: each
/// tile's `V` packed once per apply, then applied in place to every
/// column block; against the per-reflector `larf` sweeps on the same
/// grid. `nc == w` is one column block; `(2048, 32, 256, 480)` is the
/// first panel of perfbench's `caqr_wide` (8 tiles x 15 blocks).
fn bench_apply(entries: &mut Vec<Entry>, reps: usize, shapes: &[(usize, usize, usize, usize)]) {
    for &(m, w, h, nc) in shapes {
        let mut panel = dense::generate::uniform::<f32>(m, w, 3);
        let tiles = tile_panel(0, m, h, w);
        let blocks = caqr::tsqr::col_blocks(0, nc, w);
        let mut vs: Vec<Matrix<f32>> = tiles
            .iter()
            .map(|t| Matrix::zeros(t.rows, t.rows.min(w)))
            .collect();
        let wys: Vec<_> = {
            let p = MatPtr::new(&mut panel);
            tiles
                .iter()
                .zip(&mut vs)
                .map(|(&t, v)| blockops::factor_tile(p, t, 0, w, MatPtr::new(v)))
                .collect()
        };
        let kern = <f32 as dense::SimdScalar>::gemm_kernel(dense::simd::active());
        // The packs' storage, allocated once up front like the `V` blocks.
        let mut packs: Vec<Vec<f32>> = vs
            .iter()
            .map(|v| vec![0.0; PackedV::len(v.rows(), v.cols(), &kern)])
            .collect();
        let c0 = dense::generate::uniform::<f32>(m, nc, 4);
        // Both paths apply the same w reflectors per tile to every
        // w-column block: 4*rows*w*w useful flops per tile and block.
        let flops = 4.0 * (m * w * nc) as f64;
        let shape = format!("{m}x{nc}");
        let mut cm = c0.clone();
        let (seconds, gflops, hits, misses) = time_kernel::<f32>(reps, flops, m * w, || {
            cm.as_mut_slice().copy_from_slice(c0.as_slice());
            let cp = MatPtr::new(&mut cm);
            let packed: Vec<PackedV<f32>> = vs
                .iter()
                .zip(&mut packs)
                .map(|(v, buf)| PackedV::pack(v.as_ref(), kern, buf))
                .collect();
            for (ti, &tile) in tiles.iter().enumerate() {
                for &(c0, wc) in &blocks {
                    blockops::apply_tile_wy_packed(&wys[ti], &packed[ti], cp, tile, c0, wc, true);
                }
            }
            std::hint::black_box(&cm);
        });
        entries.push(Entry {
            kernel: "apply_larfb_wy",
            shape: shape.clone(),
            backend: active_name(),
            seconds,
            gflops,
            arena_hits: hits,
            arena_misses: misses,
            host: None,
        });
        let (seconds, gflops, hits, misses) = time_kernel::<f32>(reps, flops, m * w, || {
            cm.as_mut_slice().copy_from_slice(c0.as_slice());
            let cp = MatPtr::new(&mut cm);
            let vp = MatPtr::new_readonly(&panel);
            for (ti, &tile) in tiles.iter().enumerate() {
                for &(c0, wc) in &blocks {
                    blockops::apply_tile_reflectors(vp, cp, tile, 0, w, &wys[ti].tau, c0, wc, true);
                }
            }
            std::hint::black_box(&cm);
        });
        entries.push(Entry {
            kernel: "apply_larf_per_reflector",
            shape,
            backend: active_name(),
            seconds,
            gflops,
            arena_hits: hits,
            arena_misses: misses,
            host: None,
        });
    }
}

/// The factor hot path in isolation: the pre-transposed arena-backed
/// micro-kernel (`factor_tile`) against the pre-PR fresh-allocation
/// reference (`factor_tile_ref`) — the before/after pair for this
/// optimisation, on identical tiles.
fn bench_factor_tile(entries: &mut Vec<Entry>, reps: usize, shapes: &[(usize, usize, usize)]) {
    for &(m, w, h) in shapes {
        let a0 = dense::generate::uniform::<f64>(m, w, 6);
        let tiles = tile_panel(0, m, h, w);
        let flops = 2.0 * (m * w * w) as f64 - 2.0 / 3.0 * (w * w * w) as f64;
        let shape = format!("{m}x{w}");
        let mut a = a0.clone();
        // The V blocks a panel's slab would hold, allocated once up front.
        let mut vs: Vec<Matrix<f64>> = tiles
            .iter()
            .map(|t| Matrix::zeros(t.rows, t.rows.min(w)))
            .collect();
        let (seconds, gflops, hits, misses) = time_kernel::<f64>(reps, flops, m * w, || {
            a.as_mut_slice().copy_from_slice(a0.as_slice());
            let p = MatPtr::new(&mut a);
            for (&tile, v) in tiles.iter().zip(&mut vs) {
                std::hint::black_box(blockops::factor_tile(p, tile, 0, w, MatPtr::new(v)));
            }
        });
        entries.push(Entry {
            kernel: "factor_tile",
            shape: shape.clone(),
            backend: active_name(),
            seconds,
            gflops,
            arena_hits: hits,
            arena_misses: misses,
            host: None,
        });
        let (seconds, gflops, hits, misses) = time_kernel::<f64>(reps, flops, m * w, || {
            a.as_mut_slice().copy_from_slice(a0.as_slice());
            let p = MatPtr::new(&mut a);
            for &tile in &tiles {
                std::hint::black_box(blockops::factor_tile_ref(p, tile, 0, w));
            }
        });
        entries.push(Entry {
            kernel: "factor_tile_ref",
            shape,
            backend: active_name(),
            seconds,
            gflops,
            arena_hits: hits,
            arena_misses: misses,
            host: None,
        });
    }
}

/// The `--profile` a run was given: the loaded profile and its path.
type Profile = (MeasuredProfile, String);

fn bench_caqr_cpu(
    entries: &mut Vec<Entry>,
    overheads: &mut Vec<(String, f64, f64)>,
    reps: usize,
    shapes: &[(usize, usize)],
    profile: Option<&Profile>,
) {
    for &(m, n) in shapes {
        let a = dense::generate::uniform::<f64>(m, n, 5);
        // Tall-skinny QR: ~ 2 m n^2 - (2/3) n^3 useful flops.
        let flops = 2.0 * (m * n * n) as f64 - 2.0 / 3.0 * (n * n * n) as f64;
        // The blocking comes from the named profile when it swept this
        // panel width, and from the static heuristic otherwise. The
        // checksummed twin differs only in the ABFT verification — the
        // row pair behind `--check-overhead`.
        let (plain, source) = match profile {
            Some((p, path)) if p.best_for_width(n.clamp(1, 32)).is_some() => {
                (CpuCaqrOptions::from_measured(p, n), path.as_str())
            }
            _ => (CpuCaqrOptions::for_width(n), "for_width"),
        };
        let checked = CpuCaqrOptions {
            verify_checksums: true,
            ..plain
        };
        // `caqr_cpu` factors in place, so each repetition consumes a fresh
        // copy of the input; the copies are prepared outside the timed
        // region so the rows measure the factorization, not memcpy. The
        // two variants are timed in *interleaved* repetitions: the
        // overhead gate divides one row by the other, so both sides must
        // sample the same noise environment rather than back-to-back
        // windows a load spike can land in asymmetrically.
        let variants = [
            ("caqr_cpu_factor", plain),
            ("caqr_cpu_checksummed", checked),
        ];
        let mut inputs: Vec<_> = (0..2 * (reps + 1)).map(|_| a.clone()).collect();
        // No scratch buffer (the panel's `V` slab, tile and apply scratch)
        // is larger than the matrix.
        prewarm_classes::<f64>(m * n);
        for (_, o) in &variants {
            let f = caqr_cpu(inputs.pop().expect("warmup copy"), *o).unwrap();
            std::hint::black_box(f.a.as_slice().len());
        }
        let mut best = [f64::INFINITY; 2];
        let mut hits = [0u64; 2];
        let mut misses = [0u64; 2];
        let mut faults = [Some(0u64); 2];
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut pair = [0.0f64; 2];
            for (side, (_, o)) in variants.iter().enumerate() {
                let input = inputs.pop().expect("one input copy per repetition");
                arena::reset_stats::<f64>();
                let faults0 = minor_faults();
                let t = Instant::now();
                let f = caqr_cpu(input, *o).unwrap();
                std::hint::black_box(f.a.as_slice().len());
                pair[side] = t.elapsed().as_secs_f64();
                // The drop returns the factors to the pool (or the
                // allocator), which is where re-faulting starts.
                drop(f);
                faults[side] = faults[side]
                    .zip(faults0.zip(minor_faults()))
                    .map(|(sum, (before, after))| sum + (after - before));
                best[side] = best[side].min(pair[side]);
                let s = arena::stats::<f64>();
                hits[side] += s.hits;
                misses[side] += s.misses;
            }
            ratios.push(pair[1] / pair[0]);
        }
        // Overhead as the *lower quartile* of per-repetition ratios: each
        // ratio pairs runs adjacent in time, and scheduler spikes only ever
        // push a ratio *up* (whichever side they land in dominates), so the
        // low end of the distribution tracks the true overhead. A real
        // checksum regression shifts every ratio, quartile included.
        //
        // The budget is per shape: a single-panel run pays only the factor
        // checksums (the ISSUE's <10% factor gate), while a multi-panel run
        // also pays the orthogonality probe and trailing column-sum
        // prediction on every panel with trailing columns — structurally
        // heavier, so it carries its own documented budget (DESIGN.md §10).
        ratios.sort_by(|a, b| a.total_cmp(b));
        let budget = if n > plain.panel_width { 0.20 } else { 0.10 };
        overheads.push((format!("{m}x{n}"), ratios[ratios.len() / 4] - 1.0, budget));
        for (side, (kernel, _)) in variants.iter().enumerate() {
            entries.push(Entry {
                kernel,
                shape: format!("{m}x{n}"),
                backend: active_name(),
                seconds: best[side],
                gflops: flops / best[side] / 1e9,
                arena_hits: hits[side],
                arena_misses: misses[side],
                host: Some(HostRow {
                    tile_rows: plain.tile_rows,
                    panel_width: plain.panel_width,
                    profile: source.to_string(),
                    minor_faults: faults[side].map(|f| f as f64 / reps as f64),
                }),
            });
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_factor: Option<f64> = args
        .iter()
        .position(|a| a == "--check-factor")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--check-factor expects a number"));
    let check_gemm: Option<f64> = args
        .iter()
        .position(|a| a == "--check-gemm")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--check-gemm expects a number"));
    let check_overhead = args.iter().any(|a| a == "--check-overhead");
    let profile: Option<Profile> = args.iter().position(|a| a == "--profile").map(|i| {
        let path = args.get(i + 1).expect("--profile expects a path");
        match MeasuredProfile::load(std::path::Path::new(path)) {
            Some(p) => (p, path.clone()),
            None => {
                eprintln!(
                    "FAIL: profile {path} is missing, malformed, or stale for this \
                     backend and kernel generation; re-run the autotune bin"
                );
                std::process::exit(1);
            }
        }
    });
    eprintln!(
        "caqr_cpu rows blocked by: {}",
        profile
            .as_ref()
            .map_or("for_width (no --profile)", |(_, path)| path)
    );
    let reps = if quick { 2 } else { 5 };
    let mut entries = Vec::new();
    let mut overheads = Vec::new();

    if quick {
        // GEMM repetitions are milliseconds each; best-of-10 keeps the
        // `--check-gemm` gate out of scheduler-noise territory on a shared
        // CI core where best-of-2 swings by 30%.
        bench_gemm(
            &mut entries,
            reps.max(10),
            &[(256, 256, 256), (4096, 16, 16)],
        );
        bench_apply(
            &mut entries,
            reps,
            &[(4096, 16, 128, 16), (2048, 32, 256, 480)],
        );
        bench_factor_tile(&mut entries, reps, &[(4096, 16, 1024)]);
        // The second, multi-panel shape exercises the trailing-update
        // checksums (probe + column-sum prediction) for `--check-overhead`,
        // and is big enough that a millisecond scheduler preemption cannot
        // dominate a repetition. Extra repetitions give the quartile-of-
        // ratios estimate enough clean pairs on a noisy CI box.
        bench_caqr_cpu(
            &mut entries,
            &mut overheads,
            reps.max(8),
            &[(4096, 16), (8192, 64)],
            profile.as_ref(),
        );
    } else {
        bench_gemm(
            &mut entries,
            reps,
            &[(512, 512, 512), (1024, 1024, 1024), (8192, 16, 16)],
        );
        bench_apply(
            &mut entries,
            reps,
            &[
                (10240, 16, 128, 16),
                (65536, 16, 128, 16),
                (2048, 32, 256, 480),
            ],
        );
        bench_factor_tile(&mut entries, reps, &[(65536, 16, 1024)]);
        // 131072x32 with the untuned 512-row tiles is perfbench's
        // `tsqr_tall` shape: the row behind the minor-fault count.
        bench_caqr_cpu(
            &mut entries,
            &mut overheads,
            reps,
            &[(65536, 16), (131072, 8), (16384, 64), (131072, 32)],
            profile.as_ref(),
        );
    }

    let mut table = Table::new(&[
        "kernel",
        "shape",
        "backend",
        "seconds",
        "GFLOP/s",
        "arena hit/miss",
        "minor faults",
        "blocking",
    ]);
    for e in &entries {
        let (faults, blocking) = match &e.host {
            Some(h) => (
                h.minor_faults
                    .map_or("n/a".to_string(), |f| format!("{f:.0}")),
                format!("{}x{} {}", h.tile_rows, h.panel_width, h.profile),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row(vec![
            e.kernel.to_string(),
            e.shape.clone(),
            e.backend.clone(),
            format!("{:.6}", e.seconds),
            format!("{:.2}", e.gflops),
            format!("{}/{}", e.arena_hits, e.arena_misses),
            faults,
            blocking,
        ]);
    }
    print!("{}", table.render());
    eprintln!("detected SIMD backend: {}", active_name());

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"kernels\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"detected_backend\": \"{}\",\n", active_name()));
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let host = match &e.host {
            Some(h) => format!(
                ", \"tile_rows\": {}, \"panel_width\": {}, \"profile\": {:?}, \"minor_faults\": {}",
                h.tile_rows,
                h.panel_width,
                h.profile,
                h.minor_faults
                    .map_or("null".to_string(), |f| format!("{f:.1}"))
            ),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"backend\": \"{}\", \"seconds\": {:.6}, \"gflops\": {:.3}, \"arena_hits\": {}, \"arena_misses\": {}{}}}{}\n",
            e.kernel,
            e.shape,
            e.backend,
            e.seconds,
            e.gflops,
            e.arena_hits,
            e.arena_misses,
            host,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    eprintln!("wrote BENCH_kernels.json ({} entries)", entries.len());

    if let Some(min) = check_factor {
        let mut failed = false;
        for e in &entries {
            if e.kernel == "caqr_cpu_factor" && e.gflops < min {
                eprintln!(
                    "FAIL: {} {} at {:.3} GFLOP/s is below the floor {min}",
                    e.kernel, e.shape, e.gflops
                );
                failed = true;
            }
            // The reference path allocates by design; every other kernel
            // must be allocation-free once the arena is warm.
            let arena_backed =
                !e.kernel.ends_with("_ref") && e.kernel != "apply_larf_per_reflector";
            if arena_backed && e.arena_misses != 0 {
                eprintln!(
                    "FAIL: {} {} allocated {} times in steady state",
                    e.kernel, e.shape, e.arena_misses
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "check-factor: all caqr_cpu_factor rows >= {min} GFLOP/s, steady-state allocation-free"
        );
    }

    if let Some(min) = check_gemm {
        // The GEMM regression gate covers the rows where the packed
        // microkernel actually dominates: square shapes on the backend the
        // dispatcher auto-selects for this CPU. Tall-skinny rows (e.g.
        // 4096x16x16) are packing-overhead-bound and forced-slower-backend
        // rows are informational only, so neither is gated.
        let active = active_name();
        let mut failed = false;
        let mut gated = 0usize;
        for e in &entries {
            if e.kernel != "gemm" || e.backend != active {
                continue;
            }
            let dims: Vec<usize> = e
                .shape
                .split('x')
                .map(|d| d.parse().expect("gemm shape is MxNxK"))
                .collect();
            if !(dims.len() == 3 && dims[0] == dims[1] && dims[1] == dims[2]) {
                continue;
            }
            gated += 1;
            if e.gflops < min {
                eprintln!(
                    "FAIL: gemm {} ({}) at {:.3} GFLOP/s is below the floor {min}",
                    e.shape, e.backend, e.gflops
                );
                failed = true;
            }
        }
        if gated == 0 {
            eprintln!("FAIL: no square gemm rows on the active backend to gate");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("check-gemm: all {gated} square gemm rows on '{active}' >= {min} GFLOP/s");
    }

    if check_overhead {
        // The ABFT checksum gate (DESIGN.md §10): per shape, the checksummed
        // factorization may cost at most its budget over the plain one —
        // 10% for the single-panel factor gate, 20% for multi-panel shapes
        // that also run the probe and trailing column-sum checks — measured
        // as the lower quartile of interleaved per-repetition ratios.
        let mut failed = false;
        for (shape, overhead, budget) in &overheads {
            eprintln!(
                "check-overhead: {shape} checksum overhead {:+.1}% (budget {:.0}%)",
                overhead * 100.0,
                budget * 100.0
            );
            if *overhead > *budget {
                eprintln!(
                    "FAIL: {shape} checksummed run is {:.1}% slower (budget {:.0}%)",
                    overhead * 100.0,
                    budget * 100.0
                );
                failed = true;
            }
        }
        if failed || overheads.is_empty() {
            if overheads.is_empty() {
                eprintln!("FAIL: no caqr_cpu_factor/caqr_cpu_checksummed pairs to compare");
            }
            std::process::exit(1);
        }
    }
}
