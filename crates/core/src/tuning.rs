//! Block-size autotuning (Section IV-F).
//!
//! "After committing to a data layout, we can write scripts to test many
//! different block sizes and choose the best." The candidate grid mirrors
//! the paper's Figure 7 sweep; scoring uses the steady-state modelled
//! GFLOP/s of `apply_qt_h`, the dominant kernel.

use crate::block::BlockSize;
use crate::microkernels::{apply_qt_h_block_gflops, ReductionStrategy};
use gpu_sim::DeviceSpec;

/// The block-size candidate grid swept by Figure 7: heights 32..512 by
/// powers of two, widths 4..64 by powers of two, constrained to `h >= 2w`.
pub fn block_size_grid() -> Vec<BlockSize> {
    let mut v = Vec::new();
    for h in [32usize, 64, 128, 256, 512] {
        for w in [4usize, 8, 16, 32, 64] {
            let bs = BlockSize { h, w };
            if bs.validate().is_ok() {
                v.push(bs);
            }
        }
    }
    v
}

/// One scored candidate.
#[derive(Clone, Copy, Debug)]
pub struct TunedPoint {
    /// The candidate shape.
    pub bs: BlockSize,
    /// Steady-state modelled GFLOP/s of `apply_qt_h`.
    pub gflops: f64,
}

/// Score every candidate for a device and strategy (the data behind
/// Figure 7).
pub fn figure7_surface(spec: &DeviceSpec, strategy: ReductionStrategy) -> Vec<TunedPoint> {
    block_size_grid()
        .into_iter()
        .map(|bs| TunedPoint {
            bs,
            gflops: apply_qt_h_block_gflops(spec, bs, strategy),
        })
        .collect()
}

/// Pick the best block size for a device and strategy.
pub fn autotune(spec: &DeviceSpec, strategy: ReductionStrategy) -> TunedPoint {
    figure7_surface(spec, strategy)
        .into_iter()
        .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
        .expect("figure7_surface always emits the fixed candidate grid")
}

/// One wall-clock-measured block-size candidate of the host factor path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredPoint {
    /// The candidate shape.
    pub bs: BlockSize,
    /// Measured (not modelled) GFLOP/s of `caqr_cpu` at this shape.
    pub gflops: f64,
}

/// A measured autotuning profile: every swept candidate of one
/// `rows x cols` calibration factorization, ranked by real wall-clock.
///
/// The modelled [`figure7_surface`] stays the *prior* — it orders the
/// candidate grid so a budgeted sweep tries likely winners first — but the
/// committed choice is decided by measurement, exactly the paper's
/// Section IV-F loop ("test many different block sizes and choose the
/// best"). Profiles persist as a small hand-rolled JSON file (no external
/// dependencies) so one calibration run serves every later process; see
/// [`MeasuredProfile::save`] / [`MeasuredProfile::load`] and
/// [`crate::CpuCaqrOptions::from_measured`] for the consuming side. The
/// library opens only the path its caller names: a process uses a
/// profile only when it asks for one.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredProfile {
    /// Calibration matrix height.
    pub rows: usize,
    /// Calibration matrix width.
    pub cols: usize,
    /// SIMD backend the calibration ran on (`dense::Backend::name()`).
    /// A profile measured with one instruction set does not transfer to
    /// another, so [`MeasuredProfile::load`] rejects mismatches.
    pub backend: String,
    /// Microkernel generation the calibration ran against
    /// ([`dense::simd::KERNEL_VERSION`]); bumping the kernels invalidates
    /// every persisted profile.
    pub kernel_version: u32,
    /// Every measured candidate, in sweep order.
    pub points: Vec<MeasuredPoint>,
}

impl MeasuredProfile {
    /// The fastest measured candidate overall.
    pub fn best(&self) -> Option<MeasuredPoint> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
    }

    /// The fastest measured candidate with panel width `w`.
    pub fn best_for_width(&self, w: usize) -> Option<MeasuredPoint> {
        self.points
            .iter()
            .copied()
            .filter(|p| p.bs.w == w)
            .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
    }

    /// Serialize to the profile's JSON form.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"rows\": {},\n  \"cols\": {},\n  \"backend\": \"{}\",\n  \"kernel_version\": {},\n  \"points\": [\n",
            self.rows, self.cols, self.backend, self.kernel_version
        );
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"h\": {}, \"w\": {}, \"gflops\": {:.6}}}{sep}\n",
                p.bs.h, p.bs.w, p.gflops
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a profile produced by [`Self::to_json`]. Returns `None` on any
    /// malformed input; it never panics.
    pub fn from_json(text: &str) -> Option<Self> {
        fn field_usize(obj: &str, key: &str) -> Option<usize> {
            field_raw(obj, key)?.parse().ok()
        }
        fn field_f64(obj: &str, key: &str) -> Option<f64> {
            field_raw(obj, key)?.parse().ok()
        }
        fn field_raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
            let pat = format!("\"{key}\"");
            let at = obj.find(&pat)? + pat.len();
            let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            Some(&rest[..end])
        }
        fn field_str(obj: &str, key: &str) -> Option<String> {
            let pat = format!("\"{key}\"");
            let at = obj.find(&pat)? + pat.len();
            let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        }
        let rows = field_usize(text, "rows")?;
        let cols = field_usize(text, "cols")?;
        // Pre-SIMD profiles carry neither tag; parse them as kernel
        // generation 1 on the scalar backend so `load` retires them the
        // moment a vectorized build looks (and a scalar build re-measures
        // because the kernel generation moved on).
        let backend = field_str(text, "backend").unwrap_or_else(|| "scalar".to_string());
        let kernel_version = field_usize(text, "kernel_version").unwrap_or(1) as u32;
        let arr_start = text.find("\"points\"")?;
        let arr = &text[text[arr_start..].find('[')? + arr_start + 1..];
        let arr = &arr[..arr.find(']')?];
        let mut points = Vec::new();
        for obj in arr.split('{').skip(1) {
            let obj = obj.split('}').next()?;
            points.push(MeasuredPoint {
                bs: BlockSize {
                    h: field_usize(obj, "h")?,
                    w: field_usize(obj, "w")?,
                },
                gflops: field_f64(obj, "gflops")?,
            });
        }
        Some(MeasuredProfile {
            rows,
            cols,
            backend,
            kernel_version,
            points,
        })
    }

    /// Persist to `path` (atomically via a sibling temp file).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Load a persisted profile; `None` if the file is absent, malformed,
    /// or **stale** — measured on a different SIMD backend or an older
    /// microkernel generation than this process runs. A stale profile's
    /// block-size ranking no longer reflects the machine, so it is never
    /// returned; the caller decides whether that is an error (the
    /// `wallclock_report` bin's `--profile` treats it as one) and re-runs
    /// `autotune`. A profile whose tags match but whose candidate grid is
    /// empty (e.g. a sweep truncated mid-write) is rejected the same way:
    /// it would make `best()`/`best_for_width()` silently answer `None`
    /// forever while looking like a valid calibration.
    pub fn load(path: &std::path::Path) -> Option<Self> {
        let p = Self::from_json(&std::fs::read_to_string(path).ok()?)?;
        if p.backend != dense::simd::active().name()
            || p.kernel_version != dense::simd::KERNEL_VERSION
            || p.points.is_empty()
        {
            return None;
        }
        Some(p)
    }
}

/// Candidate grid of the measured sweep for an `n`-column factorization:
/// widths from the paper's sweet spot ({8, 16, 32}, capped at `n`), heights
/// 64..=2048 with `h >= 2w`, ordered by the modelled prior (best modelled
/// candidates first) so a truncated sweep still visits likely winners.
pub fn measured_grid(spec: &DeviceSpec, n: usize) -> Vec<BlockSize> {
    let prior = figure7_surface(spec, ReductionStrategy::RegisterSerialTransposed);
    let score = |bs: BlockSize| {
        prior
            .iter()
            .find(|p| p.bs == bs)
            .map(|p| p.gflops)
            .unwrap_or(0.0)
    };
    let mut grid = Vec::new();
    for &w in &[8usize, 16, 32] {
        if w > n {
            continue;
        }
        for &h in &[64usize, 128, 192, 256, 320, 384, 512, 1024, 2048] {
            if h >= 2 * w {
                grid.push(BlockSize { h, w });
            }
        }
    }
    grid.sort_by(|a, b| score(*b).total_cmp(&score(*a)));
    grid
}

/// Measure the host factor path (`caqr_cpu`, f64) over the candidate grid
/// for an `m x n` calibration shape, best-of-`reps` wall-clock per
/// candidate. Returns the full measured surface; persist the result with
/// [`MeasuredProfile::save`] and consume it via
/// [`crate::CpuCaqrOptions::from_measured`].
pub fn autotune_measured(spec: &DeviceSpec, m: usize, n: usize, reps: usize) -> MeasuredProfile {
    let a = dense::generate::uniform::<f64>(m, n, 0x7471);
    let flops = 2.0 * (m * n * n) as f64 - 2.0 / 3.0 * (n * n * n) as f64;
    let mut points = Vec::new();
    for bs in measured_grid(spec, n) {
        if bs.h > m {
            continue;
        }
        let opts = crate::CpuCaqrOptions {
            tile_rows: bs.h,
            panel_width: bs.w,
            tree: crate::TreeShape::DeviceArity,
            verify_checksums: false,
        };
        // `caqr_cpu` factors in place; input copies are prepared outside the
        // timed region so candidates are ranked on factorization time alone.
        let mut inputs: Vec<_> = (0..reps.max(1) + 1).map(|_| a.clone()).collect();
        let mut run = || {
            let input = inputs
                .pop()
                .expect("one input copy prepared per repetition plus warmup");
            let f = crate::caqr_cpu(input, opts)
                .expect("calibration input is finite and the grid shape pre-validated");
            std::hint::black_box(f.a.as_slice().len());
        };
        run(); // warm the arena pools so steady state is what's measured
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t = std::time::Instant::now();
            run();
            best = best.min(t.elapsed().as_secs_f64());
        }
        points.push(MeasuredPoint {
            bs,
            gflops: flops / best / 1e9,
        });
    }
    MeasuredProfile {
        rows: m,
        cols: n,
        backend: dense::simd::active().name().to_string(),
        kernel_version: dense::simd::KERNEL_VERSION,
        points,
    }
}

/// Algorithm choice for a given matrix shape (the autotuning framework the
/// paper sketches in Section V-C: "a different algorithm may be chosen
/// depending on the matrix size").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QrAlgorithm {
    /// Communication-avoiding QR — wins for tall-skinny shapes.
    Caqr,
    /// Blocked Householder with GEMM trailing updates — wins for wide
    /// matrices once the BLAS3 updates dominate.
    BlockedHouseholder,
}

/// Pick the faster algorithm for an `m x n` factorization on `spec` by
/// comparing the CAQR cost model against a blocked-Householder roofline
/// (panel BLAS2 at DRAM bandwidth + GEMM-rate trailing updates, the best
/// case for the library algorithms).
pub fn select_algorithm(spec: &DeviceSpec, m: usize, n: usize) -> QrAlgorithm {
    let gpu = gpu_sim::Gpu::new(spec.clone());
    let cfg = crate::CaqrOptions::default().drive_config();
    let factor = crate::Modelled::Factor(crate::Mode::Sync);
    let caqr_secs = (crate::SimBackend::sync(&gpu).model(m, n, &cfg, factor))
        .map_or(f64::INFINITY, |(secs, _)| secs);

    // Optimistic blocked Householder on the same device: nb-wide BLAS2
    // panels straight from DRAM, trailing updates at the device GEMM rate.
    let nb = 64;
    let k = m.min(n);
    let mut bh_secs = 0.0;
    let bw = spec.dram_bw_gbs * 1.0e9;
    let gemm = spec.gemm_gflops() * 1.0e9;
    let mut j = 0;
    while j < k {
        let jb = nb.min(k - j);
        let mp = (m - j) as f64;
        // Panel: each reflector streams the remaining panel (read+write).
        bh_secs +=
            4.0 * mp * (jb * jb) as f64 / bw + jb as f64 * 2.0 * spec.launch_overhead_us * 1e-6;
        // Trailing update at GEMM rate.
        let nc = (n - j - jb) as f64;
        if nc > 0.0 {
            bh_secs += 4.0 * mp * nc * jb as f64 / gemm + 3.0 * spec.launch_overhead_us * 1e-6;
        }
        j += jb;
    }

    if caqr_secs <= bh_secs {
        QrAlgorithm::Caqr
    } else {
        QrAlgorithm::BlockedHouseholder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_respects_constraints() {
        let g = block_size_grid();
        assert!(g.len() > 10);
        for bs in &g {
            assert!(bs.h >= 2 * bs.w);
        }
        assert!(g.contains(&BlockSize { h: 128, w: 16 }));
    }

    #[test]
    fn autotuner_picks_the_papers_block() {
        let spec = DeviceSpec::c2050();
        let best = autotune(&spec, ReductionStrategy::RegisterSerialTransposed);
        assert_eq!(best.bs, BlockSize { h: 128, w: 16 }, "picked {:?}", best.bs);
        // Near the paper's 388 GFLOPS.
        assert!(
            best.gflops > 300.0 && best.gflops < 500.0,
            "{}",
            best.gflops
        );
    }

    #[test]
    fn surface_punishes_register_spill() {
        let spec = DeviceSpec::c2050();
        let s = ReductionStrategy::RegisterSerialTransposed;
        let g128_16 = apply_qt_h_block_gflops(&spec, BlockSize { h: 128, w: 16 }, s);
        let g512_16 = apply_qt_h_block_gflops(&spec, BlockSize { h: 512, w: 16 }, s);
        assert!(
            g512_16 < g128_16 * 0.8,
            "512x16 should spill: {g512_16} vs {g128_16}"
        );
    }

    #[test]
    fn algorithm_selection_follows_the_crossover() {
        // Section V-C's autotuning framework: CAQR for tall-skinny,
        // blocked Householder for wide.
        let spec = DeviceSpec::c2050();
        assert_eq!(select_algorithm(&spec, 1_000_000, 192), QrAlgorithm::Caqr);
        assert_eq!(select_algorithm(&spec, 100_000, 64), QrAlgorithm::Caqr);
        assert_eq!(
            select_algorithm(&spec, 8192, 8192),
            QrAlgorithm::BlockedHouseholder
        );
        // Monotone: once blocked Householder wins at some width (fixed
        // height), it keeps winning for wider matrices.
        let mut seen_bh = false;
        for n in [256usize, 512, 1024, 2048, 4096, 8192] {
            let choice = select_algorithm(&spec, 8192, n);
            if seen_bh {
                assert_eq!(choice, QrAlgorithm::BlockedHouseholder, "flip-flop at {n}");
            }
            seen_bh |= choice == QrAlgorithm::BlockedHouseholder;
        }
        assert!(seen_bh, "blocked Householder never won");
    }

    #[test]
    fn measured_profile_json_round_trips() {
        let p = MeasuredProfile {
            rows: 65536,
            cols: 16,
            backend: "avx2".to_string(),
            kernel_version: dense::simd::KERNEL_VERSION,
            points: vec![
                MeasuredPoint {
                    bs: BlockSize { h: 256, w: 16 },
                    gflops: 1.97,
                },
                MeasuredPoint {
                    bs: BlockSize { h: 512, w: 8 },
                    gflops: 0.95,
                },
            ],
        };
        let back = MeasuredProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.best().unwrap().bs, BlockSize { h: 256, w: 16 });
        assert_eq!(
            back.best_for_width(8).unwrap().bs,
            BlockSize { h: 512, w: 8 }
        );
        assert!(back.best_for_width(32).is_none());
        // Malformed input degrades to None, never panics.
        assert!(MeasuredProfile::from_json("{\"rows\": oops}").is_none());
        assert!(MeasuredProfile::from_json("").is_none());
        // A pre-SIMD profile (no tags) parses as kernel generation 1 on the
        // scalar backend.
        let legacy =
            "{\"rows\": 4, \"cols\": 2, \"points\": [\n {\"h\": 8, \"w\": 2, \"gflops\": 1.0}]}";
        let legacy = MeasuredProfile::from_json(legacy).unwrap();
        assert_eq!(legacy.backend, "scalar");
        assert_eq!(legacy.kernel_version, 1);
    }

    #[test]
    fn stale_profiles_are_rejected_by_load() {
        let dir = std::env::temp_dir().join(format!("caqr_tuning_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let fresh = MeasuredProfile {
            rows: 512,
            cols: 8,
            backend: dense::simd::active().name().to_string(),
            kernel_version: dense::simd::KERNEL_VERSION,
            points: vec![MeasuredPoint {
                bs: BlockSize { h: 128, w: 8 },
                gflops: 1.0,
            }],
        };
        // Current backend + current kernel generation: accepted.
        fresh.save(&path).unwrap();
        assert_eq!(MeasuredProfile::load(&path), Some(fresh.clone()));
        // Same backend, older kernel generation: rejected.
        let mut stale = fresh.clone();
        stale.kernel_version = dense::simd::KERNEL_VERSION - 1;
        stale.save(&path).unwrap();
        assert!(MeasuredProfile::load(&path).is_none());
        // Different backend name: rejected.
        let mut other = fresh.clone();
        other.backend = "some-other-isa".to_string();
        other.save(&path).unwrap();
        assert!(MeasuredProfile::load(&path).is_none());
        // Legacy untagged file: rejected unless this process really is the
        // scalar backend on kernel generation 1 (it is not — the generation
        // counter moved when the kernels vectorized).
        std::fs::write(
            &path,
            "{\"rows\": 4, \"cols\": 2, \"points\": [\n {\"h\": 8, \"w\": 2, \"gflops\": 1.0}]}",
        )
        .unwrap();
        assert!(MeasuredProfile::load(&path).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_point_grids_are_rejected_by_load() {
        let dir =
            std::env::temp_dir().join(format!("caqr_tuning_empty_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("caqr_tuned.json");
        // A hand-truncated profile: matching backend + kernel tags, but the
        // sweep's candidate list is gone. `from_json` parses it fine...
        let json = format!(
            "{{\n  \"rows\": 512,\n  \"cols\": 8,\n  \"backend\": \"{}\",\n  \
             \"kernel_version\": {},\n  \"points\": [\n  ]\n}}\n",
            dense::simd::active().name(),
            dense::simd::KERNEL_VERSION
        );
        let parsed = MeasuredProfile::from_json(&json).unwrap();
        assert!(parsed.points.is_empty());
        assert_eq!(parsed.best(), None);
        // ...but `load` must refuse it so callers re-calibrate instead of
        // carrying a permanently useless profile.
        std::fs::write(&path, &json).unwrap();
        assert!(MeasuredProfile::load(&path).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measured_grid_is_prior_ordered_and_constrained() {
        let spec = DeviceSpec::c2050();
        let g = measured_grid(&spec, 16);
        assert!(!g.is_empty());
        for bs in &g {
            bs.validate().unwrap();
            assert!(bs.w <= 16);
        }
        // The modelled prior puts the paper's 128x16 sweet spot ahead of a
        // register-spilling 2048-row candidate.
        let pos = |bs: BlockSize| g.iter().position(|&x| x == bs).unwrap();
        assert!(pos(BlockSize { h: 128, w: 16 }) < pos(BlockSize { h: 2048, w: 16 }));
        // Widths wider than the matrix are skipped.
        assert!(measured_grid(&spec, 8).iter().all(|bs| bs.w <= 8));
    }

    #[test]
    fn measured_autotune_runs_and_feeds_options() {
        let spec = DeviceSpec::c2050();
        // Tiny calibration shape: every candidate with h <= m is measured.
        let p = autotune_measured(&spec, 512, 8, 1);
        assert_eq!((p.rows, p.cols), (512, 8));
        assert!(!p.points.is_empty());
        assert!(p.points.iter().all(|pt| pt.gflops > 0.0 && pt.bs.h <= 512));
        let opts = crate::CpuCaqrOptions::from_measured(&p, 8);
        assert_eq!(opts.panel_width, 8);
        assert_eq!(opts.tile_rows, p.best_for_width(8).unwrap().bs.h);
        // A width the profile never swept falls back to the heuristic.
        let fallback = crate::CpuCaqrOptions::from_measured(&p, 5);
        assert_eq!(
            fallback.tile_rows,
            crate::CpuCaqrOptions::for_width(5).tile_rows
        );
    }

    #[test]
    fn gtx480_tunes_to_a_valid_block() {
        let spec = DeviceSpec::gtx480();
        let best = autotune(&spec, ReductionStrategy::RegisterSerialTransposed);
        best.bs.validate().unwrap();
        assert!(best.gflops > 300.0);
    }
}
