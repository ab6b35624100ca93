//! Stream-scheduled CAQR — [`drive`] in [`Mode::Dag`] on a streamed
//! [`SimBackend`]: numerical equivalence with the synchronous loop and
//! invariants of the resolved per-stream timeline (DESIGN.md §5,
//! "Concurrency model").

use caqr::{
    drive, BlockSize, CaqrOptions, Factorization, Mode, Modelled, ReductionStrategy, SimBackend,
};
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::{BlockCost, DeviceSpec, Exec, Gpu, Launch, LaunchConfig, Timeline};
use proptest::prelude::*;

/// A charged launch whose blocks all cost the same.
struct Uniform(&'static str, LaunchConfig, BlockCost);

impl Launch for Uniform {
    fn name(&self) -> &'static str {
        self.0
    }
    fn config(&self) -> LaunchConfig {
        self.1
    }
    fn block_cost(&self, _b: usize) -> BlockCost {
        self.2
    }
}

/// The synchronous Figure-4 loop on `gpu`.
fn sync_run<T: Scalar>(gpu: &Gpu, a: Matrix<T>, o: CaqrOptions) -> Factorization<T> {
    drive(&SimBackend::sync(gpu), a, &o.drive_config(), Mode::Sync).unwrap()
}

/// The stream DAG on `streams` streams, with its resolved timeline.
fn dag_run<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    o: CaqrOptions,
    (streams, lookahead): (usize, bool),
) -> (Factorization<T>, Timeline) {
    let sim = SimBackend::streams(gpu, streams).unwrap();
    let f = drive(&sim, a, &o.drive_config(), Mode::Dag { lookahead }).unwrap();
    (f, gpu.try_synchronize().unwrap())
}

/// Modelled seconds of the stream-scheduled factorization of an `m x n`
/// matrix on `streams` streams.
fn dag_seconds(
    gpu: &Gpu,
    (m, n): (usize, usize),
    o: CaqrOptions,
    (streams, lookahead): (usize, bool),
) -> f64 {
    let what = Modelled::Factor(Mode::Dag { lookahead });
    let sim = SimBackend::streams(gpu, streams).unwrap();
    sim.model(m, n, &o.drive_config(), what).unwrap().0
}

fn opts(h: usize, w: usize) -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h, w },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
    }
}

/// The timeline invariants every resolved schedule must satisfy:
/// * intervals on one stream never overlap (streams are in-order queues),
/// * every realized interval is at least its contention-free duration,
/// * the makespan is exactly the last interval's end and never exceeds the
///   synchronous sum of contention-free kernel times.
fn check_timeline(tl: &Timeline) {
    let mut per_stream: std::collections::BTreeMap<usize, Vec<(f64, f64)>> = Default::default();
    let mut alone_sum = 0.0;
    let mut last_end: f64 = 0.0;
    for iv in &tl.intervals {
        assert!(iv.end >= iv.start, "negative interval for {}", iv.name);
        assert!(
            iv.duration() >= iv.alone_seconds - 1e-12,
            "{} realized faster than contention-free: {} < {}",
            iv.name,
            iv.duration(),
            iv.alone_seconds
        );
        per_stream
            .entry(iv.stream)
            .or_default()
            .push((iv.start, iv.end));
        alone_sum += iv.alone_seconds;
        last_end = last_end.max(iv.end);
    }
    for (stream, mut ivs) in per_stream {
        ivs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in ivs.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-12,
                "stream {stream} intervals overlap: {w:?}"
            );
        }
    }
    assert!(
        (tl.makespan - last_end).abs() < 1e-12,
        "makespan must be the last end"
    );
    assert!(
        tl.makespan <= alone_sum + 1e-12,
        "concurrent schedule slower than serializing everything: {} > {}",
        tl.makespan,
        alone_sum
    );
}

#[test]
fn dag_r_and_q_are_bit_identical_to_synchronous() {
    for &(m, n, h, w, seed) in &[
        (64usize, 8usize, 16usize, 4usize, 1u64),
        (200, 24, 32, 8, 2),
        (513, 33, 64, 16, 3),
        (96, 96, 32, 8, 5),
        (50, 90, 16, 4, 6), // wide, ragged k
    ] {
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let o = opts(h, w);
        let gs = Gpu::new(DeviceSpec::c2050());
        let sync = sync_run(&gs, a.clone(), o);
        let k = m.min(n);
        let q_sync = sync.generate_q_on(&SimBackend::sync(&gs), k).unwrap();
        for &streams in &[1usize, 2, 4] {
            for &lookahead in &[false, true] {
                let g = Gpu::new(DeviceSpec::c2050());
                let (f, tl) = dag_run(&g, a.clone(), o, (streams, lookahead));
                check_timeline(&tl);
                let q = f.generate_q_on(&SimBackend::sync(&g), k).unwrap();
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            f.a[(i, j)],
                            sync.a[(i, j)],
                            "factored matrix diverged at ({i},{j}), {m}x{n} s={streams} la={lookahead}"
                        );
                    }
                }
                for j in 0..k {
                    for i in 0..m {
                        assert_eq!(
                            q[(i, j)],
                            q_sync[(i, j)],
                            "Q diverged at ({i},{j}), {m}x{n} s={streams} la={lookahead}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dag_launches_match_ledger_calls() {
    // The DAG analogue of `launch_count_formula` in simulator_invariants.rs:
    // the recorded `launches` must agree with the ledger under stream scheduling
    // too, where the fan-out issues more apply chains than the sync loop.
    for &streams in &[1usize, 3, 4] {
        for &lookahead in &[false, true] {
            let g = Gpu::new(DeviceSpec::c2050());
            let a = dense::generate::uniform::<f32>(512, 32, 4);
            let (f, _tl) = dag_run(&g, a, opts(64, 16), (streams, lookahead));
            assert_eq!(
                f.launches as u64,
                g.ledger().calls,
                "s={streams} la={lookahead}"
            );
        }
    }
}

#[test]
fn ledger_intervals_mirror_the_timeline() {
    let g = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(256, 24, 9);
    let (_f, tl) = dag_run(&g, a, opts(32, 8), (2, true));
    let l = g.ledger();
    assert_eq!(l.intervals.len(), tl.intervals.len());
    assert_eq!(l.calls as usize, tl.intervals.len());
    // The batch advances the clock by its makespan, once.
    assert!((l.seconds - tl.makespan).abs() < 1e-12);
}

#[test]
fn event_waits_are_respected_in_the_resolved_timeline() {
    // Cross-stream ordering: a consumer kernel queued behind a wait must not
    // start before its producer's event fires.
    let g = Gpu::new(DeviceSpec::c2050());
    let cfg = LaunchConfig {
        blocks: 14,
        threads_per_block: 64,
        shared_mem_bytes: 0,
        regs_per_thread: 8,
    };
    let cost = BlockCost {
        flops: 1000,
        issue_cycles: 50_000.0,
        gmem_bytes: 0.0,
        smem_words: 0,
        syncs: 0,
    };
    let s0 = g.create_stream();
    let s1 = g.create_stream();
    g.charge_on(Exec::Stream(s0), &Uniform("producer", cfg, cost))
        .unwrap();
    let ev = g.record_event(s0);
    g.wait_event(s1, ev);
    g.charge_on(Exec::Stream(s1), &Uniform("consumer", cfg, cost))
        .unwrap();
    let tl = g.synchronize();
    check_timeline(&tl);
    let p = tl
        .intervals
        .iter()
        .find(|iv| iv.name == "producer")
        .unwrap();
    let c = tl
        .intervals
        .iter()
        .find(|iv| iv.name == "consumer")
        .unwrap();
    assert!(c.start >= p.end - 1e-15);
}

#[test]
fn single_stream_barrier_schedule_reproduces_the_synchronous_clock() {
    let o = opts(32, 8);
    let a = dense::generate::uniform::<f32>(300, 24, 11);
    let gs = Gpu::new(DeviceSpec::c2050());
    let _ = sync_run(&gs, a.clone(), o);
    let gd = Gpu::new(DeviceSpec::c2050());
    let (_, tl) = dag_run(&gd, a, o, (1, false));
    assert!(
        (tl.makespan - gs.elapsed()).abs() / gs.elapsed() < 1e-12,
        "one in-order stream must serialize to the synchronous time: {} vs {}",
        tl.makespan,
        gs.elapsed()
    );
}

#[test]
fn chrome_trace_covers_every_stream() {
    let g = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(256, 32, 12);
    let (_f, tl) = dag_run(&g, a, opts(32, 8), (3, true));
    let json = tl.to_chrome_trace();
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    for tid in 0..3 {
        assert!(
            json.contains(&format!("\"tid\": {tid}")),
            "stream {tid} missing from trace"
        );
    }
    assert_eq!(json.matches("\"ph\": \"X\"").count(), tl.intervals.len());
}

#[test]
fn modelled_lookahead_beats_synchronous_on_table1_shapes() {
    // The acceptance claim: on the paper's tall-skinny shapes the DAG with
    // lookahead is faster (in modelled time) than the synchronous loop,
    // while the numerics are identical (asserted above at executable sizes).
    for &m in &[10_000usize, 100_000, 1_000_000] {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let cfg = CaqrOptions::default().drive_config();
        let factor = Modelled::Factor(Mode::Sync);
        let (sync, _) = SimBackend::sync(&gpu).model(m, 192, &cfg, factor).unwrap();
        let best = [2usize, 4]
            .iter()
            .map(|&s| {
                let o = CaqrOptions::default();
                dag_seconds(&Gpu::new(DeviceSpec::c2050()), (m, 192), o, (s, true))
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < sync,
            "{m}x192: lookahead DAG {best} should beat sync {sync}"
        );
    }
}

#[test]
fn dag_r_is_bit_identical_to_synchronous() {
    for &(m, n) in &[(256usize, 24usize), (213, 29), (40, 70), (200, 8)] {
        let a = dense::generate::uniform::<f64>(m, n, 77);
        let sync = sync_run(&Gpu::new(DeviceSpec::c2050()), a.clone(), opts(32, 8));
        for &s in &[1usize, 2, 4, 5] {
            for &la in &[false, true] {
                let g = Gpu::new(DeviceSpec::c2050());
                let (f, _tl) = dag_run(&g, a.clone(), opts(32, 8), (s, la));
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            f.a[(i, j)],
                            sync.a[(i, j)],
                            "factored matrix diverged at ({i},{j}) for {m}x{n} s={s} la={la}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dag_launch_count_matches_ledger() {
    for &la in &[false, true] {
        let g = Gpu::new(DeviceSpec::c2050());
        let a = dense::generate::uniform::<f64>(256, 24, 31);
        let (f, _tl) = dag_run(&g, a, opts(32, 8), (3, la));
        assert_eq!(f.launches as u64, g.ledger().calls, "lookahead={la}");
    }
}

#[test]
fn model_replay_matches_execution() {
    for &(m, n) in &[(256usize, 32usize), (301, 27), (64, 80)] {
        for &s in &[1usize, 3, 4] {
            for &la in &[false, true] {
                let o = opts(32, 8);
                let g1 = Gpu::new(DeviceSpec::c2050());
                let a = dense::generate::uniform::<f32>(m, n, 42);
                let (f, _tl) = dag_run(&g1, a, o, (s, la));
                let exec = g1.ledger();

                let g2 = Gpu::new(DeviceSpec::c2050());
                let secs = dag_seconds(&g2, (m, n), o, (s, la));
                let modeled = g2.ledger();

                assert_eq!(exec.calls, modeled.calls, "{m}x{n} s={s} la={la}");
                assert_eq!(f.launches as u64, modeled.calls);
                let dt = (exec.seconds - modeled.seconds).abs() / exec.seconds;
                assert!(
                    dt < 1e-9,
                    "{m}x{n} s={s} la={la}: {} vs {}",
                    exec.seconds,
                    modeled.seconds
                );
                assert!((secs - exec.seconds).abs() / exec.seconds < 1e-9);
            }
        }
    }
}

#[test]
fn lookahead_beats_barrier_on_tall_skinny() {
    // Launch-bound Table-I-style shape: overlapping the next factor with
    // the trailing update must shorten the modelled makespan.
    let o = CaqrOptions::default();
    let t_look = dag_seconds(&Gpu::new(DeviceSpec::c2050()), (100_000, 192), o, (4, true));
    let t_barrier = dag_seconds(
        &Gpu::new(DeviceSpec::c2050()),
        (100_000, 192),
        o,
        (4, false),
    );
    assert!(
        t_look < t_barrier,
        "lookahead {t_look} should beat barrier {t_barrier}"
    );
}

#[test]
fn zero_streams_rejected() {
    let a = dense::generate::uniform::<f64>(64, 16, 1);
    let g = Gpu::new(DeviceSpec::c2050());
    let cfg = opts(32, 8).drive_config();
    let run = SimBackend::streams(&g, 0)
        .and_then(|sim| drive(&sim, a, &cfg, Mode::Dag { lookahead: true }));
    assert!(run.is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dag_equivalence_holds_for_random_shapes(
        m in 20usize..150,
        n in 1usize..40,
        streams in 1usize..5,
        la in 0usize..2,
        seed in 0u64..1000,
    ) {
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let o = opts(16, 4);
        let gs = Gpu::new(DeviceSpec::c2050());
        let sync = sync_run(&gs, a.clone(), o);
        let gd = Gpu::new(DeviceSpec::c2050());
        let (f, tl) = dag_run(&gd, a, o, (streams, la == 1));
        check_timeline(&tl);
        for j in 0..n {
            for i in 0..m {
                prop_assert!(
                    f.a[(i, j)] == sync.a[(i, j)],
                    "factored matrix diverged at ({}, {})",
                    i,
                    j
                );
            }
        }
    }

    #[test]
    fn model_replay_matches_execution_for_random_shapes(
        m in 40usize..200,
        n in 8usize..48,
        streams in 1usize..5,
        la in 0usize..2,
    ) {
        let o = opts(32, 8);
        let g1 = Gpu::new(DeviceSpec::c2050());
        let a = dense::generate::uniform::<f32>(m, n, 42);
        let (f, _tl) = dag_run(&g1, a, o, (streams, la == 1));
        let exec = g1.ledger();
        let g2 = Gpu::new(DeviceSpec::c2050());
        dag_seconds(&g2, (m, n), o, (streams, la == 1));
        let modeled = g2.ledger();
        prop_assert_eq!(exec.calls, modeled.calls);
        prop_assert_eq!(f.launches as u64, modeled.calls);
        prop_assert!((exec.seconds - modeled.seconds).abs() / exec.seconds < 1e-9);
    }
}
