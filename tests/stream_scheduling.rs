//! Stream-scheduled CAQR: numerical equivalence with the synchronous loop
//! and invariants of the resolved per-stream timeline (DESIGN.md §5,
//! "Concurrency model").

use caqr::schedule::{caqr_dag, model_caqr_dag_seconds};
use caqr::{BlockSize, CaqrOptions, ReductionStrategy, ScheduleOptions, SimBackend};
use gpu_sim::{DeviceSpec, Gpu, Timeline};
use proptest::prelude::*;

fn opts(h: usize, w: usize, streams: usize, lookahead: bool) -> ScheduleOptions {
    ScheduleOptions {
        caqr: CaqrOptions {
            bs: BlockSize { h, w },
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: caqr::block::TreeShape::DeviceArity,
            check_finite: true,
        },
        streams,
        lookahead,
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
        let o = opts(h, w, 4, true);
        let gs = Gpu::new(DeviceSpec::c2050());
        let sync = caqr::caqr::caqr(&gs, a.clone(), o.caqr).unwrap();
        let k = m.min(n);
        let q_sync = sync.generate_q_on(&SimBackend::sync(&gs), k).unwrap();
        for &streams in &[1usize, 2, 4] {
            for &lookahead in &[false, true] {
                let g = Gpu::new(DeviceSpec::c2050());
                let (f, tl) = caqr_dag(&g, a.clone(), opts(h, w, streams, lookahead)).unwrap();
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
            let (f, _tl) = caqr_dag(&g, a, opts(64, 16, streams, lookahead)).unwrap();
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
    let (_f, tl) = caqr_dag(&g, a, opts(32, 8, 2, true)).unwrap();
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
    let cfg = gpu_sim::LaunchConfig {
        blocks: 14,
        threads_per_block: 64,
        shared_mem_bytes: 0,
        regs_per_thread: 8,
    };
    let cost = gpu_sim::BlockCost {
        flops: 1000,
        issue_cycles: 50_000.0,
        gmem_bytes: 0.0,
        smem_words: 0,
        syncs: 0,
    };
    let costs = vec![cost; 14];
    let s0 = g.create_stream();
    let s1 = g.create_stream();
    g.launch_with_costs_async(s0, "producer", cfg, &costs)
        .unwrap();
    let ev = g.record_event(s0);
    g.wait_event(s1, ev);
    g.launch_with_costs_async(s1, "consumer", cfg, &costs)
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
    let o = opts(32, 8, 1, false);
    let a = dense::generate::uniform::<f32>(300, 24, 11);
    let gs = Gpu::new(DeviceSpec::c2050());
    let _ = caqr::caqr::caqr(&gs, a.clone(), o.caqr).unwrap();
    let gd = Gpu::new(DeviceSpec::c2050());
    let (_, tl) = caqr_dag(&gd, a, o).unwrap();
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
    let (_f, tl) = caqr_dag(&g, a, opts(32, 8, 3, true)).unwrap();
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
        let sync = caqr::model::model_caqr_seconds(
            &Gpu::new(DeviceSpec::c2050()),
            m,
            192,
            CaqrOptions::default(),
        )
        .unwrap();
        let best = [2usize, 4]
            .iter()
            .map(|&s| {
                model_caqr_dag_seconds(
                    &Gpu::new(DeviceSpec::c2050()),
                    m,
                    192,
                    ScheduleOptions {
                        caqr: CaqrOptions::default(),
                        streams: s,
                        lookahead: true,
                    },
                )
                .unwrap()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < sync,
            "{m}x192: lookahead DAG {best} should beat sync {sync}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    fn dag_equivalence_holds_for_random_shapes(
        m in 20usize..150,
        n in 1usize..40,
        streams in 1usize..5,
        la in 0usize..2,
        seed in 0u64..1000,
    ) {
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let o = opts(16, 4, streams, la == 1);
        let gs = Gpu::new(DeviceSpec::c2050());
        let sync = caqr::caqr::caqr(&gs, a.clone(), o.caqr).unwrap();
        let gd = Gpu::new(DeviceSpec::c2050());
        let (f, tl) = caqr_dag(&gd, a, o).unwrap();
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

    fn model_replay_matches_execution_for_random_shapes(
        m in 40usize..200,
        n in 8usize..48,
        streams in 1usize..5,
        la in 0usize..2,
    ) {
        let o = opts(32, 8, streams, la == 1);
        let g1 = Gpu::new(DeviceSpec::c2050());
        let a = dense::generate::uniform::<f32>(m, n, 42);
        let (f, _tl) = caqr_dag(&g1, a, o).unwrap();
        let exec = g1.ledger();
        let g2 = Gpu::new(DeviceSpec::c2050());
        model_caqr_dag_seconds(&g2, m, n, o).unwrap();
        let modeled = g2.ledger();
        prop_assert_eq!(exec.calls, modeled.calls);
        prop_assert_eq!(f.launches as u64, modeled.calls);
        prop_assert!((exec.seconds - modeled.seconds).abs() / exec.seconds < 1e-9);
    }
}
