//! Conservation and accounting invariants of the GPU simulator when driven
//! by the real CAQR pipeline (DESIGN.md §7).

use caqr::{BlockSize, CaqrOptions, ReductionStrategy};
use gpu_sim::{DeviceSpec, Gpu, LaunchConfig, LaunchError};

fn opts(h: usize, w: usize) -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h, w },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
        check_finite: true,
    }
}

#[test]
fn ledger_is_deterministic_across_runs() {
    let a = dense::generate::uniform::<f32>(500, 40, 1);
    let run = || {
        let g = Gpu::new(DeviceSpec::c2050());
        let _ = caqr::caqr::caqr(&g, a.clone(), opts(32, 8)).unwrap();
        g.ledger()
    };
    let l1 = run();
    let l2 = run();
    assert_eq!(l1.calls, l2.calls);
    assert!((l1.seconds - l2.seconds).abs() < 1e-15);
    assert_eq!(l1.flops, l2.flops);
    assert_eq!(l1.dram_bytes, l2.dram_bytes);
}

#[test]
fn recorded_flops_track_the_geqrf_closed_form() {
    // CAQR does more raw flops than SGEQRF (tree redundancy), but for a
    // skinny matrix the overshoot is bounded: between 1x and 2.5x of
    // 2mn^2 - (2/3)n^3.
    for (m, n) in [(2048usize, 32usize), (4096, 64), (1024, 16)] {
        let g = Gpu::new(DeviceSpec::c2050());
        let a = dense::generate::uniform::<f32>(m, n, 2);
        let _ = caqr::caqr::caqr(&g, a, opts(64, 16)).unwrap();
        let recorded = g.ledger().flops;
        let closed = dense::geqrf_flops(m, n);
        let ratio = recorded / closed;
        assert!(
            ratio > 0.9 && ratio < 2.5,
            "({m},{n}): recorded {recorded:.3e} vs closed-form {closed:.3e} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn dram_traffic_scales_linearly_for_tsqr() {
    // TSQR is communication-optimal: traffic should be O(m*n), i.e. a
    // constant number of passes over the matrix, independent of height.
    let traffic = |m: usize| {
        let g = Gpu::new(DeviceSpec::c2050());
        let a = dense::generate::uniform::<f32>(m, 16, 3);
        let _ = caqr::tsqr(
            &g,
            a,
            BlockSize::c2050_best(),
            ReductionStrategy::RegisterSerialTransposed,
        )
        .unwrap();
        g.ledger().dram_bytes / (m as f64 * 16.0 * 4.0)
    };
    let passes_small = traffic(16_384);
    let passes_big = traffic(131_072);
    assert!(
        (passes_big / passes_small - 1.0).abs() < 0.1,
        "passes per element should be ~constant: {passes_small:.2} vs {passes_big:.2}"
    );
    assert!(
        passes_big < 8.0,
        "TSQR should stream the panel a few times, got {passes_big:.2}"
    );
}

#[test]
fn launch_count_formula() {
    // For a matrix with p panels and L_p tree levels per panel:
    // pretranspose + per panel (factor + levels + apply_qt_h + levels) with
    // the apply side absent on the last panel.
    let g = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(512, 32, 4);
    let f = caqr::caqr::caqr(&g, a, opts(64, 16)).unwrap();
    assert_eq!(f.launches as u64, g.ledger().calls);
    // 2 panels of width 16, 64x16 blocks => quad-tree (arity 4).
    // Panel 0: 8 tiles -> 2 -> 1: two tree levels; panel 1 (496 rows, 8
    // tiles after remainder merge): two levels. Only panel 0 has a trailing
    // matrix. health_check(1) + pretranspose(1)
    // + p0(factor 1 + tree 2 + apply 1 + applytree 2)
    // + p1(factor 1 + tree 2) = 11.
    assert_eq!(g.ledger().calls, 11);
}

#[test]
fn oversized_shared_memory_is_rejected() {
    let g = Gpu::new(DeviceSpec::c2050());
    let cfg = LaunchConfig {
        blocks: 1,
        threads_per_block: 64,
        shared_mem_bytes: 48 * 1024 + 1,
        regs_per_thread: 8,
    };
    let r = g.launch_uniform("too_big", cfg, &gpu_sim::BlockCost::default());
    assert!(matches!(r, Err(LaunchError::SharedMemory { .. })));
}

#[test]
fn shared_serial_strategy_rejects_blocks_that_overflow_smem() {
    // A 512x64 block in shared memory needs 128 KB + staging > 48 KB: the
    // simulator must refuse the launch exactly like CUDA would.
    let g = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(4096, 64, 5);
    let r = caqr::caqr::caqr(
        &g,
        a,
        CaqrOptions {
            bs: BlockSize { h: 512, w: 64 },
            strategy: ReductionStrategy::SharedSerial,
            tree: caqr::block::TreeShape::DeviceArity,
            check_finite: true,
        },
    );
    assert!(
        matches!(
            r,
            Err(caqr::CaqrError::Launch(LaunchError::SharedMemory { .. }))
        ),
        "expected an smem launch failure"
    );
}

#[test]
fn modeled_time_monotone_in_problem_size() {
    let g = Gpu::new(DeviceSpec::c2050());
    let o = CaqrOptions::default();
    let mut last = 0.0;
    for m in [10_000usize, 40_000, 160_000, 640_000] {
        let t = caqr::model::model_caqr_seconds(&g, m, 64, o).unwrap();
        assert!(t > last, "time must grow with height: {t} after {last}");
        last = t;
    }
}

#[test]
fn gtx480_is_faster_than_c2050_on_the_same_workload() {
    let o = CaqrOptions::default();
    let t_c2050 = {
        let g = Gpu::new(DeviceSpec::c2050());
        caqr::model::model_caqr_seconds(&g, 200_000, 96, o).unwrap()
    };
    let t_gtx = {
        let g = Gpu::new(DeviceSpec::gtx480());
        caqr::model::model_caqr_seconds(&g, 200_000, 96, o).unwrap()
    };
    assert!(t_gtx < t_c2050, "{t_gtx} vs {t_c2050}");
}

#[test]
fn transfers_are_not_charged_for_resident_matrices() {
    // Per Section V-C the matrix is assumed GPU-resident; the factorization
    // itself must not touch PCIe.
    let g = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(1000, 32, 6);
    let _ = caqr::caqr::caqr(&g, a, opts(64, 16)).unwrap();
    let l = g.ledger();
    assert_eq!(l.transfers, 0);
    assert_eq!(l.h2d_bytes + l.d2h_bytes, 0);
}

#[test]
fn interconnect_ledgers_reconcile_with_trace_events() {
    // Drive a real distributed factorization and reconcile three
    // independent accounts of the same traffic: the per-device cost
    // ledgers (counter side), the cluster's event log (event side), and
    // the chrome trace (export side). Every byte, message, and hop must
    // appear in all three with identical totals.
    use caqr::distributed::{distributed_tsqr, DistOptions};
    use gpu_sim::{Cluster, LinkSpec, Topology};

    let p = 4;
    let c = Cluster::new(
        p,
        DeviceSpec::c2050(),
        LinkSpec::infiniband_qdr(),
        Topology::BinomialTree,
    );
    let a = dense::generate::uniform::<f32>(128 * 8, 16, 3);
    let (f, _) = distributed_tsqr(&c, a, DistOptions::default()).unwrap();
    assert_eq!(f.r().cols(), 16);

    let events = c.comm_events();
    assert!(!events.is_empty(), "P=4 must communicate");

    // Event side: aggregate the raw event log.
    let ev_messages = events.len() as u64;
    let ev_bytes: u64 = events.iter().map(|e| e.bytes).sum();
    let ev_hops: u64 = events.iter().map(|e| e.hops as u64).sum();
    let ev_seconds: f64 = events.iter().map(|e| e.end - e.start).sum();

    // Counter side A: the cluster's own totals.
    let totals = c.net_totals();
    assert_eq!(totals.messages, ev_messages);
    assert_eq!(totals.bytes, ev_bytes);
    assert_eq!(totals.hops, ev_hops);
    assert!((totals.seconds - ev_seconds).abs() <= 1e-12 * ev_seconds.max(1.0));

    // Counter side B: the senders' device ledgers, summed. `net_send` is
    // charged to the sending device exactly once per message.
    let ledgers: Vec<_> = (0..p).map(|d| c.device(d).ledger()).collect();
    assert_eq!(
        ledgers.iter().map(|l| l.net_messages).sum::<u64>(),
        ev_messages
    );
    assert_eq!(ledgers.iter().map(|l| l.net_bytes).sum::<u64>(), ev_bytes);
    assert_eq!(ledgers.iter().map(|l| l.net_hops).sum::<u64>(), ev_hops);
    let ledger_net_s: f64 = ledgers.iter().map(|l| l.net_seconds).sum();
    assert!((ledger_net_s - ev_seconds).abs() <= 1e-12 * ev_seconds.max(1.0));
    // Per-sender attribution matches the event log device by device.
    for (d, l) in ledgers.iter().enumerate() {
        let sent = events.iter().filter(|e| e.from == d).count() as u64;
        assert_eq!(l.net_messages, sent, "device {d} send count");
    }

    // Comm time lives on the cluster clocks only — the per-op entry
    // reports it, but it never advances the device's kernel clock: the
    // cluster's per-device time covers folded compute plus comm, so each
    // device clock (`seconds`) stays within its cluster time.
    for (d, l) in ledgers.iter().enumerate() {
        let net_op = l.per_op.get("net_send");
        let (op_s, op_b) = net_op.map_or((0.0, 0.0), |op| (op.seconds, op.bytes));
        assert!(
            (op_s - l.net_seconds).abs() <= 1e-15,
            "device {d} per-op/counter drift"
        );
        assert!((op_b - l.net_bytes as f64).abs() <= 1e-9);
        assert!(
            l.seconds <= c.device_time(d) + 1e-12,
            "device {d} kernel clock {} exceeds its cluster time {}",
            l.seconds,
            c.device_time(d)
        );
    }

    // Export side: every message appears in the chrome trace on a named
    // interconnect channel lane, and every device has its process row.
    let trace = c.chrome_trace();
    assert_eq!(
        trace.matches("\"cat\": \"net\"").count() as u64,
        ev_messages,
        "one net trace event per message"
    );
    for d in 0..p {
        assert!(
            trace.contains(&format!("device{d}")),
            "device {d} process row missing"
        );
    }
    assert!(trace.contains("interconnect"), "interconnect process row");
    for e in &events {
        assert!(
            trace.contains(&format!("d{}->d{}", e.from, e.to)),
            "channel lane d{}->d{} missing",
            e.from,
            e.to
        );
    }
}
