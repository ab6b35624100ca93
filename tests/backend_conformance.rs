//! Backend-conformance suite (DESIGN.md §13).
//!
//! Every executor behind the `CaqrBackend` trait — host multicore, the
//! simulator in synchronous and stream-DAG modes, the resilient executor,
//! and the multi-device cluster — runs the *same* generic driver over the
//! *same* `blockops` arithmetic, so each must produce, bit for bit, the
//! same factored matrix and the same packed compact-WY factors as the host
//! reference `caqr_cpu`. This file is the single home of that contract
//! (the per-path equivalence tests it replaced checked pairs of entry
//! points separately); the fault/failover paths keep their own suites in
//! `fault_injection.rs` and `distributed_caqr.rs`.

use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::schedule::{caqr_dag, ScheduleOptions};
use caqr::tsqr::{TreeNode, WyTile};
use caqr::{
    caqr_resilient, distributed_tsqr, BlockSize, CaqrOptions, CpuBackend, DistOptions,
    Factorization, RecoveryOptions, ReductionStrategy, SimBackend, TreeShape,
};
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::{Cluster, DeviceSpec, Gpu, LinkSpec, Topology};
use proptest::prelude::*;

/// Exact bit pattern of a scalar (`f32 -> f64` widening is lossless, so
/// two values share `bits` iff they are the same float).
fn bits<T: Scalar>(x: T) -> u64 {
    x.to_f64().to_bits()
}

fn push_matrix<T: Scalar>(out: &mut Vec<u64>, m: &Matrix<T>) {
    out.push(m.rows() as u64);
    out.push(m.cols() as u64);
    out.extend(m.as_slice().iter().map(|&x| bits(x)));
}

/// Flatten one panel's packed compact-WY factors — level-0 tiles and every
/// reduction-tree node — into a bit vector for exact comparison.
fn pack_panel<T: Scalar>(
    out: &mut Vec<u64>,
    col0: usize,
    width: usize,
    tiles: &[caqr::block::Tile],
    wy0: &[WyTile<T>],
    levels: &[Vec<TreeNode<T>>],
) {
    out.push(col0 as u64);
    out.push(width as u64);
    for t in tiles {
        out.push(t.start as u64);
        out.push(t.rows as u64);
    }
    for wy in wy0 {
        out.extend(wy.tau.iter().map(|&x| bits(x)));
        push_matrix(out, &wy.v);
        push_matrix(out, &wy.t);
        out.push(wy.healthy as u64);
    }
    for level in levels {
        for node in level {
            out.extend(node.members.iter().map(|&s| s as u64));
            push_matrix(out, &node.u);
            out.extend(node.tau.iter().map(|&x| bits(x)));
            push_matrix(out, &node.tmat);
            out.push(node.healthy as u64);
        }
    }
}

/// The full conformance fingerprint of a factorization: the factored
/// matrix (R + Householder tails) plus every packed panel factor.
fn fingerprint(f: &Factorization<f64>) -> Vec<u64> {
    let mut out = Vec::new();
    push_matrix(&mut out, &f.a);
    for p in &f.panels {
        pack_panel(&mut out, p.col0, p.width, &p.tiles, &p.wy0, &p.levels);
    }
    out
}

fn caqr_opts(h: usize, w: usize, strategy: ReductionStrategy) -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h, w },
        strategy,
        tree: TreeShape::DeviceArity,
        check_finite: true,
    }
}

fn cpu_opts(h: usize, w: usize) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree: TreeShape::DeviceArity,
        verify_checksums: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CpuBackend, SimBackend (sync), SimBackend (stream DAG, both with and
    /// without lookahead) and the resilient executor agree bit-for-bit on
    /// {factored matrix, packed WY factors}; every simulator run's launch
    /// count matches its device ledger exactly.
    #[test]
    fn all_single_device_backends_agree_bitwise(
        m in 20usize..260,
        n in 1usize..28,
        geom in 0usize..3,
        streams in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (h, w) = [(16, 4), (32, 8), (64, 16)][geom];
        let a = dense::generate::uniform::<f64>(m, n, seed);

        // Host reference. Its recorded launch count is the closed form of
        // the synchronous schedule: per panel a factor chain (one level-0
        // launch plus one per tree level) and, when the panel has trailing
        // columns, an apply chain of the same length; the host health scan
        // and pre-transpose book none.
        let reference = caqr_cpu(a.clone(), cpu_opts(h, w)).unwrap();
        let want = fingerprint(&reference);
        let closed_form: usize = reference
            .panels
            .iter()
            .map(|p| {
                let chain = 1 + p.levels.len();
                chain + if p.col0 + p.width < n { chain } else { 0 }
            })
            .sum();
        prop_assert_eq!(reference.launches, closed_form);

        // Simulator, synchronous Figure-4 loop.
        let g = Gpu::new(DeviceSpec::c2050());
        let o = caqr_opts(h, w, ReductionStrategy::RegisterSerialTransposed);
        let f = caqr::caqr::caqr(&g, a.clone(), o).unwrap();
        prop_assert_eq!(&fingerprint(&f), &want);
        prop_assert_eq!(f.launches as u64, g.ledger().calls);

        // One Q-apply loop over either backend: the host and simulator Q
        // agree bit-for-bit, and the simulator issues one apply chain
        // (horizontal launch plus one per tree level) per panel.
        let k = m.min(n);
        let before = g.ledger().calls;
        let q_sim = f.generate_q_on(&SimBackend::sync(&g), k).unwrap();
        let chains: usize = f.panels.iter().map(|p| 1 + p.levels.len()).sum();
        prop_assert_eq!(g.ledger().calls - before, chains as u64);
        let q_cpu = reference.generate_q_on(&CpuBackend, k).unwrap();
        let (mut qs, mut qc) = (Vec::new(), Vec::new());
        push_matrix(&mut qs, &q_sim);
        push_matrix(&mut qc, &q_cpu);
        prop_assert_eq!(qs, qc);

        // Simulator, stream DAG — barrier and lookahead schedules.
        for lookahead in [false, true] {
            let g = Gpu::new(DeviceSpec::c2050());
            let so = ScheduleOptions { caqr: o, streams, lookahead };
            let (f, _tl) = caqr_dag(&g, a.clone(), so).unwrap();
            prop_assert_eq!(&fingerprint(&f), &want);
            prop_assert_eq!(f.launches as u64, g.ledger().calls);
        }

        // Resilient executor, fault-free run.
        let g = Gpu::new(DeviceSpec::c2050());
        let ro = RecoveryOptions { caqr: o, streams, ..RecoveryOptions::default() };
        let (f, report) = caqr_resilient(&g, a, ro).unwrap();
        prop_assert_eq!(&fingerprint(&f), &want);
        // The resilient ledger also books the ABFT verify and snapshot
        // passes as host pseudo-ops; kernel launches are what's left.
        let l = g.ledger();
        let host_ops: u64 = ["checksum_verify", "snapshot"]
            .iter()
            .filter_map(|op| l.per_op.get(*op))
            .map(|e| e.calls)
            .sum();
        prop_assert_eq!(report.launches, l.calls - host_ops);
    }

    /// The cluster backend matches the host reference bit-for-bit across
    /// device counts, tree shapes and tile grids (replacing the fixed-shape
    /// distributed equivalence test), and a loss-free run performs no
    /// failovers.
    #[test]
    fn cluster_backend_agrees_bitwise_across_device_counts(
        ntiles in 2usize..8,
        n in 4usize..17,
        p in 1usize..5,
        tree_pick in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(p <= ntiles);
        let tree = [TreeShape::DeviceArity, TreeShape::Binomial][tree_pick];
        let m = 128 * ntiles + 31; // remainder row-merge exercised too
        let a = dense::generate::uniform::<f64>(m, n, seed);

        let reference = caqr_cpu(
            a.clone(),
            CpuCaqrOptions { tile_rows: 128, panel_width: n, tree, verify_checksums: false },
        )
        .unwrap();
        let want = fingerprint(&reference);

        let c = Cluster::new(p, DeviceSpec::c2050(), LinkSpec::infiniband_qdr(), Topology::BinomialTree);
        let opts = DistOptions {
            tile_rows: 128,
            tree,
            strategy: ReductionStrategy::RegisterSerialTransposed,
            verify_checksums: false,
        };
        let (f, rep) = distributed_tsqr(&c, a, opts).unwrap();
        prop_assert_eq!(&fingerprint(&f), &want);
        prop_assert_eq!(rep.devices_lost(), 0);
        prop_assert_eq!(rep.recovery.device_failovers, 0);
        prop_assert!(rep.recovery.launches > 0);
    }
}

/// Strategies only change the cost model; through the generic driver the
/// arithmetic must stay bit-for-bit identical to the host reference
/// (subsumes the old per-path strategy-equivalence test).
#[test]
fn every_strategy_matches_the_host_reference_bitwise() {
    let a = dense::generate::uniform::<f64>(300, 24, 7);
    let reference = caqr_cpu(a.clone(), cpu_opts(32, 8)).unwrap();
    let want = fingerprint(&reference);
    for s in ReductionStrategy::ALL {
        let g = Gpu::new(DeviceSpec::c2050());
        let f = caqr::caqr::caqr(&g, a.clone(), caqr_opts(32, 8, s)).unwrap();
        assert_eq!(
            fingerprint(&f),
            want,
            "strategy {s:?} changed the arithmetic"
        );
    }
}

/// Checksum verification is observation-only: a sync run with the ABFT
/// detectors on is bit-identical to one with them off, on both the host
/// and simulator backends.
#[test]
fn verification_does_not_perturb_any_backend() {
    let a = dense::generate::uniform::<f64>(256, 16, 13);
    let plain = caqr_cpu(a.clone(), cpu_opts(32, 8)).unwrap();
    let mut verified_opts = cpu_opts(32, 8);
    verified_opts.verify_checksums = true;
    let verified = caqr_cpu(a, verified_opts).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&verified));
}
