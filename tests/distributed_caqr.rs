//! Multi-device TSQR acceptance tests (DESIGN.md §11): the distributed
//! driver must be *bit-identical* to the single-device host path for every
//! device count — including runs that lose devices mid-flight and fail
//! their work over to survivors.

use caqr::distributed::{distributed_tsqr, DistOptions};
use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::{CaqrError, ReductionStrategy, TreeShape};
use dense::matrix::Matrix;
use gpu_sim::{Cluster, DeviceSpec, FaultPlan, LinkSpec, Topology};

const M: usize = 128 * 8;
const N: usize = 16;
const TILE: usize = 128;
const SEED: u64 = 42;

fn cluster(p: usize, topology: Topology) -> Cluster {
    Cluster::new(p, DeviceSpec::c2050(), LinkSpec::infiniband_qdr(), topology)
}

fn dist_opts(tree: TreeShape) -> DistOptions {
    DistOptions {
        tile_rows: TILE,
        tree,
        strategy: ReductionStrategy::RegisterSerialTransposed,
        verify_checksums: false,
    }
}

fn cpu_opts(tree: TreeShape) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: TILE,
        panel_width: N,
        tree,
        verify_checksums: false,
    }
}

/// Factor the reference input on the host path and return `(R, Q)`.
fn reference(tree: TreeShape) -> (Matrix<f32>, Matrix<f32>) {
    let a = dense::generate::uniform::<f32>(M, N, SEED);
    let f = caqr_cpu(a, cpu_opts(tree)).expect("host path factors");
    let q = f.generate_q(N).expect("host Q");
    (f.r(), q)
}

// Loss-free bit-identity across device counts and tree shapes moved to the
// property-based suite in `backend_conformance.rs`; this file keeps the
// device-loss / failover acceptance tests.

#[test]
fn device_loss_during_level0_fails_over_bit_identically() {
    let (r_ref, q_ref) = reference(TreeShape::DeviceArity);
    let c = cluster(4, Topology::BinomialTree);
    // Device 2's very first launch (its level-0 factor) finds the device
    // gone; a survivor must adopt its partition and the result must not
    // change by a single bit.
    c.device(2)
        .set_fault_plan(FaultPlan::device_loss_at_launches(&[0]));
    let a = dense::generate::uniform::<f32>(M, N, SEED);
    let (f, rep) = distributed_tsqr(&c, a, dist_opts(TreeShape::DeviceArity)).expect("fails over");
    assert_eq!(f.r(), r_ref, "R survives a level-0 device loss unchanged");
    assert_eq!(f.generate_q(N).expect("Q"), q_ref);
    assert_eq!(rep.devices_lost(), 1);
    assert!(!rep.alive[2]);
    assert_eq!(rep.recovery.device_failovers, 1);
    // Every tile the dead device owned now belongs to the survivor.
    assert!(rep.owner.iter().all(|&d| d != 2));
    // The loss and the adoption both land on the ledgers.
    assert_eq!(c.device(2).ledger().device_losses, 1);
    assert!(c.device(2).is_lost());
    let adoptions: u64 = (0..4).map(|d| c.device(d).ledger().device_failovers).sum();
    assert_eq!(adoptions, 1);
}

#[test]
fn device_loss_mid_tree_replays_completed_work() {
    // Binomial tree so non-root devices own tree groups: with 8 tiles on
    // 4 devices, device 1 leads the level-0 group of tiles {2,3} — its
    // second launch. Killing it there loses *completed* level-0 factors,
    // exercising the replay (not just reassignment) path.
    let (r_ref, q_ref) = reference(TreeShape::Binomial);
    let c = cluster(4, Topology::BinomialTree);
    c.device(1)
        .set_fault_plan(FaultPlan::device_loss_at_launches(&[1]));
    let a = dense::generate::uniform::<f32>(M, N, SEED);
    let (f, rep) = distributed_tsqr(&c, a, dist_opts(TreeShape::Binomial)).expect("fails over");
    assert_eq!(f.r(), r_ref, "R survives a mid-tree device loss unchanged");
    assert_eq!(f.generate_q(N).expect("Q"), q_ref);
    assert_eq!(rep.devices_lost(), 1);
    assert_eq!(rep.recovery.device_failovers, 1);
    // The survivor replayed the dead device's finished tile factors, so
    // more launches ran than the loss-free schedule needs.
    let clean = cluster(4, Topology::BinomialTree);
    let a2 = dense::generate::uniform::<f32>(M, N, SEED);
    let (_, clean_rep) = distributed_tsqr(&clean, a2, dist_opts(TreeShape::Binomial)).unwrap();
    assert!(
        rep.recovery.launches > clean_rep.recovery.launches,
        "replay must cost extra launches ({} vs {})",
        rep.recovery.launches,
        clean_rep.recovery.launches
    );
}

#[test]
fn cascading_losses_chain_failovers() {
    let (r_ref, q_ref) = reference(TreeShape::DeviceArity);
    let c = cluster(4, Topology::Ring);
    // Device 3 dies immediately; device 0 (the first survivor) adopts its
    // tiles and then dies on the adopted work's launch, forcing a second
    // failover onto device 1.
    c.device(3)
        .set_fault_plan(FaultPlan::device_loss_at_launches(&[0]));
    c.device(0)
        .set_fault_plan(FaultPlan::device_loss_at_launches(&[1]));
    let a = dense::generate::uniform::<f32>(M, N, SEED);
    let (f, rep) =
        distributed_tsqr(&c, a, dist_opts(TreeShape::DeviceArity)).expect("double failover");
    assert_eq!(f.r(), r_ref, "R survives cascading losses unchanged");
    assert_eq!(f.generate_q(N).expect("Q"), q_ref);
    assert_eq!(rep.devices_lost(), 2);
    assert!(!rep.alive[3] && !rep.alive[0]);
    assert_eq!(rep.recovery.device_failovers, 2);
    assert!(rep.owner.iter().all(|&d| d == 1 || d == 2));
}

#[test]
fn losing_every_device_is_unrecoverable() {
    let c = cluster(2, Topology::Ring);
    for d in 0..2 {
        c.device(d)
            .set_fault_plan(FaultPlan::device_loss_at_launches(&[0]));
    }
    let a = dense::generate::uniform::<f32>(M, N, SEED);
    match distributed_tsqr(&c, a, dist_opts(TreeShape::DeviceArity)) {
        Err(CaqrError::Unrecoverable { context }) => {
            assert!(context.contains("no surviving device"), "{context}");
        }
        other => panic!(
            "expected Unrecoverable, got {:?}",
            other.map(|(_, rep)| rep.recovery)
        ),
    }
}

#[test]
fn failover_charges_the_interconnect_and_pcie() {
    let c = cluster(4, Topology::BinomialTree);
    c.device(2)
        .set_fault_plan(FaultPlan::device_loss_at_launches(&[0]));
    let a = dense::generate::uniform::<f32>(M, N, SEED);
    let (f, _) = distributed_tsqr(&c, a, dist_opts(TreeShape::DeviceArity)).expect("fails over");
    // The survivor (the first alive device, 0) re-uploaded the dead
    // device's partition over PCIe: two 128-row tiles of 16 f32 columns.
    let up = c.device(0).ledger();
    assert_eq!(up.device_failovers, 1);
    assert!(
        up.h2d_bytes >= (2 * TILE * N * 4) as u64,
        "failover must charge the partition re-upload, got {} bytes",
        up.h2d_bytes
    );
    // Least-squares through the failed-over factorization still works —
    // the full solve path (apply + triangular solve) sees a coherent
    // factorization.
    let b = vec![1.0f32; M];
    let x = f.least_squares(&b).expect("solve");
    assert_eq!(x.len(), N);
    assert!(x.iter().all(|v| v.is_finite()));
}
