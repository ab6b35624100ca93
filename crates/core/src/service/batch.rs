//! The shape-fused batch engine: [`factor_many`] (the plain fast path)
//! and [`factor_many_resilient`] (ABFT verification and fault isolation),
//! one body for both. Same-shape jobs form a group that runs as one
//! [`Mode::Sync`](crate::backend::Mode::Sync) run of the generic driver
//! over all its members ([`drive_group`]) on [`CpuBackend`], whose group
//! methods pack every member's tasks into one parallel region per
//! schedule step. A member whose task panics, whose checksum fails or
//! whose planned fault fires is **carved** out of the group with a typed
//! [`CaqrError`] while its riders complete bit-identically.

use super::resilience::{Faulty, PlannedFault};
use crate::backend::{drive_group, CpuBackend, DriveConfig, Factorization};
use crate::error::{checked_elems, CaqrError};
use crate::multicore::{caqr_cpu, CpuCaqrOptions};
use crate::recovery::RecoveryPolicy;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use std::collections::BTreeMap;

/// The fusion key: jobs agreeing on all of this factor under one packed
/// launch sequence. Tree shapes are keyed by their *effective arity* — a
/// `DeviceArity` tree and an explicit `Arity(h/w)` tree plan identically.
/// Checksummed jobs still run solo through [`caqr_cpu`]: the group loop
/// can verify every member (it does for [`factor_many_resilient`]'s
/// `verify`), but letting them fuse is a separate change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FuseKey {
    m: usize,
    n: usize,
    h: usize,
    w: usize,
    arity: usize,
}

/// Classify one job: `Some(key)` if it can enter a fused group, `None` if
/// it must run solo (odd/invalid shapes, checksummed jobs). Solo jobs go
/// through [`caqr_cpu`] untouched, so invalid inputs surface exactly the
/// typed error a standalone run would produce.
pub(crate) fn fuse_key<T: Scalar>(a: &Matrix<T>, opts: &CpuCaqrOptions) -> Option<FuseKey> {
    let (m, n) = a.shape();
    let bs = opts.block_size();
    if opts.verify_checksums
        || m == 0
        || n == 0
        || bs.validate().is_err()
        || checked_elems(m, n, "matrix element count").is_err()
    {
        return None;
    }
    Some(FuseKey {
        m,
        n,
        h: bs.h,
        w: bs.w,
        arity: opts.tree.arity(bs),
    })
}

/// What one [`factor_many`] call did, for the ledger and the benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Jobs that ran inside a fused group of two or more (members carved
    /// out by a fault still count: they consumed fused launches).
    pub fused_jobs: usize,
    /// Jobs that ran as standalone `caqr_cpu` calls (odd shapes, checksum
    /// jobs, or the only member of their shape class).
    pub solo_jobs: usize,
    /// Fused groups executed.
    pub fused_groups: usize,
    /// Parallel regions actually issued by the fused groups — the number a
    /// one-at-a-time schedule would multiply by the group size: the packed
    /// health scan plus every packed factor and apply launch.
    pub fused_launches: usize,
    /// Sum over jobs of the launch count the synchronous driver would
    /// report for that job alone ([`crate::Factorization::launches`]).
    pub logical_launches: usize,
}

/// The launch count [`crate::backend::drive`] reports for one completed
/// host factorization: per panel, one level-0 factor launch plus one per
/// tree level, and the same again for the trailing apply when the panel
/// has trailing columns. The host health scan issues zero launches.
pub fn logical_launches<T: Scalar>(f: &Factorization<T>) -> usize {
    let n = f.a.cols();
    f.panels
        .iter()
        .map(|p| {
            let chain = 1 + p.levels.len();
            if p.col0 + p.width < n {
                2 * chain
            } else {
                chain
            }
        })
        .sum()
}

/// Factor many independent matrices, fusing same-shape jobs into packed
/// lockstep launches. Returns one result per job, in input order, each
/// **bit-identical** to `caqr_cpu(a, opts)` on the same input.
///
/// Jobs are grouped by shape class (shape, block size, tree arity); each
/// group of two or more runs the synchronous driver loop over all its
/// members, with the per-tile factor tasks, per-group tree reductions, and
/// per-(tile × column-block) trailing updates of *all* jobs packed into one
/// parallel region per schedule step (a flat work list with per-job
/// offsets). Odd shapes, checksummed jobs, and singleton classes fall back
/// to per-job [`caqr_cpu`] runs. Fusion preserves bit-identity because
/// every packed task reads and writes only its own job's matrix and the
/// schedule per job is unchanged — see the conformance proptest in
/// `tests/service_batching.rs`.
pub fn factor_many<T: Scalar>(
    jobs: Vec<(Matrix<T>, CpuCaqrOptions)>,
) -> Vec<Result<Factorization<T>, CaqrError>> {
    factor_many_with_stats(jobs).0
}

/// [`factor_many`] plus the fusion accounting the service ledger records:
/// [`factor_many_resilient`] with no faults and no verification.
pub fn factor_many_with_stats<T: Scalar>(
    jobs: Vec<(Matrix<T>, CpuCaqrOptions)>,
) -> (Vec<Result<Factorization<T>, CaqrError>>, BatchStats) {
    factor_many_resilient(jobs, &[], false, &RecoveryPolicy::default())
}

/// [`factor_many`] with fault isolation: the resilient batch engine behind
/// the service's chaos gate (DESIGN.md §15).
///
/// `faults[idx]` optionally schedules one injected fault against job
/// `idx` (missing / short slices mean "no fault"). `verify` additionally
/// turns on the ABFT checksums for every fused group and routes solo jobs
/// through the §10 escalation ladder even without a planned fault.
///
/// Semantics per job:
///
/// * a **fused member** whose fault fires (or whose packed task panics) is
///   carved out with a typed [`CaqrError`] — [`CaqrError::Fault`] /
///   [`CaqrError::Timeout`] / [`CaqrError::DeviceLost`] for admission
///   faults, [`CaqrError::ChecksumMismatch`] for an SDC caught by
///   verification, [`CaqrError::Panicked`] for a host panic — while every
///   rider completes **bit-identical** to its standalone run; the caller
///   (the service retry loop) re-runs the carved member solo through
///   [`super::run_solo_resilient`];
/// * a **solo job** with a planned fault runs the §10 ladder directly via
///   [`super::run_solo_resilient`], which recovers transient injections
///   internally — its output is bit-identical to a fault-free run;
/// * with no faults and `verify == false` this is [`factor_many_with_stats`].
pub fn factor_many_resilient<T: Scalar>(
    jobs: Vec<(Matrix<T>, CpuCaqrOptions)>,
    faults: &[Option<PlannedFault>],
    verify: bool,
    policy: &RecoveryPolicy,
) -> (Vec<Result<Factorization<T>, CaqrError>>, BatchStats) {
    let fault_at = |idx: usize| faults.get(idx).copied().flatten();
    let mut stats = BatchStats::default();
    let mut out: Vec<Option<Result<Factorization<T>, CaqrError>>> =
        jobs.iter().map(|_| None).collect();
    let mut groups: BTreeMap<FuseKey, Vec<Job<T>>> = BTreeMap::new();
    let mut solo: Vec<Job<T>> = Vec::new();
    for (idx, (a, opts)) in jobs.into_iter().enumerate() {
        match fuse_key(&a, &opts) {
            Some(key) => groups.entry(key).or_default().push((idx, a, opts)),
            None => solo.push((idx, a, opts)),
        }
    }

    for (key, members) in groups {
        if members.len() < 2 {
            solo.extend(members);
            continue;
        }
        run_group(&key, members, &fault_at, verify, &mut out, &mut stats);
    }
    for (idx, a, opts) in solo {
        let fault = fault_at(idx);
        let res = if fault.is_some() || verify {
            super::run_solo_resilient(a, opts, fault, policy).map(|(f, _)| f)
        } else {
            caqr_cpu(a, opts)
        };
        if let Ok(f) = &res {
            stats.logical_launches += logical_launches(f);
        }
        stats.solo_jobs += 1;
        out[idx] = Some(res);
    }

    let results = out
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect();
    (results, stats)
}

/// One job of a batch: its input index, matrix and options.
type Job<T> = (usize, Matrix<T>, CpuCaqrOptions);

/// Run one fused shape class through the group driver, on a
/// [`Faulty`] host backend when any member carries a planned fault.
fn run_group<T: Scalar>(
    key: &FuseKey,
    members: Vec<Job<T>>,
    fault_at: &dyn Fn(usize) -> Option<PlannedFault>,
    verify: bool,
    out: &mut [Option<Result<Factorization<T>, CaqrError>>],
    stats: &mut BatchStats,
) {
    // Members agree on everything the fuse key covers, so the first
    // member's options configure the whole group.
    let opts = members[0].2;
    let (idxs, mats): (Vec<usize>, Vec<Matrix<T>>) =
        members.into_iter().map(|(i, a, _)| (i, a)).unzip();
    let faults: Vec<Option<PlannedFault>> = idxs.iter().map(|&i| fault_at(i)).collect();
    let clean = faults.iter().all(Option::is_none);
    // A group carrying a fault always verifies, so an SDC is caught.
    let cfg = DriveConfig {
        verify_checksums: verify || !clean,
        ..opts.drive_config()
    };
    let group = if clean {
        drive_group(&CpuBackend, mats, &cfg)
    } else {
        let backend = Faulty::new(CpuBackend, &faults, key.m, key.n, key.w);
        drive_group(&backend, mats, &cfg)
    };
    // The packed health scan is one region; the host backend reports it
    // as zero launches.
    stats.fused_launches += 1 + group.launches;
    let mut fused = 0;
    for (idx, res) in idxs.into_iter().zip(group.members) {
        // A member failing the input scan never entered the fused loop.
        if matches!(res, Err(CaqrError::NonFinite { .. })) {
            stats.solo_jobs += 1;
        } else {
            fused += 1;
        }
        if let Ok(f) = &res {
            stats.logical_launches += f.launches;
        }
        out[idx] = Some(res);
    }
    if fused > 0 {
        stats.fused_jobs += fused;
        stats.fused_groups += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CaqrBackend;
    use crate::block::TreeShape;
    use crate::tsqr::{col_blocks, PanelFactor};
    use dense::MatPtr;
    use gpu_sim::FaultKind;

    fn opts(h: usize, w: usize) -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: h,
            panel_width: w,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }

    #[test]
    fn factor_many_is_bit_identical_to_sequential_runs() {
        let inputs: Vec<(Matrix<f64>, CpuCaqrOptions)> = vec![
            (dense::generate::uniform(300, 16, 1), opts(48, 16)),
            (dense::generate::uniform(300, 16, 2), opts(48, 16)),
            (dense::generate::uniform(200, 8, 3), opts(32, 8)),
            (dense::generate::uniform(300, 16, 4), opts(48, 16)),
            (dense::generate::uniform(127, 5, 5), opts(24, 5)),
        ];
        let (results, stats) =
            factor_many_with_stats(inputs.iter().map(|(a, o)| (a.clone(), *o)).collect());
        assert_eq!(stats.fused_jobs, 3);
        assert_eq!(stats.solo_jobs, 2);
        assert_eq!(stats.fused_groups, 1);
        for ((a, o), got) in inputs.into_iter().zip(results) {
            let got = got.unwrap();
            let want = caqr_cpu(a, o).unwrap();
            assert_eq!(got.a, want.a);
            assert_eq!(got.panels.len(), want.panels.len());
            assert_eq!(logical_launches(&got), logical_launches(&want));
        }
    }

    #[test]
    fn fused_group_spends_fewer_launches_than_one_at_a_time() {
        let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = (0..6)
            .map(|s| (dense::generate::uniform(400, 16, 100 + s), opts(64, 16)))
            .collect();
        let (results, stats) = factor_many_with_stats(jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(stats.fused_jobs, 6);
        // 6 jobs' logical chains were packed into one group's regions (plus
        // the one fused health scan): the whole point of the batch path.
        assert!(
            stats.fused_launches < stats.logical_launches,
            "fused {} vs logical {}",
            stats.fused_launches,
            stats.logical_launches
        );
    }

    #[test]
    fn nonfinite_member_fails_alone_with_the_standalone_error() {
        let mut bad = dense::generate::uniform::<f64>(300, 16, 7);
        bad[(17, 3)] = f64::NAN;
        let good = dense::generate::uniform::<f64>(300, 16, 8);
        let (results, _) = factor_many_with_stats(vec![
            (good.clone(), opts(48, 16)),
            (bad.clone(), opts(48, 16)),
            (dense::generate::uniform::<f64>(300, 16, 9), opts(48, 16)),
        ]);
        let want_err = match caqr_cpu(bad, opts(48, 16)) {
            Err(e) => e,
            Ok(_) => panic!("NaN input must fail standalone"),
        };
        match &results[1] {
            Err(e) => assert_eq!(e, &want_err),
            Ok(_) => panic!("NaN member must fail in the batch too"),
        }
        let got = results[0].as_ref().unwrap();
        let want = caqr_cpu(good, opts(48, 16)).unwrap();
        assert_eq!(got.a, want.a);
    }

    #[test]
    fn checksummed_jobs_run_solo_and_still_match() {
        let a = dense::generate::uniform::<f64>(256, 8, 11);
        let mut o = opts(32, 8);
        o.verify_checksums = true;
        let (results, stats) = factor_many_with_stats(vec![(a.clone(), o), (a.clone(), o)]);
        assert_eq!(stats.solo_jobs, 2);
        assert_eq!(stats.fused_jobs, 0);
        let want = caqr_cpu(a, o).unwrap();
        for r in &results {
            assert_eq!(r.as_ref().unwrap().a, want.a);
        }
    }

    #[test]
    fn verified_batch_without_faults_is_bit_identical_to_plain() {
        let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = (0..4)
            .map(|s| (dense::generate::uniform(260, 12, 40 + s), opts(48, 12)))
            .collect();
        let faults = vec![None; jobs.len()];
        let (results, stats) = factor_many_resilient(
            jobs.iter().map(|(a, o)| (a.clone(), *o)).collect(),
            &faults,
            true,
            &RecoveryPolicy::default(),
        );
        assert_eq!(stats.fused_jobs, 4);
        for ((a, o), got) in jobs.into_iter().zip(results) {
            let want = caqr_cpu(a, o).unwrap();
            assert_eq!(got.unwrap().a, want.a, "verified fused must stay bitwise");
        }
    }

    #[test]
    fn every_fault_kind_carves_only_its_member_and_riders_stay_bitwise() {
        let mk = |s: u64| dense::generate::uniform::<f64>(220, 16, 70 + s);
        let kinds = [
            (FaultKind::LaunchFail, 0u64),
            (FaultKind::Hang, 1),
            (FaultKind::Sdc, 0),       // factor-stage SDC
            (FaultKind::Sdc, 1),       // apply-stage SDC
            (FaultKind::HostPanic, 0), // factor-stage panic
            (FaultKind::HostPanic, 1), // apply-stage panic
            (FaultKind::DeviceLoss, 0),
        ];
        for (kind, stage) in kinds {
            let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> =
                (0..3).map(|s| (mk(s), opts(48, 16))).collect();
            // Member 1 carries the fault, steered to panel 0 and `stage`.
            let faults = vec![
                None,
                Some(PlannedFault {
                    kind,
                    ordinal: 42,
                    payload: stage,
                }),
                None,
            ];
            let (results, stats) = factor_many_resilient(
                jobs.iter().map(|(a, o)| (a.clone(), *o)).collect(),
                &faults,
                false,
                &RecoveryPolicy::default(),
            );
            assert_eq!(stats.fused_groups, 1);
            let e = match &results[1] {
                Err(e) => e,
                Ok(_) => panic!("{kind:?}/{stage} member must be carved out"),
            };
            match kind {
                FaultKind::LaunchFail => assert!(matches!(e, CaqrError::Fault { .. }), "{e:?}"),
                FaultKind::Hang => assert!(matches!(e, CaqrError::Timeout { .. }), "{e:?}"),
                FaultKind::Sdc => {
                    assert!(matches!(e, CaqrError::ChecksumMismatch { .. }), "{e:?}")
                }
                FaultKind::HostPanic => assert!(matches!(e, CaqrError::Panicked { .. }), "{e:?}"),
                FaultKind::DeviceLoss => {
                    assert!(matches!(e, CaqrError::DeviceLost { .. }), "{e:?}")
                }
            }
            // Riders complete bit-identically despite the carved member.
            for (i, (a, o)) in jobs.into_iter().enumerate() {
                if i == 1 {
                    continue;
                }
                let want = caqr_cpu(a, o).unwrap();
                assert_eq!(
                    results[i].as_ref().unwrap().a,
                    want.a,
                    "rider {i} diverged under {kind:?}/{stage}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_packed_task_carves_only_its_member() {
        // Member 1's factor loses its level-0 tail, so its horizontal apply
        // tasks index past the end and unwind inside the packed region,
        // before they write anything.
        let src: Vec<Matrix<f64>> = (0..3)
            .map(|s| dense::generate::uniform(200, 24, 50 + s))
            .collect();
        let cfg = opts(48, 8).drive_config();
        let mut mats = src.clone();
        let mut pfs: Vec<PanelFactor<f64>> = CpuBackend
            .factor_panel_group(&mut mats, &[0, 1, 2], 0, 0, 8, &cfg)
            .into_iter()
            .map(|r| r.expect("clean factor"))
            .collect();
        pfs[1].wy0.truncate(1);
        let cols = col_blocks(8, 24, 8);
        let work: Vec<(usize, &PanelFactor<f64>)> = pfs.iter().enumerate().collect();
        let applied = CpuBackend.apply_panel_group(&mut mats, &work, &cols, true);
        assert!(
            matches!(applied[1], Err(CaqrError::Panicked { .. })),
            "{:?}",
            applied[1]
        );
        for j in [0, 2] {
            assert!(applied[j].is_ok(), "rider {j}: {:?}", applied[j]);
            let mut want = src[j].clone();
            let pf = CpuBackend
                .factor_panel(0, &mut want, 0, 0, 8, &cfg)
                .expect("clean factor");
            CpuBackend
                .apply_panel(0, MatPtr::new(&mut want), &pf, &cols, true)
                .expect("clean apply");
            assert_eq!(mats[j], want, "rider {j} diverged");
        }
    }

    // The two `tiny_fused_group` tests are small enough for Miri, which
    // checks the cross-member `MatPtr` sharing of the packed regions.

    #[test]
    fn tiny_fused_group_plain_run() {
        let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = (0..2)
            .map(|s| (dense::generate::uniform(24, 8, 300 + s), opts(8, 4)))
            .collect();
        let (results, stats) =
            factor_many_with_stats(jobs.iter().map(|(a, o)| (a.clone(), *o)).collect());
        assert_eq!(stats.fused_groups, 1);
        for ((a, o), got) in jobs.into_iter().zip(results) {
            assert_eq!(got.unwrap().a, caqr_cpu(a, o).unwrap().a);
        }
    }

    #[test]
    fn tiny_fused_group_with_a_carved_member() {
        let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = (0..2)
            .map(|s| (dense::generate::uniform(24, 8, 310 + s), opts(8, 4)))
            .collect();
        // An SDC on member 0's first trailing update, caught by its
        // apply checksum.
        let faults = [Some(PlannedFault {
            kind: FaultKind::Sdc,
            ordinal: 0,
            payload: 1,
        })];
        let (results, stats) = factor_many_resilient(
            jobs.iter().map(|(a, o)| (a.clone(), *o)).collect(),
            &faults,
            false,
            &RecoveryPolicy::default(),
        );
        assert_eq!(stats.fused_groups, 1);
        assert!(matches!(
            results[0],
            Err(CaqrError::ChecksumMismatch { .. })
        ));
        let (a, o) = &jobs[1];
        let want = caqr_cpu(a.clone(), *o).unwrap();
        assert_eq!(results[1].as_ref().unwrap().a, want.a);
    }
}
