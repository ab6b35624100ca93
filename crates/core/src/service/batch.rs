//! The shape-fused batch engine, [`factor_many`]: the plain fast path,
//! ABFT verification and fault isolation in one body. Same-shape jobs
//! form a group that runs as one
//! [`Mode::Sync`](crate::backend::Mode::Sync) run of the generic driver
//! over all its members ([`drive_group`]) on [`CpuBackend`], whose group
//! methods pack every member's tasks into one parallel region per
//! schedule step. A member whose task panics, whose checksum fails or
//! whose planned fault fires is **carved** out of the group with a typed
//! [`CaqrError`] while its riders complete bit-identically.

use crate::backend::{
    drive_group, CpuBackend, DagGeometry, DriveConfig, Factorization, Faulty, Mode,
};
use crate::error::{checked_elems, CaqrError};
use crate::fault::{FaultPlan, PlannedFault};
use crate::multicore::CpuCaqrOptions;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use std::collections::BTreeMap;

/// The fusion key: jobs agreeing on all of this factor under one packed
/// launch sequence. Tree shapes are keyed by their *effective arity* — a
/// `DeviceArity` tree and an explicit `Arity(h/w)` tree plan identically.
/// Checksummed jobs fuse with each other: the group loop verifies every
/// member of their group, exactly as a standalone
/// [`caqr_cpu`](crate::multicore::caqr_cpu) would.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FuseKey {
    m: usize,
    n: usize,
    h: usize,
    w: usize,
    arity: usize,
    verify: bool,
}

/// Classify one job: `Some(key)` if it can enter a fused group, `None` if
/// it must run alone (odd/invalid shapes). A job alone runs as a group of
/// one — the call [`caqr_cpu`](crate::multicore::caqr_cpu) makes — so
/// invalid inputs surface exactly the typed error a standalone run would
/// produce.
pub(crate) fn fuse_key<T: Scalar>(a: &Matrix<T>, opts: &CpuCaqrOptions) -> Option<FuseKey> {
    let (m, n) = a.shape();
    let bs = opts.block_size();
    if m == 0
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
        verify: opts.verify_checksums,
    })
}

/// What one [`factor_many`] call did, for the ledger and the benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Jobs that ran inside a fused group of two or more (members carved
    /// out by a fault still count: they consumed fused launches).
    pub fused_jobs: usize,
    /// Jobs that ran alone: groups of one (odd shapes, or the only member
    /// of their shape class) and members that failed the input scan.
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
/// lockstep launches: the batch engine behind the service (DESIGN.md
/// §14–15). Returns one result per job, in input order, each
/// **bit-identical** to `caqr_cpu(a, opts)` on the same input, and the
/// fusion accounting the service ledger records.
///
/// Jobs are grouped by shape class (shape, block size, tree arity, and
/// whether they ask for checksums); each group runs the synchronous driver
/// loop over all its members, with the per-tile factor tasks, per-group
/// tree reductions, and per-(tile × column-block) trailing updates of
/// *all* jobs packed into one parallel region per schedule step (a flat
/// work list with per-job offsets). A checksummed group verifies every
/// member, and a member whose check fails gets the
/// [`CaqrError::ChecksumMismatch`] a standalone run would. Odd shapes and
/// singleton classes run as groups of one, the call `caqr_cpu` makes.
/// Fusion preserves bit-identity because every packed task reads and
/// writes only its own job's matrix and the schedule per job is unchanged
/// — see the conformance proptest in `tests/service_batching.rs`.
///
/// `faults[idx]` optionally schedules one injected fault against job
/// `idx` (missing / short slices mean "no fault"; pass `&[]` for none).
/// `verify` turns on the ABFT checksums for every group; a group carrying
/// a planned fault verifies anyway, so an SDC is caught.
///
/// Every job, fused or alone in its group, follows one rule: a member
/// whose fault fires (or whose task panics) is **carved** out with a typed
/// [`CaqrError`] — [`CaqrError::Fault`] / [`CaqrError::Timeout`] /
/// [`CaqrError::DeviceLost`] for admission faults,
/// [`CaqrError::ChecksumMismatch`] for an SDC caught by verification,
/// [`CaqrError::Panicked`] for a host panic — while every rider completes
/// **bit-identical** to its standalone run. Nothing is replayed here: the
/// caller (the service's retry rounds) re-runs carved jobs from their
/// input.
pub fn factor_many<T: Scalar>(
    jobs: Vec<(Matrix<T>, CpuCaqrOptions)>,
    faults: &[Option<PlannedFault>],
    verify: bool,
) -> (Vec<Result<Factorization<T>, CaqrError>>, BatchStats) {
    let (ran, stats) = factor_many_reported(jobs, faults, verify);
    (ran.into_iter().map(|r| r.0).collect(), stats)
}

/// One job's result and how the engine ran it: `Some(k)` if it ran fused,
/// `k` being the members of its group that ran fused (itself included),
/// `None` if it ran alone. The service's ledger charges jobs by it.
pub(crate) type Ran<T> = (Result<Factorization<T>, CaqrError>, Option<usize>);

/// [`factor_many`] reporting, per job, how the engine ran it.
pub(crate) fn factor_many_reported<T: Scalar>(
    jobs: Vec<(Matrix<T>, CpuCaqrOptions)>,
    faults: &[Option<PlannedFault>],
    verify: bool,
) -> (Vec<Ran<T>>, BatchStats) {
    let mut stats = BatchStats::default();
    let mut out: Vec<Option<Ran<T>>> = jobs.iter().map(|_| None).collect();
    let mut groups: BTreeMap<FuseKey, Vec<Job<T>>> = BTreeMap::new();
    let mut alone: Vec<Vec<Job<T>>> = Vec::new();
    for (idx, (a, opts)) in jobs.into_iter().enumerate() {
        let job = (idx, a, opts, faults.get(idx).copied().flatten());
        match fuse_key(&job.1, &opts) {
            Some(key) => groups.entry(key).or_default().push(job),
            None => alone.push(vec![job]),
        }
    }
    for members in groups.into_values().chain(alone) {
        run_group(members, verify, &mut out, &mut stats);
    }

    let ran = out.into_iter().map(|r| r.expect("a result per job"));
    (ran.collect(), stats)
}

/// One job of a batch: its input index, matrix, options and planned fault.
type Job<T> = (usize, Matrix<T>, CpuCaqrOptions, Option<PlannedFault>);

/// Whether a member of a group of `size` ran fused: the group has two or
/// more members and this one passed the input scan (a member failing it
/// never entered the fused loop).
fn ran_fused<T: Scalar>(size: usize, res: &Result<Factorization<T>, CaqrError>) -> bool {
    size >= 2 && !matches!(res, Err(CaqrError::NonFinite { .. }))
}

/// Run one group of jobs — a fused shape class, or a job alone in its
/// class — through the group driver, on a [`Faulty`] host backend when any
/// member carries a planned fault. A member's fault becomes a one-entry
/// plan on the task ordinal its payload picks, counting the member's
/// tasks in the fault-free schedule: one factor per panel, plus one apply
/// when the panel has trailing columns.
fn run_group<T: Scalar>(
    members: Vec<Job<T>>,
    verify: bool,
    out: &mut [Option<Ran<T>>],
    stats: &mut BatchStats,
) {
    // Members agree on everything the fuse key covers, so the first
    // member's options configure the whole group.
    let opts = members[0].2;
    let (m, n) = members[0].1.shape();
    let size = members.len();
    let idxs: Vec<usize> = members.iter().map(|j| j.0).collect();
    let faults: Vec<Option<PlannedFault>> = members.iter().map(|j| j.3).collect();
    let mats: Vec<Matrix<T>> = members.into_iter().map(|j| j.1).collect();
    let clean = faults.iter().all(Option::is_none);
    // A group carrying a fault always verifies, so an SDC is caught; a
    // checksummed group verifies because its options say so.
    let cfg = DriveConfig {
        verify_checksums: opts.verify_checksums || verify || !clean,
        ..opts.drive_config()
    };
    // The steering counts the panel schedule's tasks, which needs a valid
    // block size; an invalid one fails in the driver's own validation,
    // before any fault could fire.
    let group = if clean || cfg.bs.validate().is_err() {
        drive_group(&CpuBackend, mats, &cfg, Mode::Sync, None)
    } else {
        let tasks: u64 = (DagGeometry::new(m, n, cfg.bs.w, 1).steps.iter())
            .map(|s| if s.c + s.width < n { 2 } else { 1 })
            .sum();
        let plans = (faults.iter())
            .map(|f| f.map_or_else(FaultPlan::default, |f| f.task_plan(tasks)))
            .collect();
        let backend = Faulty::new(CpuBackend, plans);
        drive_group(&backend, mats, &cfg, Mode::Sync, None)
    };
    let in_fused: Vec<bool> = group.members.iter().map(|r| ran_fused(size, r)).collect();
    let fused = in_fused.iter().filter(|&&f| f).count();
    stats.solo_jobs += size - fused;
    for ((idx, res), in_fused) in idxs.into_iter().zip(group.members).zip(in_fused) {
        if let Ok(f) = &res {
            stats.logical_launches += logical_launches(f);
        }
        out[idx] = Some((res, in_fused.then_some(fused)));
    }
    if size >= 2 {
        // The packed health scan is one region; the host backend reports
        // it as zero launches.
        stats.fused_launches += 1 + group.launches;
    }
    stats.fused_jobs += fused;
    stats.fused_groups += usize::from(fused > 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CaqrBackend;
    use crate::block::TreeShape;
    use crate::fault::FaultKind;
    use crate::multicore::caqr_cpu;
    use crate::tsqr::{col_blocks, PanelFactor};
    use dense::MatPtr;

    fn opts(h: usize, w: usize) -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: h,
            panel_width: w,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }

    #[test]
    fn fused_group_spends_fewer_launches_than_one_at_a_time() {
        let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = (0..6)
            .map(|s| (dense::generate::uniform(400, 16, 100 + s), opts(64, 16)))
            .collect();
        let (results, stats) = factor_many(jobs, &[], false);
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
        let jobs = vec![
            (good.clone(), opts(48, 16)),
            (bad.clone(), opts(48, 16)),
            (dense::generate::uniform::<f64>(300, 16, 9), opts(48, 16)),
        ];
        let (results, _) = factor_many(jobs, &[], false);
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
    fn checksummed_jobs_fuse_and_still_match() {
        let a = dense::generate::uniform::<f64>(256, 8, 11);
        let mut o = opts(32, 8);
        o.verify_checksums = true;
        let (results, stats) = factor_many(vec![(a.clone(), o), (a.clone(), o)], &[], false);
        assert_eq!(stats.fused_jobs, 2);
        assert_eq!(stats.solo_jobs, 0);
        let want = caqr_cpu(a, o).unwrap();
        for r in &results {
            assert_eq!(r.as_ref().unwrap().a, want.a);
        }
    }

    #[test]
    fn unkeyable_jobs_keep_the_standalone_error() {
        let sdc = PlannedFault {
            kind: FaultKind::Sdc,
            ordinal: 5,
            payload: 1,
        };
        let cases = [
            (dense::generate::uniform::<f64>(64, 8, 1), opts(16, 0)),
            (dense::generate::uniform::<f64>(64, 8, 2), opts(10, 8)),
            (Matrix::<f64>::zeros(0, 4), opts(16, 4)),
        ];
        for (a, o) in cases {
            let want = match caqr_cpu(a.clone(), o) {
                Err(e @ CaqrError::BadShape(_)) => e,
                other => panic!("{o:?} must fail standalone, got {:?}", other.err()),
            };
            for fault in [None, Some(sdc)] {
                for verify in [false, true] {
                    let (results, stats) = factor_many(vec![(a.clone(), o)], &[fault], verify);
                    let case = format!("{o:?} fault {fault:?} verify {verify}");
                    assert_eq!(results[0].as_ref().err(), Some(&want), "{case}");
                    assert_eq!(stats.solo_jobs, 1, "{case}");
                }
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
            .factor_panel_group(0, &mut mats, &[0, 1, 2], 0, 0, 8, &cfg)
            .into_iter()
            .map(|r| r.expect("clean factor"))
            .collect();
        pfs[1].wy0.truncate(1);
        let cols = col_blocks(8, 24, 8);
        let work: Vec<(usize, &PanelFactor<f64>)> = pfs.iter().enumerate().collect();
        let applied = CpuBackend.apply_panel_group(0, &mut mats, &work, &cols, true);
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
        let inputs = jobs.iter().map(|(a, o)| (a.clone(), *o)).collect();
        let (results, stats) = factor_many(inputs, &[], false);
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
        let (results, stats) = factor_many(
            jobs.iter().map(|(a, o)| (a.clone(), *o)).collect(),
            &faults,
            false,
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
