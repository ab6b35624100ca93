//! Property tests for the multi-tenant batching service (DESIGN.md §14).
//!
//! The fused `factor_many` path packs same-shape jobs into shared parallel
//! regions, but every packed task reads and writes only its own job's
//! matrix — so over a *random bag* of shapes, each returned factorization
//! must be bit-identical to a standalone sequential `caqr_cpu` run of the
//! same job. The service end-to-end must preserve that contract and keep
//! its per-tenant ledger reconciled (tenant rows summing exactly to the
//! global row).

use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::{factor_many, JobSpec, Priority, Service, ServiceConfig, TreeShape};
use dense::matrix::Matrix;
use proptest::prelude::*;

/// Shape palette the random bags draw from: two entries share `(n, h, w)`
/// but not `m` (never fused together), one is single-panel, one is
/// multi-panel with trailing updates, one is wide (`m < n`) and one uses a
/// binomial tree — repeats of any entry fuse.
const PALETTE: [(usize, usize, usize, usize, TreeShape); 6] = [
    (120, 8, 24, 8, TreeShape::DeviceArity),
    (100, 8, 24, 8, TreeShape::DeviceArity),
    (96, 16, 32, 16, TreeShape::DeviceArity),
    (64, 24, 32, 8, TreeShape::DeviceArity),
    (40, 64, 16, 8, TreeShape::DeviceArity),
    (150, 16, 24, 8, TreeShape::Binomial),
];

fn opts(h: usize, w: usize) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree: TreeShape::DeviceArity,
        verify_checksums: false,
    }
}

/// Exact bit pattern of a factorization: the factored matrix plus every
/// panel's level-0 compact-WY taus.
fn bits(f: &caqr::CpuCaqr<f64>) -> Vec<u64> {
    let mut out: Vec<u64> = f.a.as_slice().iter().map(|x| x.to_bits()).collect();
    for p in &f.panels {
        out.push(p.col0 as u64);
        out.push(p.width as u64);
        for wy in &p.wy0 {
            out.extend(wy.tau.iter().map(|t| t.to_bits()));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn factor_many_matches_sequential_caqr_cpu_bitwise(
        bag in collection::vec(0usize..PALETTE.len(), 2..9),
        seed in 0u64..1000,
    ) {
        let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = bag
            .iter()
            .enumerate()
            .map(|(j, &k)| {
                let (m, n, h, w, tree) = PALETTE[k];
                let a = dense::generate::uniform::<f64>(m, n, seed * 97 + j as u64);
                (a, CpuCaqrOptions { tree, ..opts(h, w) })
            })
            .collect();
        let solo: Vec<caqr::CpuCaqr<f64>> = jobs
            .iter()
            .map(|(a, o)| caqr_cpu(a.clone(), *o).expect("sequential run factors"))
            .collect();
        let (batched, stats) = factor_many(jobs.clone(), &[], false);
        let (verified, verified_stats) = factor_many(jobs, &[], true);
        // Verification changes nothing a fault-free batch reports.
        prop_assert_eq!(verified_stats, stats);
        for ((want, b), v) in solo.iter().zip(batched).zip(verified) {
            prop_assert_eq!(bits(&b.expect("batched run factors")), bits(want));
            prop_assert_eq!(bits(&v.expect("verified run factors")), bits(want));
        }

        // Closed-form launch counts: per panel one level-0 launch plus one
        // per tree level, twice when the panel has trailing columns. Every
        // job logs its own chains; each fused class issues one packed scan
        // plus one region per chain of a single member's schedule.
        let logical: Vec<usize> = solo
            .iter()
            .map(|f| {
                f.panels
                    .iter()
                    .map(|p| {
                        let trailing = p.col0 + p.width < f.a.cols();
                        (1 + p.levels.len()) * if trailing { 2 } else { 1 }
                    })
                    .sum()
            })
            .collect();
        let (mut fused_launches, mut fused_jobs, mut fused_groups) = (0, 0, 0);
        for k in 0..PALETTE.len() {
            let members: Vec<usize> = (0..bag.len()).filter(|&j| bag[j] == k).collect();
            if members.len() >= 2 {
                fused_launches += 1 + logical[members[0]];
                fused_jobs += members.len();
                fused_groups += 1;
            }
        }
        prop_assert_eq!(stats.logical_launches, logical.iter().sum::<usize>());
        prop_assert_eq!(stats.fused_launches, fused_launches);
        prop_assert_eq!((stats.fused_jobs, stats.fused_groups), (fused_jobs, fused_groups));
        prop_assert_eq!(stats.solo_jobs, bag.len() - fused_jobs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn service_preserves_bit_identity_and_reconciles_the_ledger(
        // Each draw packs (shape k, tenant t, priority p) into one integer:
        // k = v % 4, t = (v / 4) % 3, p = (v / 12) % 3.
        bag in collection::vec(0usize..36, 3..12),
        seed in 0u64..500,
    ) {
        let bag: Vec<(usize, usize, usize)> =
            bag.iter().map(|&v| (v % 4, (v / 4) % 3, (v / 12) % 3)).collect();
        let tenants = ["acme", "globex", "initech"];
        let classes = [Priority::Interactive, Priority::Standard, Priority::Batch];
        let svc = Service::<f64>::start(ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 4,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = bag
            .iter()
            .enumerate()
            .map(|(j, &(k, t, p))| {
                let (m, n, h, w, _) = PALETTE[k];
                let a = dense::generate::uniform::<f64>(m, n, seed * 131 + j as u64);
                svc.submit(JobSpec::new(a, opts(h, w)).tenant(tenants[t]).priority(classes[p]))
                    .expect("admission while running")
            })
            .collect();
        let outcomes: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("service delivers every outcome"))
            .collect();
        let ledger = svc.ledger();
        svc.shutdown();

        prop_assert!(ledger.reconcile().is_ok(), "ledger: {:?}", ledger.reconcile());
        let tenant_sum: u64 = ledger.tenants.values().map(|c| c.jobs_completed).sum();
        prop_assert_eq!(tenant_sum, ledger.global.jobs_completed);
        prop_assert_eq!(ledger.global.jobs_completed, bag.len() as u64);
        prop_assert_eq!(
            ledger.global.fused_jobs + ledger.global.solo_jobs,
            ledger.global.jobs_completed
        );

        for (j, (&(k, t, _), o)) in bag.iter().zip(&outcomes).enumerate() {
            prop_assert_eq!(&o.tenant, tenants[t]);
            let (m, n, h, w, _) = PALETTE[k];
            let a = dense::generate::uniform::<f64>(m, n, seed * 131 + j as u64);
            let solo = caqr_cpu(a, opts(h, w)).expect("standalone run factors");
            match &o.result {
                Ok(f) => prop_assert!(bits(f) == bits(&solo), "job {} diverges bitwise", j),
                Err(e) => prop_assert!(false, "job {} errored: {}", j, e),
            }
        }
    }
}
