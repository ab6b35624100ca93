//! Multi-device (distributed) TSQR over an interconnect-modelled cluster
//! (DESIGN.md §11).
//!
//! The paper factors a tall-skinny panel on *one* GPU; its communication-
//! avoiding structure — a tree of small `R`-triangle reductions — is exactly
//! the structure that also minimizes inter-*device* messages, so the same
//! algorithm scales out: partition the rows across the devices of a
//! [`gpu_sim::Cluster`], factor each device's tiles locally with the
//! [`blockops`] tile and tree-group tasks every executor runs (each phase
//! charged as one `factor` or `factor_tree` launch on its device), and let
//! tree groups that straddle devices pull the remote member triangles over
//! the link (one `w x w` triangle per member — the α·log(P) + small-β cost
//! that makes TSQR latency-optimal).
//!
//! ## Bit-identity
//!
//! The driver builds the *same* global tile grid and the *same* reduction
//! tree ([`plan_tree`]) as the single-device host path [`caqr_cpu`], and
//! every tile / tree group runs the same `blockops` arithmetic in the same
//! shared host memory — devices only affect *where* (and at what modelled
//! cost) each block executes, never what it computes. The factorization is
//! therefore bit-identical to [`caqr_cpu`] for every device count,
//! including runs that lose devices mid-flight (below).
//!
//! ## Device loss (recovery tier 3)
//!
//! A lost device ([`gpu_sim::Gpu::lose_at_launch`]) fails every launch on
//! it with [`CaqrError::DeviceLost`] — terminal on one device (see
//! [`crate::recovery`]), but here the driver *fails over*: a survivor
//! adopts the dead device's row partition (restored bit-exactly from the
//! pristine input and re-uploaded at modelled PCIe cost), and every
//! completed tile factor / tree group the dead device executed is replayed
//! in level order on the survivor. Because [`blockops::factor_tree_group`]
//! writes only the group leader's triangle and replay restores exactly the
//! pre-loss inputs, replayed work reproduces the lost results bit-for-bit —
//! so a run with failover still matches [`caqr_cpu`] exactly.
//!
//! [`caqr_cpu`]: crate::multicore::caqr_cpu

use crate::backend::{drive_group, CaqrBackend, DriveConfig, Factorization, Mode};
use crate::block::{plan_tree, tile_panel, BlockSize, Tile, TreeGroup, TreePlan, TreeShape};
use crate::blockops;
use crate::error::{checked_bytes, checked_elems, CaqrError};
use crate::health;
use crate::kernels::GridLaunch;
use crate::microkernels::ReductionStrategy;
use crate::recovery::RecoveryReport;
use crate::tsqr::{self, PanelFactor, TreeNode, WyTile};
use dense::arena::{self, ArenaBuf};
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::{Cluster, Exec, StreamId};
use rayon::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Options for [`distributed_tsqr`].
#[derive(Clone, Copy, Debug)]
pub struct DistOptions {
    /// Tile height (the panel width is the matrix width `n`; the pair must
    /// satisfy [`BlockSize::validate`], i.e. `tile_rows >= 2n`).
    pub tile_rows: usize,
    /// Reduction-tree shape shared by the local and cross-device levels.
    pub tree: TreeShape,
    /// Verify the panel's ABFT column-norm checksums after factoring
    /// (detection tier of the recovery ladder; see [`crate::health`]).
    pub verify_checksums: bool,
}

impl Default for DistOptions {
    /// The paper's shipping block geometry (128-row tiles, device-arity
    /// tree) with checksum verification off.
    fn default() -> Self {
        DistOptions {
            tile_rows: 128,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }
}

/// The microkernel strategy every device runs: the paper's shipping
/// strategy 4. It moves modelled cost only; the math is identical.
const STRATEGY: ReductionStrategy = ReductionStrategy::RegisterSerialTransposed;

/// What the cluster did during a [`distributed_tsqr`] run, reported beside
/// its [`Factorization`]: the recovery counters, the final tile → device
/// ownership map (differs from the initial contiguous split only after
/// failovers) and device liveness.
pub struct DistReport {
    /// Launch / replay / failover counters.
    pub recovery: RecoveryReport,
    /// Final owner device of each level-0 tile.
    pub owner: Vec<usize>,
    /// Which devices were still alive at completion.
    pub alive: Vec<bool>,
}

impl DistReport {
    /// Devices lost during the run.
    pub fn devices_lost(&self) -> usize {
        self.alive.iter().filter(|&&a| !a).count()
    }
}

/// Mutable driver state threaded through the phases: the work ledger
/// (what completed, where) is exactly what failover needs to replay.
struct Driver<'c, T: Scalar> {
    cluster: &'c Cluster,
    opts: DistOptions,
    width: usize,
    tiles: Vec<Tile>,
    plan: TreePlan,
    /// Absolute tile start row → tile index (tree members are start rows).
    tile_of_start: HashMap<usize, usize>,
    /// Current owner device per tile.
    owner: Vec<usize>,
    alive: Vec<bool>,
    streams: Vec<StreamId>,
    /// Untouched copy of the input: the failover restore source.
    pristine: Matrix<T>,
    /// Payload of one `w x w` triangle on the wire.
    tri_bytes: u64,
    report: RecoveryReport,
    // Completed-work ledger.
    tile_done: Vec<bool>,
    tile_exec: Vec<usize>,
    wy0: Vec<Option<WyTile<T>>>,
    /// The panel's level-0 `V` slab while `factor_panel` runs (empty
    /// otherwise); a replayed tile rewrites its own block.
    v: ArenaBuf<T>,
    level_nodes: Vec<Vec<Option<TreeNode<T>>>>,
    level_exec: Vec<Vec<usize>>,
}

impl<'c, T: Scalar> Driver<'c, T> {
    /// Factor the given tiles on device `d`: charge one `factor` launch,
    /// then factor the tiles in one parallel region.
    fn factor_tiles_on(
        &mut self,
        a: &mut Matrix<T>,
        d: usize,
        idxs: &[usize],
    ) -> Result<(), CaqrError> {
        let (gpu, width) = (self.cluster.device(d), self.width);
        let subset: Vec<Tile> = idxs.iter().map(|&t| self.tiles[t]).collect();
        self.report.launches += 1;
        let launch = GridLaunch::factor(gpu.spec(), &subset, width, STRATEGY, T::BYTES);
        gpu.charge_on(Exec::Stream(self.streams[d]), &launch)?;
        let a = MatPtr::new(a);
        let v = tsqr::v_blocks(&mut self.v, 0, width, &subset);
        let wy: Vec<WyTile<T>> = (0..subset.len())
            .into_par_iter()
            .map(|i| blockops::factor_tile(a, subset[i], 0, width, v[i]))
            .collect();
        for (wy, &t) in wy.into_iter().zip(idxs) {
            self.wy0[t] = Some(wy);
            self.tile_done[t] = true;
            self.tile_exec[t] = d;
        }
        Ok(())
    }

    /// Reduce the given groups of `plan.levels[level]` on device `d`: pull
    /// remote member triangles over the interconnect, charge one
    /// `factor_tree` launch, then reduce the groups in one parallel region.
    fn tree_groups_on(
        &mut self,
        a: &mut Matrix<T>,
        d: usize,
        level: usize,
        idxs: &[usize],
    ) -> Result<(), CaqrError> {
        let (cluster, width) = (self.cluster, self.width);
        let gpu = cluster.device(d);
        // Gather: each member triangle not resident on `d` costs one
        // point-to-point message (this is *all* the data the reduction
        // needs — the communication-avoiding payload).
        for &g in idxs {
            for &start in &self.plan.levels[level][g].members {
                let src = self.owner[self.tile_of_start[&start]];
                if src != d {
                    cluster.transfer(src, d, self.tri_bytes);
                }
            }
        }
        let groups: Vec<TreeGroup> = idxs
            .iter()
            .map(|&g| self.plan.levels[level][g].clone())
            .collect();
        self.report.launches += 1;
        let arities = groups.iter().map(|g| g.members.len()).collect();
        let launch = GridLaunch::factor_tree(gpu.spec(), arities, width, STRATEGY, T::BYTES);
        gpu.charge_on(Exec::Stream(self.streams[d]), &launch)?;
        let a = MatPtr::new(a);
        let nodes: Vec<TreeNode<T>> = (groups.par_iter())
            .map(|g| blockops::factor_tree_group(a, &g.members, 0, width))
            .collect();
        for (node, &g) in nodes.into_iter().zip(idxs) {
            self.level_nodes[level][g] = Some(node);
            self.level_exec[level][g] = d;
        }
        Ok(())
    }

    /// Tiles of `d` still awaiting their level-0 factor, or `None` if the
    /// device owns nothing pending.
    fn pending_tiles(&self, d: usize) -> Option<Vec<usize>> {
        let v: Vec<usize> = (0..self.tiles.len())
            .filter(|&t| self.owner[t] == d && !self.tile_done[t])
            .collect();
        (!v.is_empty()).then_some(v)
    }

    /// Groups of `level` led by a tile of `d` and not yet reduced.
    fn pending_groups(&self, d: usize, level: usize) -> Option<Vec<usize>> {
        let v: Vec<usize> = (0..self.plan.levels[level].len())
            .filter(|&g| {
                self.level_nodes[level][g].is_none()
                    && self.owner[self.tile_of_start[&self.plan.levels[level][g].members[0]]] == d
            })
            .collect();
        (!v.is_empty()).then_some(v)
    }

    /// Tier-3 recovery: mark `first_dead` lost and migrate its work to a
    /// survivor, chaining if a survivor dies mid-replay. Errors other than
    /// a further [`CaqrError::DeviceLost`] propagate.
    fn handle_loss(&mut self, a: &mut Matrix<T>, first_dead: usize) -> Result<(), CaqrError> {
        let mut dead = first_dead;
        loop {
            self.alive[dead] = false;
            let Some(surv) = self.alive.iter().position(|&alv| alv) else {
                return Err(CaqrError::Unrecoverable {
                    context: format!(
                        "device {dead} lost with no surviving device to adopt its work"
                    ),
                });
            };
            match self.adopt(a, dead, surv) {
                Ok(()) => return Ok(()),
                // The survivor died mid-replay; fail over again. Its
                // adopted-but-unreplayed work is found by the `!alive`
                // executor filter in the next `adopt`.
                Err(CaqrError::DeviceLost { .. }) => dead = surv,
                Err(e) => return Err(e),
            }
        }
    }

    /// Move every tile of `dead` to `surv`: restore the partition rows
    /// bit-exactly from the pristine input (charged as a host→device
    /// upload on the survivor), then replay — in level order — every
    /// completed unit whose executor is no longer alive.
    fn adopt(&mut self, a: &mut Matrix<T>, dead: usize, surv: usize) -> Result<(), CaqrError> {
        self.report.device_failovers += 1;
        self.cluster.device(surv).note_device_failover();
        let moved: Vec<usize> = (0..self.tiles.len())
            .filter(|&t| self.owner[t] == dead)
            .collect();
        let mut elems = 0usize;
        for &t in &moved {
            let tile = self.tiles[t];
            for j in 0..self.width {
                let rows = tile.start..tile.start + tile.rows;
                a.col_mut(j)[rows.clone()].copy_from_slice(&self.pristine.col(j)[rows]);
            }
            elems += tile.rows * self.width;
            self.owner[t] = surv;
        }
        let _ = self.cluster.device(surv).transfer_h2d(checked_bytes(
            elems,
            T::BYTES,
            "failover re-upload",
        )?);
        // Replay in dependency order: tile factors first, then each tree
        // level. Work executed by still-alive devices is never re-run
        // (`factor_tree_group` overwrites the leader triangle, so a rerun
        // on live state would corrupt it).
        let lost_tiles: Vec<usize> = moved
            .iter()
            .copied()
            .filter(|&t| self.tile_done[t] && !self.alive[self.tile_exec[t]])
            .collect();
        if !lost_tiles.is_empty() {
            self.factor_tiles_on(a, surv, &lost_tiles)?;
        }
        for level in 0..self.plan.levels.len() {
            let lost_groups: Vec<usize> = (0..self.plan.levels[level].len())
                .filter(|&g| {
                    self.level_nodes[level][g].is_some() && !self.alive[self.level_exec[level][g]]
                })
                .collect();
            if !lost_groups.is_empty() {
                self.tree_groups_on(a, surv, level, &lost_groups)?;
            }
        }
        self.cluster.sync_device(surv);
        Ok(())
    }

    /// Run the full distributed schedule: the level-0 factor phase, then
    /// each tree level. A [`CaqrError::DeviceLost`] mid-phase fails over
    /// ([`Driver::handle_loss`]) and the phase loop re-derives what is
    /// still pending from the work ledger.
    fn factor_all(&mut self, a: &mut Matrix<T>) -> Result<(), CaqrError> {
        let p = self.cluster.len();
        // Level 0: every device factors its own tiles.
        loop {
            let pending: Vec<(usize, Vec<usize>)> = (0..p)
                .filter_map(|d| self.pending_tiles(d).map(|v| (d, v)))
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut lost = None;
            for (d, idxs) in pending {
                match self.factor_tiles_on(a, d, &idxs) {
                    Ok(()) => {
                        self.cluster.sync_device(d);
                    }
                    Err(CaqrError::DeviceLost { .. }) => {
                        lost = Some(d);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if let Some(d) = lost {
                self.handle_loss(a, d)?;
            }
        }

        // Tree levels: groups run where their leader tile lives; remote
        // member triangles arrive over the interconnect inside
        // `tree_groups_on`.
        for level in 0..self.plan.levels.len() {
            loop {
                let pending: Vec<(usize, Vec<usize>)> = (0..p)
                    .filter_map(|d| self.pending_groups(d, level).map(|v| (d, v)))
                    .collect();
                if pending.is_empty() {
                    break;
                }
                let mut lost = None;
                for (d, idxs) in pending {
                    match self.tree_groups_on(a, d, level, &idxs) {
                        Ok(()) => {
                            self.cluster.sync_device(d);
                        }
                        Err(CaqrError::DeviceLost { .. }) => {
                            lost = Some(d);
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if let Some(d) = lost {
                    self.handle_loss(a, d)?;
                }
            }
        }
        Ok(())
    }
}

/// The multi-device cluster executor (DESIGN.md §11): one slot whose
/// [`factor_panel`](CaqrBackend::factor_panel) runs the whole distributed
/// phase schedule — level-0 tile factors on their owning devices, tree
/// levels with interconnect triangle gathers, tier-3 failover on device
/// loss. The one panel spans every column of the tall-skinny input, so the
/// generic driver never issues a trailing update through this backend.
///
/// Driver state (work ledger, ownership map, recovery counters) lives
/// behind a [`RefCell`], as [`CaqrBackend`]'s `&self` contract prescribes
/// for stateful executors; the host control flow is single-threaded.
pub struct ClusterBackend<'c, T: Scalar> {
    state: RefCell<Driver<'c, T>>,
}

impl<'c, T: Scalar> ClusterBackend<'c, T> {
    /// Partition the tiles of `a` contiguously over `cluster` (tile `t` of
    /// `ntiles` starts on device `t * P / ntiles`), build the shared
    /// reduction-tree plan, and set up the completed-work ledger failover
    /// replays from.
    fn new(cluster: &'c Cluster, a: &Matrix<T>, opts: DistOptions) -> Result<Self, CaqrError> {
        let (m, n) = a.shape();
        let bs = BlockSize {
            h: opts.tile_rows,
            w: n,
        };
        let p = cluster.len();
        let tiles = tile_panel(0, m, bs.h, bs.w);
        if p > tiles.len() {
            return Err(CaqrError::BadShape(format!(
                "{p} devices but only {} tiles of {} rows — shrink tile_rows or the cluster",
                tiles.len(),
                bs.h
            )));
        }
        checked_elems(m, n, "matrix element count")?;
        let tri_elems = checked_elems(n, n + 1, "triangle element count")? / 2;
        let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
        let plan = plan_tree(&starts, opts.tree.arity(bs));
        let tile_of_start: HashMap<usize, usize> =
            starts.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let ntiles = tiles.len();
        Ok(ClusterBackend {
            state: RefCell::new(Driver {
                cluster,
                opts,
                width: n,
                tile_of_start,
                owner: (0..ntiles).map(|t| t * p / ntiles).collect(),
                alive: vec![true; p],
                streams: (0..p).map(|d| cluster.device(d).create_stream()).collect(),
                pristine: a.clone(),
                tri_bytes: checked_bytes(tri_elems, T::BYTES, "reduction triangle")?,
                report: RecoveryReport::default(),
                tile_done: vec![false; ntiles],
                tile_exec: vec![usize::MAX; ntiles],
                wy0: (0..ntiles).map(|_| None).collect(),
                v: arena::take_dirty(0),
                level_nodes: plan
                    .levels
                    .iter()
                    .map(|l| l.iter().map(|_| None).collect())
                    .collect(),
                level_exec: plan
                    .levels
                    .iter()
                    .map(|l| vec![usize::MAX; l.len()])
                    .collect(),
                tiles,
                plan,
            }),
        })
    }

    /// Tear down into the [`DistReport`] of the run.
    fn finish(self) -> DistReport {
        let drv = self.state.into_inner();
        DistReport {
            recovery: drv.report,
            owner: drv.owner,
            alive: drv.alive,
        }
    }
}

impl<'c, T: Scalar> CaqrBackend<T> for ClusterBackend<'c, T> {
    type Token = ();

    fn slots(&self) -> usize {
        1
    }

    fn check_finite(
        &self,
        a: &Matrix<T>,
        _bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError> {
        if let Some((row, col)) = health::first_nonfinite(a) {
            return Err(CaqrError::NonFinite { context, row, col });
        }
        Ok(0)
    }

    fn pretranspose(&self, _m: usize, _n: usize, _bs: BlockSize) -> Result<usize, CaqrError> {
        // Like the host path, the distributed kernels pack `V` at factor
        // time; no separate pre-transpose pass is modelled.
        Ok(0)
    }

    fn factor_panel(
        &self,
        _slot: usize,
        a: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        width: usize,
        _cfg: &DriveConfig,
    ) -> Result<PanelFactor<T>, CaqrError> {
        let drv = &mut *self.state.borrow_mut();
        if row0 != 0 || col0 != 0 || width != drv.width {
            return Err(CaqrError::BadShape(format!(
                "distributed TSQR factors exactly one full-width panel at (0, 0), \
                 not a {width}-column panel at ({row0}, {col0})"
            )));
        }
        drv.v = arena::take_dirty(tsqr::v_share_len(0, a.rows(), drv.width));
        drv.factor_all(a)?;
        // The phase loops run until nothing is pending, so every ledger
        // slot is filled when they return cleanly.
        let wy0: Vec<WyTile<T>> = drv
            .wy0
            .iter_mut()
            .map(|w| w.take().expect("every tile factored"))
            .collect();
        let levels: Vec<Vec<TreeNode<T>>> = drv
            .level_nodes
            .iter_mut()
            .map(|lv| {
                lv.iter_mut()
                    .map(|nd| nd.take().expect("every tree group reduced"))
                    .collect()
            })
            .collect();
        Ok(PanelFactor {
            row0: 0,
            col0: 0,
            width: drv.width,
            tiles: drv.tiles.clone(),
            wy0,
            v: Arc::new(std::mem::replace(&mut drv.v, arena::take_dirty(0))),
            v_off: 0,
            levels,
            bs: BlockSize {
                h: drv.opts.tile_rows,
                w: drv.width,
            },
            strategy: STRATEGY,
        })
    }

    fn apply_panel(
        &self,
        _slot: usize,
        _c: MatPtr<T>,
        _pf: &PanelFactor<T>,
        _cols: &[(usize, usize)],
        _transpose: bool,
    ) -> Result<(), CaqrError> {
        // Unreachable from the driver: the single panel spans all `n`
        // columns, so there is never a trailing block to update.
        Err(CaqrError::BadShape(
            "distributed TSQR has no trailing updates to apply".into(),
        ))
    }

    fn record(&self, _slot: usize) -> Self::Token {}

    fn wait(&self, _slot: usize, _token: Self::Token) {}

    fn sync(&self) -> Result<(), CaqrError> {
        // Each phase already resolved its launches through
        // `Cluster::sync_device`; there is nothing left in flight.
        Ok(())
    }

    fn charge_verify(&self, elems: usize) {
        // Charge the host-side verification pass (one streamed read, two
        // flops per element) to the device holding the root triangle.
        let drv = self.state.borrow();
        let root = drv.cluster.device(drv.owner[0]);
        let bytes = elems as f64 * T::BYTES as f64;
        root.host_work(
            "checksum_verify",
            bytes / (root.spec().dram_bw_gbs * 1e9),
            2.0 * elems as f64,
        );
    }
}

/// Factor a tall-skinny `m x n` matrix across the devices of `cluster`,
/// returning a factorization bit-identical to
/// [`caqr_cpu`](crate::multicore::caqr_cpu) with the same tile geometry,
/// and the [`DistReport`] of what the cluster did.
///
/// Rows are split contiguously: tile `t` of `ntiles` starts on device
/// `t * P / ntiles`. Each phase (level-0 factor, then each tree level)
/// launches one kernel per owning device and resolves its stream through
/// [`Cluster::sync_device`], so compute lands on the per-device modelled
/// clocks and cross-device triangle gathers land on the interconnect.
/// A [`CaqrError::DeviceLost`] from any launch triggers tier-3 failover
/// (see the module docs) instead of propagating.
///
/// Errors: [`CaqrError::BadShape`] for invalid geometry (wide matrices,
/// `tile_rows < 2n`, more devices than tiles), [`CaqrError::NonFinite`]
/// for NaN/Inf input, [`CaqrError::Unrecoverable`] when every device is
/// lost, [`CaqrError::ChecksumMismatch`] if verification is on and trips.
pub fn distributed_tsqr<T: Scalar>(
    cluster: &Cluster,
    a: Matrix<T>,
    opts: DistOptions,
) -> Result<(Factorization<T>, DistReport), CaqrError> {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 || m < n {
        return Err(CaqrError::BadShape(format!(
            "distributed TSQR needs a tall-skinny matrix, got {m} x {n}"
        )));
    }
    let bs = BlockSize {
        h: opts.tile_rows,
        w: n,
    };
    bs.validate().map_err(CaqrError::BadShape)?;
    let backend = ClusterBackend::new(cluster, &a, opts)?;
    let cfg = DriveConfig {
        bs,
        strategy: STRATEGY,
        tree: opts.tree,
        check_finite: true,
        verify_checksums: opts.verify_checksums,
        health_context: "distributed_tsqr input",
    };
    // One full-width panel, so the driver issues exactly one
    // factor_panel call (the whole phase schedule) and no trailing
    // updates; the launch count the report carries comes from the
    // backend's own per-phase ledger, the checksum count from the loop's.
    let (f, checked) = drive_group(&backend, vec![a], &cfg, Mode::Sync, None).solo()?;
    let mut report = backend.finish();
    report.recovery.checksum_checks = checked.checksum_checks;
    Ok((f, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, LinkSpec, Topology};

    fn cluster(p: usize) -> Cluster {
        Cluster::new(
            p,
            DeviceSpec::c2050(),
            LinkSpec::infiniband_qdr(),
            Topology::BinomialTree,
        )
    }

    #[test]
    fn rejects_wide_and_misblocked_shapes() {
        let c = cluster(2);
        let wide = dense::generate::uniform::<f32>(16, 32, 3);
        assert!(matches!(
            distributed_tsqr(&c, wide, DistOptions::default()),
            Err(CaqrError::BadShape(_))
        ));
        let a = dense::generate::uniform::<f32>(256, 16, 3);
        let opts = DistOptions {
            tile_rows: 24, // < 2 * 16
            ..DistOptions::default()
        };
        assert!(matches!(
            distributed_tsqr(&c, a, opts),
            Err(CaqrError::BadShape(_))
        ));
    }

    #[test]
    fn rejects_more_devices_than_tiles() {
        let c = cluster(4);
        // 256 rows / 128-row tiles = 2 tiles < 4 devices.
        let a = dense::generate::uniform::<f32>(256, 16, 3);
        assert!(matches!(
            distributed_tsqr(&c, a, DistOptions::default()),
            Err(CaqrError::BadShape(_))
        ));
    }

    #[test]
    fn contiguous_partition_covers_all_devices() {
        let c = cluster(3);
        let a = dense::generate::uniform::<f32>(128 * 7, 16, 5);
        let (_, rep) = distributed_tsqr(&c, a, DistOptions::default()).unwrap();
        assert_eq!(rep.owner.len(), 7);
        for d in 0..3 {
            assert!(
                rep.owner.contains(&d),
                "device {d} owns no tile: {:?}",
                rep.owner
            );
        }
        let mut sorted = rep.owner.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, rep.owner, "contiguous split is monotone");
        assert_eq!(rep.devices_lost(), 0);
        assert_eq!(rep.recovery.device_failovers, 0);
    }

    #[test]
    fn cross_device_reductions_move_triangles() {
        let c = cluster(4);
        let a = dense::generate::uniform::<f32>(128 * 8, 16, 9);
        let (f, _) = distributed_tsqr(&c, a, DistOptions::default()).unwrap();
        let totals = c.net_totals();
        assert!(totals.messages > 0, "P=4 must reduce across devices");
        let tri = (16 * 17 / 2 * std::mem::size_of::<f32>()) as u64;
        assert_eq!(totals.bytes % tri, 0, "payloads are whole triangles");
        assert_eq!(f.r().cols(), 16);
    }

    #[test]
    fn tiny_two_device_cluster_matches_caqr_cpu() {
        // Small enough for Miri, which runs it in CI: each device's tile
        // and tree-group tasks write through `MatPtr` in a bare pool region.
        let a = dense::generate::uniform::<f64>(64, 4, 13);
        let opts = DistOptions {
            tile_rows: 16,
            ..DistOptions::default()
        };
        let (f, _) = distributed_tsqr(&cluster(2), a.clone(), opts).unwrap();
        let host = crate::multicore::CpuCaqrOptions {
            tile_rows: 16,
            panel_width: 4,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        };
        let want = crate::multicore::caqr_cpu(a, host).unwrap();
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&f.a), bits(&want.a));
    }

    #[test]
    fn single_device_cluster_needs_no_network() {
        let c = cluster(1);
        let a = dense::generate::uniform::<f64>(1024, 8, 11);
        let (f, _) = distributed_tsqr(&c, a, DistOptions::default()).unwrap();
        assert_eq!(c.net_totals().messages, 0);
        assert_eq!(f.r().cols(), 8);
    }
}
