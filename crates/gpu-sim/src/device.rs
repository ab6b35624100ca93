//! The simulated GPU: executes kernels for real on the rayon pool and
//! converts their recorded operation counts into modelled time.
//!
//! # Timing model (DESIGN.md §5)
//!
//! * Each SM issues one warp instruction per cycle; blocks are assigned to
//!   SMs round-robin and serialize through the issue port, so
//!   `issue_time = max_sm(sum of its blocks' issue cycles) / clock`.
//!   This naturally penalizes launches with fewer blocks than SMs.
//! * DRAM is a shared resource: `dram_time = total_bytes / bandwidth`.
//! * A launch costs `overhead + max(issue_time, dram_time)` — the roofline.
//!
//! Kernels may also be launched in *model-only* mode ([`Gpu::launch_uniform`])
//! where the per-block cost is supplied analytically instead of being
//! recorded during execution; the `caqr` crate derives both from the same
//! cost functions so the two paths agree (tested in `caqr::kernels`).

use crate::cost::{BlockCost, CostMeter, KernelReport};
use crate::fault::{self, FaultKind, FaultPlan, RetryPolicy};
use crate::kernel::{BlockCtx, Kernel, LaunchConfig, LaunchError};
use crate::ledger::CostLedger;
use crate::spec::{DeviceSpec, PcieSpec};
use crate::stream::{EventId, QueuedKernel, StreamId, StreamOp, StreamTable};
use crate::timeline::{self, Timeline};
use dense::Scalar;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Where a launch goes: the synchronous timeline, or an asynchronous
/// stream queue. Lets algorithm code be written once and scheduled either
/// way (the `caqr` crate threads this through its kernel wrappers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// Launch synchronously: time and record immediately.
    Sync,
    /// Enqueue on a stream: numerics run now, timing resolves at
    /// [`Gpu::synchronize`].
    Stream(StreamId),
}

/// Installed fault-injection state: the plan, the retry policy, and the
/// admission-order launch counter the plan indexes by.
struct FaultState {
    plan: FaultPlan,
    policy: RetryPolicy,
    next_launch: u64,
}

/// What admission decided about one launch beyond pass/fail: a pending
/// silent-data-corruption payload (the launch runs, then one output element
/// is perturbed) and accumulated watchdog stall from hung attempts that
/// were killed and resubmitted before one finally completed.
struct Admission {
    sdc: Option<u64>,
    stall_seconds: f64,
}

impl Admission {
    const CLEAN: Admission = Admission {
        sdc: None,
        stall_seconds: 0.0,
    };
}

/// The watchdog deadline for hung launches, microseconds. Each hung
/// attempt charges it as stall time before the kill + resubmit; a launch
/// hanging on its final attempt surfaces [`LaunchError::Timeout`]. Generous
/// relative to the sub-millisecond kernels the paper's grids produce, so
/// the watchdog never fires on healthy work.
pub const DEFAULT_WATCHDOG_US: f64 = 10_000.0;

/// A simulated GPU with its modelled timeline.
pub struct Gpu {
    spec: DeviceSpec,
    pcie: PcieSpec,
    ledger: Mutex<CostLedger>,
    streams: Mutex<StreamTable>,
    fault: Mutex<Option<FaultState>>,
    /// Set when a `FaultKind::DeviceLoss` fires: the device is gone and
    /// every subsequent admission fails with [`LaunchError::DeviceLost`]
    /// until [`Gpu::reset`] revives it.
    lost: AtomicBool,
}

impl Gpu {
    /// Create a device from a spec with a PCIe Gen2 x16 host link.
    pub fn new(spec: DeviceSpec) -> Self {
        Gpu {
            spec,
            pcie: PcieSpec::gen2_x16(),
            ledger: Mutex::new(CostLedger::default()),
            streams: Mutex::new(StreamTable::default()),
            fault: Mutex::new(None),
            lost: AtomicBool::new(false),
        }
    }

    /// Install a fault-injection plan with the default [`RetryPolicy`].
    /// Launches are numbered from 0 in admission order from this call on.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.set_fault_plan_with_policy(plan, RetryPolicy::default());
    }

    /// Install a fault-injection plan with an explicit retry policy.
    pub fn set_fault_plan_with_policy(&self, plan: FaultPlan, policy: RetryPolicy) {
        *self.fault.lock() = Some(FaultState {
            plan,
            policy,
            next_launch: 0,
        });
    }

    /// Remove any installed fault plan; subsequent launches always succeed.
    pub fn clear_fault_plan(&self) {
        *self.fault.lock() = None;
    }

    /// Admit one launch under the installed fault plan (if any).
    ///
    /// * **Launch failures** charge the wasted submission overhead plus an
    ///   exponential host backoff to the ledger, then the launch is
    ///   resubmitted. They fire **before** any block executes — the CUDA
    ///   analogue is a launch failure reported at submission — so in-place
    ///   kernels are never partially applied and a retried run is
    ///   bit-identical to a fault-free one.
    /// * **Hangs** are killed by the deadline watchdog: each hung attempt
    ///   accumulates `overhead + deadline + backoff` of stall (returned in
    ///   the [`Admission`] so the caller charges it on the right timeline —
    ///   global clock when synchronous, the stream's lane when queued) and
    ///   is resubmitted under the same retry budget. Kill + resubmit is
    ///   safe for the same reason launch-failure retry is: a hung launch
    ///   never commits partial output in this model.
    /// * **SDC** admits the launch normally and returns the deterministic
    ///   corruption payload; the launch path applies it to the kernel's
    ///   output after the grid completes.
    ///
    /// Exhausting the budget returns [`LaunchError::Timeout`] when the
    /// final attempt hung, [`LaunchError::DeviceFault`] otherwise — in both
    /// cases with device memory untouched by this launch.
    ///
    /// **Device loss** is different in kind: the faulted launch returns
    /// [`LaunchError::DeviceLost`] with *no* retry (a dead device does not
    /// answer resubmissions), the device is marked lost, and every later
    /// admission fails the same way until [`Gpu::reset`]. Launch ordinals
    /// keep counting on a lost device so fault plans stay aligned.
    fn admit(&self, name: &'static str) -> Result<Admission, LaunchError> {
        let mut guard = self.fault.lock();
        if self.lost.load(Ordering::Relaxed) {
            let idx = guard.as_mut().map_or(0, |state| {
                let i = state.next_launch;
                state.next_launch += 1;
                i
            });
            return Err(LaunchError::DeviceLost {
                kernel: name,
                launch_index: idx,
            });
        }
        let Some(state) = guard.as_mut() else {
            return Ok(Admission::CLEAN);
        };
        let idx = state.next_launch;
        state.next_launch += 1;
        let max = state.policy.max_attempts.max(1);
        let overhead = self.spec.launch_overhead_us * 1.0e-6;
        let mut stall_seconds = 0.0;
        let mut hung_last = false;
        for attempt in 0..max {
            let kind = state.plan.fault_kind(idx, attempt);
            match kind {
                None | Some(FaultKind::Sdc) => {
                    if attempt > 0 {
                        self.ledger.lock().retries += 1;
                    }
                    return Ok(Admission {
                        sdc: kind.map(|_| fault::sdc_payload(idx, attempt)),
                        stall_seconds,
                    });
                }
                Some(FaultKind::LaunchFail) => {
                    hung_last = false;
                    self.ledger
                        .lock()
                        .record_fault(overhead + state.policy.backoff_seconds(attempt));
                }
                Some(FaultKind::Hang) => {
                    hung_last = true;
                    stall_seconds += overhead
                        + DEFAULT_WATCHDOG_US * 1.0e-6
                        + state.policy.backoff_seconds(attempt);
                    self.ledger.lock().record_hang();
                }
                Some(FaultKind::HostPanic) => {
                    // The *host* thread driving this launch dies: unwind
                    // instead of returning, exactly where a crashed worker
                    // would take down its submission path. A supervisor
                    // (e.g. the service worker loop) catches the unwind and
                    // serves on; launch ordinals keep counting so the plan
                    // stays aligned for the replay.
                    panic!("injected host panic: launch #{idx} of kernel `{name}`");
                }
                Some(FaultKind::DeviceLoss) => {
                    // The device is gone. Charge any stall spent discovering
                    // earlier hung attempts, mark the device dead, and fail
                    // without retrying — resubmission cannot reach it.
                    self.lost.store(true, Ordering::Relaxed);
                    let mut ledger = self.ledger.lock();
                    if stall_seconds > 0.0 {
                        ledger.record_stall(stall_seconds, true);
                    }
                    ledger.record_device_loss();
                    return Err(LaunchError::DeviceLost {
                        kernel: name,
                        launch_index: idx,
                    });
                }
            }
        }
        // The stall spent discovering the hang is real wall-clock even
        // though the launch ultimately fails; charge it before surfacing.
        if stall_seconds > 0.0 {
            self.ledger.lock().record_stall(stall_seconds, true);
        }
        Err(if hung_last {
            LaunchError::Timeout {
                kernel: name,
                launch_index: idx,
                deadline_us: DEFAULT_WATCHDOG_US as u64,
            }
        } else {
            LaunchError::DeviceFault {
                kernel: name,
                launch_index: idx,
                attempts: max,
            }
        })
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Snapshot of the modelled timeline.
    pub fn ledger(&self) -> CostLedger {
        self.ledger.lock().clone()
    }

    /// Modelled seconds elapsed so far.
    pub fn elapsed(&self) -> f64 {
        self.ledger.lock().seconds
    }

    /// Has this device been lost to a `FaultKind::DeviceLoss`? A lost
    /// device rejects every launch with [`LaunchError::DeviceLost`] until
    /// [`Gpu::reset`] revives it.
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Relaxed)
    }

    /// Record that this device adopted a lost device's workload as the
    /// failover survivor (tier-3 recovery; called by multi-device drivers).
    pub fn note_device_failover(&self) {
        self.ledger.lock().record_device_failover();
    }

    /// Record one interconnect message sent by this device (counts only;
    /// the cluster clock owns the modelled communication time). Called by
    /// `gpu_sim::interconnect::Cluster` on every send.
    pub fn note_net_send(&self, bytes: u64, hops: u64, seconds: f64) {
        self.ledger.lock().record_net_send(bytes, hops, seconds);
    }

    /// Clear the timeline (between experiments). Also discards all streams
    /// and any launches queued but not yet synchronized, and revives a
    /// lost device (the simulation analogue of replacing the node).
    pub fn reset(&self) {
        *self.ledger.lock() = CostLedger::default();
        *self.streams.lock() = StreamTable::default();
        self.lost.store(false, Ordering::Relaxed);
        // Keep any installed fault plan but restart its launch numbering so
        // repeated experiments see identical fault schedules.
        if let Some(state) = self.fault.lock().as_mut() {
            state.next_launch = 0;
        }
    }

    /// Execute a kernel: all blocks run in parallel on the rayon pool, each
    /// with its own shared-memory arena and cost meter.
    pub fn launch<T: Scalar>(&self, kernel: &dyn Kernel<T>) -> Result<KernelReport, LaunchError> {
        let cfg = kernel.config();
        cfg.validate(&self.spec)?;
        let adm = self.admit(kernel.name())?;
        if adm.stall_seconds > 0.0 {
            // Synchronous launch: watchdog stall from killed hung attempts
            // advances the global clock directly.
            self.ledger.lock().record_stall(adm.stall_seconds, true);
        }
        let costs = self.execute_blocks(kernel, &cfg);
        self.apply_sdc(kernel, &adm);
        let report = self.time_and_record(kernel.name(), &cfg, &costs);
        Ok(report)
    }

    /// Apply a pending silent-data-corruption payload to a completed
    /// launch's output, counting it only if the kernel actually perturbed
    /// an element.
    fn apply_sdc<T: Scalar>(&self, kernel: &dyn Kernel<T>, adm: &Admission) {
        if let Some(r) = adm.sdc {
            if kernel.inject_sdc(r) {
                self.ledger.lock().record_sdc();
            }
        }
    }

    /// Run every block of a validated launch on the rayon pool, returning
    /// the per-block recorded costs in grid order.
    fn execute_blocks<T: Scalar>(
        &self,
        kernel: &dyn Kernel<T>,
        cfg: &LaunchConfig,
    ) -> Vec<BlockCost> {
        let smem_elems = cfg.shared_mem_bytes / std::mem::size_of::<T>();
        let spec = &self.spec;
        (0..cfg.blocks)
            .into_par_iter()
            .map_init(
                || BlockCtx {
                    shared: vec![T::ZERO; smem_elems],
                    meter: CostMeter::new(spec),
                },
                |ctx, b| {
                    ctx.meter.reset();
                    // A fresh block sees undefined shared memory; zeroing it
                    // keeps runs deterministic without charging the kernel.
                    ctx.shared.fill(T::ZERO);
                    kernel.run_block(b, ctx);
                    ctx.meter.cost
                },
            )
            .collect()
    }

    /// Model-only launch with heterogeneous per-block costs (one entry per
    /// block, in grid order). Timing is identical to an executed launch with
    /// the same recorded costs — the model-vs-execution agreement tests in
    /// the `caqr` crate rely on this.
    pub fn launch_with_costs(
        &self,
        name: &'static str,
        cfg: LaunchConfig,
        costs: &[BlockCost],
    ) -> Result<KernelReport, LaunchError> {
        cfg.validate(&self.spec)?;
        let adm = self.admit(name)?;
        if adm.stall_seconds > 0.0 {
            self.ledger.lock().record_stall(adm.stall_seconds, true);
        }
        // Model-only launches have no output to corrupt; an admitted SDC
        // payload is dropped (and not counted as injected).
        assert_eq!(cfg.blocks, costs.len(), "one cost entry per block");
        Ok(self.time_and_record(name, &cfg, costs))
    }

    /// Model-only launch: charge `blocks` copies of an analytically derived
    /// per-block cost without executing anything. Used by the figure/table
    /// sweeps where real execution of terabyte-scale workloads would be
    /// pointless (the arithmetic is validated at smaller sizes).
    pub fn launch_uniform(
        &self,
        name: &'static str,
        cfg: LaunchConfig,
        per_block: &BlockCost,
    ) -> Result<KernelReport, LaunchError> {
        cfg.validate(&self.spec)?;
        let adm = self.admit(name)?;
        if adm.stall_seconds > 0.0 {
            self.ledger.lock().record_stall(adm.stall_seconds, true);
        }
        // Avoid materializing huge vectors: the round-robin maximum for a
        // uniform grid is ceil(blocks / sms) blocks on the fullest SM.
        let sms = self.spec.sms;
        let fullest = cfg.blocks.div_ceil(sms);
        let issue_time = fullest as f64 * per_block.issue_cycles * self.spec.cycle_seconds();
        let total = BlockCost {
            flops: per_block.flops * cfg.blocks as u64,
            issue_cycles: per_block.issue_cycles * cfg.blocks as f64,
            gmem_bytes: per_block.gmem_bytes * cfg.blocks as f64,
            smem_words: per_block.smem_words * cfg.blocks as u64,
            syncs: per_block.syncs * cfg.blocks as u64,
        };
        let report = self.finish_launch(name, &cfg, total, issue_time);
        Ok(report)
    }

    fn time_and_record(
        &self,
        name: &'static str,
        cfg: &LaunchConfig,
        costs: &[BlockCost],
    ) -> KernelReport {
        let (total, issue_time) = self.aggregate(costs);
        self.finish_launch(name, cfg, total, issue_time)
    }

    /// Sum per-block costs and compute the round-robin issue time — the one
    /// timing computation shared by the synchronous and stream paths, so a
    /// kernel costs exactly the same alone either way.
    fn aggregate(&self, costs: &[BlockCost]) -> (BlockCost, f64) {
        let sms = self.spec.sms;
        let mut sm_cycles = vec![0.0f64; sms];
        let mut total = BlockCost::default();
        for (b, c) in costs.iter().enumerate() {
            sm_cycles[b % sms] += c.issue_cycles;
            total.merge(c);
        }
        let issue_time = sm_cycles.iter().cloned().fold(0.0, f64::max) * self.spec.cycle_seconds();
        (total, issue_time)
    }

    fn finish_launch(
        &self,
        name: &'static str,
        cfg: &LaunchConfig,
        total: BlockCost,
        issue_time: f64,
    ) -> KernelReport {
        let dram_time = total.gmem_bytes / (self.spec.dram_bw_gbs * 1.0e9);
        let body = issue_time.max(dram_time);
        let seconds = self.spec.launch_overhead_us * 1.0e-6 + body;
        let gflops = if seconds > 0.0 {
            total.flops as f64 / seconds / 1.0e9
        } else {
            0.0
        };
        self.ledger
            .lock()
            .record(name, seconds, total.flops as f64, total.gmem_bytes);
        KernelReport {
            name,
            blocks: cfg.blocks,
            seconds,
            total,
            gflops,
            compute_bound: issue_time >= dram_time,
            stream: None,
        }
    }

    // ---- streams & events -------------------------------------------------

    /// Create a new asynchronous launch queue. Streams survive
    /// [`Self::synchronize`] (their queues restart empty) but not
    /// [`Self::reset`].
    pub fn create_stream(&self) -> StreamId {
        self.streams.lock().create_stream()
    }

    /// Record an event into `stream`: it fires (on the modelled timeline)
    /// when every operation queued on `stream` before it has completed.
    pub fn record_event(&self, stream: StreamId) -> EventId {
        let mut table = self.streams.lock();
        let event = table.alloc_event();
        table.push(stream, StreamOp::Record(event));
        event
    }

    /// Make `stream` wait for `event` before running anything queued after
    /// this call. Waiting on an event that is never recorded deadlocks the
    /// schedule, which [`Self::synchronize`] reports by panicking.
    pub fn wait_event(&self, stream: StreamId, event: EventId) {
        self.streams.lock().push(stream, StreamOp::Wait(event));
    }

    /// Asynchronous kernel launch. The kernel's arithmetic executes
    /// immediately on the rayon pool — host enqueue order is a valid
    /// topological order of any stream/event DAG, so results are
    /// bit-identical to synchronous launches — while its *timing* is queued
    /// on `stream` and resolved by the next [`Self::synchronize`].
    ///
    /// The returned report carries the contention-free (`alone`) time; the
    /// realized interval, stretched by whatever overlaps it, lands in the
    /// [`Timeline`].
    pub fn launch_async<T: Scalar>(
        &self,
        stream: StreamId,
        kernel: &dyn Kernel<T>,
    ) -> Result<KernelReport, LaunchError> {
        let cfg = kernel.config();
        cfg.validate(&self.spec)?;
        let adm = self.admit(kernel.name())?;
        let costs = self.execute_blocks(kernel, &cfg);
        self.apply_sdc(kernel, &adm);
        Ok(self.enqueue(stream, kernel.name(), &cfg, &costs, adm.stall_seconds))
    }

    /// Model-only asynchronous launch with heterogeneous per-block costs:
    /// the stream counterpart of [`Self::launch_with_costs`].
    pub fn launch_with_costs_async(
        &self,
        stream: StreamId,
        name: &'static str,
        cfg: LaunchConfig,
        costs: &[BlockCost],
    ) -> Result<KernelReport, LaunchError> {
        cfg.validate(&self.spec)?;
        let adm = self.admit(name)?;
        assert_eq!(cfg.blocks, costs.len(), "one cost entry per block");
        Ok(self.enqueue(stream, name, &cfg, costs, adm.stall_seconds))
    }

    /// Launch via an [`Exec`] policy: synchronously, or on a stream.
    pub fn launch_on<T: Scalar>(
        &self,
        exec: Exec,
        kernel: &dyn Kernel<T>,
    ) -> Result<KernelReport, LaunchError> {
        match exec {
            Exec::Sync => self.launch(kernel),
            Exec::Stream(s) => self.launch_async(s, kernel),
        }
    }

    /// Model-only launch via an [`Exec`] policy.
    pub fn launch_with_costs_on(
        &self,
        exec: Exec,
        name: &'static str,
        cfg: LaunchConfig,
        costs: &[BlockCost],
    ) -> Result<KernelReport, LaunchError> {
        match exec {
            Exec::Sync => self.launch_with_costs(name, cfg, costs),
            Exec::Stream(s) => self.launch_with_costs_async(s, name, cfg, costs),
        }
    }

    fn enqueue(
        &self,
        stream: StreamId,
        name: &'static str,
        cfg: &LaunchConfig,
        costs: &[BlockCost],
        stall_seconds: f64,
    ) -> KernelReport {
        let (total, issue_time) = self.aggregate(costs);
        let dram_time = total.gmem_bytes / (self.spec.dram_bw_gbs * 1.0e9);
        let overhead = self.spec.launch_overhead_us * 1.0e-6;
        let alone = overhead + issue_time.max(dram_time);
        if stall_seconds > 0.0 {
            // Watchdog stall from killed hung attempts occupies this
            // stream's lane ahead of the resubmitted kernel; it resolves
            // into a `watchdog_stall` interval at synchronize and is
            // attributed as a stall, never as a kernel call.
            self.streams
                .lock()
                .push(stream, StreamOp::Kernel(QueuedKernel::stall(stall_seconds)));
        }
        self.streams.lock().push(
            stream,
            StreamOp::Kernel(QueuedKernel {
                name,
                blocks: cfg.blocks,
                overhead,
                issue_seconds: issue_time,
                dram_seconds: dram_time,
                sm_fraction: cfg.blocks.min(self.spec.sms) as f64 / self.spec.sms as f64,
                flops: total.flops as f64,
                bytes: total.gmem_bytes,
            }),
        );
        KernelReport {
            name,
            blocks: cfg.blocks,
            seconds: alone,
            total,
            gflops: if alone > 0.0 {
                total.flops as f64 / alone / 1.0e9
            } else {
                0.0
            },
            compute_bound: issue_time >= dram_time,
            stream: Some(stream.index()),
        }
    }

    /// Resolve every queued stream operation into modelled time. Kernel
    /// flops/bytes/calls are attributed to the ledger per kernel; the global
    /// clock advances by the batch's makespan (concurrent kernels overlap).
    /// The resolved per-kernel intervals are returned and also appended to
    /// the ledger.
    ///
    /// # Panics
    ///
    /// If the queues deadlock (a wait on an event that is never recorded).
    pub fn synchronize(&self) -> Timeline {
        self.try_synchronize()
            .unwrap_or_else(|e| panic!("Gpu::synchronize: {e}"))
    }

    /// Non-panicking [`Self::synchronize`]: returns the schedule error (a
    /// deadlock description) instead of aborting, so library callers can
    /// surface it as a typed error.
    #[must_use = "dropping the Result loses both the resolved Timeline and any deadlock report"]
    pub fn try_synchronize(&self) -> Result<Timeline, String> {
        let queues = self.streams.lock().drain();
        let tl = timeline::resolve(queues)?;
        let mut ledger = self.ledger.lock();
        for iv in &tl.intervals {
            if iv.name == crate::stream::WATCHDOG_STALL {
                // Stall pseudo-ops occupy their lane but did no work: they
                // are attributed as stalls (the makespan below already
                // advances the clock through them), never as kernel calls.
                ledger.record_stall(iv.duration(), false);
            } else {
                ledger.record_span(iv.name, iv.duration(), iv.flops, iv.bytes);
            }
        }
        ledger.record_idle(tl.makespan);
        ledger.intervals.extend(tl.intervals.iter().cloned());
        Ok(tl)
    }

    // ---- recovery accounting ---------------------------------------------

    /// Ledger hook for the recovery ladder: a run's task replays in place
    /// (tier 1) and whole-run retries (tier 2).
    pub fn note_replays(&self, task: u64, run: u64) {
        let mut ledger = self.ledger.lock();
        ledger.task_replays += task;
        ledger.run_retries += run;
    }

    /// Charge a host-to-device PCIe transfer.
    pub fn transfer_h2d(&self, bytes: u64) -> f64 {
        let t = self.pcie.transfer_seconds(bytes);
        self.ledger.lock().record_transfer(t, bytes, true);
        t
    }

    /// Charge a device-to-host PCIe transfer.
    pub fn transfer_d2h(&self, bytes: u64) -> f64 {
        let t = self.pcie.transfer_seconds(bytes);
        self.ledger.lock().record_transfer(t, bytes, false);
        t
    }

    /// Charge host-side (CPU) work that sits on this device's critical path
    /// (e.g. the small SVD of `R` in the Robust PCA loop).
    pub fn host_work(&self, name: &'static str, seconds: f64, flops: f64) {
        self.ledger.lock().record(name, seconds, flops, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::{MatPtr, Matrix};

    /// Trivial kernel: each block scales its own 32-row tile by 2 and charges
    /// one fma per element.
    struct ScaleKernel {
        mat: MatPtr<f32>,
        tile_rows: usize,
        blocks: usize,
    }

    impl Kernel<f32> for ScaleKernel {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                blocks: self.blocks,
                threads_per_block: 64,
                shared_mem_bytes: 0,
                regs_per_thread: 8,
            }
        }
        fn run_block(&self, b: usize, ctx: &mut BlockCtx<f32>) {
            let r0 = b * self.tile_rows;
            let cols = self.mat.cols();
            for j in 0..cols {
                for i in 0..self.tile_rows {
                    // SAFETY: blocks own disjoint row tiles.
                    unsafe {
                        let v = self.mat.get(r0 + i, j);
                        self.mat.set(r0 + i, j, 2.0 * v);
                    }
                }
            }
            let elems = (self.tile_rows * cols) as u64;
            ctx.meter.gmem(elems, 4, true);
            ctx.meter.fma(elems);
            ctx.meter.gmem(elems, 4, true);
        }
    }

    #[test]
    fn launch_executes_and_times() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let mut m = Matrix::from_fn(256, 8, |i, j| (i + j) as f32);
        let orig = m.clone();
        let report = {
            let k = ScaleKernel {
                mat: MatPtr::new(&mut m),
                tile_rows: 32,
                blocks: 8,
            };
            gpu.launch(&k).unwrap()
        };
        // Real math happened.
        for i in 0..256 {
            for j in 0..8 {
                assert_eq!(m[(i, j)], 2.0 * orig[(i, j)]);
            }
        }
        // Costs recorded: 256*8 elements * 2 flops.
        assert_eq!(report.total.flops, 2 * 256 * 8);
        assert!(report.seconds > 0.0);
        assert_eq!(gpu.ledger().calls, 1);
    }

    #[test]
    fn more_blocks_scale_throughput_until_sms_saturate() {
        // Same per-block work; 1 block vs 14 blocks on a 14-SM device should
        // take the same modelled body time (perfect scaling), while 15 blocks
        // start a second wave.
        let gpu = Gpu::new(DeviceSpec::c2050());
        let cfg = |blocks| LaunchConfig {
            blocks,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let per_block = BlockCost {
            flops: 1_000_000,
            issue_cycles: 100_000.0,
            gmem_bytes: 0.0,
            smem_words: 0,
            syncs: 0,
        };
        let t1 = gpu.launch_uniform("k", cfg(1), &per_block).unwrap().seconds;
        let t14 = gpu
            .launch_uniform("k", cfg(14), &per_block)
            .unwrap()
            .seconds;
        let t15 = gpu
            .launch_uniform("k", cfg(15), &per_block)
            .unwrap()
            .seconds;
        let t28 = gpu
            .launch_uniform("k", cfg(28), &per_block)
            .unwrap()
            .seconds;
        assert!(
            (t1 - t14).abs() < 1e-12,
            "1 and 14 blocks fill <= one block per SM"
        );
        assert!(t15 > t14, "15th block starts a second wave");
        assert!((t28 - t15).abs() < 1e-12, "waves quantize");
    }

    #[test]
    fn dram_bound_launch_obeys_bandwidth_roofline() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let per_block = BlockCost {
            flops: 1000,
            issue_cycles: 10.0,
            gmem_bytes: 1.0e6, // 1 MB per block
            smem_words: 0,
            syncs: 0,
        };
        let cfg = LaunchConfig {
            blocks: 144,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let r = gpu.launch_uniform("bw", cfg, &per_block).unwrap();
        assert!(!r.compute_bound);
        // 144 MB / 144 GB/s = 1 ms.
        let want = 1.0e-3 + gpu.spec().launch_overhead_us * 1e-6;
        assert!((r.seconds - want).abs() / want < 1e-9, "got {}", r.seconds);
    }

    #[test]
    fn async_launch_runs_numerics_now_and_times_at_sync() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let mut m = Matrix::from_fn(256, 8, |i, j| (i + j) as f32);
        let orig = m.clone();
        let s = gpu.create_stream();
        {
            let k = ScaleKernel {
                mat: MatPtr::new(&mut m),
                tile_rows: 32,
                blocks: 8,
            };
            gpu.launch_async(s, &k).unwrap();
        }
        // Numerics are done before synchronize.
        for i in 0..256 {
            for j in 0..8 {
                assert_eq!(m[(i, j)], 2.0 * orig[(i, j)]);
            }
        }
        // But no time has been charged yet.
        assert_eq!(gpu.elapsed(), 0.0);
        assert_eq!(gpu.ledger().calls, 0);
        let tl = gpu.synchronize();
        assert_eq!(tl.intervals.len(), 1);
        assert_eq!(tl.intervals[0].stream, s.index());
        assert!((gpu.elapsed() - tl.makespan).abs() < 1e-15);
        let l = gpu.ledger();
        assert_eq!(l.calls, 1);
        assert_eq!(l.intervals.len(), 1);
    }

    #[test]
    fn single_stream_equals_synchronous_time() {
        let per_block = BlockCost {
            flops: 1_000_000,
            issue_cycles: 100_000.0,
            gmem_bytes: 5.0e5,
            smem_words: 0,
            syncs: 0,
        };
        let cfg = LaunchConfig {
            blocks: 28,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let costs = vec![per_block; 28];

        let sync = Gpu::new(DeviceSpec::c2050());
        for _ in 0..3 {
            sync.launch_with_costs("k", cfg, &costs).unwrap();
        }

        let streamed = Gpu::new(DeviceSpec::c2050());
        let s = streamed.create_stream();
        for _ in 0..3 {
            streamed
                .launch_with_costs_async(s, "k", cfg, &costs)
                .unwrap();
        }
        let tl = streamed.synchronize();
        assert!(
            (tl.makespan - sync.elapsed()).abs() < 1e-12,
            "one stream must serialize to the synchronous sum: {} vs {}",
            tl.makespan,
            sync.elapsed()
        );
        assert_eq!(streamed.ledger().calls, sync.ledger().calls);
        assert!((streamed.ledger().flops - sync.ledger().flops).abs() < 1.0);
    }

    #[test]
    fn events_serialize_across_streams() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let per_block = BlockCost {
            flops: 1000,
            issue_cycles: 50_000.0,
            gmem_bytes: 0.0,
            smem_words: 0,
            syncs: 0,
        };
        let cfg = LaunchConfig {
            blocks: 14,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let costs = vec![per_block; 14];
        let s0 = gpu.create_stream();
        let s1 = gpu.create_stream();
        gpu.launch_with_costs_async(s0, "producer", cfg, &costs)
            .unwrap();
        let ev = gpu.record_event(s0);
        gpu.wait_event(s1, ev);
        gpu.launch_with_costs_async(s1, "consumer", cfg, &costs)
            .unwrap();
        let tl = gpu.synchronize();
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
        assert!(
            c.start >= p.end - 1e-15,
            "event must order consumer after producer"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn synchronize_panics_on_unrecorded_event_wait() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let s0 = gpu.create_stream();
        let s1 = gpu.create_stream();
        // Allocate a valid event id on s0's table but never reach it: wait
        // on an event recorded *after* the waiting stream's sync.
        let _ = s0;
        let bogus = {
            // Record-less wait: fabricate by recording on a stream that is
            // never synchronized is impossible through the public API, so
            // exercise the next best thing — wait for an event recorded
            // later in program order on the *same* stream set, then drop it.
            let ev = gpu.record_event(s1);
            gpu.reset(); // forget the record
            ev
        };
        let s = gpu.create_stream();
        gpu.wait_event(s, bogus);
        gpu.synchronize();
    }

    #[test]
    fn faulted_launch_retries_and_matches_fault_free_numerics() {
        let run = |gpu: &Gpu| {
            let mut m = Matrix::from_fn(256, 8, |i, j| (i * 31 + j) as f32 * 0.5);
            for _ in 0..3 {
                let k = ScaleKernel {
                    mat: MatPtr::new(&mut m),
                    tile_rows: 32,
                    blocks: 8,
                };
                gpu.launch(&k).unwrap();
            }
            m
        };
        let clean = Gpu::new(DeviceSpec::c2050());
        let reference = run(&clean);

        let faulty = Gpu::new(DeviceSpec::c2050());
        faulty.set_fault_plan(crate::fault::FaultPlan::at_launches(&[0, 2]));
        let retried = run(&faulty);

        assert_eq!(reference.as_slice(), retried.as_slice(), "bit-identical");
        let l = faulty.ledger();
        assert_eq!(l.faults, 2);
        assert_eq!(l.retries, 2);
        assert_eq!(l.calls, 3, "faulted attempts are not calls");
        assert!(
            faulty.elapsed() > clean.elapsed(),
            "retries cost wall-clock time"
        );
    }

    #[test]
    fn exhausted_retries_surface_device_fault_without_touching_memory() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        // Rate 1.0: every attempt faults, retries can never succeed.
        gpu.set_fault_plan_with_policy(
            crate::fault::FaultPlan::seeded(9, 1.0),
            crate::fault::RetryPolicy {
                max_attempts: 4,
                backoff_us: 1.0,
            },
        );
        let mut m = Matrix::from_fn(64, 4, |i, j| (i + j) as f32);
        let orig = m.clone();
        let err = {
            let k = ScaleKernel {
                mat: MatPtr::new(&mut m),
                tile_rows: 8,
                blocks: 8,
            };
            gpu.launch(&k).unwrap_err()
        };
        assert_eq!(
            err,
            LaunchError::DeviceFault {
                kernel: "scale",
                launch_index: 0,
                attempts: 4,
            }
        );
        assert_eq!(m.as_slice(), orig.as_slice(), "no partial execution");
        assert_eq!(gpu.ledger().calls, 0);
        assert_eq!(gpu.ledger().faults, 4);
    }

    #[test]
    fn fault_plan_survives_reset_with_restarted_numbering() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        gpu.set_fault_plan(crate::fault::FaultPlan::at_launches(&[1]));
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let pb = BlockCost {
            flops: 1,
            issue_cycles: 1.0,
            gmem_bytes: 0.0,
            smem_words: 0,
            syncs: 0,
        };
        gpu.launch_uniform("k", cfg, &pb).unwrap();
        gpu.launch_uniform("k", cfg, &pb).unwrap();
        assert_eq!(gpu.ledger().faults, 1);
        gpu.reset();
        gpu.launch_uniform("k", cfg, &pb).unwrap();
        gpu.launch_uniform("k", cfg, &pb).unwrap();
        assert_eq!(gpu.ledger().faults, 1, "same schedule after reset");
        gpu.clear_fault_plan();
        gpu.reset();
        gpu.launch_uniform("k", cfg, &pb).unwrap();
        gpu.launch_uniform("k", cfg, &pb).unwrap();
        assert_eq!(gpu.ledger().faults, 0);
    }

    #[test]
    fn hung_launch_is_killed_retried_and_charged_as_stall() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        // Explicit hangs are persistent, so use a seeded plan whose retry
        // redraw clears: hang band only, modest rate, generous attempts.
        gpu.set_fault_plan_with_policy(
            crate::fault::FaultPlan::hang_at_launches(&[0]),
            crate::fault::RetryPolicy {
                max_attempts: 3,
                backoff_us: 1.0,
            },
        );
        let mut m = Matrix::from_fn(64, 4, |i, j| (i + j) as f32);
        let err = {
            let k = ScaleKernel {
                mat: MatPtr::new(&mut m),
                tile_rows: 8,
                blocks: 8,
            };
            gpu.launch(&k).unwrap_err()
        };
        // Persistent hang: every attempt killed at the deadline, typed
        // Timeout at exhaustion, memory untouched, stall time charged.
        assert_eq!(
            err,
            LaunchError::Timeout {
                kernel: "scale",
                launch_index: 0,
                deadline_us: DEFAULT_WATCHDOG_US as u64,
            }
        );
        let l = gpu.ledger();
        assert_eq!(l.hangs, 3);
        assert_eq!(l.calls, 0);
        assert!(
            gpu.elapsed() >= 3.0 * DEFAULT_WATCHDOG_US * 1e-6,
            "each hung attempt charges at least the deadline: {}",
            gpu.elapsed()
        );
        assert_eq!(l.per_op["watchdog_stall"].calls, 1);

        // A transient hang (first attempt only via a seeded plan drawn to
        // hang at attempt 0) is absorbed: find such a launch index.
        let probe = crate::fault::FaultPlan::seeded_mix(11, 0.0, 0.0, 0.4);
        let idx = (0..64u64)
            .find(|&i| {
                probe.fault_kind(i, 0) == Some(FaultKind::Hang) && probe.fault_kind(i, 1).is_none()
            })
            .expect("some launch hangs once then clears");
        let gpu2 = Gpu::new(DeviceSpec::c2050());
        gpu2.set_fault_plan(probe);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let pb = BlockCost {
            flops: 1,
            issue_cycles: 1.0,
            gmem_bytes: 0.0,
            smem_words: 0,
            syncs: 0,
        };
        // Burn launches up to `idx`, absorbing whatever the plan throws.
        for _ in 0..idx {
            let _ = gpu2.launch_uniform("k", cfg, &pb);
        }
        gpu2.launch_uniform("probe", cfg, &pb)
            .expect("transient hang absorbed by watchdog retry");
        assert!(gpu2.ledger().hangs >= 1);
    }

    #[test]
    fn async_hang_stall_serializes_on_the_stream_without_counting_calls() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let probe = crate::fault::FaultPlan::seeded_mix(11, 0.0, 0.0, 0.4);
        let idx = (0..64u64)
            .find(|&i| {
                probe.fault_kind(i, 0) == Some(FaultKind::Hang) && probe.fault_kind(i, 1).is_none()
            })
            .unwrap();
        gpu.set_fault_plan(probe);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        let pb = BlockCost {
            flops: 1,
            issue_cycles: 1.0,
            gmem_bytes: 0.0,
            smem_words: 0,
            syncs: 0,
        };
        let s = gpu.create_stream();
        let mut enqueued = 0u64;
        for _ in 0..=idx {
            if gpu.launch_with_costs_async(s, "k", cfg, &[pb]).is_ok() {
                enqueued += 1;
            }
        }
        let tl = gpu.synchronize();
        let stalls: Vec<_> = tl
            .intervals
            .iter()
            .filter(|iv| iv.name == crate::stream::WATCHDOG_STALL)
            .collect();
        assert!(!stalls.is_empty(), "hang must appear as a stall interval");
        assert!(stalls
            .iter()
            .all(|iv| iv.duration() >= DEFAULT_WATCHDOG_US * 1e-6));
        let l = gpu.ledger();
        assert_eq!(l.calls, enqueued, "stalls are not kernel calls");
        assert!(l.hangs >= 1);
        assert!(tl.utilization(1) > 0.0);
    }

    /// Kernel with an SDC hook: corrupts one element of its matrix.
    struct SdcProbeKernel {
        mat: MatPtr<f32>,
    }

    impl Kernel<f32> for SdcProbeKernel {
        fn name(&self) -> &'static str {
            "sdc_probe"
        }
        fn config(&self) -> LaunchConfig {
            LaunchConfig {
                blocks: 1,
                threads_per_block: 64,
                shared_mem_bytes: 0,
                regs_per_thread: 8,
            }
        }
        fn run_block(&self, _b: usize, ctx: &mut BlockCtx<f32>) {
            ctx.meter.fma(1);
        }
        fn inject_sdc(&self, r: u64) -> bool {
            let i = (r as usize) % self.mat.rows();
            let j = (r as usize >> 8) % self.mat.cols();
            // SAFETY: called after the grid completes; exclusive access.
            unsafe {
                let v = self.mat.get(i, j);
                self.mat.set(i, j, v + 1.0 + v.abs());
            }
            true
        }
    }

    #[test]
    fn sdc_fault_corrupts_exactly_one_element_deterministically() {
        let run = |plan: Option<crate::fault::FaultPlan>| {
            let gpu = Gpu::new(DeviceSpec::c2050());
            if let Some(p) = plan {
                gpu.set_fault_plan(p);
            }
            let mut m = Matrix::from_fn(32, 4, |i, j| (i * 7 + j) as f32 * 0.25);
            {
                let k = SdcProbeKernel {
                    mat: MatPtr::new(&mut m),
                };
                gpu.launch(&k).unwrap();
            }
            (m, gpu.ledger())
        };
        let (clean, lc) = run(None);
        assert_eq!(lc.sdc_injected, 0);
        let (hit1, l1) = run(Some(crate::fault::FaultPlan::sdc_at_launches(&[0])));
        let (hit2, l2) = run(Some(crate::fault::FaultPlan::sdc_at_launches(&[0])));
        assert_eq!(l1.sdc_injected, 1);
        assert_eq!(l1.calls, 1, "SDC admits the launch");
        assert_eq!(l1.faults, 0);
        let diff: Vec<usize> = clean
            .as_slice()
            .iter()
            .zip(hit1.as_slice())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff.len(), 1, "exactly one element corrupted");
        assert_eq!(
            hit1.as_slice(),
            hit2.as_slice(),
            "same plan corrupts the same element"
        );
        assert_eq!(l2.sdc_injected, 1);
    }

    #[test]
    fn transfers_and_host_work_advance_the_clock() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let t0 = gpu.elapsed();
        gpu.transfer_h2d(1 << 20);
        gpu.host_work("svd_r", 5.0e-3, 1.0e6);
        gpu.transfer_d2h(1 << 10);
        assert!(gpu.elapsed() > t0 + 5.0e-3);
        let l = gpu.ledger();
        assert_eq!(l.h2d_bytes, 1 << 20);
        assert_eq!(l.d2h_bytes, 1 << 10);
        assert_eq!(l.transfers, 2);
        gpu.reset();
        assert_eq!(gpu.elapsed(), 0.0);
    }
}
