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
//! A launch is charged from its [`Launch`] description alone, block by
//! block in grid order. [`Gpu::launch_on`] runs a [`Kernel`]'s blocks and
//! then charges its description; [`Gpu::charge_on`] charges a description
//! without running anything (the model-only figure sweeps). The two differ
//! only in whether arithmetic happens, so a kernel and its description
//! record the same time by construction.

use crate::cost::{BlockCost, KernelReport};
use crate::fault::{self, FaultKind, FaultPlan, RetryPolicy};
use crate::kernel::{Kernel, Launch, LaunchError};
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

    /// Execute a kernel under an [`Exec`] policy: all blocks run in
    /// parallel on the rayon pool, then the launch is charged from its
    /// description like [`Self::charge_on`]. With `Exec::Stream` the
    /// arithmetic still runs now — host enqueue order is a valid topological
    /// order of any stream/event DAG, so results are bit-identical to
    /// synchronous launches — while the timing is queued on the stream and
    /// resolved by the next [`Self::synchronize`].
    pub fn launch_on<T: Scalar>(
        &self,
        exec: Exec,
        kernel: &dyn Kernel<T>,
    ) -> Result<KernelReport, LaunchError> {
        let launch = kernel.launch();
        let adm = self.admit_launch(launch)?;
        (0..launch.config().blocks)
            .into_par_iter()
            .for_each(|b| kernel.run_block(b));
        if let Some(r) = adm.sdc {
            // Count the corruption only if the kernel perturbed an element.
            if kernel.inject_sdc(r) {
                self.ledger.lock().record_sdc();
            }
        }
        Ok(self.charge(exec, launch, adm.stall_seconds))
    }

    /// Charge a launch description under an [`Exec`] policy without
    /// executing anything: the same validation, fault admission and timing
    /// as [`Self::launch_on`]. Used by the model-only sweeps, where running
    /// terabyte-scale workloads would be pointless (the arithmetic is
    /// validated at smaller sizes). Generic so that a concrete description's
    /// `block_cost` inlines into the per-block loop: an indirect call per
    /// block about triples the sweeps' time.
    pub fn charge_on<L: Launch + ?Sized>(
        &self,
        exec: Exec,
        launch: &L,
    ) -> Result<KernelReport, LaunchError> {
        // A charged launch has no output to corrupt; an admitted SDC payload
        // is dropped (and not counted as injected).
        let adm = self.admit_launch(launch)?;
        Ok(self.charge(exec, launch, adm.stall_seconds))
    }

    /// Validate a launch against the device limits, then admit it under the
    /// installed fault plan.
    fn admit_launch<L: Launch + ?Sized>(&self, launch: &L) -> Result<Admission, LaunchError> {
        launch.config().validate(&self.spec)?;
        self.admit(launch.name())
    }

    /// Time an admitted launch from its per-block costs and record it:
    /// synchronously on the ledger, or queued on a stream (the report then
    /// carries the contention-free time; the realized interval, stretched
    /// by whatever overlaps it, lands in the [`Timeline`]). Watchdog stall
    /// from killed hung attempts advances the global clock when synchronous
    /// and occupies the stream's lane ahead of the kernel when queued.
    fn charge<L: Launch + ?Sized>(
        &self,
        exec: Exec,
        launch: &L,
        stall_seconds: f64,
    ) -> KernelReport {
        let name = launch.name();
        let blocks = launch.config().blocks;
        // Blocks go to SMs round-robin in grid order and serialize through
        // each SM's issue port.
        let sms = self.spec.sms;
        let mut sm_cycles = vec![0.0f64; sms];
        let mut total = BlockCost::default();
        for b in 0..blocks {
            let c = launch.block_cost(b);
            sm_cycles[b % sms] += c.issue_cycles;
            total.merge(&c);
        }
        let issue_time = sm_cycles.iter().cloned().fold(0.0, f64::max) * self.spec.cycle_seconds();
        let dram_time = total.gmem_bytes / (self.spec.dram_bw_gbs * 1.0e9);
        let overhead = self.spec.launch_overhead_us * 1.0e-6;
        let seconds = overhead + issue_time.max(dram_time);
        let stream = match exec {
            Exec::Sync => {
                let mut ledger = self.ledger.lock();
                if stall_seconds > 0.0 {
                    ledger.record_stall(stall_seconds, true);
                }
                ledger.record(name, seconds, total.flops as f64, total.gmem_bytes);
                None
            }
            Exec::Stream(stream) => {
                let mut streams = self.streams.lock();
                if stall_seconds > 0.0 {
                    // Resolves into a `watchdog_stall` interval at
                    // synchronize, attributed as a stall, never as a call.
                    streams.push(stream, StreamOp::Kernel(QueuedKernel::stall(stall_seconds)));
                }
                streams.push(
                    stream,
                    StreamOp::Kernel(QueuedKernel {
                        name,
                        blocks,
                        overhead,
                        issue_seconds: issue_time,
                        dram_seconds: dram_time,
                        sm_fraction: blocks.min(sms) as f64 / sms as f64,
                        flops: total.flops as f64,
                        bytes: total.gmem_bytes,
                    }),
                );
                Some(stream.index())
            }
        };
        KernelReport {
            name,
            blocks,
            seconds,
            total,
            gflops: if seconds > 0.0 {
                total.flops as f64 / seconds / 1.0e9
            } else {
                0.0
            },
            compute_bound: issue_time >= dram_time,
            stream,
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
    use crate::cost::CostMeter;
    use crate::kernel::LaunchConfig;
    use dense::{MatPtr, Matrix};

    /// A `blocks`-block grid of 64 threads with no shared memory.
    fn grid(blocks: usize) -> LaunchConfig {
        LaunchConfig {
            blocks,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        }
    }

    /// A block cost with no shared-memory traffic or barriers.
    fn cost(flops: u64, issue_cycles: f64, gmem_bytes: f64) -> BlockCost {
        BlockCost {
            flops,
            issue_cycles,
            gmem_bytes,
            smem_words: 0,
            syncs: 0,
        }
    }

    /// Trivial kernel: each block scales its own row tile by 2 and charges
    /// one fma per element.
    struct ScaleKernel {
        mat: MatPtr<f32>,
        tile_rows: usize,
        blocks: usize,
    }

    impl Launch for ScaleKernel {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn config(&self) -> LaunchConfig {
            grid(self.blocks)
        }
        fn block_cost(&self, _b: usize) -> BlockCost {
            let elems = (self.tile_rows * self.mat.cols()) as u64;
            let mut m = CostMeter::new(&DeviceSpec::c2050());
            m.gmem(elems, 4, true);
            m.fma(elems);
            m.gmem(elems, 4, true);
            m.cost
        }
    }

    impl Kernel<f32> for ScaleKernel {
        fn launch(&self) -> &dyn Launch {
            self
        }
        fn run_block(&self, b: usize) {
            let r0 = b * self.tile_rows;
            for j in 0..self.mat.cols() {
                for i in 0..self.tile_rows {
                    // SAFETY: blocks own disjoint row tiles.
                    unsafe {
                        let v = self.mat.get(r0 + i, j);
                        self.mat.set(r0 + i, j, 2.0 * v);
                    }
                }
            }
        }
    }

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
            gpu.launch_on(Exec::Sync, &k).unwrap()
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
        let per_block = cost(1_000_000, 100_000.0, 0.0);
        let time = |blocks| {
            let launch = Uniform("k", grid(blocks), per_block);
            gpu.charge_on(Exec::Sync, &launch).unwrap().seconds
        };
        let (t1, t14, t15, t28) = (time(1), time(14), time(15), time(28));
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
        let per_block = cost(1000, 10.0, 1.0e6); // 1 MB per block
        let cfg = grid(144);
        let r = gpu
            .charge_on(Exec::Sync, &Uniform("bw", cfg, per_block))
            .unwrap();
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
            gpu.launch_on(Exec::Stream(s), &k).unwrap();
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
        let per_block = cost(1_000_000, 100_000.0, 5.0e5);
        let cfg = grid(28);

        let sync = Gpu::new(DeviceSpec::c2050());
        for _ in 0..3 {
            sync.charge_on(Exec::Sync, &Uniform("k", cfg, per_block))
                .unwrap();
        }

        let streamed = Gpu::new(DeviceSpec::c2050());
        let s = streamed.create_stream();
        for _ in 0..3 {
            streamed
                .charge_on(Exec::Stream(s), &Uniform("k", cfg, per_block))
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
        let per_block = cost(1000, 50_000.0, 0.0);
        let cfg = grid(14);
        let s0 = gpu.create_stream();
        let s1 = gpu.create_stream();
        gpu.charge_on(Exec::Stream(s0), &Uniform("producer", cfg, per_block))
            .unwrap();
        let ev = gpu.record_event(s0);
        gpu.wait_event(s1, ev);
        gpu.charge_on(Exec::Stream(s1), &Uniform("consumer", cfg, per_block))
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
                gpu.launch_on(Exec::Sync, &k).unwrap();
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
            gpu.launch_on(Exec::Sync, &k).unwrap_err()
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
        let cfg = grid(1);
        let pb = cost(1, 1.0, 0.0);
        gpu.charge_on(Exec::Sync, &Uniform("k", cfg, pb)).unwrap();
        gpu.charge_on(Exec::Sync, &Uniform("k", cfg, pb)).unwrap();
        assert_eq!(gpu.ledger().faults, 1);
        gpu.reset();
        gpu.charge_on(Exec::Sync, &Uniform("k", cfg, pb)).unwrap();
        gpu.charge_on(Exec::Sync, &Uniform("k", cfg, pb)).unwrap();
        assert_eq!(gpu.ledger().faults, 1, "same schedule after reset");
        gpu.clear_fault_plan();
        gpu.reset();
        gpu.charge_on(Exec::Sync, &Uniform("k", cfg, pb)).unwrap();
        gpu.charge_on(Exec::Sync, &Uniform("k", cfg, pb)).unwrap();
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
            gpu.launch_on(Exec::Sync, &k).unwrap_err()
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
        let cfg = grid(1);
        let pb = cost(1, 1.0, 0.0);
        // Burn launches up to `idx`, absorbing whatever the plan throws.
        for _ in 0..idx {
            let _ = gpu2.charge_on(Exec::Sync, &Uniform("k", cfg, pb));
        }
        gpu2.charge_on(Exec::Sync, &Uniform("probe", cfg, pb))
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
        let cfg = grid(1);
        let pb = cost(1, 1.0, 0.0);
        let s = gpu.create_stream();
        let mut enqueued = 0u64;
        for _ in 0..=idx {
            if gpu
                .charge_on(Exec::Stream(s), &Uniform("k", cfg, pb))
                .is_ok()
            {
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

    impl Launch for SdcProbeKernel {
        fn name(&self) -> &'static str {
            "sdc_probe"
        }
        fn config(&self) -> LaunchConfig {
            grid(1)
        }
        fn block_cost(&self, _b: usize) -> BlockCost {
            let mut m = CostMeter::new(&DeviceSpec::c2050());
            m.fma(1);
            m.cost
        }
    }

    impl Kernel<f32> for SdcProbeKernel {
        fn launch(&self) -> &dyn Launch {
            self
        }
        fn run_block(&self, _b: usize) {}
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
                gpu.launch_on(Exec::Sync, &k).unwrap();
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
