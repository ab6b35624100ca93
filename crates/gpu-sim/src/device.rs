//! The simulated GPU: charges launch descriptions and converts their
//! operation counts into modelled time. It executes nothing: the caller
//! runs the arithmetic on the host, so every executor's numerics are the
//! host's.
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
//! block in grid order, through [`Gpu::charge_on`].

use crate::cost::{BlockCost, KernelReport};
use crate::kernel::{Launch, LaunchError};
use crate::ledger::CostLedger;
use crate::spec::{DeviceSpec, PcieSpec};
use crate::stream::{EventId, QueuedKernel, StreamId, StreamOp, StreamTable};
use crate::timeline::{self, Timeline};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// Where a launch goes: the synchronous timeline, or an asynchronous
/// stream queue. Lets algorithm code be written once and scheduled either
/// way (the `caqr` crate threads this through its chain walks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// Launch synchronously: time and record immediately.
    Sync,
    /// Enqueue on a stream: timing resolves at [`Gpu::synchronize`].
    Stream(StreamId),
}

/// The watchdog deadline for hung launches, microseconds: what a launch
/// the driver reports hung costs in stall (see [`Gpu::charge_failed_launch`]).
/// Generous relative to the sub-millisecond kernels the paper's grids
/// produce, so the watchdog never fires on healthy work.
pub const DEFAULT_WATCHDOG_US: f64 = 10_000.0;

/// The device-loss trigger: launch ordinals counted since creation or the
/// last [`Gpu::reset`], and the ordinal at which the device drops off the
/// bus.
#[derive(Default)]
struct LossTrigger {
    next_launch: u64,
    lose_at: Option<u64>,
}

/// A simulated GPU with its modelled timeline.
pub struct Gpu {
    spec: DeviceSpec,
    pcie: PcieSpec,
    ledger: Mutex<CostLedger>,
    streams: Mutex<StreamTable>,
    loss: Mutex<LossTrigger>,
    /// Set when the loss trigger fires: the device is gone and every
    /// subsequent launch fails with [`LaunchError::DeviceLost`] until
    /// [`Gpu::reset`] revives it.
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
            loss: Mutex::new(LossTrigger::default()),
            lost: AtomicBool::new(false),
        }
    }

    /// Lose the whole device at its `k`-th launch from now (0 = the next
    /// one): that launch and every later one fail with
    /// [`LaunchError::DeviceLost`] until [`Gpu::reset`]. A dead device
    /// answers no retry; recovery is the business of a multi-device driver,
    /// which replays the lost device's work on a survivor
    /// (`caqr::distributed`).
    pub fn lose_at_launch(&self, k: u64) {
        let mut trigger = self.loss.lock();
        trigger.lose_at = Some(trigger.next_launch + k);
    }

    /// Admit one launch: count its ordinal, fire the loss trigger if this is
    /// its launch, and reject every launch on a lost device.
    fn admit(&self, name: &'static str) -> Result<(), LaunchError> {
        let mut trigger = self.loss.lock();
        let idx = trigger.next_launch;
        trigger.next_launch += 1;
        if trigger.lose_at == Some(idx) {
            self.lost.store(true, Ordering::Relaxed);
            self.ledger.lock().record_device_loss();
        }
        if self.lost.load(Ordering::Relaxed) {
            return Err(LaunchError::DeviceLost {
                kernel: name,
                launch_index: idx,
            });
        }
        Ok(())
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

    /// Has this device been lost (see [`Gpu::lose_at_launch`])? A lost
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
    /// and any launches queued but not yet synchronized, revives a lost
    /// device (the simulation analogue of replacing the node) and disarms
    /// its loss trigger.
    pub fn reset(&self) {
        *self.ledger.lock() = CostLedger::default();
        *self.streams.lock() = StreamTable::default();
        self.lost.store(false, Ordering::Relaxed);
        *self.loss.lock() = LossTrigger::default();
    }

    /// Charge a launch description under an [`Exec`] policy: validate it
    /// against the device limits, admit it (counting its ordinal for the
    /// loss trigger) and time it. Nothing executes; with `Exec::Stream` the
    /// timing is queued on the stream and resolved by the next
    /// [`Self::synchronize`]. Generic so that a concrete description's
    /// `block_cost` inlines into the per-block loop: an indirect call per
    /// block about triples the model-only sweeps' time.
    pub fn charge_on<L: Launch + ?Sized>(
        &self,
        exec: Exec,
        launch: &L,
    ) -> Result<KernelReport, LaunchError> {
        launch.config().validate(&self.spec)?;
        self.admit(launch.name())?;
        Ok(self.charge(exec, launch))
    }

    /// Time an admitted launch from its per-block costs and record it:
    /// synchronously on the ledger, or queued on a stream (the report then
    /// carries the contention-free time; the realized interval, stretched
    /// by whatever overlaps it, lands in the [`Timeline`]).
    fn charge<L: Launch + ?Sized>(&self, exec: Exec, launch: &L) -> KernelReport {
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
                (self.ledger.lock()).record(name, seconds, total.flops as f64, total.gmem_bytes);
                None
            }
            Exec::Stream(stream) => {
                self.streams.lock().push(
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

    /// Charge one launch that a driver failed before any block ran. A
    /// rejected launch costs its submission overhead and counts in the
    /// ledger's `faults`. A hung one counts in `hangs` and is killed after
    /// [`DEFAULT_WATCHDOG_US`] of `watchdog_stall`: on the global clock when
    /// synchronous, on its stream's lane when queued. Neither is a kernel
    /// call: the launch did no work.
    pub fn charge_failed_launch(&self, exec: Exec, hung: bool) {
        if !hung {
            let overhead = self.spec.launch_overhead_us * 1.0e-6;
            self.ledger.lock().record_fault(overhead);
            return;
        }
        let stall = DEFAULT_WATCHDOG_US * 1.0e-6;
        self.ledger.lock().record_hang();
        match exec {
            Exec::Sync => self.ledger.lock().record_stall(stall, true),
            // Resolves into a `watchdog_stall` interval at synchronize.
            Exec::Stream(stream) => {
                (self.streams.lock()).push(stream, StreamOp::Kernel(QueuedKernel::stall(stall)))
            }
        }
    }

    /// Count one silent data corruption applied to a launch's output.
    pub fn note_sdc(&self) {
        self.ledger.lock().record_sdc();
    }

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

    /// A row-tiled scale-by-2 description: each block reads and writes
    /// its `tile_rows x cols` tile and charges one fma per element.
    struct Scale {
        tile_rows: usize,
        cols: usize,
        blocks: usize,
    }

    impl Launch for Scale {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn config(&self) -> LaunchConfig {
            grid(self.blocks)
        }
        fn block_cost(&self, _b: usize) -> BlockCost {
            let elems = (self.tile_rows * self.cols) as u64;
            let mut m = CostMeter::new(&DeviceSpec::c2050());
            m.gmem(elems, 4, true);
            m.fma(elems);
            m.gmem(elems, 4, true);
            m.cost
        }
    }

    /// The 256 x 8 scale in eight 32-row tiles.
    const SCALE_256X8: Scale = Scale {
        tile_rows: 32,
        cols: 8,
        blocks: 8,
    };

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
    fn charge_times_a_description() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let report = gpu.charge_on(Exec::Sync, &SCALE_256X8).unwrap();
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
    fn async_charge_times_at_sync() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let s = gpu.create_stream();
        let report = gpu.charge_on(Exec::Stream(s), &SCALE_256X8).unwrap();
        assert_eq!(report.total.flops, 2 * 256 * 8);
        // No time has been charged before synchronize.
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
    fn failed_launches_charge_overhead_or_a_stall_but_no_call() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        gpu.charge_failed_launch(Exec::Sync, false);
        let overhead = gpu.spec().launch_overhead_us * 1e-6;
        assert!((gpu.elapsed() - overhead).abs() < 1e-15);
        gpu.charge_failed_launch(Exec::Sync, true);
        let deadline = DEFAULT_WATCHDOG_US * 1e-6;
        assert!((gpu.elapsed() - overhead - deadline).abs() < 1e-12);
        let l = gpu.ledger();
        assert_eq!((l.faults, l.hangs, l.calls), (1, 1, 0));
        assert_eq!(l.per_op["watchdog_stall"].calls, 1);

        // Queued, the hang occupies its stream's lane ahead of later work.
        let gpu = Gpu::new(DeviceSpec::c2050());
        let s = gpu.create_stream();
        gpu.charge_failed_launch(Exec::Stream(s), true);
        gpu.charge_on(Exec::Stream(s), &Uniform("k", grid(1), cost(1, 1.0, 0.0)))
            .unwrap();
        let tl = gpu.synchronize();
        let stall = &tl.intervals[0];
        assert_eq!(stall.name, crate::stream::WATCHDOG_STALL);
        assert!(stall.duration() >= deadline);
        assert!(tl.intervals[1].start >= stall.end - 1e-15);
        let l = gpu.ledger();
        assert_eq!((l.hangs, l.calls), (1, 1), "stalls are not kernel calls");
    }

    #[test]
    fn lost_device_rejects_every_launch_until_reset() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let k = Uniform("k", grid(1), cost(1, 1.0, 0.0));
        gpu.lose_at_launch(1);
        gpu.charge_on(Exec::Sync, &k).unwrap();
        for idx in 1..4 {
            let err = gpu.charge_on(Exec::Sync, &k).unwrap_err();
            let want = LaunchError::DeviceLost {
                kernel: "k",
                launch_index: idx,
            };
            assert_eq!(err, want);
        }
        assert!(gpu.is_lost());
        let l = gpu.ledger();
        assert_eq!((l.device_losses, l.calls), (1, 1));
        gpu.reset();
        assert!(!gpu.is_lost());
        gpu.charge_on(Exec::Sync, &k).unwrap();
        gpu.charge_on(Exec::Sync, &k).unwrap();
        assert_eq!(gpu.ledger().device_losses, 0, "reset disarms the trigger");
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
