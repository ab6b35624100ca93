//! Cost ledger: the modelled timeline of a machine.
//!
//! Every kernel launch, BLAS call and PCIe transfer appends modelled seconds
//! and traffic here. Benchmarks read the total; tests check conservation
//! properties (e.g. flop counts match closed forms).

use crate::timeline::Interval;
use std::collections::BTreeMap;

/// Per-operation aggregate.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Number of invocations.
    pub calls: u64,
    /// Modelled seconds, summed.
    pub seconds: f64,
    /// Useful flops, summed.
    pub flops: f64,
    /// DRAM bytes, summed.
    pub bytes: f64,
}

/// The modelled timeline of one machine (GPU or CPU).
#[derive(Clone, Debug, Default)]
pub struct CostLedger {
    /// Total modelled seconds.
    pub seconds: f64,
    /// Total useful flops.
    pub flops: f64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// Kernel launches / BLAS calls.
    pub calls: u64,
    /// Host-to-device transfer bytes (GPU ledgers only).
    pub h2d_bytes: u64,
    /// Device-to-host transfer bytes (GPU ledgers only).
    pub d2h_bytes: u64,
    /// Number of PCIe transfers.
    pub transfers: u64,
    /// Injected launch faults: each failed task charges one launch overhead
    /// to `seconds` but does not count as a call — it did no work.
    pub faults: u64,
    /// Injected hangs killed by the deadline watchdog (each charges the
    /// watchdog deadline as a stall; see [`Self::record_stall`]).
    pub hangs: u64,
    /// Injected silent data corruptions applied to a task's output.
    pub sdc_injected: u64,
    /// Recovery tier 1: single tasks replayed after a detected fault.
    pub task_replays: u64,
    /// Recovery tier 2: whole-run retries from the pristine input.
    pub run_retries: u64,
    /// Device losses suffered (see `Gpu::lose_at_launch`): the launch that
    /// found the device gone. At most 1 per `Gpu::reset` epoch.
    pub device_losses: u64,
    /// Recovery tier 3: lost-device workloads this device adopted as the
    /// failover survivor (multi-device runs only).
    pub device_failovers: u64,
    /// Interconnect messages sent by this device (multi-device runs only).
    pub net_messages: u64,
    /// Interconnect payload bytes sent by this device.
    pub net_bytes: u64,
    /// Total link hops traversed by this device's sent messages.
    pub net_hops: u64,
    /// Modelled seconds this device spent occupying its interconnect port
    /// as a sender. Tracked under the `net_send` pseudo-op and **not**
    /// added to `seconds`: communication time lives on the cluster clocks
    /// (`gpu_sim::interconnect::Cluster`), never on the device timeline,
    /// so single-device accounting invariants are untouched.
    pub net_seconds: f64,
    /// Per-operation breakdown keyed by kernel/BLAS name.
    pub per_op: BTreeMap<&'static str, OpStats>,
    /// Per-stream per-kernel intervals from stream-scheduled launches,
    /// appended at every `Gpu::synchronize` (empty for purely synchronous
    /// workloads).
    pub intervals: Vec<Interval>,
}

impl CostLedger {
    /// Record an operation.
    pub fn record(&mut self, name: &'static str, seconds: f64, flops: f64, bytes: f64) {
        self.seconds += seconds;
        self.flops += flops;
        self.dram_bytes += bytes;
        self.calls += 1;
        let e = self.per_op.entry(name).or_default();
        e.calls += 1;
        e.seconds += seconds;
        e.flops += flops;
        e.bytes += bytes;
    }

    /// Record a PCIe transfer (`h2d == true` for host-to-device).
    pub fn record_transfer(&mut self, seconds: f64, bytes: u64, h2d: bool) {
        self.seconds += seconds;
        self.transfers += 1;
        if h2d {
            self.h2d_bytes += bytes;
        } else {
            self.d2h_bytes += bytes;
        }
        let e = self
            .per_op
            .entry(if h2d { "h2d" } else { "d2h" })
            .or_default();
        e.calls += 1;
        e.seconds += seconds;
        e.bytes += bytes as f64;
    }

    /// Advance the timeline without attributing work (e.g. host-side stalls).
    pub fn record_idle(&mut self, seconds: f64) {
        self.seconds += seconds;
    }

    /// Record one failed launch: the wasted submission overhead advances
    /// the clock, but no call or work is attributed (the kernel never ran).
    pub fn record_fault(&mut self, seconds: f64) {
        self.seconds += seconds;
        self.faults += 1;
    }

    /// Record one hung launch killed by the watchdog (the stall
    /// seconds are charged separately via [`Self::record_stall`]).
    pub fn record_hang(&mut self) {
        self.hangs += 1;
    }

    /// Record watchdog stall time under the `watchdog_stall` pseudo-op.
    /// Synchronous launches advance the global clock here
    /// (`advance_clock = true`); stream-scheduled launches serialize the
    /// stall on their stream instead, so `Gpu::try_synchronize` attributes
    /// it with `advance_clock = false` (the makespan already covers it).
    /// Stalls never count as kernel `calls` — the hung launch did no work.
    pub fn record_stall(&mut self, seconds: f64, advance_clock: bool) {
        if advance_clock {
            self.seconds += seconds;
        }
        let e = self.per_op.entry("watchdog_stall").or_default();
        e.calls += 1;
        e.seconds += seconds;
    }

    /// Record one applied silent-data-corruption event.
    pub fn record_sdc(&mut self) {
        self.sdc_injected += 1;
    }

    /// Record this device dropping off the bus.
    pub fn record_device_loss(&mut self) {
        self.device_losses += 1;
    }

    /// Record a tier-3 recovery action: this device adopted a lost
    /// device's workload as the failover survivor.
    pub fn record_device_failover(&mut self) {
        self.device_failovers += 1;
    }

    /// Record one interconnect message sent by this device. Counts and
    /// per-op seconds only — the cluster clock owns the modelled time (see
    /// the field docs on [`Self::net_seconds`]).
    pub fn record_net_send(&mut self, bytes: u64, hops: u64, seconds: f64) {
        self.net_messages += 1;
        self.net_bytes += bytes;
        self.net_hops += hops;
        self.net_seconds += seconds;
        let e = self.per_op.entry("net_send").or_default();
        e.calls += 1;
        e.seconds += seconds;
        e.bytes += bytes as f64;
    }

    /// Record one kernel of a stream-scheduled batch. Attributes the call,
    /// flops, bytes and per-op seconds, but does **not** advance the global
    /// clock — concurrent kernels overlap, so the batch's wall-clock
    /// contribution is its makespan, added once via [`Self::record_idle`]
    /// by `Gpu::synchronize`.
    pub fn record_span(&mut self, name: &'static str, seconds: f64, flops: f64, bytes: f64) {
        self.flops += flops;
        self.dram_bytes += bytes;
        self.calls += 1;
        let e = self.per_op.entry(name).or_default();
        e.calls += 1;
        e.seconds += seconds;
        e.flops += flops;
        e.bytes += bytes;
    }

    /// Overall modelled GFLOP/s for the work recorded so far.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds / 1.0e9
        } else {
            0.0
        }
    }

    /// Human-readable multi-line summary (used by the harness binaries).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "total: {:.3} ms, {:.1} GFLOP/s, {:.1} MB DRAM, {} calls, {} transfers",
            self.seconds * 1e3,
            self.gflops(),
            self.dram_bytes / 1e6,
            self.calls,
            self.transfers
        );
        if self.faults > 0 || self.hangs > 0 || self.sdc_injected > 0 {
            let _ = writeln!(
                s,
                "  faults injected: {} launch faults, {} hangs killed, {} SDC",
                self.faults, self.hangs, self.sdc_injected
            );
        }
        if self.task_replays > 0 || self.run_retries > 0 {
            let _ = writeln!(
                s,
                "  recovery: {} task replays, {} run retries",
                self.task_replays, self.run_retries
            );
        }
        if self.device_losses > 0 || self.device_failovers > 0 {
            let _ = writeln!(
                s,
                "  device loss: lost {} time(s), adopted {} failover workload(s)",
                self.device_losses, self.device_failovers
            );
        }
        if self.net_messages > 0 {
            let _ = writeln!(
                s,
                "  net: {} msgs, {:.1} KB, {} hops, {:.3} ms on the wire",
                self.net_messages,
                self.net_bytes as f64 / 1e3,
                self.net_hops,
                self.net_seconds * 1e3
            );
        }
        for (name, op) in &self.per_op {
            let _ = writeln!(
                s,
                "  {:<16} {:>6} calls  {:>10.3} ms  {:>8.1} GFLOP/s",
                name,
                op.calls,
                op.seconds * 1e3,
                if op.seconds > 0.0 {
                    op.flops / op.seconds / 1e9
                } else {
                    0.0
                }
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut l = CostLedger::default();
        l.record("factor", 1.0e-3, 2.0e6, 1.0e3);
        l.record("factor", 1.0e-3, 2.0e6, 1.0e3);
        l.record("apply_qt_h", 2.0e-3, 8.0e6, 0.0);
        assert_eq!(l.calls, 3);
        assert!((l.seconds - 4.0e-3).abs() < 1e-12);
        assert!((l.flops - 12.0e6).abs() < 1.0);
        assert_eq!(l.per_op["factor"].calls, 2);
        // GFLOP/s = 12e6 / 4e-3 / 1e9 = 3.
        assert!((l.gflops() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_tracked_by_direction() {
        let mut l = CostLedger::default();
        l.record_transfer(1.0e-4, 1000, true);
        l.record_transfer(2.0e-4, 500, false);
        assert_eq!(l.h2d_bytes, 1000);
        assert_eq!(l.d2h_bytes, 500);
        assert_eq!(l.transfers, 2);
        assert!((l.seconds - 3.0e-4).abs() < 1e-15);
    }

    #[test]
    fn summary_mentions_ops() {
        let mut l = CostLedger::default();
        l.record("tree", 1e-3, 1e6, 0.0);
        let s = l.summary();
        assert!(s.contains("tree"));
        assert!(s.contains("calls"));
    }
}
