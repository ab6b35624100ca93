//! Per-block operation counters and per-launch statistics.
//!
//! A launch description states what each block *does* (flops, shared/global
//! memory words moved, barriers, warp-level issue slots), tallied with a
//! [`CostMeter`]; the device model in [`crate::device`] converts the totals
//! into modelled seconds.

use crate::spec::DeviceSpec;

/// Operation counts of one thread block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockCost {
    /// Algorithmically useful floating-point operations (an FMA counts 2).
    pub flops: u64,
    /// SM issue cycles consumed by compute + shared-memory instructions.
    /// This is the quantity that makes the four reduction strategies differ.
    pub issue_cycles: f64,
    /// Bytes moved to/from global memory (after coalescing penalties).
    pub gmem_bytes: f64,
    /// Shared-memory words accessed (reads + writes), for reporting.
    pub smem_words: u64,
    /// Number of `__syncthreads()` barriers executed.
    pub syncs: u64,
}

impl BlockCost {
    /// Merge another block's counts (used when aggregating a launch).
    pub fn merge(&mut self, other: &BlockCost) {
        self.flops += other.flops;
        self.issue_cycles += other.issue_cycles;
        self.gmem_bytes += other.gmem_bytes;
        self.smem_words += other.smem_words;
        self.syncs += other.syncs;
    }
}

/// Counting interface for block costs. Wraps a [`BlockCost`] plus the
/// device constants needed to convert operations into issue cycles.
#[derive(Clone, Debug)]
pub struct CostMeter {
    /// The running counters.
    pub cost: BlockCost,
    lanes: f64,
    smem_cpw: f64,
    gmem_cpw: f64,
    sync_cycles: f64,
    uncoalesced: f64,
    issue_eff: f64,
}

impl CostMeter {
    /// Build a meter for a device.
    pub fn new(spec: &DeviceSpec) -> Self {
        CostMeter {
            cost: BlockCost::default(),
            lanes: spec.lanes_per_sm as f64,
            smem_cpw: spec.smem_cycles_per_warp_access,
            gmem_cpw: spec.gmem_issue_cycles_per_warp_access,
            sync_cycles: spec.sync_cycles,
            uncoalesced: spec.uncoalesced_factor,
            issue_eff: spec.issue_efficiency,
        }
    }

    /// `n` fused multiply-adds executed across the block's threads
    /// (2 flops each). One warp instruction retires 32 lanes of FMAs.
    #[inline]
    pub fn fma(&mut self, n_thread_ops: u64) {
        self.cost.flops += 2 * n_thread_ops;
        self.cost.issue_cycles += n_thread_ops as f64 / self.lanes / self.issue_eff;
    }

    /// `n` bookkeeping ops (loop counters, addressing, predicates): they
    /// occupy issue slots but are not counted as useful flops.
    #[inline]
    pub fn alu(&mut self, n_thread_ops: u64) {
        self.cost.issue_cycles += n_thread_ops as f64 / self.lanes / self.issue_eff;
    }

    /// Issue slots with *no* useful flops: idle lanes in a divergent or
    /// partially-filled warp still occupy the pipeline. `n` is counted in
    /// thread-slots (so a warp-wide step with 8 active lanes costs
    /// `idle(24)` next to `alu(8)`).
    #[inline]
    pub fn idle(&mut self, n_thread_slots: u64) {
        self.cost.issue_cycles += n_thread_slots as f64 / self.lanes / self.issue_eff;
    }

    /// `n` words read or written in shared memory (bank-conflict-free).
    #[inline]
    pub fn smem(&mut self, n_words: u64) {
        self.cost.smem_words += n_words;
        self.cost.issue_cycles += n_words as f64 / self.lanes * self.smem_cpw;
    }

    /// Global-memory traffic: `words` 4-byte words, `coalesced` when
    /// consecutive lanes touch consecutive addresses.
    #[inline]
    pub fn gmem(&mut self, words: u64, bytes_per_word: u64, coalesced: bool) {
        // f64 multiply: a huge modelled word count must degrade precision,
        // not wrap a u64 product.
        let raw = words as f64 * bytes_per_word as f64;
        let eff = if coalesced {
            raw
        } else {
            raw * self.uncoalesced
        };
        self.cost.gmem_bytes += eff;
        self.cost.issue_cycles += words as f64 / self.lanes * self.gmem_cpw;
    }

    /// Raw pipeline-stall cycles (dependency chains that issue nothing:
    /// norm/sqrt serialization in the factor kernels, reduction latency).
    #[inline]
    pub fn stall(&mut self, cycles: f64) {
        self.cost.issue_cycles += cycles;
    }

    /// One barrier.
    #[inline]
    pub fn sync(&mut self) {
        self.sync_n(1);
    }

    /// `n` barriers (aggregated charge for loop-heavy strategies).
    #[inline]
    pub fn sync_n(&mut self, n: u64) {
        self.cost.syncs += n;
        self.cost.issue_cycles += n as f64 * self.sync_cycles;
    }
}

/// Aggregated result of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name.
    pub name: &'static str,
    /// Number of thread blocks launched.
    pub blocks: usize,
    /// Modelled execution time in seconds (including launch overhead).
    pub seconds: f64,
    /// Sum of per-block costs.
    pub total: BlockCost,
    /// Achieved GFLOP/s according to the model.
    pub gflops: f64,
    /// True when the launch was limited by issue bandwidth rather than DRAM.
    pub compute_bound: bool,
    /// Stream index for asynchronous launches (`None` for synchronous ones).
    /// Async reports carry the contention-free time in `seconds`; the
    /// realized interval is produced by `Gpu::synchronize`.
    pub stream: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_counts_two_flops() {
        let spec = DeviceSpec::c2050();
        let mut m = CostMeter::new(&spec);
        m.fma(32);
        assert_eq!(m.cost.flops, 64);
        // 32 thread ops on 32 lanes ~ 1 cycle / issue efficiency.
        assert!((m.cost.issue_cycles - 1.0 / spec.issue_efficiency).abs() < 1e-12);
    }

    #[test]
    fn uncoalesced_traffic_is_amplified() {
        let spec = DeviceSpec::c2050();
        let mut m = CostMeter::new(&spec);
        m.gmem(10, 4, true);
        let coalesced = m.cost.gmem_bytes;
        let mut m = CostMeter::new(&spec);
        m.gmem(10, 4, false);
        assert!((m.cost.gmem_bytes - coalesced * spec.uncoalesced_factor).abs() < 1e-9);
    }

    #[test]
    fn smem_is_slower_than_register_compute() {
        let spec = DeviceSpec::c2050();
        let mut a = CostMeter::new(&spec);
        a.fma(1000);
        let mut b = CostMeter::new(&spec);
        b.fma(1000);
        b.smem(2000); // operand round-trips through shared memory
        assert!(b.cost.issue_cycles > 2.0 * a.cost.issue_cycles);
    }

    #[test]
    fn merge_adds_counts() {
        let spec = DeviceSpec::c2050();
        let mut a = CostMeter::new(&spec);
        a.fma(10);
        a.sync();
        let mut total = BlockCost::default();
        total.merge(&a.cost);
        total.merge(&a.cost);
        assert_eq!(total.flops, 40);
        assert_eq!(total.syncs, 2);
    }
}
