//! Property tests of the device model: timing must be monotone, additive
//! and conserve the recorded quantities.

use gpu_sim::{BlockCost, CostMeter, DeviceSpec, Exec, Gpu, Launch, LaunchConfig};
use proptest::prelude::*;

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

fn cfg(blocks: usize) -> LaunchConfig {
    LaunchConfig {
        blocks,
        threads_per_block: 64,
        shared_mem_bytes: 1024,
        regs_per_thread: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn launch_time_monotone_in_work(issue in 1.0f64..1e7, gmem in 0.0f64..1e8, blocks in 1usize..500) {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let small = BlockCost { flops: 100, issue_cycles: issue, gmem_bytes: gmem, smem_words: 0, syncs: 0 };
        let big = BlockCost { flops: 100, issue_cycles: issue * 2.0, gmem_bytes: gmem * 2.0, smem_words: 0, syncs: 0 };
        let t1 = gpu.charge_on(Exec::Sync, &Uniform("a", cfg(blocks), small)).unwrap().seconds;
        let t2 = gpu.charge_on(Exec::Sync, &Uniform("b", cfg(blocks), big)).unwrap().seconds;
        prop_assert!(t2 >= t1);
    }

    #[test]
    fn launch_time_never_below_overhead_or_rooflines(
        issue in 0.0f64..1e6,
        gmem in 0.0f64..1e7,
        blocks in 1usize..200,
    ) {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let spec = gpu.spec().clone();
        let c = BlockCost { flops: 1, issue_cycles: issue, gmem_bytes: gmem, smem_words: 0, syncs: 0 };
        let t = gpu.charge_on(Exec::Sync, &Uniform("k", cfg(blocks), c)).unwrap().seconds;
        let overhead = spec.launch_overhead_us * 1e-6;
        let dram_floor = blocks as f64 * gmem / (spec.dram_bw_gbs * 1e9);
        // Even a perfectly parallel machine cannot beat DRAM or the launch.
        prop_assert!(t + 1e-15 >= overhead);
        prop_assert!(t + 1e-12 >= dram_floor);
        // And never slower than fully serial issue + dram + overhead.
        let serial = overhead
            + blocks as f64 * issue * spec.cycle_seconds()
            + dram_floor;
        prop_assert!(t <= serial + 1e-12);
    }

    #[test]
    fn ledger_totals_are_additive(k1 in 1usize..50, k2 in 1usize..50) {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let c = BlockCost { flops: 1000, issue_cycles: 500.0, gmem_bytes: 4096.0, smem_words: 10, syncs: 1 };
        for _ in 0..k1 {
            gpu.charge_on(Exec::Sync, &Uniform("x", cfg(3), c)).unwrap();
        }
        let mid = gpu.ledger();
        for _ in 0..k2 {
            gpu.charge_on(Exec::Sync, &Uniform("y", cfg(3), c)).unwrap();
        }
        let end = gpu.ledger();
        prop_assert_eq!(end.calls, (k1 + k2) as u64);
        prop_assert!((end.flops - mid.flops * (k1 + k2) as f64 / k1 as f64).abs() < 1.0);
        prop_assert!(end.seconds > mid.seconds);
    }

    #[test]
    fn meter_issue_cycles_accumulate_monotonically(ops in proptest::collection::vec(1u64..10_000, 1..20)) {
        let spec = DeviceSpec::c2050();
        let mut m = CostMeter::new(&spec);
        let mut last = 0.0;
        for (i, &n) in ops.iter().enumerate() {
            match i % 4 {
                0 => m.fma(n),
                1 => m.smem(n),
                2 => m.alu(n),
                _ => m.gmem(n, 4, i % 2 == 0),
            }
            prop_assert!(m.cost.issue_cycles >= last);
            last = m.cost.issue_cycles;
        }
    }

    #[test]
    fn occupancy_never_exceeds_fermi_limits(
        threads in 1usize..512,
        smem in 0usize..48_000,
        regs in 1usize..63,
    ) {
        let spec = DeviceSpec::c2050();
        let c = LaunchConfig {
            blocks: 10,
            threads_per_block: threads,
            shared_mem_bytes: smem,
            regs_per_thread: regs,
        };
        if c.validate(&spec).is_ok() {
            let occ = c.blocks_per_sm(&spec);
            prop_assert!(occ >= 1);
            prop_assert!(occ <= 8, "Fermi resident-block limit");
            prop_assert!(occ * threads <= 1536, "thread limit");
            if smem > 0 {
                prop_assert!(occ * smem <= spec.smem_per_sm);
            }
        }
    }
}

#[test]
fn splitting_a_launch_in_two_is_never_faster() {
    // Launch overhead makes one big launch at least as good as two halves —
    // the reason the paper fuses work into as few kernels as possible.
    let gpu = Gpu::new(DeviceSpec::c2050());
    let c = BlockCost {
        flops: 1000,
        issue_cycles: 10_000.0,
        gmem_bytes: 1e5,
        smem_words: 0,
        syncs: 0,
    };
    let one = gpu
        .charge_on(Exec::Sync, &Uniform("one", cfg(100), c))
        .unwrap()
        .seconds;
    let half_a = gpu
        .charge_on(Exec::Sync, &Uniform("a", cfg(50), c))
        .unwrap()
        .seconds;
    let half_b = gpu
        .charge_on(Exec::Sync, &Uniform("b", cfg(50), c))
        .unwrap()
        .seconds;
    assert!(one <= half_a + half_b + 1e-12);
}
