//! The kernel abstraction: a grid of independent thread blocks, described
//! without touching data.
//!
//! A [`Launch`] states a launch's name, its [`LaunchConfig`] (grid size
//! plus per-block resource demands, which the device validates against its
//! limits exactly like the CUDA runtime would) and the operation counts of
//! each block. The device charges every launch from this description alone;
//! the arithmetic it stands for runs on the host, outside the simulator.

use crate::cost::BlockCost;
use crate::spec::DeviceSpec;

/// Grid and per-block resource demands of one launch.
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub blocks: usize,
    /// Threads per block (the paper's kernels use 64).
    pub threads_per_block: usize,
    /// Static shared-memory request per block, bytes.
    pub shared_mem_bytes: usize,
    /// Registers per thread (4-byte registers).
    pub regs_per_thread: usize,
}

/// Error returned when a launch violates device limits — the analogue of
/// `cudaErrorInvalidConfiguration` / `cudaErrorLaunchOutOfResources`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// Shared memory request exceeds per-SM capacity.
    SharedMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes available.
        available: usize,
    },
    /// Thread count exceeds the per-block maximum.
    Threads {
        /// Threads requested.
        requested: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// Register demand of one block exceeds the register file.
    Registers {
        /// Bytes of register file needed by one block.
        requested: usize,
        /// Bytes available per SM.
        available: usize,
    },
    /// Grid was empty.
    EmptyGrid,
    /// The whole device is gone (see [`crate::Gpu::lose_at_launch`]) — the
    /// analogue of `cudaErrorDevicesUnavailable` after a node drops off the
    /// bus. There is no retry: this launch and every subsequent launch on
    /// the device fail until [`crate::Gpu::reset`] revives it.
    /// Multi-device drivers recover by failing the lost device's work over
    /// to a survivor (see `caqr::distributed`).
    DeviceLost {
        /// Kernel whose launch found the device gone.
        kernel: &'static str,
        /// Launch ordinal (0-based admission order) that hit the loss.
        launch_index: u64,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "shared memory request {requested} B exceeds {available} B"
                )
            }
            LaunchError::Threads { requested, max } => {
                write!(f, "{requested} threads per block exceeds max {max}")
            }
            LaunchError::Registers {
                requested,
                available,
            } => {
                write!(
                    f,
                    "register demand {requested} B exceeds register file {available} B"
                )
            }
            LaunchError::EmptyGrid => write!(f, "kernel launched with an empty grid"),
            LaunchError::DeviceLost {
                kernel,
                launch_index,
            } => {
                write!(
                    f,
                    "device lost: kernel `{kernel}` (launch #{launch_index}) found the device gone; all further launches fail until reset"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

impl LaunchConfig {
    /// Validate against a device, mirroring the CUDA runtime checks.
    pub fn validate(&self, spec: &DeviceSpec) -> Result<(), LaunchError> {
        if self.blocks == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        if self.threads_per_block > spec.max_threads_per_block {
            return Err(LaunchError::Threads {
                requested: self.threads_per_block,
                max: spec.max_threads_per_block,
            });
        }
        if self.shared_mem_bytes > spec.smem_per_sm {
            return Err(LaunchError::SharedMemory {
                requested: self.shared_mem_bytes,
                available: spec.smem_per_sm,
            });
        }
        let reg_bytes = self.regs_per_thread * 4 * self.threads_per_block;
        if reg_bytes > spec.regfile_per_sm {
            return Err(LaunchError::Registers {
                requested: reg_bytes,
                available: spec.regfile_per_sm,
            });
        }
        Ok(())
    }

    /// How many blocks of this shape fit concurrently on one SM
    /// (the occupancy calculation; used for reporting and latency-hiding
    /// sanity checks, not for the issue-serialization timing model).
    pub fn blocks_per_sm(&self, spec: &DeviceSpec) -> usize {
        let by_smem = spec
            .smem_per_sm
            .checked_div(self.shared_mem_bytes)
            .unwrap_or(usize::MAX);
        let reg_bytes = self.regs_per_thread * 4 * self.threads_per_block;
        let by_regs = spec
            .regfile_per_sm
            .checked_div(reg_bytes)
            .unwrap_or(usize::MAX);
        // Fermi limit of 8 resident blocks and 1536 threads per SM.
        let by_threads = 1536 / self.threads_per_block.max(1);
        by_smem.min(by_regs).min(by_threads).min(8)
    }
}

/// The data-free description of one launch: what the device validates and
/// charges, block for block.
pub trait Launch: Sync {
    /// Kernel name for reports and ledgers.
    fn name(&self) -> &'static str;
    /// Grid shape and resource demands.
    fn config(&self) -> LaunchConfig;
    /// Operation counts of block `block_idx` (`< config().blocks`).
    fn block_cost(&self, block_idx: usize) -> BlockCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_oversized_smem() {
        let spec = DeviceSpec::c2050();
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 64,
            shared_mem_bytes: 64 * 1024,
            regs_per_thread: 16,
        };
        assert!(matches!(
            cfg.validate(&spec),
            Err(LaunchError::SharedMemory { .. })
        ));
    }

    #[test]
    fn validate_rejects_too_many_threads() {
        let spec = DeviceSpec::c2050();
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 1024,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        assert!(matches!(
            cfg.validate(&spec),
            Err(LaunchError::Threads { .. })
        ));
    }

    #[test]
    fn validate_rejects_register_pressure() {
        let spec = DeviceSpec::c2050();
        // 512 threads * 128 regs * 4 B = 256 KB > 128 KB.
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 512,
            shared_mem_bytes: 0,
            regs_per_thread: 128,
        };
        assert!(matches!(
            cfg.validate(&spec),
            Err(LaunchError::Registers { .. })
        ));
    }

    #[test]
    fn validate_rejects_empty_grid() {
        let spec = DeviceSpec::c2050();
        let cfg = LaunchConfig {
            blocks: 0,
            threads_per_block: 64,
            shared_mem_bytes: 0,
            regs_per_thread: 8,
        };
        assert_eq!(cfg.validate(&spec), Err(LaunchError::EmptyGrid));
    }

    #[test]
    fn paper_block_shape_is_valid_and_occupies() {
        // The paper's 128x16 blocks with 64 threads: 2048 words of register
        // storage = 32 regs/thread plus scratch.
        let spec = DeviceSpec::c2050();
        let cfg = LaunchConfig {
            blocks: 100,
            threads_per_block: 64,
            shared_mem_bytes: 16 * 1024,
            regs_per_thread: 40,
        };
        cfg.validate(&spec).unwrap();
        let occ = cfg.blocks_per_sm(&spec);
        assert!(occ >= 3, "expected multiple resident blocks, got {occ}");
    }
}
