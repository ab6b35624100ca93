//! # gpu-sim — GPU execution-model simulator
//!
//! The paper's system is CUDA kernels on an NVIDIA C2050. This crate is the
//! substitution that makes the reproduction runnable without the hardware
//! (DESIGN.md §2). It executes nothing: each launch is a
//! [`kernel::Launch`] description that states every block's operation
//! counts ([`cost::CostMeter`] tallies them), and the device
//! ([`device::Gpu`]) converts those counts into modelled seconds with a
//! roofline + issue-serialization + launch overhead model. The arithmetic
//! a launch stands for runs on the host, in the caller's code, so the
//! numerics are exactly the host's while the paper's performance *shapes*
//! are reproducible. Charging a description needs no data, which is how
//! the figure sweeps model terabyte-scale shapes.
//!
//! The same crate models the CPU side ([`cpu::CpuMachine`]) and the PCIe
//! link, which the MAGMA-style hybrid baseline needs.
//!
//! The device injects no faults of its own beyond device loss
//! ([`device::Gpu::lose_at_launch`]), which is device state. Launch faults,
//! hangs and silent data corruption are planned per task by the `caqr`
//! crate's one injector, which charges them here through
//! [`device::Gpu::charge_failed_launch`] and [`device::Gpu::note_sdc`].
//!
//! Work can also be submitted asynchronously on [`stream::StreamId`] queues
//! with [`stream::EventId`] cross-stream dependencies; their modelled
//! timing is resolved by a discrete-event engine ([`timeline`]) at
//! [`device::Gpu::synchronize`], which also exports Chrome `trace_event`
//! JSON per stream.
//!
//! Multiple devices can be joined into an [`interconnect::Cluster`]: a
//! latency/bandwidth (alpha-beta + per-hop) link model over a ring or
//! binomial-tree [`interconnect::Topology`], with `send`/`recv`/
//! `broadcast`/`reduce` as first-class timed events on the same modelled
//! clock — the substrate for distributed CAQR (`caqr::distributed`).

#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod device;
pub mod interconnect;
pub mod kernel;
pub mod ledger;
pub mod spec;
pub mod stream;
pub mod timeline;

pub use cost::{BlockCost, CostMeter, KernelReport};
pub use cpu::CpuMachine;
pub use device::{Exec, Gpu, DEFAULT_WATCHDOG_US};
pub use interconnect::{Cluster, CommEvent, LinkSpec, NetTotals, Topology};
pub use kernel::{Launch, LaunchConfig, LaunchError};
pub use ledger::CostLedger;
pub use spec::{CpuSpec, DeviceSpec, PcieSpec};
pub use stream::{EventId, StreamId, WATCHDOG_STALL};
pub use timeline::{Interval, Timeline};
