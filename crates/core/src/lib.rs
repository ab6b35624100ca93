//! # caqr — Communication-Avoiding QR for (simulated) GPUs
//!
//! Reproduction of the primary contribution of *"Communication-Avoiding QR
//! Decomposition for GPUs"* (Anderson, Ballard, Demmel, Keutzer; IPPS 2011):
//!
//! * [`tsqr`] — the panel factor types of Tall-Skinny QR: per-tile
//!   Householder factorizations plus an `h/w`-ary reduction tree over the
//!   R factors (Figure 2); TSQR itself is [`drive`] on a one-panel matrix,
//! * [`caqr`](mod@caqr) — the options of the full factorization for arbitrary
//!   shapes: TSQR panels + horizontal and tree trailing-matrix updates
//!   (Figures 3-4),
//! * [`kernels`] — the launch descriptions of the four GPU kernels
//!   (`factor`, `factor_tree`, `apply_qt_h`, `apply_qt_tree`) that the
//!   `gpu-sim` device charges; the arithmetic they stand for is the host's
//!   ([`blockops`]),
//! * [`microkernels`] — the cost model of the paper's four tuning
//!   strategies for the matrix-vector/rank-1 core (55 -> 388 GFLOPS,
//!   Section IV-E),
//! * [`tuning`] — the block-size autotuner (Figure 7),
//! * [`model`] — the chain walks every simulated charge goes through; the
//!   one model entry, [`SimBackend::model`], charges the driver's own panel
//!   schedule with them without doing the arithmetic,
//! * [`recovery`] — the replay budgets and report of ABFT-checksummed,
//!   fault-recovering CAQR ([`drive_recovering`]): tile-granular replay of
//!   faulted tasks with a task -> run escalation ladder,
//! * [`fault`] — deterministic fault plans for the one fault injector,
//!   [`backend::Faulty`],
//! * [`distributed`] — multi-device TSQR over an interconnect-modelled
//!   cluster with tier-3 device-loss failover, bit-identical to the
//!   single-device host path,
//! * [`backend`] — the execution-backend trait behind all of the above:
//!   one generic CAQR driver ([`drive`], and [`drive_recovering`] under a
//!   replay policy) and the executors it runs on as values (host
//!   multicore, simulator sync/stream-DAG/resilient, cluster); CAQR as a
//!   task DAG on simulated CUDA streams with lookahead is [`Mode::Dag`],
//! * [`service`] — the multi-tenant batching service: a bounded admission
//!   queue with priority classes, deadlines and per-tenant quotas,
//!   shape-fused `factor_many` batches (bit-identical per matrix to
//!   standalone [`caqr_cpu`]), service-tier fault tolerance (fault-isolated
//!   fused batches with ABFT carve-out, supervised workers, an overload
//!   circuit breaker, bounded retry rounds), and a per-tenant accounting
//!   ledger that reconciles exactly even mid-chaos.
//!
//! ## Quick start
//!
//! ```
//! use caqr::{drive, CaqrOptions, Mode, SimBackend};
//! use gpu_sim::{DeviceSpec, Gpu};
//!
//! let gpu = Gpu::new(DeviceSpec::c2050());
//! let a = dense::generate::uniform::<f32>(4096, 64, 1);
//! let cfg = CaqrOptions::default().drive_config();
//! let f = drive(&SimBackend::sync(&gpu), a, &cfg, Mode::Sync).unwrap();
//! let r = f.r();
//! assert_eq!(r.cols(), 64);
//! println!("modelled time: {:.3} ms", gpu.elapsed() * 1e3);
//! ```

#![warn(missing_docs)]
// Lock in the panic-path sweep: library code must surface `CaqrError`
// instead of unwrapping. Tests may unwrap freely (the cfg_attr gate), and
// `expect` stays allowed for provably-infallible invariants whose message
// says why. CI elevates this to deny via `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod backend;
pub mod block;
pub mod blockops;
pub mod bounds;
pub mod caqr;
pub mod distributed;
pub mod error;
pub mod fault;
pub mod health;
pub mod kernels;
pub mod microkernels;
pub mod model;
pub mod multicore;
pub mod recovery;
pub mod service;
pub mod tsqr;
pub mod tuning;

pub use backend::{
    drive, drive_recovering, CaqrBackend, CpuBackend, DriveConfig, Factorization, Faulty, Mode,
    Modelled, SimBackend,
};
pub use block::{BlockSize, TreeShape};
pub use caqr::CaqrOptions;
pub use distributed::{distributed_tsqr, ClusterBackend, DistOptions, DistReport};
pub use error::{checked_bytes, checked_elems, CaqrError};
pub use fault::{FaultKind, FaultPlan, PlannedFault};
pub use health::first_nonfinite;
pub use microkernels::ReductionStrategy;
pub use multicore::{caqr_cpu, CpuCaqr, CpuCaqrOptions};
pub use recovery::{RecoveryPolicy, RecoveryReport};
pub use service::{
    factor_many, service_retryable, BatchStats, JobOutcome, JobSpec, Priority, ResilienceConfig,
    RetryBudget, Service, ServiceConfig, ServiceError, ServiceFaultPlan, ServiceLedger, ShedPolicy,
    SubmitError, TenantCounters, TenantQuota, Ticket,
};
pub use tsqr::{PanelFactor, TreeNode};
pub use tuning::{autotune_measured, MeasuredPoint, MeasuredProfile};
