//! # caqr — Communication-Avoiding QR for (simulated) GPUs
//!
//! Reproduction of the primary contribution of *"Communication-Avoiding QR
//! Decomposition for GPUs"* (Anderson, Ballard, Demmel, Keutzer; IPPS 2011):
//!
//! * [`tsqr`](mod@tsqr) — Tall-Skinny QR: per-tile Householder factorizations plus an
//!   `h/w`-ary reduction tree over the R factors (Figure 2),
//! * [`caqr`](mod@caqr) — the full factorization for arbitrary shapes: TSQR panels +
//!   horizontal and tree trailing-matrix updates (Figures 3-4),
//! * [`kernels`] — the four GPU kernels (`factor`, `factor_tree`,
//!   `apply_qt_h`, `apply_qt_tree`) executing real arithmetic on the
//!   simulated device from the `gpu-sim` crate,
//! * [`microkernels`] — the matrix-vector/rank-1 core with the paper's four
//!   tuning strategies (55 -> 388 GFLOPS, Section IV-E),
//! * [`tuning`] — the block-size autotuner (Figure 7),
//! * [`model`] — the model-only launch replay behind the large figure
//!   sweeps, provably consistent with execution,
//! * [`schedule`] — CAQR as a task DAG on simulated CUDA streams with
//!   lookahead, bit-identical to the synchronous loop,
//! * [`recovery`] — ABFT-checksummed, fault-recovering CAQR: tile-granular
//!   replay of faulted tasks with a task -> panel -> run escalation ladder,
//! * [`distributed`] — multi-device TSQR over an interconnect-modelled
//!   cluster with tier-4 device-loss failover, bit-identical to the
//!   single-device host path,
//! * [`backend`] — the execution-backend trait behind all of the above:
//!   one generic CAQR driver ([`backend::drive`]), pluggable executors
//!   (host multicore, simulator sync/stream-DAG, resilient, cluster),
//! * [`service`] — the multi-tenant batching service: a bounded admission
//!   queue with priority classes, deadlines and per-tenant quotas,
//!   shape-fused `factor_many` batches (bit-identical per matrix to
//!   standalone [`caqr_cpu`]), service-tier fault tolerance (fault-isolated
//!   fused batches with ABFT carve-out, supervised workers, an overload
//!   circuit breaker, bounded solo retry), and a per-tenant accounting
//!   ledger that reconciles exactly even mid-chaos.
//!
//! ## Quick start
//!
//! ```
//! use caqr::{caqr, CaqrOptions};
//! use gpu_sim::{DeviceSpec, Gpu};
//!
//! let gpu = Gpu::new(DeviceSpec::c2050());
//! let a = dense::generate::uniform::<f32>(4096, 64, 1);
//! let f = caqr::caqr(&gpu, a, CaqrOptions::default()).unwrap();
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
pub mod health;
pub mod kernels;
pub mod microkernels;
pub mod model;
pub mod multicore;
pub mod recovery;
pub mod schedule;
pub mod service;
pub mod tsqr;
pub mod tuning;

pub use backend::{drive, CaqrBackend, CpuBackend, DriveConfig, Factorization, Mode, SimBackend};
pub use block::{BlockSize, TreeShape};
pub use caqr::{caqr_qr, CaqrOptions};
pub use distributed::{distributed_tsqr, ClusterBackend, DistOptions, DistReport};
pub use error::{checked_bytes, checked_elems, CaqrError};
pub use health::{check_matrix_finite, first_nonfinite};
pub use microkernels::ReductionStrategy;
pub use multicore::{caqr_cpu, CpuCaqr, CpuCaqrOptions};
pub use recovery::{
    caqr_resilient, drive_resilient, RecoveryOptions, RecoveryPolicy, RecoveryReport,
};
pub use schedule::{caqr_dag, model_caqr_dag_seconds, ScheduleOptions};
pub use service::{
    factor_many, factor_many_resilient, factor_many_with_stats, run_solo_resilient,
    service_retryable, BatchStats, JobOutcome, JobSpec, PlannedFault, Priority, ResilienceConfig,
    RetryBudget, Service, ServiceConfig, ServiceError, ServiceFaultPlan, ServiceLedger, ShedPolicy,
    SubmitError, TenantCounters, TenantQuota, Ticket,
};
pub use tsqr::{tsqr, PanelFactor, TreeNode};
pub use tuning::{autotune_measured, MeasuredPoint, MeasuredProfile};
