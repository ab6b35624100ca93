//! # rpca — Robust PCA for stationary-video background subtraction
//!
//! The paper's motivating application (Section VI): a surveillance clip
//! becomes a 110,592 x 100 tall-skinny matrix; Robust PCA splits it into a
//! low-rank background and a sparse foreground by iterating a singular-value
//! threshold whose dominant cost is a tall-skinny SVD — computed as
//! QR -> small SVD of `R` -> `Q * U`, which is where CAQR earns its 3x
//! end-to-end speedup.
//!
//! * [`video`] — deterministic synthetic surveillance-clip generator (the
//!   ViSOR substitution; see DESIGN.md §2),
//! * [`svd_qr`] — the SVD-via-QR pipeline with pluggable QR backends (host
//!   blocked Householder or simulated-GPU CAQR),
//! * [`solver`] — the inexact-ALM alternating-directions solver, the one
//!   Robust PCA loop for every backend: with a simulated-GPU backend it
//!   also charges the iteration's other bulk steps to the device,
//! * [`gpu_ops`] — [`gpu_ops::LoopWalk`], the one walk of those charges
//!   (transfers, the host SVD of `R`, elementwise passes and GEMMs), and
//!   the launch descriptions it charges — the arithmetic is the host's,
//! * [`metrics`] — foreground detection and PSNR scores of a separation,
//! * [`timing`] — the Table II iteration rates: each row's QR plus the
//!   same walk, charged without data.

#![warn(missing_docs)]

pub mod gpu_ops;
pub mod metrics;
pub mod solver;
pub mod svd_qr;
pub mod timing;
pub mod video;

pub use metrics::{foreground_detection, psnr, relative_error, Detection};
pub use solver::{rpca, RpcaParams, RpcaResult};
pub use svd_qr::{svd_via_qr, CpuQrBackend, GpuCaqrBackend, QrBackend};
pub use timing::{model_iteration_seconds, model_iterations_per_second, RpcaImpl};
pub use video::{generate as generate_video, SyntheticVideo, VideoConfig};
