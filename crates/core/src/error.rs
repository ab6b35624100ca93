//! Typed error taxonomy for the CAQR drivers.
//!
//! Everything a *caller* can trigger — bad shapes, non-finite input, a
//! numerical breakdown, an injected fault that outlived recovery — comes
//! back as a [`CaqrError`] instead of a panic, so the RPCA solver and the
//! harness binaries can degrade gracefully. Panics that remain in the
//! library crates are programmer errors on invariants held by construction
//! (documented in DESIGN.md §9).

use dense::DenseError;
use gpu_sim::LaunchError;

/// Errors surfaced by the TSQR/CAQR drivers and the solvers above them.
#[derive(Clone, Debug, PartialEq)]
pub enum CaqrError {
    /// A kernel launch violated device limits (shared memory, threads,
    /// registers) — the analogue of a CUDA launch failure.
    Launch(LaunchError),
    /// The requested factorization shape or block size is invalid.
    BadShape(String),
    /// An injected launch fault failed a task before it ran (see
    /// [`crate::fault`]).
    Fault {
        /// Kernel that failed.
        kernel: &'static str,
        /// The ordinal the fault fired at.
        launch_index: u64,
    },
    /// A NaN or infinity where finite data is required.
    NonFinite {
        /// Which input/stage the value was found in.
        context: &'static str,
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
    /// An injected hang ran a task past the watchdog deadline.
    Timeout {
        /// Kernel that hung.
        kernel: &'static str,
        /// The ordinal the hang fired at.
        launch_index: u64,
        /// Watchdog deadline charged for the hang, microseconds.
        deadline_us: u64,
    },
    /// An ABFT checksum caught silently corrupted data (DESIGN.md §10):
    /// the named column's post-update sum (or the panel `R` column's norm
    /// invariant) disagrees with its prediction beyond rounding tolerance.
    ChecksumMismatch {
        /// Which verification stage detected it (`"factor"` / `"apply"`).
        stage: &'static str,
        /// Panel (0-based) whose verification failed.
        panel: usize,
        /// Global column index of the first mismatching checksum.
        col: usize,
    },
    /// The device a launch targeted has been lost wholesale
    /// (`gpu_sim::Gpu::lose_at_launch`, or an injected
    /// `FaultKind::DeviceLoss`): every launch on it fails until the device
    /// is reset. On a single device this is terminal — there is no retry a
    /// dead device can answer. Multi-device drivers (`distributed`) catch
    /// it and fail the lost device's work over to a survivor instead.
    DeviceLost {
        /// Kernel whose launch found the device gone.
        kernel: &'static str,
        /// Launch ordinal (0-based admission order).
        launch_index: u64,
    },
    /// Both tiers of the recovery escalation ladder (task replay → run
    /// retry) were exhausted without a clean run.
    Unrecoverable {
        /// The final straw: what kept failing after all replay budgets.
        context: String,
    },
    /// The computation degenerated numerically (e.g. a non-finite residual
    /// in an iterative solver, or a deadlocked stream schedule).
    Breakdown {
        /// What broke down.
        context: String,
    },
    /// A host-side task driving the computation panicked and the unwind
    /// was caught at an isolation boundary (a fused-batch member task, a
    /// service worker, an injected `FaultKind::HostPanic`). The panic is
    /// converted to a typed error so riders in the same batch — and the
    /// worker pool itself — survive.
    Panicked {
        /// Where the panic was caught, e.g. `"fused factor task"`.
        context: String,
    },
}

impl From<LaunchError> for CaqrError {
    fn from(e: LaunchError) -> Self {
        match e {
            LaunchError::DeviceLost {
                kernel,
                launch_index,
            } => CaqrError::DeviceLost {
                kernel,
                launch_index,
            },
            other => CaqrError::Launch(other),
        }
    }
}

impl From<DenseError> for CaqrError {
    fn from(e: DenseError) -> Self {
        match e {
            DenseError::ShapeMismatch {
                context,
                expected,
                got,
            } => CaqrError::BadShape(format!("{context}: expected {expected}, got {got}")),
            DenseError::NonFinite { context, row, col } => {
                CaqrError::NonFinite { context, row, col }
            }
        }
    }
}

impl std::fmt::Display for CaqrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaqrError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            CaqrError::BadShape(s) => write!(f, "bad shape: {s}"),
            CaqrError::Fault {
                kernel,
                launch_index,
            } => write!(
                f,
                "device fault: kernel `{kernel}` failed at launch #{launch_index}"
            ),
            CaqrError::NonFinite { context, row, col } => {
                write!(f, "non-finite value in {context} at ({row}, {col})")
            }
            CaqrError::Timeout {
                kernel,
                launch_index,
                deadline_us,
            } => write!(
                f,
                "watchdog timeout: kernel `{kernel}` (launch #{launch_index}) hung past the {deadline_us} us deadline"
            ),
            CaqrError::ChecksumMismatch { stage, panel, col } => write!(
                f,
                "checksum mismatch: {stage} verification of panel {panel} failed at column {col} (silent data corruption detected)"
            ),
            CaqrError::DeviceLost {
                kernel,
                launch_index,
            } => write!(
                f,
                "device lost: kernel `{kernel}` (launch #{launch_index}) found its device gone"
            ),
            CaqrError::Unrecoverable { context } => {
                write!(f, "unrecoverable after all replay tiers: {context}")
            }
            CaqrError::Breakdown { context } => write!(f, "numerical breakdown: {context}"),
            CaqrError::Panicked { context } => {
                write!(f, "task panicked: {context} (unwind caught at isolation boundary)")
            }
        }
    }
}

impl std::error::Error for CaqrError {}

/// `a * b` as an element count, surfacing overflow on adversarially large
/// dimensions as a typed [`CaqrError::BadShape`] instead of silently
/// wrapping (release builds don't trap) or panicking (debug builds do).
pub fn checked_elems(a: usize, b: usize, what: &str) -> Result<usize, CaqrError> {
    a.checked_mul(b)
        .ok_or_else(|| CaqrError::BadShape(format!("{what} overflows: {a} * {b}")))
}

/// `elems * bytes_per_elem` as a `u64` byte count, with the same overflow
/// guarantee as [`checked_elems`] — used by the transfer/cost accounting
/// that feeds byte counts to the interconnect and PCIe models.
pub fn checked_bytes(elems: usize, bytes_per_elem: u64, what: &str) -> Result<u64, CaqrError> {
    (elems as u64).checked_mul(bytes_per_elem).ok_or_else(|| {
        CaqrError::BadShape(format!(
            "{what} byte size overflows: {elems} * {bytes_per_elem} B"
        ))
    })
}

#[cfg(test)]
mod size_tests {
    use super::*;

    #[test]
    fn checked_size_helpers_accept_sane_and_reject_huge() {
        assert_eq!(checked_elems(1 << 20, 192, "elems").unwrap(), 192 << 20);
        assert_eq!(checked_bytes(1 << 20, 8, "bytes").unwrap(), 8 << 20);
        let e = checked_elems(usize::MAX, 2, "matrix element count");
        assert!(matches!(e, Err(CaqrError::BadShape(_))), "{e:?}");
        let e = checked_bytes(usize::MAX, 8, "triangle bytes");
        assert!(matches!(e, Err(CaqrError::BadShape(_))), "{e:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_launch_errors_stay_launch() {
        let e: CaqrError = LaunchError::EmptyGrid.into();
        assert!(matches!(e, CaqrError::Launch(LaunchError::EmptyGrid)));
    }

    #[test]
    fn device_lost_converts_to_typed_loss() {
        let e: CaqrError = LaunchError::DeviceLost {
            kernel: "factor_tree",
            launch_index: 9,
        }
        .into();
        assert_eq!(
            e,
            CaqrError::DeviceLost {
                kernel: "factor_tree",
                launch_index: 9
            }
        );
        let s = e.to_string();
        assert!(s.contains("factor_tree") && s.contains('9'), "{s}");
    }

    #[test]
    fn recovery_errors_render_usefully() {
        let c = CaqrError::ChecksumMismatch {
            stage: "apply",
            panel: 2,
            col: 37,
        };
        let s = c.to_string();
        assert!(
            s.contains("apply") && s.contains('2') && s.contains("37"),
            "{s}"
        );
        let u = CaqrError::Unrecoverable {
            context: "panel 1 kept hanging".into(),
        };
        assert!(u.to_string().contains("panel 1 kept hanging"));
    }

    #[test]
    fn panicked_renders_its_context() {
        let p = CaqrError::Panicked {
            context: "fused factor task".into(),
        };
        let s = p.to_string();
        assert!(
            s.contains("panicked") && s.contains("fused factor task"),
            "{s}"
        );
    }

    #[test]
    fn dense_errors_map_into_the_taxonomy() {
        let e: CaqrError = DenseError::NonFinite {
            context: "input",
            row: 2,
            col: 5,
        }
        .into();
        assert!(matches!(
            e,
            CaqrError::NonFinite {
                context: "input",
                row: 2,
                col: 5
            }
        ));
        let e: CaqrError = DenseError::ShapeMismatch {
            context: "larf_left",
            expected: 4,
            got: 3,
        }
        .into();
        assert!(matches!(e, CaqrError::BadShape(_)));
    }
}
