//! Deterministic fault injection: simulated launch failures, silent data
//! corruption, and hangs.
//!
//! Real deployments of the paper's kernels see sporadic faults — ECC
//! events, driver timeouts, preemption — that a robust library must absorb
//! rather than propagate as garbage. The simulator models three kinds:
//!
//! * [`FaultKind::LaunchFail`] — an *admission* fault: the launch is
//!   rejected before any block runs, exactly like a CUDA launch error
//!   reported at submission. Because the kernel's arithmetic never starts,
//!   replaying the launch after a backoff is always safe (several of the
//!   CAQR kernels update tiles in place and are not idempotent), and a
//!   retried run is bit-identical to a fault-free run.
//! * [`FaultKind::Sdc`] — silent data corruption: the launch is admitted
//!   and runs normally, then exactly one output element is perturbed
//!   (see [`crate::Kernel::inject_sdc`]). Nothing fails at the API level;
//!   detection is the caller's job (ABFT checksums in `caqr::recovery`).
//! * [`FaultKind::Hang`] — the launch never completes. The device's
//!   deadline watchdog kills it after the configured deadline and
//!   resubmits under the retry budget; a launch that hangs on its final
//!   attempt surfaces as [`crate::LaunchError::Timeout`] instead of
//!   blocking forever.
//! * [`FaultKind::DeviceLoss`] — the whole device drops off the bus: the
//!   faulted launch is rejected with [`crate::LaunchError::DeviceLost`],
//!   no retry is attempted (a dead device does not come back), and every
//!   subsequent launch on that device fails the same way until
//!   [`crate::Gpu::reset`]. Recovery is the business of a *multi-device*
//!   driver, which replays the lost device's work on a survivor
//!   (`caqr::distributed`); on a single device the loss is terminal.
//!
//! Faults are selected by a [`FaultPlan`]: either an explicit map of launch
//! ordinals to kinds, or a seeded pseudo-random plan in which every
//! `(launch, attempt)` pair draws one uniform variate partitioned into
//! per-kind probability bands. Both are pure functions of the plan's
//! inputs, so a given plan produces the same faults on every run.

use std::collections::BTreeMap;

/// Mixes a 64-bit value (splitmix64 finalizer). Good avalanche behaviour,
/// no dependencies, and stable across platforms.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What goes wrong with a faulted `(launch, attempt)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Admission failure: the launch is rejected before any block runs.
    LaunchFail,
    /// Silent data corruption: the launch runs, then one output element is
    /// perturbed via [`crate::Kernel::inject_sdc`].
    Sdc,
    /// The launch never completes; the watchdog kills it at the deadline.
    Hang,
    /// The device itself is lost: the launch is rejected with
    /// [`crate::LaunchError::DeviceLost`] and the device stays dead (every
    /// later launch fails too) until [`crate::Gpu::reset`] revives it.
    DeviceLoss,
    /// The *host* thread driving the launch dies: submitting the launch
    /// panics instead of returning. Models a crashed worker / driver
    /// thread rather than a device-side fault; a supervisor that catches
    /// the unwind can put the worker back to serving and replay the work
    /// (the batch carve-out and worker supervision of `caqr::service`).
    HostPanic,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Every `(launch, attempt)` pair draws one uniform variate from
    /// `seed` and faults `LaunchFail` / `Sdc` / `Hang` / `HostPanic` when
    /// it lands in the corresponding probability band — a transient-fault
    /// model.
    Seeded {
        seed: u64,
        launch: f64,
        sdc: f64,
        hang: f64,
        host_panic: f64,
    },
    /// Exactly these launch ordinals fault with the mapped kind.
    /// `LaunchFail` and `Sdc` fire on the first attempt only (the retry or
    /// replay succeeds); `Hang` is persistent — it fires on *every*
    /// attempt of that ordinal, modelling a deterministic hang that no
    /// in-place resubmission can clear (only a replay, which draws a fresh
    /// ordinal, escapes it).
    Explicit(BTreeMap<u64, FaultKind>),
}

/// A deterministic schedule of simulated launch faults.
///
/// Install on a device with [`crate::Gpu::set_fault_plan`]; launches are
/// numbered from 0 in admission order (across all streams — the host
/// submits launches serially).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    mode: Mode,
}

impl FaultPlan {
    /// Seeded transient launch failures: each `(launch_index, attempt)`
    /// faults with probability `rate` (clamped to `[0, 1]`), independently,
    /// derived deterministically from `seed`. Retries of a faulted launch
    /// redraw, so with `rate < 1` a retried launch eventually succeeds.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        Self::seeded_mix(seed, rate, 0.0, 0.0)
    }

    /// Seeded mixed faults: each `(launch_index, attempt)` draws one
    /// uniform variate and faults `LaunchFail` with probability
    /// `launch_rate`, `Sdc` with `sdc_rate`, `Hang` with `hang_rate`
    /// (each clamped to `[0, 1]`, bands truncated so they sum to at most
    /// 1). The same `(seed, launch, attempt)` always draws the same kind.
    pub fn seeded_mix(seed: u64, launch_rate: f64, sdc_rate: f64, hang_rate: f64) -> Self {
        Self::seeded_service_mix(seed, launch_rate, sdc_rate, hang_rate, 0.0)
    }

    /// [`FaultPlan::seeded_mix`] plus a fourth band for
    /// [`FaultKind::HostPanic`] — the full fault mix the service-tier chaos
    /// soak injects (launch failures, SDC, hangs, and host-thread deaths).
    pub fn seeded_service_mix(
        seed: u64,
        launch_rate: f64,
        sdc_rate: f64,
        hang_rate: f64,
        host_panic_rate: f64,
    ) -> Self {
        FaultPlan {
            mode: Mode::Seeded {
                seed,
                launch: launch_rate.clamp(0.0, 1.0),
                sdc: sdc_rate.clamp(0.0, 1.0),
                hang: hang_rate.clamp(0.0, 1.0),
                host_panic: host_panic_rate.clamp(0.0, 1.0),
            },
        }
    }

    /// Fail admission of exactly the launches with these ordinals (0-based
    /// admission order), on their first attempt only — the retry succeeds.
    pub fn at_launches(indices: &[u64]) -> Self {
        Self::explicit(indices.iter().map(|&i| (i, FaultKind::LaunchFail)))
    }

    /// Silently corrupt one output element of exactly these launches.
    pub fn sdc_at_launches(indices: &[u64]) -> Self {
        Self::explicit(indices.iter().map(|&i| (i, FaultKind::Sdc)))
    }

    /// Hang exactly these launches — persistently, on every attempt, so
    /// only a replay (fresh ordinal) escapes the fault.
    pub fn hang_at_launches(indices: &[u64]) -> Self {
        Self::explicit(indices.iter().map(|&i| (i, FaultKind::Hang)))
    }

    /// Lose the whole device at exactly these launch ordinals: the first of
    /// them to be admitted kills the device, and every launch from then on
    /// (whatever its ordinal) fails with
    /// [`crate::LaunchError::DeviceLost`].
    pub fn device_loss_at_launches(indices: &[u64]) -> Self {
        Self::explicit(indices.iter().map(|&i| (i, FaultKind::DeviceLoss)))
    }

    /// Kill the host thread at exactly these launch ordinals (first attempt
    /// only — the recovered worker's replay draws a fresh attempt).
    pub fn host_panic_at_launches(indices: &[u64]) -> Self {
        Self::explicit(indices.iter().map(|&i| (i, FaultKind::HostPanic)))
    }

    /// Explicit plan mapping launch ordinals to fault kinds.
    pub fn explicit(entries: impl IntoIterator<Item = (u64, FaultKind)>) -> Self {
        FaultPlan {
            mode: Mode::Explicit(entries.into_iter().collect()),
        }
    }

    /// The fault kind (if any) injected on attempt `attempt` of launch
    /// `launch_index`. Pure: same inputs, same answer, on every platform.
    pub fn fault_kind(&self, launch_index: u64, attempt: u32) -> Option<FaultKind> {
        match &self.mode {
            Mode::Seeded {
                seed,
                launch,
                sdc,
                hang,
                host_panic,
            } => {
                if *launch <= 0.0 && *sdc <= 0.0 && *hang <= 0.0 && *host_panic <= 0.0 {
                    return None;
                }
                let h = splitmix64(*seed ^ splitmix64(launch_index ^ splitmix64(attempt as u64)));
                // Map to [0, 1) with 53 bits of the hash, then partition
                // into bands: [0, launch) ∪ [launch, launch+sdc) ∪
                // [launch+sdc, launch+sdc+hang) ∪ [.., ..+host_panic).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < *launch {
                    Some(FaultKind::LaunchFail)
                } else if u < *launch + *sdc {
                    Some(FaultKind::Sdc)
                } else if u < *launch + *sdc + *hang {
                    Some(FaultKind::Hang)
                } else if u < *launch + *sdc + *hang + *host_panic {
                    Some(FaultKind::HostPanic)
                } else {
                    None
                }
            }
            Mode::Explicit(map) => match map.get(&launch_index) {
                // Persistent: every in-place resubmission hangs again.
                Some(FaultKind::Hang) => Some(FaultKind::Hang),
                // Persistent too — a lost device never answers a retry.
                Some(FaultKind::DeviceLoss) => Some(FaultKind::DeviceLoss),
                Some(kind) if attempt == 0 => Some(*kind),
                _ => None,
            },
        }
    }

    /// Does attempt `attempt` of launch `launch_index` fail admission?
    /// (The launch-failure kind only — SDC and hangs are reported by
    /// [`FaultPlan::fault_kind`].)
    pub fn should_fault(&self, launch_index: u64, attempt: u32) -> bool {
        matches!(
            self.fault_kind(launch_index, attempt),
            Some(FaultKind::LaunchFail)
        )
    }
}

/// Deterministic per-`(launch, attempt)` corruption payload handed to
/// [`crate::Kernel::inject_sdc`]: which output element to perturb is derived
/// from these bits, so a given fault plan corrupts the same element on
/// every run.
pub fn sdc_payload(launch_index: u64, attempt: u32) -> u64 {
    splitmix64(launch_index.wrapping_mul(0xA076_1D64_78BD_642F) ^ ((attempt as u64) << 48))
}

/// How a device retries faulted launches.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per launch (first try included). At least 1.
    pub max_attempts: u32,
    /// Host backoff before the first retry, microseconds; doubles on each
    /// subsequent retry of the same launch.
    pub backoff_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_us: 5.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff in seconds charged before retrying after a fault on
    /// `attempt` (0-based): exponential, `backoff_us * 2^attempt`, with
    /// the exponent capped at 20 so the backoff never overflows.
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        self.backoff_us * 1.0e-6 * (1u64 << attempt.min(20)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_faults_first_attempt_only() {
        let p = FaultPlan::at_launches(&[2, 5]);
        assert!(p.should_fault(2, 0));
        assert!(p.should_fault(5, 0));
        assert!(!p.should_fault(2, 1), "retry of an explicit fault succeeds");
        assert!(!p.should_fault(3, 0));
    }

    #[test]
    fn seeded_plan_is_deterministic_and_rate_bounded() {
        let p = FaultPlan::seeded(42, 0.25);
        let q = FaultPlan::seeded(42, 0.25);
        let mut hits = 0;
        for i in 0..4000u64 {
            let a = p.should_fault(i, 0);
            assert_eq!(a, q.should_fault(i, 0), "same seed, same plan");
            if a {
                hits += 1;
            }
        }
        // 25% +/- generous slack.
        assert!((700..1300).contains(&hits), "hit rate off: {hits}/4000");
        // Different seeds disagree somewhere.
        let r = FaultPlan::seeded(43, 0.25);
        assert!((0..4000u64).any(|i| p.should_fault(i, 0) != r.should_fault(i, 0)));
    }

    #[test]
    fn seeded_retries_redraw() {
        let p = FaultPlan::seeded(7, 0.5);
        // Some launch must fault on attempt 0 and clear on a later attempt.
        let cleared =
            (0..64u64).any(|i| p.should_fault(i, 0) && (1..4).any(|a| !p.should_fault(i, a)));
        assert!(cleared);
    }

    #[test]
    fn zero_rate_never_faults() {
        let p = FaultPlan::seeded(1, 0.0);
        assert!((0..1000u64).all(|i| !p.should_fault(i, 0)));
    }

    #[test]
    fn seeded_mix_partitions_kinds_deterministically() {
        let p = FaultPlan::seeded_mix(99, 0.1, 0.1, 0.1);
        let q = FaultPlan::seeded_mix(99, 0.1, 0.1, 0.1);
        let (mut launch, mut sdc, mut hang) = (0u32, 0u32, 0u32);
        for i in 0..4000u64 {
            for a in 0..3u32 {
                let k = p.fault_kind(i, a);
                assert_eq!(k, q.fault_kind(i, a), "same seed, same schedule");
                match k {
                    Some(FaultKind::LaunchFail) => launch += 1,
                    Some(FaultKind::Sdc) => sdc += 1,
                    Some(FaultKind::Hang) => hang += 1,
                    // `seeded_mix` requests a zero host-panic band, and
                    // seeded plans never draw device loss.
                    Some(FaultKind::HostPanic | FaultKind::DeviceLoss) | None => {}
                }
            }
        }
        // Each band sees ~10% of 12000 draws, +/- generous slack; the
        // bands are disjoint by construction (one draw per pair).
        for (name, n) in [("launch", launch), ("sdc", sdc), ("hang", hang)] {
            assert!((800..1600).contains(&n), "{name} band off: {n}/12000");
        }
        // The launch-only constructor is the launch band of the mix.
        let lo = FaultPlan::seeded(99, 0.1);
        for i in 0..1000u64 {
            assert_eq!(
                lo.should_fault(i, 0),
                matches!(p.fault_kind(i, 0), Some(FaultKind::LaunchFail))
            );
        }
    }

    #[test]
    fn service_mix_adds_a_host_panic_band_without_moving_the_others() {
        let base = FaultPlan::seeded_mix(7, 0.1, 0.1, 0.1);
        let full = FaultPlan::seeded_service_mix(7, 0.1, 0.1, 0.1, 0.1);
        let mut panics = 0u32;
        for i in 0..4000u64 {
            let b = base.fault_kind(i, 0);
            let f = full.fault_kind(i, 0);
            match f {
                Some(FaultKind::HostPanic) => {
                    // The panic band sits after the other three: every
                    // HostPanic draw is a None under the three-band mix.
                    assert_eq!(b, None, "launch {i}");
                    panics += 1;
                }
                other => assert_eq!(other, b, "launch {i}"),
            }
        }
        assert!(
            (200..600).contains(&panics),
            "panic band off: {panics}/4000"
        );
        // Explicit host panics fire on the first attempt only.
        let p = FaultPlan::host_panic_at_launches(&[6]);
        assert_eq!(p.fault_kind(6, 0), Some(FaultKind::HostPanic));
        assert_eq!(p.fault_kind(6, 1), None);
        assert!(
            !p.should_fault(6, 0),
            "a host panic is not an admission retry case"
        );
    }

    #[test]
    fn explicit_hangs_are_persistent_but_sdc_is_not() {
        let p = FaultPlan::hang_at_launches(&[4]);
        for a in 0..8u32 {
            assert_eq!(p.fault_kind(4, a), Some(FaultKind::Hang));
        }
        assert_eq!(p.fault_kind(5, 0), None);
        let s = FaultPlan::sdc_at_launches(&[4]);
        assert_eq!(s.fault_kind(4, 0), Some(FaultKind::Sdc));
        assert_eq!(s.fault_kind(4, 1), None);
        assert!(!s.should_fault(4, 0), "SDC admits the launch");
    }

    #[test]
    fn explicit_device_loss_is_persistent() {
        let p = FaultPlan::device_loss_at_launches(&[3]);
        for a in 0..8u32 {
            assert_eq!(p.fault_kind(3, a), Some(FaultKind::DeviceLoss));
        }
        assert_eq!(p.fault_kind(2, 0), None);
        assert!(!p.should_fault(3, 0), "loss is not an admission retry case");
    }

    #[test]
    fn sdc_payload_is_stable_and_spread() {
        assert_eq!(sdc_payload(3, 1), sdc_payload(3, 1));
        assert_ne!(sdc_payload(3, 1), sdc_payload(3, 2));
        assert_ne!(sdc_payload(3, 1), sdc_payload(4, 1));
    }

    #[test]
    fn backoff_doubles() {
        let r = RetryPolicy {
            max_attempts: 4,
            backoff_us: 10.0,
        };
        assert!((r.backoff_seconds(0) - 10.0e-6).abs() < 1e-18);
        assert!((r.backoff_seconds(1) - 20.0e-6).abs() < 1e-18);
        assert!((r.backoff_seconds(2) - 40.0e-6).abs() < 1e-18);
    }
}
