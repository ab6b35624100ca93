//! Deterministic fault plans: which task faults, and how (DESIGN.md §8).
//!
//! A [`FaultPlan`] maps an ordinal to at most one [`PlannedFault`]. Its one
//! consumer is [`crate::backend::Faulty`], which numbers each group
//! member's tasks (a factor chain, or one apply chain) from 0 in issue
//! order and draws `plan.fault(task_ordinal, 0)` for each; a replayed task
//! takes a fresh ordinal. The service draws one fault per job by its
//! admission sequence number and retry round, then steers it into the batch
//! engine as a one-entry explicit plan ([`PlannedFault::task_plan`]).
//!
//! Five kinds of fault are modelled:
//!
//! * [`FaultKind::LaunchFail`] — the task's launch is rejected before any
//!   block runs, like a CUDA launch error reported at submission.
//! * [`FaultKind::Hang`] — the task never completes; the watchdog kills it
//!   after `gpu_sim::DEFAULT_WATCHDOG_US`.
//! * [`FaultKind::DeviceLoss`] — the task finds its device gone.
//! * [`FaultKind::HostPanic`] — the host thread driving the task dies.
//! * [`FaultKind::Sdc`] — silent data corruption: the task runs, then one
//!   value of its output is perturbed. Nothing fails at the API level;
//!   detection is the ABFT checksums' job ([`crate::health`]).
//!
//! The first four fail the task with a typed error before it runs, so its
//! input is untouched. Both plan modes are pure functions of their inputs,
//! so a given plan produces the same faults on every run.
//!
//! The simulated device keeps only one fault of its own: device loss as
//! device state (`gpu_sim::Gpu::lose_at_launch`), which the multi-device
//! driver recovers from by failing over to a survivor.

use std::collections::BTreeMap;

/// Mixes a 64-bit value (splitmix64 finalizer). Good avalanche behaviour,
/// no dependencies, and stable across platforms.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What goes wrong with a faulted task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The task's launch is rejected before any block runs.
    LaunchFail,
    /// Silent data corruption: the task runs, then one output value is
    /// perturbed.
    Sdc,
    /// The task never completes; the watchdog kills it at the deadline.
    Hang,
    /// The task finds its device gone.
    DeviceLoss,
    /// The host thread driving the task dies: the task fails with the
    /// `CaqrError::Panicked` its member's caught unwind gives.
    HostPanic,
}

/// One fault a plan injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The ordinal it fires at: a task ordinal in a plan given to
    /// [`crate::backend::Faulty`], a job's admission sequence number in a
    /// service draw. Typed errors report it as their `launch_index`.
    pub ordinal: u64,
    /// Deterministic steering bits. An SDC in a factor task corrupts `R`'s
    /// diagonal on an even payload and the packed `T` on an odd one; the
    /// service's draw also picks the task from them.
    pub payload: u64,
}

impl PlannedFault {
    /// The one-entry explicit plan that fires this fault at task ordinal
    /// `payload % tasks` of a run issuing `tasks` tasks: how the service
    /// steers a job's drawn fault into the batch engine.
    pub fn task_plan(&self, tasks: u64) -> FaultPlan {
        FaultPlan::explicit([PlannedFault {
            ordinal: self.payload % tasks.max(1),
            ..*self
        }])
    }
}

#[derive(Clone, Debug)]
enum Mode {
    /// Every `(ordinal, attempt)` pair draws one uniform variate from
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
    /// Exactly these ordinals fault, on attempt 0 only.
    Explicit(BTreeMap<u64, PlannedFault>),
}

/// A deterministic schedule of injected faults. The default plan injects
/// nothing.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    mode: Mode,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::explicit([])
    }
}

impl FaultPlan {
    /// Seeded mixed faults: each `(ordinal, attempt)` draws one uniform
    /// variate and faults `LaunchFail` with probability `launch_rate`,
    /// `Sdc` with `sdc_rate`, `Hang` with `hang_rate` (each clamped to
    /// `[0, 1]`, bands truncated so they sum to at most 1). The same
    /// `(seed, ordinal, attempt)` always draws the same fault.
    pub fn seeded_mix(seed: u64, launch_rate: f64, sdc_rate: f64, hang_rate: f64) -> Self {
        Self::seeded_service_mix(seed, launch_rate, sdc_rate, hang_rate, 0.0)
    }

    /// [`FaultPlan::seeded_mix`] plus a fourth band for
    /// [`FaultKind::HostPanic`] — the full fault mix the service-tier chaos
    /// soak injects.
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

    /// Fault exactly these ordinals with `kind`, each with the payload a
    /// seeded plan would draw there.
    pub fn at(kind: FaultKind, ordinals: &[u64]) -> Self {
        Self::explicit(ordinals.iter().map(|&ordinal| PlannedFault {
            kind,
            ordinal,
            payload: sdc_payload(ordinal, 0),
        }))
    }

    /// Explicit plan: each fault fires at its own ordinal, on attempt 0
    /// only, so a retry round or a replay (which takes a fresh ordinal)
    /// escapes it.
    pub fn explicit(faults: impl IntoIterator<Item = PlannedFault>) -> Self {
        FaultPlan {
            mode: Mode::Explicit(faults.into_iter().map(|f| (f.ordinal, f)).collect()),
        }
    }

    /// The fault (if any) injected on attempt `attempt` of `ordinal`. Pure:
    /// same inputs, same answer, on every platform.
    pub fn fault(&self, ordinal: u64, attempt: u32) -> Option<PlannedFault> {
        let kind = match &self.mode {
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
                let h = splitmix64(*seed ^ splitmix64(ordinal ^ splitmix64(attempt as u64)));
                // Map to [0, 1) with 53 bits of the hash, then partition
                // into bands: [0, launch) ∪ [launch, launch+sdc) ∪
                // [launch+sdc, launch+sdc+hang) ∪ [.., ..+host_panic).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < *launch {
                    FaultKind::LaunchFail
                } else if u < *launch + *sdc {
                    FaultKind::Sdc
                } else if u < *launch + *sdc + *hang {
                    FaultKind::Hang
                } else if u < *launch + *sdc + *hang + *host_panic {
                    FaultKind::HostPanic
                } else {
                    return None;
                }
            }
            Mode::Explicit(map) => return map.get(&ordinal).copied().filter(|_| attempt == 0),
        };
        Some(PlannedFault {
            kind,
            ordinal,
            payload: sdc_payload(ordinal, attempt),
        })
    }

    /// The kind of [`FaultPlan::fault`].
    pub fn fault_kind(&self, ordinal: u64, attempt: u32) -> Option<FaultKind> {
        self.fault(ordinal, attempt).map(|f| f.kind)
    }
}

/// Deterministic per-`(ordinal, attempt)` steering bits: a seeded plan's
/// payload, so a given plan corrupts the same value on every run.
fn sdc_payload(ordinal: u64, attempt: u32) -> u64 {
    splitmix64(ordinal.wrapping_mul(0xA076_1D64_78BD_642F) ^ ((attempt as u64) << 48))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_faults_first_attempt_only() {
        let p = FaultPlan::at(FaultKind::LaunchFail, &[2, 5]);
        assert_eq!(p.fault_kind(2, 0), Some(FaultKind::LaunchFail));
        assert_eq!(p.fault_kind(5, 0), Some(FaultKind::LaunchFail));
        assert_eq!(p.fault_kind(2, 1), None, "a retry round escapes it");
        assert_eq!(p.fault_kind(3, 0), None);
        // Every kind fires once, hangs included.
        let h = FaultPlan::at(FaultKind::Hang, &[4]);
        assert_eq!(h.fault_kind(4, 0), Some(FaultKind::Hang));
        assert_eq!(h.fault_kind(4, 1), None);
        assert_eq!(FaultPlan::default().fault(0, 0), None);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_rate_bounded() {
        let p = FaultPlan::seeded_mix(42, 0.25, 0.0, 0.0);
        let q = FaultPlan::seeded_mix(42, 0.25, 0.0, 0.0);
        let mut hits = 0;
        for i in 0..4000u64 {
            let a = p.fault(i, 0);
            assert_eq!(a, q.fault(i, 0), "same seed, same plan");
            if a.is_some() {
                hits += 1;
            }
        }
        // 25% +/- generous slack.
        assert!((700..1300).contains(&hits), "hit rate off: {hits}/4000");
        // Different seeds disagree somewhere.
        let r = FaultPlan::seeded_mix(43, 0.25, 0.0, 0.0);
        assert!((0..4000u64).any(|i| p.fault(i, 0) != r.fault(i, 0)));
    }

    #[test]
    fn seeded_retries_redraw() {
        let p = FaultPlan::seeded_mix(7, 0.5, 0.0, 0.0);
        // Some ordinal must fault on attempt 0 and clear on a later attempt.
        let faults = |i, a| p.fault(i, a).is_some();
        let cleared = (0..64u64).any(|i| faults(i, 0) && (1..4).any(|a| !faults(i, a)));
        assert!(cleared);
    }

    #[test]
    fn zero_rate_never_faults() {
        let p = FaultPlan::seeded_mix(1, 0.0, 0.0, 0.0);
        assert!((0..1000u64).all(|i| p.fault(i, 0).is_none()));
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
        // The launch-only plan is the launch band of the mix.
        let lo = FaultPlan::seeded_mix(99, 0.1, 0.0, 0.0);
        for i in 0..1000u64 {
            assert_eq!(
                lo.fault_kind(i, 0) == Some(FaultKind::LaunchFail),
                p.fault_kind(i, 0) == Some(FaultKind::LaunchFail)
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
                    assert_eq!(b, None, "ordinal {i}");
                    panics += 1;
                }
                other => assert_eq!(other, b, "ordinal {i}"),
            }
        }
        assert!(
            (200..600).contains(&panics),
            "panic band off: {panics}/4000"
        );
    }

    #[test]
    fn a_task_plan_fires_once_at_the_steered_ordinal() {
        let f = PlannedFault {
            kind: FaultKind::Sdc,
            ordinal: 77,
            payload: 13,
        };
        let plan = f.task_plan(5);
        let want = PlannedFault { ordinal: 3, ..f };
        assert_eq!(plan.fault(3, 0), Some(want));
        assert!((0..5)
            .filter(|&t| t != 3)
            .all(|t| plan.fault(t, 0).is_none()));
    }

    #[test]
    fn sdc_payload_is_stable_and_spread() {
        assert_eq!(sdc_payload(3, 1), sdc_payload(3, 1));
        assert_ne!(sdc_payload(3, 1), sdc_payload(3, 2));
        assert_ne!(sdc_payload(3, 1), sdc_payload(4, 1));
    }
}
