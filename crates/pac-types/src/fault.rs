//! Deterministic fault-injection plans for conformance testing.
//!
//! A [`FaultPlan`] tells the memory-device model to corrupt its response
//! stream in one specific, seeded way. The lockstep oracle
//! (`pac-oracle`) must then flag the corruption through at least one of
//! its invariants; the `conformance` binary in `pac-bench` sweeps the
//! whole [`FaultClass`] matrix to prove the checker has teeth.
//!
//! Injection decisions are a pure function of `(seed, response id)`, so
//! a faulty run is exactly reproducible from its plan alone — no global
//! RNG, no wall clock.

use crate::Cycle;
use std::fmt;

/// The classes of response-path corruption the device model can inject.
///
/// Each class models a distinct hardware or modelling bug:
///
/// * [`DropResponse`](FaultClass::DropResponse) — a read/write completion
///   is silently lost after the vault serviced it (lost-packet bug).
/// * [`DuplicateResponse`](FaultClass::DuplicateResponse) — the same
///   completion is delivered twice (spurious-retry bug).
/// * [`DelayResponse`](FaultClass::DelayResponse) — the completion
///   arrives, but far later than any legitimate service path allows
///   (stuck-queue bug).
/// * [`CorruptAddr`](FaultClass::CorruptAddr) — the completion echoes the
///   wrong address back (tag-mixup bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    DropResponse,
    DuplicateResponse,
    DelayResponse,
    CorruptAddr,
}

impl FaultClass {
    /// Every fault class, in matrix order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::DropResponse,
        FaultClass::DuplicateResponse,
        FaultClass::DelayResponse,
        FaultClass::CorruptAddr,
    ];

    /// Stable human-readable label (used in conformance tables).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::DropResponse => "drop-response",
            FaultClass::DuplicateResponse => "duplicate-response",
            FaultClass::DelayResponse => "delay-response",
            FaultClass::CorruptAddr => "corrupt-addr",
        }
    }
}

impl crate::Named for FaultClass {
    const WHAT: &'static str = "fault class";
    const ALL: &'static [FaultClass] = &FaultClass::ALL;
    fn label(self) -> &'static str {
        FaultClass::label(self)
    }
}

/// A seeded, deterministic plan for injecting one [`FaultClass`] into
/// the device's response path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which corruption to inject.
    pub class: FaultClass,
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Injection probability numerator, out of 1024 responses. Values
    /// above 1024 are clamped by [`FaultPlan::validate`].
    pub rate_per_1024: u32,
    /// Extra latency added by [`FaultClass::DelayResponse`].
    pub delay_cycles: Cycle,
    /// Stop injecting after this many faults. Must be at least 1 — a
    /// zero budget would arm the injector without ever firing it, which
    /// historically masked misconfigured conformance runs; use
    /// [`u64::MAX`] for an unbounded budget. Enforced by
    /// [`FaultPlan::validate`].
    pub max_faults: u64,
    /// Restrict injection to responses served by one service unit
    /// (vault index on HMC, pseudo-channel index on HBM). `None` targets
    /// every unit. Bounds-checked against the *active backend's*
    /// topology by [`FaultPlan::validate_for`] — an out-of-range unit
    /// would arm an injector that can never fire.
    pub target_unit: Option<u32>,
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// `max_faults == 0`: the plan would arm the injector with an empty
    /// budget and silently inject nothing. Use at least 1, or
    /// [`u64::MAX`] for an unbounded budget.
    ZeroFaultBudget,
    /// `target_unit` names a vault/channel the active backend does not
    /// have: the injector could never fire. Carries the rejected index
    /// and the backend's unit count so the message is self-locating.
    TargetUnitOutOfRange {
        /// The rejected unit index.
        unit: u32,
        /// Units the active backend actually has.
        units: u32,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ZeroFaultBudget => write!(
                f,
                "fault plan rejected: max_faults == 0 would inject nothing \
                 (use at least 1, or u64::MAX for an unbounded budget)"
            ),
            FaultPlanError::TargetUnitOutOfRange { unit, units } => write!(
                f,
                "fault plan rejected: target_unit {unit} is out of range for the active \
                 backend ({units} units); the injector could never fire"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// A plan with the defaults the conformance suite uses: roughly one
    /// injection per 32 responses, capped at 4 faults, 5M-cycle delays.
    pub fn new(class: FaultClass, seed: u64) -> Self {
        FaultPlan {
            class,
            seed,
            rate_per_1024: 32,
            delay_cycles: 5_000_000,
            max_faults: 4,
            target_unit: None,
        }
    }

    /// Check the plan's backend-independent fields, normalising what can
    /// be normalised.
    ///
    /// * `rate_per_1024 > 1024` is clamped to 1024 (the probability is
    ///   a numerator over 1024; anything above is "always").
    /// * `max_faults == 0` is rejected with
    ///   [`FaultPlanError::ZeroFaultBudget`] — an empty budget means the
    ///   injector can never fire, which is always a configuration bug.
    ///
    /// `target_unit` cannot be bounds-checked here — the legal range is
    /// a property of the device the plan is armed on — so injection
    /// boundaries use [`FaultPlan::validate_for`] instead.
    pub fn validate(mut self) -> Result<Self, FaultPlanError> {
        if self.max_faults == 0 {
            return Err(FaultPlanError::ZeroFaultBudget);
        }
        self.rate_per_1024 = self.rate_per_1024.min(1024);
        Ok(self)
    }

    /// [`validate`](Self::validate) plus the topology bound: a
    /// `target_unit` at or beyond `units` (the active backend's
    /// vault/channel count) is rejected with
    /// [`FaultPlanError::TargetUnitOutOfRange`]. Every device arm path
    /// (`Hmc::set_fault_plan`, `Hbm::set_fault_plan`) routes through
    /// this with its own unit count, so the same plan is checked against
    /// whichever topology it actually lands on.
    pub fn validate_for(self, units: u32) -> Result<Self, FaultPlanError> {
        let plan = self.validate()?;
        if let Some(unit) = plan.target_unit {
            if unit >= units {
                return Err(FaultPlanError::TargetUnitOutOfRange { unit, units });
            }
        }
        Ok(plan)
    }

    /// Pure injection decision for one response id. Uses a splitmix64
    /// finalizer over `(seed, id)` so corruption is reproducible and
    /// uncorrelated with address layout.
    pub fn should_inject(&self, response_id: u64) -> bool {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(response_id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 1024) < u64::from(self.rate_per_1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(FaultClass::DropResponse, 1);
        let b = FaultPlan::new(FaultClass::DropResponse, 2);
        let hits_a: Vec<bool> = (0..4096).map(|id| a.should_inject(id)).collect();
        let hits_b: Vec<bool> = (0..4096).map(|id| b.should_inject(id)).collect();
        assert_eq!(hits_a, (0..4096).map(|id| a.should_inject(id)).collect::<Vec<_>>());
        assert_ne!(hits_a, hits_b, "different seeds must pick different victims");
    }

    #[test]
    fn injection_rate_is_roughly_as_configured() {
        let plan = FaultPlan { rate_per_1024: 64, ..FaultPlan::new(FaultClass::DelayResponse, 7) };
        let hits = (0..32_768).filter(|&id| plan.should_inject(id)).count();
        // 64/1024 = 1/16 ≈ 2048 expected; accept a wide deterministic band.
        assert!((1500..2600).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_rate_never_injects() {
        let plan = FaultPlan { rate_per_1024: 0, ..FaultPlan::new(FaultClass::CorruptAddr, 3) };
        assert!((0..8192).all(|id| !plan.should_inject(id)));
    }

    #[test]
    fn validate_clamps_overlarge_rate() {
        let plan = FaultPlan { rate_per_1024: 9000, ..FaultPlan::new(FaultClass::DropResponse, 5) };
        let plan = plan.validate().expect("rate is clamped, not rejected");
        assert_eq!(plan.rate_per_1024, 1024);
        assert!((0..64).all(|id| plan.should_inject(id)), "clamped rate must mean always");
    }

    #[test]
    fn validate_rejects_zero_fault_budget() {
        let plan = FaultPlan { max_faults: 0, ..FaultPlan::new(FaultClass::DelayResponse, 5) };
        let err = plan.validate().expect_err("zero budget must be rejected");
        assert_eq!(err, FaultPlanError::ZeroFaultBudget);
        assert!(err.to_string().contains("max_faults"), "error must be self-describing: {err}");
    }

    #[test]
    fn validate_passes_through_a_well_formed_plan() {
        let plan = FaultPlan::new(FaultClass::CorruptAddr, 11);
        assert_eq!(plan.validate(), Ok(plan));
        let unbounded = FaultPlan { max_faults: u64::MAX, ..plan };
        assert_eq!(unbounded.validate(), Ok(unbounded));
    }

    #[test]
    fn validate_for_rejects_out_of_range_target_unit() {
        // Vault 40 does not exist on a 32-vault HMC...
        let plan =
            FaultPlan { target_unit: Some(40), ..FaultPlan::new(FaultClass::DropResponse, 3) };
        let err = plan.validate_for(32).expect_err("unit 40 of 32 must be rejected");
        assert_eq!(err, FaultPlanError::TargetUnitOutOfRange { unit: 40, units: 32 });
        assert!(err.to_string().contains("target_unit 40"), "self-locating: {err}");
        // ...and channel 10 does not exist on an 8-channel HBM, even
        // though the same index would be fine on the HMC topology.
        let plan =
            FaultPlan { target_unit: Some(10), ..FaultPlan::new(FaultClass::CorruptAddr, 3) };
        assert!(plan.validate_for(32).is_ok());
        assert_eq!(
            plan.validate_for(8),
            Err(FaultPlanError::TargetUnitOutOfRange { unit: 10, units: 8 })
        );
    }

    #[test]
    fn validate_for_accepts_in_range_and_untargeted_plans() {
        let broad = FaultPlan::new(FaultClass::DelayResponse, 9);
        assert_eq!(broad.validate_for(1), Ok(broad));
        let targeted = FaultPlan { target_unit: Some(31), ..broad };
        assert_eq!(targeted.validate_for(32), Ok(targeted));
        // The budget check still runs first.
        let zero = FaultPlan { max_faults: 0, ..targeted };
        assert_eq!(zero.validate_for(32), Err(FaultPlanError::ZeroFaultBudget));
    }
}
