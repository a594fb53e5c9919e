//! Hardware RAS (reliability/availability/serviceability) plans.
//!
//! Where [`crate::fault`] injects *abstract request-level* corruption
//! (a response dropped, duplicated, delayed, or mis-tagged) for the
//! oracle to catch, a [`RasPlan`] arms the *modeled hardware defenses*
//! underneath the recovery stack: per-FLIT link CRC with retry buffers
//! and bounded retransmission on the HMC SERDES links, SECDED ECC per
//! 32B beat plus a patrol scrubber and bank sparing on the HBM arrays.
//! A RAS event is therefore not a protocol violation — a retried packet
//! still arrives exactly once, a corrected beat carries the right data
//! — and the lockstep oracle must stay **silent** through every class;
//! only timing (and, for a double-bit detect, the poisoned echo the
//! recovery layer repairs) is observable above the device.
//!
//! Like fault plans, every decision is a pure function of
//! `(seed, packet id)` — no global RNG, no wall clock — so a degraded
//! run is exactly reproducible and checkpointable mid-retransmission.

use crate::config::BackendKind;
use crate::Cycle;
use std::fmt;

/// The classes of hardware unreliability the RAS layer can model.
///
/// The first three exercise the HMC link stack, the last three the HBM
/// DRAM arrays; arming a class on the other substrate is rejected at
/// validation time ([`RasPlanError::WrongBackend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RasClass {
    /// BER-driven per-FLIT CRC errors spread across every request link;
    /// each error costs one bounded retransmission from the link's
    /// retry buffer.
    LinkBitError,
    /// CRC errors concentrated on one link until its retry counter
    /// crosses [`RasPlan::storm_threshold`]; the link then down-shifts
    /// to half width (double cycles-per-FLIT) and stays there.
    RetryStorm,
    /// The storm runs past [`RasPlan::retire_threshold`]: the link is
    /// retired outright and round-robin dispatch re-balances across the
    /// survivors.
    LinkRetire,
    /// Single-bit errors per 32B beat, corrected in-line by SECDED ECC
    /// for a small pipeline penalty; per-bank correctable counters feed
    /// bank sparing once [`RasPlan::spare_threshold`] is crossed.
    EccSingle,
    /// Double-bit errors: SECDED detects but cannot correct, so the
    /// beat is poisoned — the response echoes a corrupted address and
    /// the transaction-recovery layer's poison-and-reissue path must
    /// repair it.
    EccDouble,
    /// The patrol scrubber alone: periodic per-bank scrub windows steal
    /// bank cycles exactly like refresh, pushing out references that
    /// land inside one.
    Scrub,
}

impl RasClass {
    /// Every RAS class, in matrix order (link classes first).
    pub const ALL: [RasClass; 6] = [
        RasClass::LinkBitError,
        RasClass::RetryStorm,
        RasClass::LinkRetire,
        RasClass::EccSingle,
        RasClass::EccDouble,
        RasClass::Scrub,
    ];

    /// Stable human-readable label (used in conformance tables and the
    /// `--ras` CLI syntax).
    pub fn label(self) -> &'static str {
        match self {
            RasClass::LinkBitError => "link-bit-error",
            RasClass::RetryStorm => "retry-storm",
            RasClass::LinkRetire => "link-retire",
            RasClass::EccSingle => "ecc-single",
            RasClass::EccDouble => "ecc-double",
            RasClass::Scrub => "scrub",
        }
    }

    /// The memory substrate that models this class: link classes live
    /// in the HMC SERDES stack, ECC/scrub classes in the HBM arrays.
    pub fn backend(self) -> BackendKind {
        match self {
            RasClass::LinkBitError | RasClass::RetryStorm | RasClass::LinkRetire => {
                BackendKind::Hmc
            }
            RasClass::EccSingle | RasClass::EccDouble | RasClass::Scrub => BackendKind::Hbm,
        }
    }
}

impl crate::Named for RasClass {
    const WHAT: &'static str = "ras class";
    const ALL: &'static [RasClass] = &RasClass::ALL;
    fn label(self) -> &'static str {
        RasClass::label(self)
    }
}

/// A seeded, deterministic plan arming one [`RasClass`] on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasPlan {
    /// Which unreliability to model.
    pub class: RasClass,
    /// Seed mixed into every per-packet/per-beat decision.
    pub seed: u64,
    /// Error probability numerator out of 1024 packets (link classes)
    /// or beats (ECC classes). Clamped to 1024 by
    /// [`RasPlan::validate`]. Ignored by [`RasClass::Scrub`].
    pub rate_per_1024: u32,
    /// Stop injecting after this many RAS events (CRC errors or ECC
    /// hits). Must be at least 1; [`u64::MAX`] for unbounded. Scrub
    /// windows are periodic, not budgeted, and ignore this.
    pub max_events: u64,
    /// Extra link occupancy per retransmission round (NAK turnaround +
    /// replay from the retry buffer), on top of re-sending the FLITs.
    pub retry_latency: Cycle,
    /// Link retries before the target link down-shifts to half width
    /// ([`RasClass::RetryStorm`] and beyond).
    pub storm_threshold: u32,
    /// Link retries before the target link retires outright
    /// ([`RasClass::LinkRetire`]).
    pub retire_threshold: u32,
    /// Token-based flow control: retry-buffer slots (= flow credits)
    /// per link. A packet may not start until the slot its `token_limit`
    /// predecessors ago has been acked back. `0` disables the token
    /// gate.
    pub token_limit: u32,
    /// Credit-return latency: a retry-buffer slot frees this many
    /// cycles after its packet finishes its link transfer.
    pub token_return: Cycle,
    /// ECC correction pipeline penalty added to a corrected response.
    pub ecc_latency: Cycle,
    /// Patrol-scrub window period per bank (like `t_refresh_interval`).
    pub scrub_interval: Cycle,
    /// Cycles each scrub window steals from its bank.
    pub scrub_duration: Cycle,
    /// Correctable errors on one bank before it is remapped to the
    /// channel's spare. `0` disables sparing.
    pub spare_threshold: u32,
    /// Start with the target link already in its degraded end-state
    /// (half width for [`RasClass::RetryStorm`], retired for
    /// [`RasClass::LinkRetire`]) instead of waiting for errors to
    /// accumulate — the degraded-mode throughput table measures steady
    /// state this way.
    pub preset_degraded: bool,
    /// Concentrate link errors on one link. `None` spreads them by
    /// packet id. Storm/retire plans default to link 0.
    pub target_link: Option<u32>,
}

/// Why a [`RasPlan`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RasPlanError {
    /// `max_events == 0`: the plan would arm the layer without a single
    /// event ever firing.
    ZeroEventBudget,
    /// `target_link` names a link the device does not have.
    TargetLinkOutOfRange { link: u32, links: u32 },
    /// The class is modeled by the other memory substrate.
    WrongBackend { class: RasClass, armed_on: BackendKind },
    /// A scrub plan whose windows would swallow the bank entirely
    /// (`scrub_duration >= scrub_interval`, or a zero interval with a
    /// nonzero duration).
    ScrubWindowTooWide { interval: Cycle, duration: Cycle },
    /// Degradation thresholds are ordered: retire must not come before
    /// the half-width down-shift.
    ThresholdOrder { storm: u32, retire: u32 },
    /// CLI parse: the class name is not one of [`RasClass::ALL`].
    UnknownClass(String),
    /// CLI parse: a `key=value` field key is not recognised.
    UnknownField(String),
    /// CLI parse: a field value did not parse as the expected type.
    BadValue { field: String, value: String },
}

/// The `key=value` fields [`RasPlan::parse`] understands, for
/// self-describing usage errors.
pub const RAS_PLAN_FIELDS: [&str; 13] = [
    "seed",
    "rate",
    "max",
    "retry-latency",
    "storm",
    "retire",
    "tokens",
    "token-return",
    "ecc-latency",
    "scrub-interval",
    "scrub-duration",
    "spare",
    "preset",
];

impl fmt::Display for RasPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasPlanError::ZeroEventBudget => write!(
                f,
                "ras plan rejected: max_events == 0 would model nothing \
                 (use at least 1, or u64::MAX for an unbounded budget)"
            ),
            RasPlanError::TargetLinkOutOfRange { link, links } => write!(
                f,
                "ras plan rejected: target_link {link} is out of range for the device \
                 ({links} links)"
            ),
            RasPlanError::WrongBackend { class, armed_on } => write!(
                f,
                "ras plan rejected: class {} is modeled by the {} backend, \
                 not {}",
                class.label(),
                class.backend().label(),
                armed_on.label()
            ),
            RasPlanError::ScrubWindowTooWide { interval, duration } => write!(
                f,
                "ras plan rejected: scrub windows of {duration} cycles every {interval} \
                 cycles would never release the bank"
            ),
            RasPlanError::ThresholdOrder { storm, retire } => write!(
                f,
                "ras plan rejected: retire_threshold {retire} must be at least \
                 storm_threshold {storm} (half-width precedes retirement)"
            ),
            RasPlanError::UnknownClass(s) => {
                write!(f, "unknown ras class '{s}' (valid: {})", crate::cli::names::<RasClass>())
            }
            RasPlanError::UnknownField(s) => {
                write!(f, "unknown ras field '{s}' (valid: {})", RAS_PLAN_FIELDS.join(", "))
            }
            RasPlanError::BadValue { field, value } => {
                write!(f, "ras field {field}: '{value}' is not a valid value")
            }
        }
    }
}

impl std::error::Error for RasPlanError {}

impl RasPlan {
    /// A plan with the defaults the conformance suite uses. Link error
    /// rates are far above any real BER so quick runs exercise the
    /// retry machinery; storm/retire plans concentrate on link 0 at
    /// full rate so the degradation ladder is actually climbed.
    pub fn new(class: RasClass, seed: u64) -> Self {
        let concentrated = matches!(class, RasClass::RetryStorm | RasClass::LinkRetire);
        RasPlan {
            class,
            seed,
            rate_per_1024: if concentrated { 1024 } else { 32 },
            max_events: match class {
                RasClass::RetryStorm => 6,
                RasClass::LinkRetire => 10,
                RasClass::EccDouble => 3,
                _ => 8,
            },
            retry_latency: 8,
            storm_threshold: 4,
            retire_threshold: 8,
            token_limit: 16,
            token_return: 4,
            ecc_latency: 4,
            scrub_interval: 40_000,
            scrub_duration: 600,
            spare_threshold: 4,
            preset_degraded: false,
            target_link: concentrated.then_some(0),
        }
    }

    /// Parse the `--ras` CLI syntax:
    /// `<class>[:key=value[,key=value...]]`, e.g.
    /// `retry-storm:seed=7,storm=2` or `scrub:scrub-interval=20000`.
    pub fn parse(spec: &str) -> Result<RasPlan, RasPlanError> {
        let (class_str, rest) = match spec.split_once(':') {
            Some((c, r)) => (c, Some(r)),
            None => (spec, None),
        };
        let class = <RasClass as crate::Named>::from_name(class_str)
            .map_err(|_| RasPlanError::UnknownClass(class_str.to_string()))?;
        let mut plan = RasPlan::new(class, 0x9AC_5EED);
        let Some(rest) = rest else { return plan.validate() };
        for token in rest.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| RasPlanError::UnknownField(token.to_string()))?;
            let bad = || RasPlanError::BadValue {
                field: key.to_string(),
                value: value.to_string(),
            };
            let num = || crate::cli::parse_int(value).ok_or_else(bad);
            match key {
                "seed" => plan.seed = num()?,
                "rate" => plan.rate_per_1024 = num()? as u32,
                "max" => plan.max_events = num()?,
                "retry-latency" => plan.retry_latency = num()?,
                "storm" => plan.storm_threshold = num()? as u32,
                "retire" => plan.retire_threshold = num()? as u32,
                "tokens" => plan.token_limit = num()? as u32,
                "token-return" => plan.token_return = num()?,
                "ecc-latency" => plan.ecc_latency = num()?,
                "scrub-interval" => plan.scrub_interval = num()?,
                "scrub-duration" => plan.scrub_duration = num()?,
                "spare" => plan.spare_threshold = num()? as u32,
                "preset" => {
                    plan.preset_degraded = match value {
                        "1" | "true" | "on" => true,
                        "0" | "false" | "off" => false,
                        _ => return Err(bad()),
                    }
                }
                other => return Err(RasPlanError::UnknownField(other.to_string())),
            }
        }
        plan.validate()
    }

    /// Backend-independent checks, normalising what can be normalised:
    /// the rate is clamped to 1024, an empty event budget, inverted
    /// degradation thresholds, and bank-swallowing scrub windows are
    /// rejected.
    pub fn validate(mut self) -> Result<Self, RasPlanError> {
        if self.max_events == 0 {
            return Err(RasPlanError::ZeroEventBudget);
        }
        self.rate_per_1024 = self.rate_per_1024.min(1024);
        if self.retire_threshold < self.storm_threshold {
            return Err(RasPlanError::ThresholdOrder {
                storm: self.storm_threshold,
                retire: self.retire_threshold,
            });
        }
        if self.scrub_duration > 0
            && (self.scrub_interval == 0 || self.scrub_duration >= self.scrub_interval)
        {
            return Err(RasPlanError::ScrubWindowTooWide {
                interval: self.scrub_interval,
                duration: self.scrub_duration,
            });
        }
        Ok(self)
    }

    /// [`validate`](Self::validate) plus the device bounds: the class
    /// must be modeled by `backend`, and `target_link` must exist among
    /// the device's `links`. Every device arm path routes through this.
    pub fn validate_for(
        self,
        backend: BackendKind,
        links: u32,
    ) -> Result<Self, RasPlanError> {
        let plan = self.validate()?;
        if plan.class.backend() != backend {
            return Err(RasPlanError::WrongBackend { class: plan.class, armed_on: backend });
        }
        if let Some(link) = plan.target_link {
            if link >= links {
                return Err(RasPlanError::TargetLinkOutOfRange { link, links });
            }
        }
        Ok(plan)
    }

    /// Pure per-packet/per-beat decision: splitmix64 finalizer over
    /// `(seed, id)`, the same construction as
    /// [`FaultPlan::should_inject`](crate::FaultPlan::should_inject) so
    /// RAS events are reproducible and uncorrelated with layout.
    pub fn should_hit(&self, id: u64) -> bool {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 1024) < u64::from(self.rate_per_1024)
    }

    /// Whether this plan's link errors apply to `link` for packet `id`:
    /// a concentrated plan hits only its target link, a spread plan
    /// hits whichever link the packet actually took.
    pub fn hits_link(&self, link: u32, id: u64) -> bool {
        match self.target_link {
            Some(t) => t == link && self.should_hit(id),
            None => self.should_hit(id),
        }
    }
}

/// Cumulative RAS event counters, reported by the device after a run
/// (and carried through checkpoints). Every field is a monotone count
/// except the two gauge-like degradation fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasStats {
    /// CRC errors detected on request links.
    pub crc_errors: u64,
    /// Retransmissions replayed from link retry buffers.
    pub link_retries: u64,
    /// Links currently running at half width.
    pub links_half_width: u32,
    /// Links retired from dispatch.
    pub links_retired: u32,
    /// Packet-starts delayed by exhausted flow-control tokens.
    pub token_stalls: u64,
    /// Single-bit beats corrected by SECDED.
    pub ecc_corrected: u64,
    /// Double-bit beats detected and poisoned.
    pub ecc_poisoned: u64,
    /// References pushed out by a patrol-scrub window.
    pub scrub_hits: u64,
    /// Banks remapped to their channel spare.
    pub banks_spared: u32,
}

impl RasStats {
    /// Events of the armed class actually observed — the conformance
    /// suite's "was it injected?" check, per class.
    pub fn events_for(&self, class: RasClass) -> u64 {
        match class {
            RasClass::LinkBitError => self.crc_errors,
            RasClass::RetryStorm => u64::from(self.links_half_width),
            RasClass::LinkRetire => u64::from(self.links_retired),
            RasClass::EccSingle => self.ecc_corrected,
            RasClass::EccDouble => self.ecc_poisoned,
            RasClass::Scrub => self.scrub_hits,
        }
    }
}

// Serialized as the dense `ALL` index, like FaultClass.
impl crate::Snapshot for RasClass {
    fn save(&self, w: &mut crate::SnapWriter) {
        let idx = RasClass::ALL.iter().position(|c| c == self).expect("listed") as u8;
        w.u8(idx);
    }
    fn load(r: &mut crate::SnapReader<'_>) -> Result<Self, crate::SnapError> {
        let idx = r.u8()? as usize;
        RasClass::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| crate::SnapError::Corrupt(format!("RasClass tag {idx}")))
    }
}

crate::snapshot_fields!(RasPlan {
    class,
    seed,
    rate_per_1024,
    max_events,
    retry_latency,
    storm_threshold,
    retire_threshold,
    token_limit,
    token_return,
    ecc_latency,
    scrub_interval,
    scrub_duration,
    spare_threshold,
    preset_degraded,
    target_link,
});

crate::snapshot_fields!(RasStats {
    crc_errors,
    link_retries,
    links_half_width,
    links_retired,
    token_stalls,
    ecc_corrected,
    ecc_poisoned,
    scrub_hits,
    banks_spared,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_are_deterministic_and_seed_sensitive() {
        let a = RasPlan::new(RasClass::LinkBitError, 1);
        let b = RasPlan::new(RasClass::LinkBitError, 2);
        let hits_a: Vec<bool> = (0..4096).map(|id| a.should_hit(id)).collect();
        let hits_b: Vec<bool> = (0..4096).map(|id| b.should_hit(id)).collect();
        assert_eq!(hits_a, (0..4096).map(|id| a.should_hit(id)).collect::<Vec<_>>());
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn concentrated_plans_hit_only_their_target_link() {
        let plan = RasPlan::new(RasClass::RetryStorm, 7);
        assert_eq!(plan.target_link, Some(0));
        assert!((0..256).all(|id| plan.hits_link(0, id)), "full rate on the target");
        assert!((0..256).all(|id| !plan.hits_link(1, id)), "other links untouched");
    }

    #[test]
    fn validate_rejects_bad_budgets_thresholds_and_scrub_windows() {
        let base = RasPlan::new(RasClass::Scrub, 3);
        assert_eq!(
            RasPlan { max_events: 0, ..base }.validate(),
            Err(RasPlanError::ZeroEventBudget)
        );
        assert_eq!(
            RasPlan { storm_threshold: 5, retire_threshold: 2, ..base }.validate(),
            Err(RasPlanError::ThresholdOrder { storm: 5, retire: 2 })
        );
        assert!(matches!(
            RasPlan { scrub_interval: 100, scrub_duration: 100, ..base }.validate(),
            Err(RasPlanError::ScrubWindowTooWide { .. })
        ));
        let clamped =
            RasPlan { rate_per_1024: 5000, ..base }.validate().expect("rate clamps");
        assert_eq!(clamped.rate_per_1024, 1024);
    }

    #[test]
    fn validate_for_enforces_the_backend_split() {
        for class in RasClass::ALL {
            let plan = RasPlan::new(class, 9);
            assert!(plan.validate_for(class.backend(), 8).is_ok(), "{}", class.label());
            let other = match class.backend() {
                BackendKind::Hmc => BackendKind::Hbm,
                BackendKind::Hbm => BackendKind::Hmc,
            };
            assert!(
                matches!(
                    plan.validate_for(other, 8),
                    Err(RasPlanError::WrongBackend { .. })
                ),
                "{}",
                class.label()
            );
        }
        let plan =
            RasPlan { target_link: Some(6), ..RasPlan::new(RasClass::RetryStorm, 9) };
        assert_eq!(
            plan.validate_for(BackendKind::Hmc, 4),
            Err(RasPlanError::TargetLinkOutOfRange { link: 6, links: 4 })
        );
    }

    #[test]
    fn cli_syntax_roundtrips_fields() {
        let plan = RasPlan::parse("retry-storm:seed=0x2a,storm=2,retire=3,preset=on")
            .expect("parses");
        assert_eq!(plan.class, RasClass::RetryStorm);
        assert_eq!(plan.seed, 0x2a);
        assert_eq!(plan.storm_threshold, 2);
        assert_eq!(plan.retire_threshold, 3);
        assert!(plan.preset_degraded);
        assert_eq!(RasPlan::parse("scrub").expect("bare class").class, RasClass::Scrub);
    }

    #[test]
    fn cli_errors_name_the_valid_choices() {
        let err = RasPlan::parse("cosmic-ray").unwrap_err();
        assert!(err.to_string().contains("valid: link-bit-error"), "{err}");
        let err = RasPlan::parse("scrub:wat=1").unwrap_err();
        assert!(err.to_string().contains("valid: seed, rate"), "{err}");
        let err = RasPlan::parse("scrub:seed=zzz").unwrap_err();
        assert!(err.to_string().contains("not a valid value"), "{err}");
        let err = RasPlan::parse("scrub:standalone").unwrap_err();
        assert!(matches!(err, RasPlanError::UnknownField(_)), "{err}");
    }

    #[test]
    fn snapshot_roundtrips() {
        use crate::{SnapReader, SnapWriter, Snapshot};
        let plan = RasPlan::parse("ecc-double:seed=5,max=2").unwrap();
        let stats = RasStats { crc_errors: 3, ecc_poisoned: 2, ..RasStats::default() };
        let mut w = SnapWriter::new();
        plan.save(&mut w);
        stats.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(RasPlan::load(&mut r).unwrap(), plan);
        assert_eq!(RasStats::load(&mut r).unwrap(), stats);
        r.finish().unwrap();
    }
}
