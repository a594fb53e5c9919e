//! Cycle-level Hybrid Memory Cube device model.
//!
//! This crate stands in for HMC-Sim 3.0 (Leidel & Chen), the cycle-accurate
//! simulator the paper drives its coalesced requests into. It models the
//! architectural features PAC interacts with:
//!
//! * a **packetized interface**: requests carry 16 B..256 B payloads in
//!   16 B FLIT multiples, each transaction paying 32 B of control overhead
//!   (16 B on the request packet, 16 B on the response packet);
//! * **4 external SERDES links** with round-robin dispatch — the policy
//!   that makes un-coalesced adjacent requests fan out across links and
//!   incur remote-vault crossbar routes (Sec 2.1.2);
//! * a **fully-connected crossbar** between links and vaults with distinct
//!   local-quadrant and remote-quadrant traversal costs;
//! * **32 vaults × 16 banks** with per-vault in-order controllers, finite
//!   slot occupancy accounting, and **closed-page** DRAM timing — every
//!   reference activates and precharges its row, so back-to-back accesses
//!   to one bank serialize and count as bank conflicts;
//! * an **event-based energy model** with the five operation classes the
//!   paper measures in Fig 13 (`VAULT-RQST-SLOT`, `VAULT-RSP-SLOT`,
//!   `VAULT-CTRL`, `LINK-LOCAL-ROUTE`, `LINK-REMOTE-ROUTE`) plus bank
//!   activate/access energy.
//!
//! The device is advanced with [`Hmc::tick`]; completed responses are
//! drained with [`Hmc::pop_responses`]. All timing is expressed in CPU
//! cycles (2 GHz) so the whole simulated system shares one clock.
//!
//! [`Hmc`] is one instantiation of the generic device shell in
//! [`shell`]: the shell owns the queues, the unit walk, the parallel
//! shard engine, fault injection, tracing, statistics and energy, while
//! a backend supplies only a [`shell::FrontEnd`] (here the links and
//! crossbar of [`device`]) and a [`shell::Unit`] (here the [`vault`]
//! model). The HBM backend in `pac-mem` is the other instantiation.
//!
//! # Example
//!
//! The Sec 2.1.1 motivating example: four raw 64 B reads of one 256 B
//! row serialize on the closed-page bank; one coalesced 256 B read does
//! not.
//!
//! ```
//! use hmc_sim::{Hmc, HmcRequest};
//! use pac_types::{HmcDeviceConfig, Op};
//!
//! let mut raw = Hmc::new(HmcDeviceConfig::default());
//! for i in 0..4 {
//!     raw.submit(HmcRequest { id: i, addr: i * 64, bytes: 64, op: Op::Load }, 0);
//! }
//! let (_, raw_done) = raw.drain(0);
//! assert_eq!(raw.bank_conflicts(), 3);
//!
//! let mut coalesced = Hmc::new(HmcDeviceConfig::default());
//! coalesced.submit(HmcRequest { id: 9, addr: 0, bytes: 256, op: Op::Load }, 0);
//! let (_, co_done) = coalesced.drain(0);
//! assert_eq!(coalesced.bank_conflicts(), 0);
//! assert!(co_done < raw_done);
//! ```

pub mod device;
pub mod energy;
mod shard;
pub mod shell;
pub mod stats;
pub mod vault;

pub use device::Hmc;
pub use shell::{Device, HmcRequest, HmcResponse};
pub use energy::{EnergyBreakdown, EnergyClass};
pub use stats::HmcStats;
