//! Pseudo-channel controllers and their bank groups.
//!
//! The HBM analogue of `hmc_sim::vault`: each pseudo-channel owns an
//! in-order request queue over `bank_groups × banks_per_group` banks
//! under the same **closed-page policy** the paper assumes — every
//! reference activates its row, streams the column accesses, and
//! precharges. On top of the vault model's port/bank/refresh timing the
//! channel adds the two constraints that distinguish HBM-class DRAM:
//!
//! * **Bank-group serialization** (tCCD_L): back-to-back issues into
//!   the *same* bank group must be spaced `t_ccd_long` cycles apart,
//!   while different groups pay only the one-issue-per-cycle port.
//! * **The four-activate window** (tFAW): at most
//!   `faw_window_activates` activates may start inside any `t_faw`
//!   window, throttling bursts that spray a channel's banks.
//!
//! The channel is a [`Unit`] of the `hmc-sim` device shell: bank
//! state, queued requests, and ready responses are the shell's types
//! (the `link` field of a queued request carries the owning channel
//! index, and `remote` is always false — HBM routes by address, so
//! there is no crossbar to cross). Every observable effect of an issue
//! is a pure function of the controller state, and
//! [`Unit::next_head_start`] computes the head's exact issue cycle from
//! the same terms as [`Unit::tick`] — the property the skip-ahead
//! stepper and the shard engine's canonical re-serialization both rest
//! on.

use hmc_sim::shell::{refresh_push, Bank, QueuedRequest, ReadyResponse, Unit};
use hmc_sim::{EnergyBreakdown, EnergyClass};
use pac_types::{Cycle, HbmDeviceConfig, StallCycles};
use std::collections::VecDeque;

/// An in-order pseudo-channel controller.
#[derive(Debug, Clone)]
pub struct PseudoChannel {
    pub queue: VecDeque<QueuedRequest>,
    /// Flattened banks, bank-group-major: `group * banks_per_group + bank`.
    pub banks: Vec<Bank>,
    /// Next cycle the controller may issue (one issue per cycle).
    next_issue: Cycle,
    /// Per-bank-group earliest next issue (tCCD_L spacing).
    group_next_issue: Vec<Cycle>,
    /// Start cycles of the most recent activates, oldest first, capped
    /// at `faw_window_activates` entries; a new activate may not start
    /// before `front + t_faw` once the window is full.
    act_window: VecDeque<Cycle>,
    /// Cumulative per-cause issue-stall cycles (see [`StallCycles`]).
    /// A pure function of the issue schedule, so serial and sharded
    /// stepping account identically and the lockstep snapshot
    /// comparison holds.
    stalls: StallCycles,
}

pac_types::snapshot_fields!(PseudoChannel {
    queue,
    banks,
    next_issue,
    group_next_issue,
    act_window,
    stalls,
});

/// The head request's issue-cycle computation, one constraint at a
/// time, with each rule's delay attributed to its stall cause.
struct HeadTerms {
    /// Earliest cycle the port, group spacing, and activate window all
    /// clear (everything before the bank term).
    port_free: Cycle,
    /// `port_free` plus the bank-busy term.
    base: Cycle,
    /// `base` pushed past any refresh window: the actual issue cycle.
    start: Cycle,
    /// Per-cause deltas between the terms above.
    stalls: StallCycles,
}

impl PseudoChannel {
    pub fn new(cfg: &HbmDeviceConfig) -> Self {
        PseudoChannel {
            queue: VecDeque::new(),
            banks: vec![Bank::default(); cfg.banks_per_channel() as usize],
            next_issue: 0,
            group_next_issue: vec![0; cfg.bank_groups as usize],
            act_window: VecDeque::new(),
            stalls: StallCycles::default(),
        }
    }

    /// The head's start-cycle computation, built up one constraint at a
    /// time so each rule's contribution to the wait is attributed to
    /// exactly one [`StallCycles`] cause. Shared verbatim between the
    /// issue path and [`next_head_start`](Self::next_head_start) so the
    /// cached estimate is exact; the final `start` is identical to the
    /// old single-expression `max` chain (max is order-independent).
    fn head_start_terms(&self, cfg: &HbmDeviceConfig, head: &QueuedRequest) -> HeadTerms {
        let group = (head.bank / cfg.banks_per_group) as usize;
        let mut stalls = StallCycles::default();
        // Arrival plus the one-issue-per-cycle port: the inherent
        // serialization baseline, not attributed as a stall.
        let free = head.arrival.max(self.next_issue);
        // Same-bank-group tCCD_L spacing.
        let after_group = free.max(self.group_next_issue[group]);
        stalls.tccd_l = after_group - free;
        // The four-activate window.
        let mut port_free = after_group;
        if cfg.t_faw > 0 && self.act_window.len() >= cfg.faw_window_activates as usize {
            if let Some(&oldest) = self.act_window.front() {
                port_free = port_free.max(oldest + cfg.t_faw);
            }
        }
        stalls.tfaw = port_free - after_group;
        // Target bank still busy with a prior reference.
        let base = port_free.max(self.banks[head.bank as usize].busy_until);
        stalls.bank_conflict = base - port_free;
        // Refresh window push-out, staggered across the channel's banks.
        let banks = u64::from(cfg.banks_per_channel().max(1));
        let start = refresh_push(
            cfg.t_refresh_interval,
            cfg.t_refresh_duration,
            banks,
            head.bank as usize,
            base,
        );
        stalls.refresh = start - base;
        HeadTerms { port_free, base, start, stalls }
    }
}

impl Unit for PseudoChannel {
    type Cfg = HbmDeviceConfig;

    fn enqueue(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
    }

    /// Closed page, like the vault model.
    fn reference_timing(cfg: &HbmDeviceConfig, bytes: u64) -> (Cycle, Cycle) {
        let data_ready_off = cfg.t_activate + bytes.div_ceil(32) * cfg.t_access_per_32b;
        (data_ready_off, data_ready_off + cfg.t_precharge)
    }

    /// The vault model's four charges, mapped to the channel's
    /// controller, activate, column-access, and request-slot costs.
    fn charge_issue(
        cfg: &HbmDeviceConfig,
        energy: &mut EnergyBreakdown,
        req: &QueuedRequest,
        start: Cycle,
    ) {
        energy.add(EnergyClass::VaultCtrl, 1, cfg.e_ctrl);
        energy.add(EnergyClass::BankActPre, 1, cfg.e_bank_act_pre);
        energy.add(EnergyClass::BankAccess, req.bytes.div_ceil(32), cfg.e_bank_access_32b);
        energy.add(EnergyClass::VaultRqstSlot, start - req.arrival + 1, cfg.e_rqst_slot);
    }

    fn tick(
        &mut self,
        now: Cycle,
        cfg: &HbmDeviceConfig,
        energy: &mut EnergyBreakdown,
        out: &mut Vec<ReadyResponse>,
    ) {
        while let Some(head) = self.queue.front() {
            if head.arrival > now {
                break;
            }
            let HeadTerms { port_free, base, start, stalls } = self.head_start_terms(cfg, head);
            if start > now {
                // Port, group, tFAW, bank, or refresh window not clear
                // yet; in-order head-of-line wait.
                break;
            }
            let req = self.queue.pop_front().expect("head exists");
            let group = (req.bank / cfg.banks_per_group) as usize;
            let bank = &mut self.banks[req.bank as usize];
            // A conflict is attributed to the bank only when the bank —
            // not the port, group spacing, or activate window —
            // extended the wait.
            let conflicted = bank.busy_until > port_free;
            debug_assert_eq!(conflicted, stalls.bank_conflict > 0);
            bank.references += 1;
            if conflicted {
                bank.conflicts += 1;
            }
            if start > base {
                bank.refresh_stalls += 1;
            }
            self.stalls.merge(&stalls);

            let (ready_off, busy_off) = Self::reference_timing(cfg, req.bytes);
            bank.busy_until = start + busy_off;
            self.next_issue = start + 1;
            self.group_next_issue[group] = start + cfg.t_ccd_long.max(1);
            if cfg.t_faw > 0 {
                self.act_window.push_back(start);
                while self.act_window.len() > cfg.faw_window_activates as usize {
                    self.act_window.pop_front();
                }
            }
            Self::charge_issue(cfg, energy, &req, start);

            out.push(ReadyResponse { data_ready: start + ready_off, req });
        }
    }

    /// Exact for the current head: all terms only move when this
    /// channel issues.
    fn next_head_start(&self, cfg: &HbmDeviceConfig, now: Cycle) -> Option<Cycle> {
        let head = self.queue.front()?;
        Some(self.head_start_terms(cfg, head).start.max(now))
    }

    fn conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.conflicts).sum()
    }

    fn stalls(&self) -> Option<StallCycles> {
        Some(self.stalls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::Op;

    fn cfg() -> HbmDeviceConfig {
        HbmDeviceConfig::default()
    }

    fn q(id: u64, bank: u32, bytes: u64, arrival: Cycle) -> QueuedRequest {
        QueuedRequest {
            id,
            addr: id * 1024,
            bytes,
            op: Op::Load,
            bank,
            arrival,
            submit_cycle: arrival,
            link: 0,
            remote: false,
        }
    }

    fn drive(ch: &mut PseudoChannel, c: &HbmDeviceConfig, until: Cycle) -> Vec<ReadyResponse> {
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        for now in 0..=until {
            ch.tick(now, c, &mut e, &mut out);
        }
        out
    }

    #[test]
    fn single_reference_timing() {
        let c = cfg();
        let mut ch = PseudoChannel::new(&c);
        ch.enqueue(q(1, 0, 64, 0));
        let out = drive(&mut ch, &c, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data_ready, c.t_activate + 2 * c.t_access_per_32b);
        assert_eq!(ch.conflicts(), 0);
        assert_eq!(ch.banks.iter().map(|b| b.references).sum::<u64>(), 1);
    }

    #[test]
    fn back_to_back_same_bank_conflicts() {
        let c = cfg();
        let mut ch = PseudoChannel::new(&c);
        ch.enqueue(q(1, 0, 256, 0));
        ch.enqueue(q(2, 0, 256, 0));
        let (_, busy) = PseudoChannel::reference_timing(&c, 256);
        let out = drive(&mut ch, &c, busy + 1);
        assert_eq!(out.len(), 2);
        assert_eq!(ch.conflicts(), 1);
    }

    #[test]
    fn same_group_issues_pay_tccd_different_groups_do_not() {
        let c = cfg();
        // Banks 0 and 1 share group 0; bank 4 opens group 1.
        let mut same = PseudoChannel::new(&c);
        same.enqueue(q(1, 0, 64, 0));
        same.enqueue(q(2, 1, 64, 0));
        let out = drive(&mut same, &c, 20);
        assert_eq!(out[1].data_ready - out[0].data_ready, c.t_ccd_long);

        let mut cross = PseudoChannel::new(&c);
        cross.enqueue(q(1, 0, 64, 0));
        cross.enqueue(q(2, c.banks_per_group, 64, 0));
        let out = drive(&mut cross, &c, 20);
        assert_eq!(out[1].data_ready - out[0].data_ready, 1, "only the issue port gates");
    }

    #[test]
    fn faw_window_throttles_activate_bursts() {
        // Refresh off so the only throttle in play is tFAW.
        let c = HbmDeviceConfig { t_refresh_duration: 0, ..cfg() };
        // Five requests to five different groups-worth of banks: the
        // first four issue a cycle apart (port), the fifth must wait
        // out the tFAW window opened by the first.
        let mut ch = PseudoChannel::new(&c);
        for i in 0..5 {
            // Spread across groups so neither tCCD nor banks gate.
            let bank = (i % c.bank_groups) * c.banks_per_group + i / c.bank_groups;
            ch.enqueue(q(u64::from(i), bank, 64, 0));
        }
        let out = drive(&mut ch, &c, 2 * c.t_faw);
        let starts: Vec<Cycle> =
            out.iter().map(|r| r.data_ready - (c.t_activate + 2 * c.t_access_per_32b)).collect();
        assert_eq!(&starts[..4], &[0, 1, 2, 3], "first four pay only the port");
        assert_eq!(starts[4], c.t_faw, "fifth waits for the window to roll");
    }

    #[test]
    fn faw_disabled_when_zero() {
        let c = HbmDeviceConfig { t_faw: 0, t_refresh_duration: 0, ..cfg() };
        let mut ch = PseudoChannel::new(&c);
        for i in 0..5 {
            let bank = (i % c.bank_groups) * c.banks_per_group + i / c.bank_groups;
            ch.enqueue(q(u64::from(i), bank, 64, 0));
        }
        let out = drive(&mut ch, &c, 32);
        let start4 = out[4].data_ready - (c.t_activate + 2 * c.t_access_per_32b);
        assert_eq!(start4, 4, "without tFAW only the port serializes");
    }

    #[test]
    fn next_head_start_matches_issue_path() {
        let c = cfg();
        let mut ch = PseudoChannel::new(&c);
        for i in 0..6 {
            ch.enqueue(q(i, (i % 4) as u32, 128, i * 2));
        }
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        let mut now = 0;
        while !ch.queue.is_empty() {
            let predicted = ch.next_head_start(&c, now).expect("head queued");
            let before = out.len();
            ch.tick(predicted, &c, &mut e, &mut out);
            assert!(out.len() > before, "predicted start {predicted} must issue");
            let issued = out.last().unwrap();
            let start = issued.data_ready - PseudoChannel::reference_timing(&c, issued.req.bytes).0;
            assert_eq!(start, predicted, "prediction must be exact");
            now = predicted;
        }
    }

    #[test]
    fn refresh_window_delays_references() {
        let mut c = cfg();
        c.t_refresh_interval = 1000;
        c.t_refresh_duration = 100;
        let mut ch = PseudoChannel::new(&c);
        ch.enqueue(q(1, 0, 64, 510));
        let out = drive(&mut ch, &c, 700);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data_ready, 600 + c.t_activate + 2 * c.t_access_per_32b);
        assert_eq!(ch.banks[0].refresh_stalls, 1);
        // The push-out is 90 cycles (510 → 600), all charged to refresh.
        assert_eq!(ch.stalls(), Some(StallCycles { refresh: 90, ..StallCycles::default() }));
    }

    #[test]
    fn stall_cycles_attribute_each_timing_rule() {
        // tCCD_L: two issues into the same group, second arrives with
        // the port clear but the group spacing still running.
        let c = cfg();
        let mut same = PseudoChannel::new(&c);
        same.enqueue(q(1, 0, 64, 0));
        same.enqueue(q(2, 1, 64, 1));
        drive(&mut same, &c, 20);
        let s = same.stalls().unwrap();
        assert_eq!(s.tccd_l, c.t_ccd_long - 1, "second issue waits out the group spacing");
        assert_eq!(s.tfaw + s.bank_conflict + s.refresh, 0);

        // Bank conflict: back-to-back same bank, conflict cycles equal
        // the bank's remaining busy time at the port-free point.
        let mut bank = PseudoChannel::new(&c);
        bank.enqueue(q(1, 0, 256, 0));
        bank.enqueue(q(2, 0, 256, 0));
        let (_, busy) = PseudoChannel::reference_timing(&c, 256);
        drive(&mut bank, &c, 2 * busy + 2);
        let s = bank.stalls().unwrap();
        assert_eq!(bank.conflicts(), 1);
        assert!(s.bank_conflict > 0, "conflicted issue must charge bank stall cycles");
        assert_eq!(s.bank_conflict, busy - c.t_ccd_long.max(1), "waited from group-clear to bank-free");

        // tFAW: the fifth activate into distinct banks/groups waits out
        // the window opened by the first.
        let c2 = HbmDeviceConfig { t_refresh_duration: 0, ..cfg() };
        let mut faw = PseudoChannel::new(&c2);
        for i in 0..5 {
            let bank = (i % c2.bank_groups) * c2.banks_per_group + i / c2.bank_groups;
            faw.enqueue(q(u64::from(i), bank, 64, 0));
        }
        drive(&mut faw, &c2, 2 * c2.t_faw);
        let s = faw.stalls().unwrap();
        assert!(s.tfaw > 0, "fifth activate must charge tFAW stall cycles");
        assert_eq!(s.bank_conflict, 0);
    }

    #[test]
    fn stalls_survive_snapshot_roundtrip() {
        use pac_types::snapshot::{SnapReader, SnapWriter, Snapshot};
        let c = cfg();
        let mut ch = PseudoChannel::new(&c);
        ch.enqueue(q(1, 0, 256, 0));
        ch.enqueue(q(2, 0, 256, 0));
        let (_, busy) = PseudoChannel::reference_timing(&c, 256);
        drive(&mut ch, &c, 2 * busy + 2);
        assert!(!ch.stalls().unwrap().is_zero());
        let mut w = SnapWriter::new();
        ch.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = PseudoChannel::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.stalls(), ch.stalls());
    }
}
