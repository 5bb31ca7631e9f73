//! The fault plan: every fault decision as a pure function of
//! `(seed, client, knob, slot)`.
//!
//! Client `u`'s faults are keyed by
//! `fastseed::client_key(&root.child(FAULT_STREAM).child(u))`, a subtree
//! disjoint from its protocol randomness, and each decision kind reads
//! its own lane of [`fastseed::word`](rtf_primitives::fastseed::word)
//! under that key: the Byzantine coin, churn, malformed, drop, straggle,
//! duplicate, delay, and the three fields of a fabrication. Nothing is
//! drawn in sequence, so there is no draw order for engines to agree on:
//! the batched pre-walk, the sequential engine and the live driver all
//! ask this module, and the fault law is implemented here once.
//!
//! A **slot** is one report a client can emit: slot `j` of an honest
//! client of order `h` is boundary `(j + 1)·2^h`, slot `j` of a Byzantine
//! client is period `j + 1`. Each per-report knob is a Bernoulli process
//! over the client's slots at the rate of the slot's emission period,
//! sampled by geometric skips at the knob's peak rate `p̂` over the
//! timeline: a search from slot `s` reads the word at counter `s` and
//! jumps `⌊ln U / ln(1 − p̂)⌋` slots, with `U ∈ (0, 1]`. Where a shaped
//! timeline's rate `p(t)` sits below the peak, the candidate slot is
//! thinned by one more word and kept with probability `p(t)/p̂`, which
//! gives every slot exactly its own Bernoulli(`p(t)`) law. At
//! `p(t) = p̂` no thinning word is read, so a constant timeline reads
//! none, and a shaped timeline whose rows all equal its base is the
//! constant timeline, value for value. Churn is the first hit of the
//! same process over periods `1..=d` at the per-period hazard: geometric
//! for a constant timeline, the survival curve `Π_{s ≤ t}(1 − p_s)` for
//! a shaped one.
//!
//! Because a client's hits depend on its key alone, the batched
//! pre-walk jumps from one faulted slot to the next — `O(faults +
//! clients)` per shard instead of `O(reports)` — while the sequential
//! engine and the live driver ask the same [`ClientPlan::emit`] at every
//! period; they differ only in how a routed message reaches the server.

use crate::config::{FaultTimeline, Scenario};
use rtf_core::client::ClientReport;
use rtf_core::params::ProtocolParams;
use rtf_primitives::fastseed::{client_key, word};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_sim::message::ReportMsg;
use rtf_sim::FaultCounts;

/// Label of the fault subtree: `root.child(FAULT_STREAM).child(u)` keys
/// client `u`'s plan. Far outside the `u32` space of per-user labels, so
/// no protocol randomness is ever reused.
pub(crate) const FAULT_STREAM: u64 = 0xFA17_B055_ED00_0001;

/// The one word deciding whether a client is Byzantine.
const BYZANTINE_LANE: u64 = 1;
/// The churn process over periods `1..=d`.
const CHURN_LANE: u64 = 2;
/// In-flight corruption of a report's frame.
const MALFORMED_LANE: u64 = 3;
/// Network loss of a report.
const DROP_LANE: u64 = 4;
/// Delayed delivery of a report.
const STRAGGLE_LANE: u64 = 5;
/// A retransmitted copy of a report.
const DUPLICATE_LANE: u64 = 6;
/// A straggler's delay, keyed by its slot.
const DELAY_LANE: u64 = 7;
/// A fabrication's claimed sender, keyed by its emission period.
const CLAIMED_ID_LANE: u64 = 8;
/// A fabrication's claimed period, keyed by its emission period.
const CLAIMED_PERIOD_LANE: u64 = 9;
/// A fabrication's bit, keyed by its emission period.
const CLAIMED_BIT_LANE: u64 = 10;

/// Counter flag of a thinning word. A knob's gap words are keyed by the
/// slot a search starts at, its thinning words by the candidate slot
/// with this bit set, so the two never share a word.
const THIN: u64 = 1 << 63;

/// Slot of a knob that fires no more.
const NEVER: u64 = u64::MAX;

/// Index of each per-report knob in [`FaultPlan::knobs`].
const MALFORMED: usize = 0;
const DROP: usize = 1;
const STRAGGLE: usize = 2;
const DUPLICATE: usize = 3;

/// Uniform in `[0, 1)` from the top 53 bits of a word.
#[inline]
fn unit(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform in `(0, 1]` from the top 53 bits of a word: never zero, so
/// its logarithm and negative powers are finite.
#[inline]
pub(crate) fn open_unit(w: u64) -> f64 {
    ((w >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A word mapped into `0..bound` by multiply-shift.
#[inline]
pub(crate) fn below(w: u64, bound: u64) -> u64 {
    ((u128::from(w) * u128::from(bound)) >> 64) as u64
}

/// The slots a process runs over: slot `j` is emitted at period
/// `(j + 1)·2^order`, and there are `count = d >> order` of them. Order
/// 0 is every period: a Byzantine client's emissions, and churn.
#[derive(Debug, Clone, Copy)]
struct Slots {
    order: usize,
    count: u64,
}

impl Slots {
    fn new(d: u64, order: usize) -> Self {
        Slots {
            order,
            count: d >> order,
        }
    }

    /// The emission period of slot `j`.
    fn period(self, j: u64) -> u64 {
        (j + 1) << self.order
    }
}

/// One knob's Bernoulli process, sampled by geometric skips at its peak
/// rate over the timeline and thinned where a period's rate is lower.
struct Knob {
    lane: u64,
    /// The knob's rate in a period's scenario.
    rate: fn(&Scenario) -> f64,
    /// Peak rate `p̂` over the timeline.
    peak: f64,
    /// `1 / ln(1 − p̂)`, negative for `0 < p̂ < 1`.
    inv_log: f64,
    /// `[h]` = `(1 − p̂)^(d >> h)`: the chance that a search from slot 0
    /// over `d >> h` slots finds nothing, so a client the knob never hits
    /// costs one word and one compare.
    miss: Vec<f64>,
}

impl Knob {
    fn new(
        lane: u64,
        rate: fn(&Scenario) -> f64,
        timeline: &FaultTimeline,
        d: u64,
        orders: u32,
    ) -> Self {
        let peak = timeline.peak(rate);
        let log = (-peak).ln_1p();
        Knob {
            lane,
            rate,
            peak,
            inv_log: 1.0 / log,
            miss: (0..orders).map(|h| (log * (d >> h) as f64).exp()).collect(),
        }
    }

    /// The first slot in `start..slots.count` the knob fires at, or
    /// [`NEVER`].
    fn next_hit(&self, key: u64, timeline: &FaultTimeline, slots: Slots, mut start: u64) -> u64 {
        if self.peak <= 0.0 {
            return NEVER;
        }
        while start < slots.count {
            let candidate = if self.peak >= 1.0 {
                start
            } else {
                let u = open_unit(word(key, self.lane, start));
                if start == 0 && u <= self.miss[slots.order] {
                    return NEVER;
                }
                start.saturating_add((u.ln() * self.inv_log) as u64)
            };
            if candidate >= slots.count {
                return NEVER;
            }
            let p = (self.rate)(timeline.at(slots.period(candidate)));
            if p >= self.peak
                || (p > 0.0 && unit(word(key, self.lane, THIN | candidate)) * self.peak < p)
            {
                return candidate;
            }
            start = candidate + 1;
        }
        NEVER
    }
}

/// The fault law of one run: the timeline, the fault subtree of the
/// seed, and each knob's skip constants, computed once and shared by
/// every client and every worker.
pub(crate) struct FaultPlan<'a> {
    timeline: &'a FaultTimeline,
    root: SeedSequence,
    d: u64,
    /// Junk claimed ids fall below `2n`, computed in `u64` and kept
    /// within `2..=2³²` so every claimed id fits the wire's `u32`.
    id_bound: u64,
    churn: Knob,
    /// Malformed, drop, straggle and duplicate, indexed by [`MALFORMED`],
    /// [`DROP`], [`STRAGGLE`] and [`DUPLICATE`].
    knobs: [Knob; 4],
}

impl<'a> FaultPlan<'a> {
    /// The plan of `timeline` under run seed `seed`.
    pub(crate) fn new(params: &ProtocolParams, seed: u64, timeline: &'a FaultTimeline) -> Self {
        let d = params.d();
        let orders = params.num_orders();
        let knob = |lane, rate| Knob::new(lane, rate, timeline, d, orders);
        FaultPlan {
            timeline,
            root: SeedSequence::new(seed).child(FAULT_STREAM),
            d,
            id_bound: (2 * params.n() as u64).clamp(2, 1 << 32),
            churn: knob(CHURN_LANE, |s| s.churn_prob),
            knobs: [
                knob(MALFORMED_LANE, |s| s.malformed_prob),
                knob(DROP_LANE, |s| s.drop_prob),
                knob(STRAGGLE_LANE, |s| s.straggle_prob),
                knob(DUPLICATE_LANE, |s| s.duplicate_prob),
            ],
        }
    }

    /// Client `u`'s plan for the horizon; `h` is its announced order,
    /// whose boundaries carry its reports unless it is Byzantine. A
    /// client that churns within the horizon is counted in `faults`.
    pub(crate) fn client(&self, u: usize, h: usize, faults: &mut FaultCounts) -> ClientPlan<'_> {
        let key = client_key(&self.root.child(u as u64));
        let frac = self.timeline.byzantine_frac();
        let byzantine = frac > 0.0 && unit(word(key, BYZANTINE_LANE, 0)) < frac;
        let churn_at = self
            .churn
            .next_hit(key, self.timeline, Slots::new(self.d, 0), 0)
            .saturating_add(1);
        if churn_at <= self.d {
            faults.churned_clients += 1;
        }
        let slots = Slots::new(self.d, if byzantine { 0 } else { h });
        ClientPlan {
            plan: self,
            key,
            byzantine,
            churn_at,
            slots,
            next: std::array::from_fn(|k| self.knobs[k].next_hit(key, self.timeline, slots, 0)),
        }
    }
}

/// One client's faults over the horizon: its Byzantine coin, its churn
/// period, and its position in the four per-report knob processes.
///
/// Ask [`ClientPlan::route`] for the reports the client emits, in
/// ascending period order, or jump between the faulted ones with
/// [`ClientPlan::next_faulted`]; both see the same hits.
pub(crate) struct ClientPlan<'a> {
    plan: &'a FaultPlan<'a>,
    key: u64,
    /// Whether the client is Byzantine: it suppresses its honest reports
    /// and fabricates one per period.
    pub(crate) byzantine: bool,
    /// First period at which the client has departed (`u64::MAX` =
    /// never).
    pub(crate) churn_at: u64,
    /// Every period for a Byzantine client, its order's boundaries
    /// otherwise.
    slots: Slots,
    /// Next slot each knob fires at, indexed like [`FaultPlan::knobs`].
    next: [u64; 4],
}

/// The fate of one emitted report.
#[derive(Clone, Copy)]
pub(crate) struct Routing {
    /// Delivery period of the original copy, if it survives the horizon.
    pub(crate) deliver: Option<u64>,
    /// Delivery period of a retransmitted copy, if any survives.
    pub(crate) duplicate: Option<u64>,
    /// Whether the frame's encoding was corrupted in flight: every
    /// delivered copy fails `try_decode` at the server.
    pub(crate) malformed: bool,
}

impl Routing {
    /// Copies that reach the server, each failing `try_decode` if the
    /// frame was corrupted.
    pub(crate) fn delivered(&self) -> u64 {
        u64::from(self.deliver.is_some()) + u64::from(self.duplicate.is_some())
    }

    /// Whether the report emitted at `t` arrives intact in period `t`.
    pub(crate) fn on_time(&self, t: u64) -> bool {
        !self.malformed && self.deliver == Some(t)
    }

    /// Calls `copy(at)` with the delivery period of each intact copy of
    /// the report emitted at `t` that arrives after period `t`: a delayed
    /// original, then a retransmission.
    pub(crate) fn late_copies(&self, t: u64, mut copy: impl FnMut(u64)) {
        if self.malformed {
            return;
        }
        if let Some(at) = self.deliver.filter(|&at| at != t) {
            copy(at);
        }
        if let Some(at) = self.duplicate {
            copy(at);
        }
    }
}

impl ClientPlan<'_> {
    /// The emission period of the next report some knob fires at, if it
    /// comes before period `before`. A report this skips is delivered on
    /// time, exactly once, intact.
    pub(crate) fn next_faulted(&self, before: u64) -> Option<u64> {
        let slot = self.next.iter().copied().min().unwrap_or(NEVER);
        if slot == NEVER {
            return None;
        }
        let t = self.slots.period(slot);
        (t < before).then_some(t)
    }

    /// The fate of the report emitted at period `t`, tallied into
    /// `faults`. Reports are asked in ascending period order, each once.
    ///
    /// Every rate is the emission period's. A dropped report is never
    /// delayed or duplicated: a straggle or duplicate hit on it is
    /// ignored and not counted. A duplicate lands one period after the
    /// original, a delayed original included, and a copy past the
    /// horizon expires.
    pub(crate) fn route(&mut self, t: u64, faults: &mut FaultCounts) -> Routing {
        let plan = self.plan;
        let slot = (t >> self.slots.order) - 1;
        let mut hit = [false; 4];
        for (k, knob) in plan.knobs.iter().enumerate() {
            debug_assert!(self.next[k] >= slot, "reports are routed in period order");
            if self.next[k] == slot {
                hit[k] = true;
                self.next[k] = knob.next_hit(self.key, plan.timeline, self.slots, slot + 1);
            }
        }
        let malformed = hit[MALFORMED];
        if hit[DROP] {
            faults.dropped += 1;
            return Routing {
                deliver: None,
                duplicate: None,
                malformed,
            };
        }
        let mut deliver = t;
        if hit[STRAGGLE] {
            let max_delay = plan.timeline.at(t).max_delay;
            let w = word(self.key, DELAY_LANE, slot);
            deliver += plan.timeline.delay_law().sample(w, max_delay);
            faults.delayed += 1;
        }
        let delivered = if deliver <= plan.d {
            Some(deliver)
        } else {
            faults.expired += 1;
            None
        };
        let mut duplicate = None;
        if hit[DUPLICATE] {
            faults.duplicates_injected += 1;
            if deliver < plan.d {
                duplicate = Some(deliver + 1);
            } else {
                faults.expired += 1;
            }
        }
        Routing {
            deliver: delivered,
            duplicate,
            malformed,
        }
    }

    /// What client `user` sends at period `t`, given the honest `report`
    /// its state machine produced (if one was due), with its
    /// [`Routing`] and whether it is a Byzantine fabrication. A churned
    /// client sends nothing, and a due honest report it would have sent
    /// counts as lost; a Byzantine client suppresses its honest reports
    /// and fabricates one every period; an honest client sends its due
    /// report. Ask at every period, in order, with the faults tallied
    /// into `faults`.
    pub(crate) fn emit(
        &mut self,
        user: u32,
        t: u64,
        report: Option<ClientReport>,
        faults: &mut FaultCounts,
    ) -> Option<(ReportMsg, bool, Routing)> {
        if t >= self.churn_at {
            // Churn silences everyone for good — Byzantine clients
            // included; only due honest reports count as lost.
            if !self.byzantine && report.is_some() {
                faults.lost_to_churn += 1;
            }
            return None;
        }
        let (msg, byzantine) = if self.byzantine {
            faults.byzantine_messages += 1;
            (self.fabricate(user, t), true)
        } else {
            let r = report?;
            let msg = ReportMsg {
                user,
                t: t as u32,
                bit: r.bit == Sign::Plus,
            };
            (msg, false)
        };
        Some((msg, byzantine, self.route(t, faults)))
    }

    /// The arbitrary-but-well-formed report a Byzantine client `own_id`
    /// emits at period `t`: half the time under its own id (an insider
    /// lying about content or timing), otherwise under any id below `2n`
    /// (half in-range impersonations, half junk ids); the claimed period
    /// and bit are unconstrained.
    pub(crate) fn fabricate(&self, own_id: u32, t: u64) -> ReportMsg {
        let id = word(self.key, CLAIMED_ID_LANE, t);
        // The top bit picks the sender; the other 63 pick a foreign id.
        let user = if id >> 63 == 0 {
            own_id
        } else {
            below(id << 1, self.plan.id_bound) as u32
        };
        ReportMsg {
            user,
            t: 1 + below(word(self.key, CLAIMED_PERIOD_LANE, t), self.plan.d) as u32,
            bit: word(self.key, CLAIMED_BIT_LANE, t) >> 63 == 1,
        }
    }
}

/// Law tests: the plan's tallies against the laws the knobs define, over
/// 10⁵ clients spread across every order. Each gate is a Pearson
/// chi-square at the 99.9% level (`rtf_analysis::stats`), pooled over
/// independent tables by summing statistics and degrees of freedom.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayLaw;
    use rtf_analysis::distribution::binomial_row;
    use rtf_analysis::stats::{chi_square_critical_999, chi_square_stat};

    const CLIENTS: usize = 100_000;

    fn params(d: u64) -> ProtocolParams {
        ProtocolParams::new(CLIENTS, d, 2, 1.0, 0.05).unwrap()
    }

    /// Binomial(`m`, `p`) pmf over `0..=m`.
    fn binomial_pmf(m: usize, p: f64) -> Vec<f64> {
        let row = binomial_row(m);
        (0..=m)
            .map(|j| row[j] * p.powi(j as i32) * (1.0 - p).powi((m - j) as i32))
            .collect()
    }

    /// Asserts that every `(observed, expected counts)` table fits, by the
    /// pooled chi-square statistic.
    fn assert_fits(label: &str, tables: &[(Vec<u64>, Vec<f64>)]) {
        let (mut chi2, mut dof) = (0.0, 0);
        for (observed, expected) in tables {
            let (c, k) = chi_square_stat(observed, expected, 5.0);
            chi2 += c;
            dof += k;
        }
        let critical = chi_square_critical_999(dof);
        assert!(
            chi2 < critical,
            "{label}: chi2 {chi2:.1} ≥ {critical:.1} at {dof} dof"
        );
    }

    /// Per-client histograms of one order: `[knob][count]`.
    struct OrderTally {
        malformed: Vec<u64>,
        dropped: Vec<u64>,
        /// Clients by number of kept (undropped) reports.
        kept: Vec<u64>,
        delayed: Vec<u64>,
        duplicated: Vec<u64>,
    }

    #[test]
    fn law_per_report_knobs_are_binomial() {
        // Client u has order u mod 6, so each order sees ~1.7·10⁴ clients
        // with d >> h slots each.
        let d = 32u64;
        let params = params(d);
        let orders = params.num_orders() as usize;
        let rates = Scenario::honest()
            .with_malformed(0.03)
            .with_dropout(0.1)
            .with_stragglers(0.2, 3)
            .with_duplicates(0.15);
        let timeline = FaultTimeline::constant(rates);
        let plan = FaultPlan::new(&params, 2026, &timeline);
        let mut tallies: Vec<OrderTally> = (0..orders)
            .map(|h| {
                let bins = vec![0u64; (d >> h) as usize + 1];
                OrderTally {
                    malformed: bins.clone(),
                    dropped: bins.clone(),
                    kept: bins.clone(),
                    delayed: bins.clone(),
                    duplicated: bins,
                }
            })
            .collect();
        for u in 0..CLIENTS {
            let h = u % orders;
            let mut client = plan.client(u, h, &mut FaultCounts::default());
            let mut faults = FaultCounts::default();
            let mut malformed = 0;
            for j in 1..=d >> h {
                malformed += usize::from(client.route(j << h, &mut faults).malformed);
            }
            let tally = &mut tallies[h];
            let kept = (d >> h) as usize - faults.dropped as usize;
            tally.malformed[malformed] += 1;
            tally.dropped[faults.dropped as usize] += 1;
            tally.kept[kept] += 1;
            tally.delayed[faults.delayed as usize] += 1;
            tally.duplicated[faults.duplicates_injected as usize] += 1;
        }
        let per_order = |p: f64, pick: fn(&OrderTally) -> &Vec<u64>| -> Vec<(Vec<u64>, Vec<f64>)> {
            tallies
                .iter()
                .map(|tally| {
                    let observed = pick(tally).clone();
                    let clients: u64 = observed.iter().sum();
                    let expected = binomial_pmf(observed.len() - 1, p)
                        .iter()
                        .map(|q| q * clients as f64)
                        .collect();
                    (observed, expected)
                })
                .collect()
        };
        assert_fits("malformed", &per_order(0.03, |t| &t.malformed));
        assert_fits("dropped", &per_order(0.1, |t| &t.dropped));
        // Given its kept count k, a client's delayed and duplicated counts
        // are Binomial(k, p): the expected histogram mixes those laws.
        let given_kept =
            |p: f64, pick: fn(&OrderTally) -> &Vec<u64>| -> Vec<(Vec<u64>, Vec<f64>)> {
                tallies
                    .iter()
                    .map(|tally| {
                        let mut expected = vec![0.0; tally.kept.len()];
                        for (k, &clients) in tally.kept.iter().enumerate() {
                            for (j, q) in binomial_pmf(k, p).iter().enumerate() {
                                expected[j] += q * clients as f64;
                            }
                        }
                        (pick(tally).clone(), expected)
                    })
                    .collect()
            };
        assert_fits("delayed given kept", &given_kept(0.2, |t| &t.delayed));
        assert_fits(
            "duplicated given kept",
            &given_kept(0.15, |t| &t.duplicated),
        );
    }

    #[test]
    fn law_byzantine_clients_are_binomial() {
        // Blocks of 50 consecutive clients: each block's Byzantine count
        // is Binomial(50, frac).
        const BLOCK: usize = 50;
        let frac = 0.1;
        let params = params(16);
        let timeline = FaultTimeline::constant(Scenario::honest().with_byzantine(frac));
        let plan = FaultPlan::new(&params, 7, &timeline);
        let mut observed = vec![0u64; BLOCK + 1];
        for block in 0..CLIENTS / BLOCK {
            let count = (block * BLOCK..(block + 1) * BLOCK)
                .filter(|&u| plan.client(u, u % 5, &mut FaultCounts::default()).byzantine)
                .count();
            observed[count] += 1;
        }
        let blocks = (CLIENTS / BLOCK) as f64;
        let expected = binomial_pmf(BLOCK, frac)
            .iter()
            .map(|q| q * blocks)
            .collect();
        assert_fits("Byzantine clients", &[(observed, expected)]);
    }

    /// Histogram of churn periods (`[0]` = never, `[t]` = period t)
    /// against the survival curve of `hazard[t - 1]`.
    fn assert_churn_law(label: &str, timeline: &FaultTimeline, hazard: &[f64]) {
        let d = hazard.len() as u64;
        let params = params(d);
        let plan = FaultPlan::new(&params, 11, timeline);
        let mut observed = vec![0u64; d as usize + 1];
        for u in 0..CLIENTS {
            let churn_at = plan
                .client(
                    u,
                    u % params.num_orders() as usize,
                    &mut FaultCounts::default(),
                )
                .churn_at;
            if churn_at == u64::MAX {
                observed[0] += 1;
            } else {
                assert!(
                    hazard[churn_at as usize - 1] > 0.0,
                    "{label}: churn at t = {churn_at}"
                );
                observed[churn_at as usize] += 1;
            }
        }
        let mut expected = vec![0.0; d as usize + 1];
        let mut survival = CLIENTS as f64;
        for (t, &p) in hazard.iter().enumerate() {
            expected[t + 1] = survival * p;
            survival *= 1.0 - p;
        }
        expected[0] = survival;
        assert_fits(label, &[(observed, expected)]);
    }

    #[test]
    fn law_constant_churn_is_geometric() {
        let p = 0.04;
        let timeline = FaultTimeline::constant(Scenario::honest().with_churn(p));
        assert_churn_law("constant churn", &timeline, &[p; 64]);
    }

    #[test]
    fn law_shaped_churn_follows_the_survival_curve() {
        // A churn storm over periods 10..=20 and a smaller wave over
        // 40..=45; every other period's hazard is zero.
        let hazard: Vec<f64> = (1..=64u64)
            .map(|t| match t {
                10..=20 => 0.08,
                40..=45 => 0.03,
                _ => 0.0,
            })
            .collect();
        let rows = hazard
            .iter()
            .map(|&p| Scenario::honest().with_churn(p))
            .collect();
        let timeline = FaultTimeline::shaped(Scenario::honest(), rows);
        assert_churn_law("churn pulse", &timeline, &hazard);
    }

    /// Histogram of the delays stragglers wait, from reports whose every
    /// delay lands inside the horizon.
    fn delays(law: DelayLaw, max_delay: u64) -> Vec<u64> {
        let d = 64u64;
        let params = params(d);
        let timeline = FaultTimeline::constant(Scenario::honest().with_stragglers(0.3, max_delay))
            .with_delay_law(law);
        let plan = FaultPlan::new(&params, 13, &timeline);
        let mut observed = vec![0u64; max_delay as usize];
        let mut faults = FaultCounts::default();
        for u in 0..CLIENTS {
            let h = u % 3;
            let mut client = plan.client(u, h, &mut FaultCounts::default());
            while let Some(t) = client.next_faulted(d - max_delay + 1) {
                let at = client
                    .route(t, &mut faults)
                    .deliver
                    .expect("inside the horizon");
                observed[(at - t - 1) as usize] += 1;
            }
        }
        observed
    }

    #[test]
    fn law_delays_follow_the_uniform_and_zipf_pmfs() {
        let observed = delays(DelayLaw::Uniform, 5);
        let total: u64 = observed.iter().sum();
        let expected = vec![total as f64 / 5.0; 5];
        assert_fits("uniform delays", &[(observed, expected)]);

        // P(Δ = x) = x^-α − (x+1)^-α below the cap, and cap^-α at it.
        let (alpha, cap) = (1.2f64, 12u64);
        let observed = delays(DelayLaw::Zipf { alpha }, cap);
        let total = observed.iter().sum::<u64>() as f64;
        let tail = |x: u64| (x as f64).powf(-alpha);
        let expected = (1..=cap)
            .map(|x| {
                total
                    * if x < cap {
                        tail(x) - tail(x + 1)
                    } else {
                        tail(cap)
                    }
            })
            .collect();
        assert_fits("zipf delays", &[(observed, expected)]);
    }

    #[test]
    fn law_shaped_dropout_follows_each_rows_rate() {
        // A dropout pulse over a low base rate, with a quiet window: each
        // period's drops among the reports emitted in it are
        // Binomial(reports, row rate), and a zero row drops nothing.
        let d = 64u64;
        let rate = |t: u64| match t {
            10..=15 => 0.3,
            30..=33 => 0.1,
            50..=55 => 0.0,
            _ => 0.02,
        };
        let rows = (1..=d)
            .map(|t| Scenario::honest().with_dropout(rate(t)))
            .collect();
        let timeline = FaultTimeline::shaped(Scenario::honest(), rows);
        let params = params(d);
        let orders = params.num_orders() as usize;
        let plan = FaultPlan::new(&params, 17, &timeline);
        let mut reports = vec![0u64; d as usize + 1];
        let mut drops = vec![0u64; d as usize + 1];
        for u in 0..CLIENTS {
            let h = u % orders;
            let mut client = plan.client(u, h, &mut FaultCounts::default());
            let mut faults = FaultCounts::default();
            for j in 1..=d >> h {
                let t = j << h;
                let before = faults.dropped;
                client.route(t, &mut faults);
                reports[t as usize] += 1;
                drops[t as usize] += faults.dropped - before;
            }
        }
        let mut tables = Vec::new();
        for t in 1..=d {
            let (n, k, p) = (reports[t as usize], drops[t as usize], rate(t));
            if p == 0.0 {
                assert_eq!(k, 0, "period {t} has a zero dropout rate");
                continue;
            }
            tables.push((vec![k, n - k], vec![n as f64 * p, n as f64 * (1.0 - p)]));
        }
        assert_fits("per-period drops", &tables);
    }
}
