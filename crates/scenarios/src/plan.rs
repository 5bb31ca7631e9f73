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
//! The skip takes no logarithm when it is short. `⌊ln U / ln(1 − p̂)⌋`
//! only falls as `U` rises, so each knob keeps a **gap table**: for every
//! gap `g` below `min(d, 256)`, the least 53-bit word value whose skip is
//! at most `g`, found once per plan by bisecting that same expression. A
//! word's skip is then the number of table entries above it, and a word
//! below the whole table skips past any horizon the table covers; only a
//! longer skip inside a longer horizon evaluates the logarithm. The
//! table is exact, not an approximation: it returns the expression's
//! own value for every word.
//!
//! Because a client's hits depend on its key alone, the batched engine
//! walks each client's whole horizon at once — the **mask walk**
//! ([`FaultPlan::walk`]): every knob's hits become a slot bitmask, the
//! routing precedence becomes bit algebra over those masks, and the
//! tallies become popcounts, so a client costs its hits and a few word
//! operations, never a visit per report. The sequential engine and the
//! live driver ask the same plan one report at a time
//! ([`ClientPlan::emit`]); they differ only in how a routed message
//! reaches the server.

use crate::config::{FaultTimeline, Scenario};
use rtf_core::client::ClientReport;
use rtf_core::params::ProtocolParams;
use rtf_primitives::fastseed::{client_key, word};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_sim::message::ReportMsg;
use rtf_sim::FaultCounts;
use std::ops::Deref;

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

/// The longest gap table a knob keeps: horizons up to this many slots
/// never take a logarithm.
const MAX_STEPS: u64 = 256;

/// A gap table's lookup starts from the skip at the top of the word's
/// bucket: one of `2^BUCKET_BITS` equal ranges of 53-bit word values.
const BUCKET_BITS: u32 = 10;

/// `2^53`: a 53-bit word value `m` is the uniform `(m + 1) / 2^53`.
const TWO_53: f64 = (1u64 << 53) as f64;

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

/// The low `n` bits set, for `n` of any size.
#[inline]
fn low_bits(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
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
    /// Whether some period's rate sits below the peak. If none does,
    /// every candidate slot is a hit and no thinning word is read.
    thinned: bool,
    /// `1 / ln(1 − p̂)`, negative for `0 < p̂ < 1`.
    inv_log: f64,
    /// `[h]` = `⌊(1 − p̂)^(d >> h) · 2^53⌋`: a search from slot 0 over
    /// `d >> h` slots whose word's top 53 bits fall below it finds
    /// nothing (the integer form of `U ≤ (1 − p̂)^(d >> h)`), so a client
    /// the knob never hits costs one word and one compare.
    miss: Vec<u64>,
    /// The gap table (module docs): `steps[g]` is the least 53-bit word
    /// value whose skip is at most `g`, for each `g` below
    /// `min(d, MAX_STEPS)`; non-increasing in `g`. Empty unless
    /// `0 < p̂ < 1`.
    steps: Vec<u64>,
    /// `[b]`: the entries of `steps` above every word value of bucket
    /// `b` — the skip of the bucket's top word, where a lookup in the
    /// bucket starts counting.
    buckets: Vec<u16>,
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
        let mut knob = Knob {
            lane,
            rate,
            peak,
            thinned: (1..=d).any(|t| rate(timeline.at(t)) < peak),
            inv_log: 1.0 / log,
            miss: (0..orders)
                .map(|h| ((log * (d >> h) as f64).exp() * TWO_53) as u64)
                .collect(),
            steps: Vec::new(),
            buckets: Vec::new(),
        };
        if peak > 0.0 && peak < 1.0 {
            knob.steps = knob.gap_steps(d.min(MAX_STEPS));
            knob.buckets = (1..=1u64 << BUCKET_BITS)
                .map(|b| {
                    let top = (b << (53 - BUCKET_BITS)) - 1;
                    knob.steps.partition_point(|&s| s > top) as u16
                })
                .collect();
        }
        knob
    }

    /// The skip `⌊ln U / ln(1 − p̂)⌋` of a word whose top 53 bits are
    /// `m`, by its logarithm: the expression the gap table tabulates.
    fn ln_gap(&self, m: u64) -> u64 {
        (open_unit(m << 11).ln() * self.inv_log) as u64
    }

    /// The first `len` entries of the gap table, each bisected over the
    /// word values at or below the previous entry.
    fn gap_steps(&self, len: u64) -> Vec<u64> {
        let mut steps = Vec::with_capacity(len as usize);
        // U = 1 skips nothing, so the top word value bounds every entry.
        let mut hi = (1u64 << 53) - 1;
        for g in 0..len {
            if self.ln_gap(0) <= g {
                // Every word skips at most g, so every later entry is 0.
                steps.resize(len as usize, 0);
                break;
            }
            // Invariant: ln_gap(lo) > g ≥ ln_gap(hi).
            let mut lo = 0;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.ln_gap(mid) <= g {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            steps.push(hi);
        }
        steps
    }

    /// The skip of word `w` by the gap table, or `None` if it is at least
    /// the table's length: the entries above the word's 53 bits, counted
    /// up from its bucket's.
    #[inline(always)]
    fn table_gap(&self, w: u64) -> Option<u64> {
        let m = w >> 11;
        let mut g = usize::from(*self.buckets.get((m >> (53 - BUCKET_BITS)) as usize)?);
        while g < self.steps.len() && self.steps[g] > m {
            g += 1;
        }
        (g < self.steps.len()).then_some(g as u64)
    }

    /// The slot a search from `start` reading word `w` lands on, if it is
    /// below `end`.
    #[inline(always)]
    fn land(&self, w: u64, start: u64, end: u64) -> Option<u64> {
        let within = end - start;
        let gap = match self.table_gap(w) {
            Some(gap) => gap,
            // A skip past the table is at least its length.
            None if self.steps.len() as u64 >= within => return None,
            None => self.ln_gap(w >> 11),
        };
        (gap < within).then_some(start + gap)
    }

    /// The first slot in `start..end` the knob fires at, or [`NEVER`].
    /// `end` is at most `slots.count`; a search stopped early finds the
    /// same hits below `end` as one run to the last slot.
    fn next_hit(
        &self,
        key: u64,
        timeline: &FaultTimeline,
        slots: Slots,
        start: u64,
        end: u64,
    ) -> u64 {
        self.search(
            key,
            timeline,
            slots,
            start,
            end,
            word(key, self.lane, start),
        )
    }

    /// [`Knob::next_hit`] given `w`, the word at counter `start`, so a
    /// caller can read the first words of several knobs at once.
    #[inline(always)]
    fn search(
        &self,
        key: u64,
        timeline: &FaultTimeline,
        slots: Slots,
        mut start: u64,
        end: u64,
        mut w: u64,
    ) -> u64 {
        if self.peak <= 0.0 {
            return NEVER;
        }
        while start < end {
            let candidate = if self.peak >= 1.0 {
                start
            } else {
                if start == 0 && w >> 11 < self.miss[slots.order] {
                    return NEVER;
                }
                match self.land(w, start, end) {
                    Some(candidate) => candidate,
                    None => return NEVER,
                }
            };
            if !self.thinned {
                return candidate;
            }
            let p = (self.rate)(timeline.at(slots.period(candidate)));
            if p >= self.peak
                || (p > 0.0 && unit(word(key, self.lane, THIN | candidate)) * self.peak < p)
            {
                return candidate;
            }
            start = candidate + 1;
            w = word(key, self.lane, start);
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

/// What a client's plan fixes before its first report: its key, its
/// Byzantine coin, its churn period and the slots it reports in.
#[derive(Clone, Copy)]
pub(crate) struct Client {
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
}

impl Client {
    /// How many of its slots the client emits before it churns.
    fn live_slots(&self) -> u64 {
        self.slots
            .count
            .min((self.churn_at - 1) >> self.slots.order)
    }
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

    /// Client `u`'s per-client draws; `h` is its announced order, whose
    /// boundaries carry its reports unless it is Byzantine. A client that
    /// churns within the horizon is counted in `faults`.
    pub(crate) fn header(&self, u: usize, h: usize, faults: &mut FaultCounts) -> Client {
        let key = client_key(&self.root.child(u as u64));
        let frac = self.timeline.byzantine_frac();
        let byzantine = frac > 0.0 && unit(word(key, BYZANTINE_LANE, 0)) < frac;
        let churn_slots = Slots::new(self.d, 0);
        let churn_at = self
            .churn
            .next_hit(key, self.timeline, churn_slots, 0, churn_slots.count)
            .saturating_add(1);
        if churn_at <= self.d {
            faults.churned_clients += 1;
        }
        Client {
            key,
            byzantine,
            churn_at,
            slots: Slots::new(self.d, if byzantine { 0 } else { h }),
        }
    }

    /// Client `u`'s plan for the horizon, asked one report at a time:
    /// [`FaultPlan::header`] plus each knob's first hit.
    pub(crate) fn client(&self, u: usize, h: usize, faults: &mut FaultCounts) -> ClientPlan<'_> {
        let client = self.header(u, h, faults);
        let slots = client.slots;
        ClientPlan {
            plan: self,
            client,
            next: std::array::from_fn(|k| {
                self.knobs[k].next_hit(client.key, self.timeline, slots, 0, slots.count)
            }),
        }
    }

    /// The fate of `client`'s slot-`j` report, given which knobs hit it:
    /// [`ClientPlan::route`]'s precedence, tallying nothing.
    fn fate(&self, client: &Client, j: u64, hit: [bool; 4]) -> Routing {
        let malformed = hit[MALFORMED];
        if hit[DROP] {
            return Routing {
                deliver: None,
                duplicate: None,
                malformed,
            };
        }
        let t = client.slots.period(j);
        let mut deliver = t;
        if hit[STRAGGLE] {
            let w = word(client.key, DELAY_LANE, j);
            deliver += self
                .timeline
                .delay_law()
                .sample(w, self.timeline.at(t).max_delay);
        }
        Routing {
            deliver: (deliver <= self.d).then_some(deliver),
            duplicate: (hit[DUPLICATE] && deliver < self.d).then_some(deliver + 1),
            malformed,
        }
    }

    /// The mask walk: `client`'s whole horizon at once, into the
    /// per-worker scratch `masks`.
    ///
    /// Each knob's chain of hits ([`Knob::next_hit`], the same words
    /// [`ClientPlan::route`] reads) runs over the slots the client emits
    /// before it churns into a slot bitmask. Routing is then bit algebra
    /// in `route`'s precedence — drop wins, and straggle and duplicate
    /// apply to undropped slots only — with the drop, delay and
    /// retransmission tallies taken as popcounts; only a delayed or
    /// retransmitted slot is visited, for its delay word and its copies.
    /// `faults` gains exactly what the per-period path tallies for these
    /// reports: `route`'s counts, each corrupted copy that fails decode,
    /// an honest client's reports lost to churn and a Byzantine client's
    /// fabrications.
    ///
    /// Leaves the knob hits in [`SlotMasks::hits`] and, for an honest
    /// client, the slots delivered intact in their own period in
    /// [`SlotMasks::on_time`]; and calls `copy(b, at, floor)` for every
    /// intact copy of an honest client's boundary-`b` report that arrives
    /// in a later period `at` — a delayed original, then a
    /// retransmission, in ascending `b` — with `floor` the client's last
    /// on-time boundary before `at` ([`floor_before`]).
    pub(crate) fn walk(
        &self,
        client: &Client,
        masks: &mut SlotMasks,
        faults: &mut FaultCounts,
        mut copy: impl FnMut(u64, u64, u64),
    ) {
        let slots = client.slots;
        let live = client.live_slots();
        let words = slots.count.div_ceil(64) as usize;
        masks.count = slots.count;
        masks.hits.clear();
        masks.hits.resize(4 * words, 0);
        masks.on_time.clear();
        masks.on_time.resize(words, 0);
        // The four searches from slot 0 read their words side by side.
        let first: [u64; 4] = std::array::from_fn(|k| word(client.key, self.knobs[k].lane, 0));
        for ((mask, knob), mut w) in masks
            .hits
            .chunks_exact_mut(words)
            .zip(&self.knobs)
            .zip(first)
        {
            let mut start = 0;
            loop {
                let j = knob.search(client.key, self.timeline, slots, start, live, w);
                if j >= live {
                    break;
                }
                mask[(j / 64) as usize] |= 1 << (j % 64);
                start = j + 1;
                w = word(client.key, knob.lane, start);
            }
        }
        let word_of = |k: usize, wi: usize| masks.hits[k * words + wi];
        for wi in 0..words {
            let sent = low_bits(live.saturating_sub(64 * wi as u64));
            let [malformed, drop, straggle, duplicate] = [0, 1, 2, 3].map(|k| word_of(k, wi));
            let kept = sent & !drop;
            faults.dropped += u64::from(drop.count_ones());
            faults.delayed += u64::from((straggle & kept).count_ones());
            faults.duplicates_injected += u64::from((duplicate & kept).count_ones());
            // A corrupted report delivered once, on time, fails decode once.
            faults.malformed +=
                u64::from((malformed & kept & !(straggle | duplicate)).count_ones());
            if !client.byzantine {
                masks.on_time[wi] = kept & !(straggle | malformed);
            }
        }
        let on_time = &masks.on_time;
        for wi in 0..words {
            let [malformed, drop, straggle, duplicate] = [0, 1, 2, 3].map(|k| word_of(k, wi));
            let mut late = (straggle | duplicate) & !drop;
            while late != 0 {
                let bit = late & late.wrapping_neg();
                late ^= bit;
                let j = 64 * wi as u64 + u64::from(bit.trailing_zeros());
                let hit = [malformed, 0, straggle, duplicate].map(|w| w & bit != 0);
                let routing = self.fate(client, j, hit);
                faults.expired += u64::from(routing.deliver.is_none())
                    + u64::from(hit[DUPLICATE] && routing.duplicate.is_none());
                if routing.malformed {
                    faults.malformed += routing.delivered();
                } else if !client.byzantine {
                    let b = slots.period(j);
                    routing
                        .late_copies(b, |at| copy(b, at, floor_before(on_time, slots.order, at)));
                }
            }
        }
        if client.byzantine {
            faults.byzantine_messages += live;
        } else {
            faults.lost_to_churn += slots.count - live;
        }
    }

    /// The routing of slot `j` of a client whose knob hits the mask walk
    /// left in `hits` (a copy of [`SlotMasks::hits`]), tallying nothing:
    /// the walk did.
    pub(crate) fn routing(&self, client: &Client, hits: &[u64], j: u64) -> Routing {
        let words = hits.len() / 4;
        let (wi, bit) = ((j / 64) as usize, 1u64 << (j % 64));
        self.fate(
            client,
            j,
            std::array::from_fn(|k| hits[k * words + wi] & bit != 0),
        )
    }

    /// The arbitrary-but-well-formed report a Byzantine client `own_id`
    /// emits at period `t`: half the time under its own id (an insider
    /// lying about content or timing), otherwise under any id below `2n`
    /// (half in-range impersonations, half junk ids); the claimed period
    /// and bit are unconstrained.
    pub(crate) fn fabricate(&self, client: &Client, own_id: u32, t: u64) -> ReportMsg {
        let id = word(client.key, CLAIMED_ID_LANE, t);
        // The top bit picks the sender; the other 63 pick a foreign id.
        let user = if id >> 63 == 0 {
            own_id
        } else {
            below(id << 1, self.id_bound) as u32
        };
        ReportMsg {
            user,
            t: 1 + below(word(client.key, CLAIMED_PERIOD_LANE, t), self.d) as u32,
            bit: word(client.key, CLAIMED_BIT_LANE, t) >> 63 == 1,
        }
    }
}

/// The last boundary before period `at` whose report a client of order
/// `order` delivered on time, from its [`SlotMasks::on_time`] bits, or 0:
/// one leading-zeros count, scanning down a word only past a
/// 64-slot run of faulted reports.
pub(crate) fn floor_before(on_time: &[u64], order: usize, at: u64) -> u64 {
    // Slot j's boundary (j + 1)·2^order is before `at` iff j < end.
    let end = (at - 1) >> order;
    let mut wi = (end / 64) as usize;
    let mut w = if end % 64 == 0 {
        0
    } else {
        on_time[wi] & low_bits(end % 64)
    };
    loop {
        if w != 0 {
            let j = 64 * wi as u64 + 63 - u64::from(w.leading_zeros());
            return (j + 1) << order;
        }
        if wi == 0 {
            return 0;
        }
        wi -= 1;
        w = on_time[wi];
    }
}

/// Per-worker scratch of the mask walk: one client's knob hits and
/// on-time reports as slot bitmasks, bit `j % 64` of word `j / 64` for
/// slot `j`, `⌈slots / 64⌉` words each, reused from client to client.
#[derive(Default)]
pub(crate) struct SlotMasks {
    /// Slots of the client walked last.
    count: u64,
    /// Knob `k`'s hits in `hits[k * words..(k + 1) * words]`, indexed
    /// like [`FaultPlan::knobs`], among the slots the client emits
    /// before it churns.
    hits: Vec<u64>,
    /// The slots whose report arrives intact in its own period (none for
    /// a Byzantine client).
    on_time: Vec<u64>,
}

impl SlotMasks {
    /// The knob hits of the client walked last, for
    /// [`FaultPlan::routing`].
    pub(crate) fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// The on-time slots of the client walked last.
    #[cfg(test)]
    pub(crate) fn on_time(&self) -> &[u64] {
        &self.on_time
    }

    /// The slots of the honest client walked last whose report is not
    /// delivered on time: faulted, or never sent because it churned.
    pub(crate) fn missed(&self) -> impl Iterator<Item = u64> + '_ {
        self.on_time.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = 64 * wi as u64;
            let mut off = !w & low_bits(self.count - base);
            std::iter::from_fn(move || {
                (off != 0).then(|| {
                    let j = base + u64::from(off.trailing_zeros());
                    off &= off - 1;
                    j
                })
            })
        })
    }
}

/// One client's faults over the horizon, asked one report at a time:
/// its [`Client`] draws and its position in the four per-report knob
/// processes.
pub(crate) struct ClientPlan<'a> {
    plan: &'a FaultPlan<'a>,
    client: Client,
    /// Next slot each knob fires at, indexed like [`FaultPlan::knobs`].
    next: [u64; 4],
}

impl Deref for ClientPlan<'_> {
    type Target = Client;

    fn deref(&self) -> &Client {
        &self.client
    }
}

/// The fate of one emitted report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    #[cfg(test)]
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
        let slots = self.client.slots;
        let slot = (t >> slots.order) - 1;
        let mut hit = [false; 4];
        for (k, knob) in plan.knobs.iter().enumerate() {
            debug_assert!(self.next[k] >= slot, "reports are routed in period order");
            if self.next[k] == slot {
                hit[k] = true;
                self.next[k] =
                    knob.next_hit(self.client.key, plan.timeline, slots, slot + 1, slots.count);
            }
        }
        let routing = plan.fate(&self.client, slot, hit);
        if hit[DROP] {
            faults.dropped += 1;
            return routing;
        }
        faults.delayed += u64::from(hit[STRAGGLE]);
        faults.duplicates_injected += u64::from(hit[DUPLICATE]);
        faults.expired += u64::from(routing.deliver.is_none())
            + u64::from(hit[DUPLICATE] && routing.duplicate.is_none());
        routing
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
            (self.plan.fabricate(&self.client, user, t), true)
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
}

/// Law tests: the plan's tallies against the laws the knobs define, over
/// 10⁵ clients spread across every order. Each gate is a Pearson
/// chi-square at the 99.9% level (`rtf_analysis::stats`), pooled over
/// independent tables by summing statistics and degrees of freedom.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayLaw;
    use proptest::prelude::*;
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
        let mut masks = SlotMasks::default();
        for u in 0..CLIENTS {
            let h = u % 3;
            let client = plan.header(u, h, &mut FaultCounts::default());
            // Stragglers are the only fault, so every late copy is a
            // delayed original.
            plan.walk(&client, &mut masks, &mut faults, |t, at, _| {
                if t < d - max_delay + 1 {
                    observed[(at - t - 1) as usize] += 1;
                }
            });
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

    #[test]
    fn gap_table_is_the_logarithm_at_every_step() {
        // Each table entry, both its neighbours and 10⁶ words spread over
        // all 53 bits: the table's skip is the logarithm's, and a word
        // below the table skips at least its length. The miss shortcut's
        // integer compare is the float compare it replaced.
        let d = 256u64;
        let params = params(d);
        for p in [1e-4, 0.02, 0.05, 0.2, 0.5, 0.9] {
            let timeline = FaultTimeline::constant(Scenario::honest().with_dropout(p));
            let plan = FaultPlan::new(&params, 1, &timeline);
            let knob = &plan.knobs[DROP];
            let len = knob.steps.len() as u64;
            assert_eq!(len, d.min(MAX_STEPS), "p̂ = {p}");
            let log = (-p).ln_1p();
            let inv_log = 1.0 / log;
            let skip = |w: u64| (open_unit(w).ln() * inv_log) as u64;
            let neighbours = |m: u64| [m.wrapping_sub(1), m, m + 1].into_iter();
            let random = (0..1_000_000).map(|i| word(0x6A9, 0, i) >> 11);
            let words = knob.steps.iter().flat_map(|&m| neighbours(m)).chain(random);
            for m in words.filter(|&m| m < 1 << 53) {
                // The low 11 bits never matter.
                let w = m << 11 | (m & 0x7FF);
                match knob.table_gap(w) {
                    Some(gap) => assert_eq!(gap, skip(w), "p̂ = {p}, word {m}"),
                    None => assert!(skip(w) >= len, "p̂ = {p}, word {m}"),
                }
            }
            for (h, &miss) in knob.miss.iter().enumerate() {
                let exact = (log * (d >> h) as f64).exp();
                let random = (0..1_000).map(|i| word(0x6A9, 1, i) >> 11);
                for m in neighbours(miss).chain(random).filter(|&m| m < 1 << 53) {
                    let w = m << 11;
                    assert_eq!(m < miss, open_unit(w) <= exact, "p̂ = {p}, h = {h}");
                }
            }
            // A horizon longer than the table: where a search lands, past
            // the table by the logarithm, is where the expression lands.
            let long = FaultPlan::new(&self::params(4 * d), 1, &timeline);
            let knob = &long.knobs[DROP];
            for i in 0..100_000 {
                let (w, start) = (word(0x6A9, 2, i), i % (4 * d));
                let lands = start.saturating_add(skip(w));
                assert_eq!(knob.land(w, start, 4 * d), (lands < 4 * d).then_some(lands));
            }
        }
    }

    /// The four knob rates a property case draws from.
    const RATES: [f64; 4] = [0.0, 0.03, 0.5, 1.0];

    /// A timeline of `base` whose rows scale each rate by 1, ½ or 0,
    /// picked per period and knob by a word of `seed`.
    fn shaped(base: Scenario, d: u64, seed: u64) -> FaultTimeline {
        let rows = (1..=d)
            .map(|t| {
                let scale =
                    |lane: u64, p: f64| p * [1.0, 0.5, 0.0][(word(seed, lane, t) % 3) as usize];
                Scenario {
                    churn_prob: scale(0, base.churn_prob),
                    malformed_prob: scale(1, base.malformed_prob),
                    drop_prob: scale(2, base.drop_prob),
                    straggle_prob: scale(3, base.straggle_prob),
                    duplicate_prob: scale(4, base.duplicate_prob),
                    ..base
                }
            })
            .collect();
        FaultTimeline::shaped(base, rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The mask walk against `ClientPlan::route` asked at every
        /// boundary, for clients of every order: each routed slot's
        /// `Routing`, the fault counts (with what `emit` and the drain add:
        /// churn losses, fabrications and failed decodes), the on-time
        /// bits, and every late copy with its floor — which fix the
        /// residue rows. Each knob runs at 0, a small rate, ½ or 1, under
        /// churn, Byzantine clients, a shaped timeline and both delay
        /// laws; d runs from 2 to 256, so masks span up to four words.
        #[test]
        fn mask_walk_matches_route_at_every_boundary(
            log_d in 1u32..=8,
            malformed in 0usize..4,
            drop in 0usize..4,
            straggle in 0usize..4,
            duplicate in 0usize..4,
            churn in 0usize..3,
            byzantine in proptest::bool::ANY,
            shape in proptest::bool::ANY,
            zipf in proptest::bool::ANY,
            max_delay in 1u64..=4,
            seed in 0u64..1_000_000,
        ) {
            let d = 1u64 << log_d;
            let params = params(d);
            let base = Scenario::honest()
                .with_malformed(RATES[malformed])
                .with_dropout(RATES[drop])
                .with_stragglers(RATES[straggle], max_delay)
                .with_duplicates(RATES[duplicate])
                .with_churn([0.0, 0.02, 0.3][churn])
                .with_byzantine(if byzantine { 0.3 } else { 0.0 });
            let timeline = if shape { shaped(base, d, seed) } else { FaultTimeline::constant(base) };
            let law = if zipf { DelayLaw::Zipf { alpha: 1.2 } } else { DelayLaw::Uniform };
            let timeline = timeline.with_delay_law(law);
            timeline.validate(d);
            let plan = FaultPlan::new(&params, seed, &timeline);
            let mut masks = SlotMasks::default();
            for u in 0..16 {
                for h in 0..params.num_orders() as usize {
                    let mut expected = FaultCounts::default();
                    let mut client = plan.client(u, h, &mut expected);
                    let order = if client.byzantine { 0 } else { h };
                    let count = d >> order;
                    let mut routed = Vec::new();
                    let mut on_time = vec![false; count as usize];
                    for j in 0..count {
                        let t = (j + 1) << order;
                        if t >= client.churn_at {
                            expected.lost_to_churn += u64::from(!client.byzantine);
                            continue;
                        }
                        expected.byzantine_messages += u64::from(client.byzantine);
                        let routing = client.route(t, &mut expected);
                        if routing.malformed {
                            expected.malformed += routing.delivered();
                        }
                        on_time[j as usize] = !client.byzantine && routing.on_time(t);
                        routed.push((j, routing));
                    }
                    let mut copies = Vec::new();
                    for &(j, routing) in routed.iter().filter(|_| !client.byzantine) {
                        let b = (j + 1) << order;
                        routing.late_copies(b, |at| {
                            let floor = (0..count)
                                .rev()
                                .find(|&i| on_time[i as usize] && (i + 1) << order < at)
                                .map_or(0, |i| (i + 1) << order);
                            copies.push((b, at, floor));
                        });
                    }

                    let mut faults = FaultCounts::default();
                    let header = plan.header(u, h, &mut faults);
                    let mut walked = Vec::new();
                    plan.walk(&header, &mut masks, &mut faults, |b, at, floor| {
                        walked.push((b, at, floor));
                    });
                    let label = format!("client {u}, order {h}");
                    prop_assert_eq!(&faults, &expected, "{}", label);
                    for &(j, routing) in &routed {
                        prop_assert_eq!(plan.routing(&header, masks.hits(), j), routing, "{} slot {}", label, j);
                    }
                    let bits: Vec<bool> = (0..count)
                        .map(|j| masks.on_time()[(j / 64) as usize] >> (j % 64) & 1 == 1)
                        .collect();
                    prop_assert_eq!(bits, on_time, "{}", label);
                    prop_assert_eq!(walked, copies, "{}", label);
                }
            }
        }
    }
}
