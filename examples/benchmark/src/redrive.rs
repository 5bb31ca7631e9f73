//! The batched honest pipeline re-driven single-threaded, one public layer
//! call at a time, so each layer is timed by its own span at the shape the
//! workload gives it: order-group build, span emission, span fold, shard
//! absorb and period close.

use crate::adapter::{self, AnyAccumulator, Frame, Population, ProtocolParams, Server, SpanGroup};
use crate::trace::Tracer;

/// One emitted period waiting to be absorbed.
pub struct Period {
    t: u64,
    acc: AnyAccumulator,
}

pub struct Redrive {
    pub params: ProtocolParams,
    pub groups: Vec<SpanGroup>,
    server: Server,
    /// `estimates[t - 1]` from the trusted fold.
    pub estimates: Vec<f64>,
    /// Reports emitted so far.
    pub reports: u64,
    /// Heap bytes of every per-period accumulator.
    pub acc_bytes: u64,
}

impl Redrive {
    pub fn build(
        params: ProtocolParams,
        population: &Population,
        seed: u64,
        tr: &mut Tracer,
    ) -> Self {
        let groups = tr.span("sim.engine.build_order_groups", 0, || {
            adapter::order_groups(&params, population, seed)
        });
        let server = tr.span("core.server.register_user", 0, || {
            adapter::trusted_server(&params, &groups)
        });
        Redrive {
            params,
            groups,
            server,
            estimates: Vec::with_capacity(params.d() as usize),
            reports: 0,
            acc_bytes: 0,
        }
    }

    /// Emits and folds period `t`, leaving every reporting group's signs
    /// readable until the next call.
    pub fn emit(&mut self, t: u64, tr: &mut Tracer) -> Period {
        let mut acc = adapter::period_accumulator(&self.params);
        let mut rows = 0;
        for h in adapter::reporting_orders(&self.params, t) {
            let group = &mut self.groups[h as usize];
            if group.is_empty() {
                continue;
            }
            tr.span("core.randomizer.emit_span", t, || {
                adapter::emit_span(group, t)
            });
            rows += tr.span("core.accumulator.span_fold", t, || {
                adapter::span_fold(group, h, &mut acc)
            });
        }
        self.reports += rows;
        self.acc_bytes += adapter::acc_bytes(&acc);
        Period { t, acc }
    }

    /// Absorbs period `t`'s accumulator and closes the period.
    pub fn close(&mut self, period: Period, tr: &mut Tracer) {
        let t = period.t;
        let server = &mut self.server;
        tr.span("core.server.absorb_shard", t, || {
            adapter::absorb_shard(server, &period.acc)
        });
        let estimate = tr.span("core.server.end_of_period", t, || {
            adapter::end_of_period(server, t)
        });
        self.estimates.push(estimate);
    }

    /// Calls `f` with every report of period `t` (after [`emit`]), as an
    /// honest on-time frame, in group order.
    pub fn for_each_report(&self, t: u64, mut f: impl FnMut(Frame)) {
        for h in adapter::reporting_orders(&self.params, t) {
            let group = &self.groups[h as usize];
            for (lane, &user) in group.users.iter().enumerate() {
                f(Frame {
                    emitted: t as u32,
                    emitter: user,
                    user,
                    t: t as u32,
                    bit: adapter::lane_bit(group, lane),
                    byzantine: false,
                });
            }
        }
    }
}

/// Counts of a checked pass's verdicts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdicts {
    pub accepted: u64,
    pub other: u64,
}

impl Verdicts {
    pub fn add(&mut self, d: adapter::Delivery) {
        if d == adapter::Delivery::Accepted {
            self.accepted += 1;
        } else {
            self.other += 1;
        }
    }

    pub fn accept_ratio(&self) -> f64 {
        self.accepted as f64 / (self.accepted + self.other).max(1) as f64
    }
}

/// The whole honest pipeline re-driven once, with every report also pushed
/// through the checked ingestion ladder on a second server. Returns the
/// re-drive (trusted estimates and counts), the checked estimates and the
/// checked verdicts.
pub fn honest_probe(
    params: ProtocolParams,
    population: &Population,
    seed: u64,
    tr: &mut Tracer,
) -> (Redrive, Vec<f64>, Verdicts) {
    let mut r = Redrive::build(params, population, seed, tr);
    let mut checked = tr.span("core.server.register_client", 0, || {
        adapter::checked_server(&params, &r.groups)
    });
    let mut checked_estimates = Vec::with_capacity(params.d() as usize);
    let mut verdicts = Verdicts::default();
    for t in 1..=params.d() {
        let period = r.emit(t, tr);
        tr.span("core.server.ingest_checked", t, || {
            r.for_each_report(t, |frame| {
                verdicts.add(adapter::ingest_checked(&mut checked, &frame))
            });
            checked_estimates.push(adapter::end_of_period(&mut checked, t));
        });
        r.close(period, tr);
    }
    (r, checked_estimates, verdicts)
}
