//! Property-based tests for the core randomizer mathematics and the
//! server's checked ingestion ladder.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtf_core::annulus::Annulus;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::gap::WeightClassLaw;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::{FutureRand, IndependentRand, LocalRandomizer};
use rtf_core::server::{CheckedTally, Delivery, PeriodDelivery, Server};
use rtf_core::snapshot::{SnapReader, SnapWriter};
use rtf_primitives::sign::{Sign, Ternary};
use std::collections::BTreeMap;

proptest! {
    /// The annulus always satisfies 0 ≤ LB ≤ UB < k, and inside/outside
    /// partition [0..k].
    #[test]
    fn annulus_invariants(k in 1usize..5_000, eps in 0.01f64..1.0) {
        let et = eps / (5.0 * (k as f64).sqrt());
        let ann = Annulus::for_parameters(k, et);
        prop_assert!(ann.lb() <= ann.ub());
        prop_assert!(ann.ub() < k);
        let total = ann.inside().count() + ann.outside().count();
        prop_assert_eq!(total, k + 1);
        prop_assert_eq!(ann.outside_len(), ann.outside().count());
    }

    /// Lemma 5.2 as a property: realized ε ≤ ε over arbitrary (k, ε).
    #[test]
    fn lemma_5_2_privacy(k in 1usize..3_000, eps in 0.01f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        prop_assert!(law.realized_epsilon() <= eps + 1e-9,
            "k={} eps={}: realized {}", k, eps, law.realized_epsilon());
    }

    /// The law is a probability distribution and its gap is in (0, 1).
    #[test]
    fn law_is_distribution(k in 1usize..2_000, eps in 0.01f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        prop_assert!((law.total_probability() - 1.0).abs() < 1e-8);
        prop_assert!(law.c_gap() > 0.0 && law.c_gap() < 1.0);
    }

    /// Lemma 5.3's scaling as a property: c_gap·√k/ε stays in a fixed
    /// band across all (k, ε).
    #[test]
    fn lemma_5_3_gap_band(k in 1usize..3_000, eps in 0.05f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        let normalized = law.c_gap() * (k as f64).sqrt() / eps;
        prop_assert!((0.05..=0.12).contains(&normalized),
            "k={} eps={}: normalized gap {}", k, eps, normalized);
    }

    /// P*_out ≤ 2^{-k} ≤ g(UB) (Inequalities 20/22), with integer bounds.
    #[test]
    fn p_star_out_inequalities(k in 1usize..2_000, eps in 0.05f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        let neg_k_ln2 = -(k as f64) * 2f64.ln();
        prop_assert!(law.ln_p_star_out() <= neg_k_ln2 + 1e-9);
        prop_assert!(law.ln_g(law.annulus().ub()) >= neg_k_ln2 - 1e-9);
    }

    /// The composed randomizer emits ±1 vectors of the right length whose
    /// Hamming distance matches a legal weight class.
    #[test]
    fn composed_output_wellformed(k in 1usize..64, seed in 0u64..200, input_bits in 0u64..u64::MAX) {
        let r = ComposedRandomizer::for_protocol(k, 1.0);
        let b: Vec<Sign> = (0..k)
            .map(|i| if (input_bits >> (i % 64)) & 1 == 1 { Sign::Plus } else { Sign::Minus })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = r.randomize(&b, &mut rng);
        prop_assert_eq!(out.len(), k);
        let w = b.iter().zip(&out).filter(|(x, y)| x != y).count();
        prop_assert!(w <= k);
    }

    /// FutureRand accounting: positions advance, nnz counts non-zeros,
    /// and outputs on zero inputs never consume b̃.
    #[test]
    fn futurerand_accounting(
        k in 1usize..8,
        inputs in prop::collection::vec(-1i8..=1, 1..24),
        seed in 0u64..200,
    ) {
        let l = inputs.len();
        let composed = ComposedRandomizer::for_protocol(k, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = FutureRand::init(l, &composed, &mut rng);
        let mut fed_nonzero = 0usize;
        let mut accepted = 0usize;
        for &v in &inputs {
            let t = Ternary::from_i8(v);
            match m.try_next(t) {
                Ok(_) => {
                    accepted += 1;
                    if t.is_nonzero() { fed_nonzero += 1; }
                    prop_assert_eq!(m.position(), accepted);
                    prop_assert_eq!(m.nnz(), fed_nonzero);
                }
                Err(e) => {
                    // Only the sparsity violation can occur mid-sequence
                    // (l matches the input length, so exhaustion cannot).
                    prop_assert!(t.is_nonzero());
                    prop_assert_eq!(
                        e,
                        rtf_core::randomizer::RandomizerError::TooManyNonZeros { k }
                    );
                    prop_assert_eq!(m.nnz(), k);
                }
            }
        }
    }

    /// IndependentRand's gap formula.
    #[test]
    fn independent_gap(k in 1usize..500, eps in 0.01f64..=1.0) {
        let m = IndependentRand::new(10, k, eps, StdRng::seed_from_u64(0));
        let expect = (eps / k as f64 / 2.0).tanh();
        prop_assert!((m.c_gap() - expect).abs() < 1e-12);
    }

    /// Parameter validation never accepts garbage, and always accepts
    /// well-formed inputs.
    #[test]
    fn params_validation(
        n in 1usize..1_000_000,
        log_d in 0u32..20,
        k_frac in 0.0f64..=1.0,
        eps in 0.001f64..=1.0,
        beta in 0.0001f64..0.9999,
    ) {
        let d = 1u64 << log_d;
        let k = ((d as f64 * k_frac) as usize).max(1);
        let p = ProtocolParams::new(n, d, k, eps, beta);
        prop_assert!(p.is_ok(), "rejected valid params n={n} d={d} k={k}");
        let p = p.unwrap();
        // Derived quantities are internally consistent.
        prop_assert_eq!(p.num_orders(), log_d + 1);
        for h in 0..=log_d {
            prop_assert!(p.k_for_order(h) >= 1);
            prop_assert!(p.k_for_order(h) <= k.max(1));
            prop_assert_eq!(p.sequence_len(h) as u64, d >> h);
        }
        // Invalid mutations are rejected.
        prop_assert!(ProtocolParams::new(n, d + 1, k, eps, beta).is_err() || (d + 1).is_power_of_two());
        prop_assert!(ProtocolParams::new(n, d, k, eps + 1.0, beta).is_err());
    }

    /// Estimator unbiasedness within the paper's variance bound, across
    /// randomly drawn valid parameter sets: over repeated protocol runs
    /// the mean of `â[t]` stays within a `z·√(Var_bound/T)` confidence
    /// band of the truth at every period, where
    /// `Var[â[t]] ≤ n·Σ_{h ∈ C(t)} scale(h)²/(1 + log d)` with
    /// `scale(h) = (1 + log d)/c_gap(h)` — the exact second-moment bound
    /// behind Lemma 4.6.
    #[test]
    fn estimator_unbiased_within_variance_bound(
        n in 60usize..220,
        log_d in 3u32..=4,
        k in 1usize..=4,
        eps in 0.4f64..=1.0,
        pop_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        use rtf_core::protocol::run_in_memory;
        use rtf_primitives::seeding::SeedSequence;
        use rtf_streams::generator::UniformChanges;
        use rtf_streams::population::Population;

        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
        let mut rng = SeedSequence::new(pop_seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);

        // Per-period variance bound from the per-order scales.
        let orders_f = 1.0 + f64::from(params.log_d());
        let scales: Vec<f64> = (0..params.num_orders())
            .map(|h| orders_f / WeightClassLaw::for_protocol(params.k_for_order(h), eps).c_gap())
            .collect();
        let var_bound: Vec<f64> = (1..=d)
            .map(|t| {
                let sum: f64 = scales
                    .iter()
                    .enumerate()
                    .filter(|(h, _)| t & (1u64 << h) != 0)
                    .map(|(_, s)| s * s)
                    .sum();
                n as f64 * sum / orders_f
            })
            .collect();

        let trials = 40u64;
        let table = ComposedRandomizer::per_order(&params);
        let mut mean = vec![0.0f64; d as usize];
        for s in 0..trials {
            let o = run_in_memory(&params, &pop, 100_000 + run_seed * trials + s, &table);
            for (slot, e) in mean.iter_mut().zip(o.estimates()) {
                *slot += e / trials as f64;
            }
        }
        for (t, ((m, truth), vb)) in mean
            .iter()
            .zip(pop.true_counts())
            .zip(&var_bound)
            .enumerate()
        {
            let band = 5.0 * (vb / trials as f64).sqrt();
            prop_assert!(
                (m - truth).abs() <= band,
                "t={}: mean {} vs truth {} escapes ±{} ({})",
                t + 1, m, truth, band, params
            );
        }
    }

    /// The batched span randomizer is bit-for-bit the per-report
    /// randomizer: over random lane counts (past one 64-lane word),
    /// sequence lengths (across several 64-span counter blocks),
    /// sparsity budgets (small, and around the 64-coordinate line where
    /// `b̃` stops being one Floyd bitmask and the hash-set Floyd takes
    /// over), privacy levels and k-sparse ternary inputs, every lane
    /// makes the `b̃` draws `FutureRand::init_keyed` makes and every
    /// emitted sign matches `FutureRand::next` draw for draw.
    #[test]
    fn span_randomizers_match_future_rand_bit_for_bit(
        lanes in 1usize..150,
        l in 1usize..=200,
        k in (0usize..9).prop_map(|i| [1, 2, 3, 4, 5, 63, 64, 65, 70][i]),
        eps in 0.05f64..=1.0,
        seed in 0u64..1_000_000,
        density in 0.0f64..=0.5,
    ) {
        use rtf_core::randomizer::SpanRandomizers;

        // k-sparse ternary inputs per lane at the drawn density.
        let mut data = StdRng::seed_from_u64(!seed);
        let mut nnz = vec![0usize; lanes];
        let mut inputs: Vec<Vec<Ternary>> = vec![Vec::with_capacity(l); lanes];
        for _ in 0..l {
            for (i, lane_nnz) in nnz.iter_mut().enumerate() {
                let x = if *lane_nnz >= k || !data.random_bool(density) {
                    Ternary::Zero
                } else {
                    *lane_nnz += 1;
                    if data.random_bool(0.5) { Ternary::Plus } else { Ternary::Minus }
                };
                inputs[i].push(x);
            }
        }

        let composed = ComposedRandomizer::for_protocol(k, eps);
        let mut spans = SpanRandomizers::new(l, &composed);
        let mut ms = Vec::with_capacity(lanes);
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, lane) in inputs.iter().enumerate() {
            let init_rng =
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let key = rng.random::<u64>();
            let sums: Vec<(u32, Sign)> = lane
                .iter()
                .enumerate()
                .filter_map(|(t, x)| x.sign().map(|v| (t as u32, v)))
                .collect();
            let (mut lane_rng, mut client_rng) = (init_rng.clone(), init_rng);
            spans.draw_lane(&composed, &mut lane_rng, key, &sums);
            ms.push(FutureRand::init_keyed(l, &composed, &mut client_rng, key));
            prop_assert_eq!(lane_rng.random::<u64>(), client_rng.random::<u64>());
        }

        // t-major / lane-minor: the exact emission order of the span
        // drivers, so index loops are the honest spelling here.
        let mut expect = Vec::with_capacity(lanes * l);
        #[allow(clippy::needless_range_loop)]
        for t in 0..l {
            for i in 0..lanes {
                expect.push(ms[i].next(inputs[i][t]));
            }
        }
        let mut got = Vec::with_capacity(lanes * l);
        for _ in 0..l {
            spans.fill_span(|bits, count| {
                got.extend((0..count).map(|off| Sign::from_bool((bits >> off) & 1 == 1)));
            });
        }
        prop_assert_eq!(got, expect);
    }
}

/// The checked ingestion ladder restated over a `BTreeMap` roster: the
/// reference the server's dense wire-id roster must match verdict for
/// verdict.
struct LadderModel {
    n: u64,
    d: u64,
    log_d: u32,
    /// Wire id → (announced order, last accepted boundary).
    roster: BTreeMap<u32, (u32, u64)>,
    group_sizes: Vec<u64>,
    current_t: u64,
    tally: PeriodDelivery,
    log: Vec<PeriodDelivery>,
    reports: u64,
}

impl LadderModel {
    fn new(params: &ProtocolParams) -> Self {
        LadderModel {
            n: params.n() as u64,
            d: params.d(),
            log_d: params.log_d(),
            roster: BTreeMap::new(),
            group_sizes: vec![0; params.num_orders() as usize],
            current_t: 0,
            tally: PeriodDelivery::default(),
            log: Vec::new(),
            reports: 0,
        }
    }

    fn register(&mut self, user: u32, h: u32) -> bool {
        if self.current_t != 0
            || h > self.log_d
            || u64::from(user) >= self.n
            || self.roster.contains_key(&user)
        {
            return false;
        }
        self.roster.insert(user, (h, 0));
        self.group_sizes[h as usize] += 1;
        true
    }

    fn ingest(&mut self, user: u32, t: u64, floor: u64) -> Delivery {
        let verdict = match self.roster.get(&user) {
            None => Delivery::UnknownUser,
            Some(&(h, _)) if t == 0 || t > self.d || t % (1u64 << h) != 0 => {
                Delivery::InvalidPeriod
            }
            Some(&(_, last)) if t == last.max(floor) => Delivery::Duplicate,
            Some(_) if t <= self.current_t => Delivery::Late,
            Some(_) if t != self.current_t + 1 => Delivery::Premature,
            Some(_) => Delivery::Accepted,
        };
        let row = &mut self.tally;
        match verdict {
            Delivery::Accepted => {
                self.roster.get_mut(&user).expect("registered").1 = t;
                self.reports += 1;
                row.accepted += 1;
            }
            Delivery::Duplicate => row.duplicate += 1,
            Delivery::Late => row.late += 1,
            Delivery::UnknownUser => row.unknown_user += 1,
            Delivery::InvalidPeriod => row.invalid_period += 1,
            Delivery::Premature => row.premature += 1,
        }
        verdict
    }

    fn close(&mut self) {
        let t = self.current_t + 1;
        if !self.roster.is_empty() {
            let mut row = std::mem::take(&mut self.tally);
            row.t = t;
            row.due = (0..=t.trailing_zeros().min(self.log_d))
                .map(|h| self.group_sizes[h as usize])
                .sum();
            self.log.push(row);
        }
        self.current_t = t;
    }
}

fn snapshot_bytes(server: &Server) -> Vec<u8> {
    let mut w = SnapWriter::new();
    server.write_snapshot(&mut w);
    w.finish()
}

proptest! {
    /// The server's one-slot checked ladder (`ingest_checked`) against
    /// [`LadderModel`] over random registrations (gappy ids, repeats,
    /// ids ≥ n, orders above log d, registrations after period 1) and
    /// random frames (unknown, off-stride, duplicate, late, premature and
    /// on-time): equal verdicts, delivery rows and report counts, and
    /// every snapshot → restore → re-snapshot byte-identical, with the
    /// restored server carrying on. Acceptance floors are exercised by
    /// `sharded_ladder_matches_btreemap_model`.
    #[test]
    fn checked_ladder_matches_btreemap_model(
        n in 1usize..64,
        log_d in 0u32..5,
        regs in prop::collection::vec((0u32..80, 0u32..7), 0..60),
        ops in prop::collection::vec((0u8..20, 0u32..80, 0u8..8, 0u64..1_000), 0..300),
    ) {
        let params = ProtocolParams::new(n, 1 << log_d, 1, 1.0, 0.05).unwrap();
        let mut server = Server::new(params, &vec![1.0; params.num_orders() as usize]);
        let mut model = LadderModel::new(&params);
        for &(user, h) in &regs {
            prop_assert_eq!(server.register_client(user, h), model.register(user, h));
        }
        for &(kind, raw_user, t_kind, raw) in &ops {
            let now = model.current_t;
            match kind {
                0..=16 => {
                    // Three frames in four come from a registered sender.
                    let known = model.roster.len();
                    let user = if raw_user % 4 == 0 || known == 0 {
                        raw_user
                    } else {
                        *model.roster.keys().nth(raw_user as usize % known).unwrap()
                    };
                    let (order, last) = model.roster.get(&user).copied().unwrap_or((0, 0));
                    let stride = 1u64 << order;
                    let t = match t_kind {
                        0 | 1 => now + 1,
                        2 => now,
                        3 => now + 2,
                        4 => raw % (model.d + 3),
                        5 => last,
                        _ => (now / stride + 1) * stride,
                    };
                    let bit = if raw % 2 == 0 { Sign::Plus } else { Sign::Minus };
                    prop_assert_eq!(
                        server.ingest_checked(user, t, bit),
                        model.ingest(user, t, 0),
                        "user {} t {} at period {}", user, t, now + 1
                    );
                }
                17 => {
                    let h = (raw % 7) as u32;
                    prop_assert_eq!(
                        server.register_client(raw_user, h),
                        model.register(raw_user, h)
                    );
                }
                18 if now < model.d => {
                    let _ = server.end_of_period(now + 1);
                    model.close();
                    prop_assert_eq!(server.delivery_log(), &model.log[..]);
                }
                19 => {
                    let bytes = snapshot_bytes(&server);
                    let mut r = SnapReader::new(&bytes).unwrap();
                    let back = Server::read_snapshot(&mut r).unwrap();
                    r.finish().unwrap();
                    prop_assert_eq!(snapshot_bytes(&back), bytes, "re-snapshot differs");
                    server = back;
                }
                _ => {}
            }
            prop_assert_eq!(server.reports_ingested(), model.reports);
        }
        while model.current_t < model.d {
            let _ = server.end_of_period(model.current_t + 1);
            model.close();
        }
        prop_assert_eq!(server.delivery_log(), &model.log[..]);
        prop_assert_eq!(server.reports_ingested(), model.reports);
        let sizes: Vec<u64> = server.group_sizes().iter().map(|&g| g as u64).collect();
        prop_assert_eq!(sizes, model.group_sizes);
    }

    /// The sharded ladder against [`LadderModel`]: the generators of
    /// `checked_ladder_matches_btreemap_model` with random acceptance
    /// floors, over a random split of `0..n` into 1–4 contiguous roster
    /// shards (empty ones allowed). Each frame goes to its owner's
    /// `classify`, an id ≥ n to a random shard, and each close absorbs
    /// the tallies in shard order. Verdicts, delivery rows, report counts
    /// and group sizes equal the model's; snapshot bytes equal those of
    /// an unsharded twin (one shard over `0..n`, same floors), and every
    /// snapshot → restore → re-snapshot is byte-identical.
    #[test]
    fn sharded_ladder_matches_btreemap_model(
        n in 1usize..64,
        log_d in 0u32..5,
        regs in prop::collection::vec((0u32..80, 0u32..7), 0..60),
        ops in prop::collection::vec((0u8..20, 0u32..80, 0u8..8, 0u64..1_000), 0..300),
        cuts in prop::collection::vec(0usize..64, 0..4),
    ) {
        let params = ProtocolParams::new(n, 1 << log_d, 1, 1.0, 0.05).unwrap();
        let orders = params.num_orders() as usize;
        let gaps = vec![1.0; orders];
        let mut ends: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        ends.sort_unstable();
        ends.push(n);
        let mut sharded = Server::new(params, &gaps);
        let mut whole = Server::new(params, &gaps);
        let mut model = LadderModel::new(&params);
        let mut tallies = vec![CheckedTally::new(orders); ends.len()];
        let mut whole_tally = vec![CheckedTally::new(orders)];
        for &(user, h) in &regs {
            let expect = model.register(user, h);
            prop_assert_eq!(sharded.register_client(user, h), expect);
            prop_assert_eq!(whole.register_client(user, h), expect);
        }
        for &(kind, raw_user, t_kind, raw) in &ops {
            let now = model.current_t;
            match kind {
                0..=16 => {
                    let known = model.roster.len();
                    let user = if raw_user % 4 == 0 || known == 0 {
                        raw_user
                    } else {
                        *model.roster.keys().nth(raw_user as usize % known).unwrap()
                    };
                    let (order, last) = model.roster.get(&user).copied().unwrap_or((0, 0));
                    let stride = 1u64 << order;
                    let t = match t_kind {
                        0 | 1 => now + 1,
                        2 => now,
                        3 => now + 2,
                        4 => raw % (model.d + 3),
                        5 => last,
                        _ => (now / stride + 1) * stride,
                    };
                    let floor = if raw % 3 == 0 { 0 } else { raw % (now + 2) };
                    let bit = if raw % 2 == 0 { Sign::Plus } else { Sign::Minus };
                    let r = match ends.iter().position(|&end| (user as usize) < end) {
                        Some(owner) => owner,
                        None => raw as usize % ends.len(),
                    };
                    let mut shards = sharded.roster_shards(&ends);
                    let got = shards[r].classify(user, t, bit, floor, now, &mut tallies[r]);
                    let mut one = whole.roster_shards(&[n]);
                    let twin = one[0].classify(user, t, bit, floor, now, &mut whole_tally[0]);
                    let expect = model.ingest(user, t, floor);
                    prop_assert_eq!(
                        got, expect,
                        "user {} t {} floor {} at period {} on shard {}",
                        user, t, floor, now + 1, r
                    );
                    prop_assert_eq!(twin, expect);
                }
                17 => {
                    let h = (raw % 7) as u32;
                    let expect = model.register(raw_user, h);
                    prop_assert_eq!(sharded.register_client(raw_user, h), expect);
                    prop_assert_eq!(whole.register_client(raw_user, h), expect);
                }
                18 if now < model.d => {
                    absorb(&mut sharded, &mut tallies);
                    absorb(&mut whole, &mut whole_tally);
                    let _ = sharded.end_of_period(now + 1);
                    let _ = whole.end_of_period(now + 1);
                    model.close();
                    prop_assert_eq!(sharded.delivery_log(), &model.log[..]);
                    prop_assert_eq!(whole.delivery_log(), &model.log[..]);
                }
                19 => {
                    // Absorbing mid-period is exact too: later tallies of
                    // the same period add to the same open row.
                    absorb(&mut sharded, &mut tallies);
                    absorb(&mut whole, &mut whole_tally);
                    let bytes = snapshot_bytes(&sharded);
                    prop_assert_eq!(&bytes, &snapshot_bytes(&whole));
                    let mut r = SnapReader::new(&bytes).unwrap();
                    let back = Server::read_snapshot(&mut r).unwrap();
                    r.finish().unwrap();
                    prop_assert_eq!(snapshot_bytes(&back), bytes, "re-snapshot differs");
                    sharded = back;
                }
                _ => {}
            }
            let pending: u64 = tallies.iter().map(|t| t.delivery.accepted).sum();
            prop_assert_eq!(sharded.reports_ingested() + pending, model.reports);
        }
        while model.current_t < model.d {
            absorb(&mut sharded, &mut tallies);
            absorb(&mut whole, &mut whole_tally);
            let _ = sharded.end_of_period(model.current_t + 1);
            let _ = whole.end_of_period(model.current_t + 1);
            model.close();
        }
        prop_assert_eq!(sharded.delivery_log(), &model.log[..]);
        prop_assert_eq!(sharded.reports_ingested(), model.reports);
        let sizes: Vec<u64> = sharded.group_sizes().iter().map(|&g| g as u64).collect();
        prop_assert_eq!(sizes, model.group_sizes);
        prop_assert_eq!(snapshot_bytes(&sharded), snapshot_bytes(&whole));
    }
}

/// Absorbs every tally into `server` in shard order and empties it.
fn absorb(server: &mut Server, tallies: &mut [CheckedTally]) {
    for tally in tallies {
        server.absorb_checked(tally);
        *tally = CheckedTally::new(tally.signs.len());
    }
}
