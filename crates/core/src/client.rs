//! Algorithm 1 — the client `Aclt`.
//!
//! The client samples an order `h_u` uniformly from `[0..log d]`, announces
//! it, and then observes its own derivative value `X_u[t]` at each period.
//! Whenever `2^{h_u} | t`, the order-`h_u` dyadic interval ending at `t`
//! has completed; the client computes its partial sum (the running total of
//! derivative values since the previous boundary, always in `{−1,0,1}` by
//! Observation 3.7), perturbs it with the sequence randomizer `M`, and
//! reports the single resulting bit.
//!
//! [`Clients`] is the reference schedule of the whole population: one
//! [`Client`] per user, built from the user's seed node and stepped one
//! period at a time in ascending user order.

use crate::params::ProtocolParams;
use crate::randomizer::LocalRandomizer;
use rand::rngs::StdRng;
use rand::Rng;
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::{Sign, Ternary};
use rtf_streams::population::Population;
use rtf_streams::stream::DerivativeCursor;

/// One report bit, produced when an order-`h_u` interval completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReport {
    /// The period at which the report was emitted (`t = j · 2^{h_u}`).
    pub t: u64,
    /// The 1-based index `j` of the completed interval at the client's
    /// order.
    pub j: u64,
    /// The perturbed partial sum `ω_u[j] = M^{(j)}(S_u(I_{h,j}))`.
    pub bit: Sign,
}

/// The client-side state machine of Algorithm 1, generic over the sequence
/// randomizer `M`.
#[derive(Debug, Clone)]
pub struct Client<M: LocalRandomizer> {
    h: u32,
    stride: u64,
    d: u64,
    randomizer: M,
    /// Running partial sum of the currently open interval. Always in
    /// `[−1, 1]` for valid Boolean-derivative inputs.
    running: i32,
    /// The last period observed (for in-order delivery checking).
    last_t: u64,
}

impl<M: LocalRandomizer> Client<M> {
    /// Creates a client that sampled order `h` and owns randomizer `m`
    /// (already initialised for `L = d/2^h`).
    ///
    /// # Panics
    /// Panics if the randomizer's declared length disagrees with
    /// `d / 2^h`, or `h > log d`.
    pub fn new(params: &ProtocolParams, h: u32, randomizer: M) -> Self {
        assert!(
            h <= params.log_d(),
            "order {h} exceeds log d = {}",
            params.log_d()
        );
        let expected_l = params.sequence_len(h);
        assert_eq!(
            randomizer.sequence_len(),
            expected_l,
            "randomizer initialised for L = {} but order {h} needs L = {expected_l}",
            randomizer.sequence_len()
        );
        Client {
            h,
            stride: 1u64 << h,
            d: params.d(),
            randomizer,
            running: 0,
            last_t: 0,
        }
    }

    /// Samples the order `h_u` uniformly from `[0..log d]` (Algorithm 1,
    /// line 1).
    pub fn sample_order<R: Rng + ?Sized>(params: &ProtocolParams, rng: &mut R) -> u32 {
        rng.random_range(0..params.num_orders())
    }

    /// The announced order `h_u`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.h
    }

    /// The sequence randomizer (e.g. to inspect `c_gap`).
    #[inline]
    pub fn randomizer(&self) -> &M {
        &self.randomizer
    }

    /// Observes the derivative value `X_u[t]` for period `t`; returns a
    /// report iff an order-`h_u` interval completes at `t`.
    ///
    /// # Panics
    /// Panics if periods are delivered out of order, beyond the horizon, or
    /// if the running partial sum leaves `{−1,0,1}` (which means the input
    /// is not the derivative of a Boolean stream).
    pub fn observe(&mut self, t: u64, x: Ternary) -> Option<ClientReport> {
        assert_eq!(
            t,
            self.last_t + 1,
            "periods must arrive in order: expected {}, got {t}",
            self.last_t + 1
        );
        assert!(t <= self.d, "period {t} beyond horizon d = {}", self.d);
        self.last_t = t;
        self.running += i32::from(x.value());
        assert!(
            (-1..=1).contains(&self.running),
            "running partial sum {} escaped {{−1,0,1}}: input is not a Boolean derivative",
            self.running
        );
        if t % self.stride != 0 {
            return None;
        }
        let j = t / self.stride;
        let s = Ternary::from_i8(self.running as i8);
        self.running = 0;
        let bit = self.randomizer.next(s);
        Some(ClientReport { t, j, bit })
    }

    /// Total number of reports this client will send over the horizon,
    /// `L = d / 2^{h_u}` — the communication cost in bits.
    pub fn total_reports(&self) -> u64 {
        self.d / self.stride
    }
}

/// The reference client schedule of Algorithm 1 over a whole
/// population: user `u`'s [`Client`] is built from its seed node
/// `SeedSequence(seed).child(u)`, and [`step`](Self::step) advances
/// every client one period, in ascending user order, each reading its
/// own derivative from a [`DerivativeCursor`].
///
/// Every per-report reference path runs this schedule: the trusted
/// in-memory drivers ([`run_clients`](crate::protocol::run_clients))
/// and the sequential and live message engines. The batched engines
/// build the same clients as packed lanes instead
/// (`rtf_sim::engine::build_order_groups`) and draw the same bits.
pub struct Clients<'a, M: LocalRandomizer> {
    clients: Vec<Client<M>>,
    cursors: Vec<DerivativeCursor<'a>>,
}

impl<'a, M: LocalRandomizer> Clients<'a, M> {
    /// Builds every user's client in ascending user order. Each seed
    /// node's generator draws the order `h_u` first; then
    /// `make(h_u, node, generator)` builds the randomizer for
    /// `L = d/2^{h_u}`, drawing what it needs from the same generator
    /// (a randomizer that draws per report keeps it).
    pub fn new<F>(
        params: &ProtocolParams,
        population: &'a Population,
        seed: u64,
        mut make: F,
    ) -> Self
    where
        F: FnMut(u32, &SeedSequence, StdRng) -> M,
    {
        let root = SeedSequence::new(seed);
        let n = params.n();
        let mut clients = Vec::with_capacity(n);
        let mut cursors = Vec::with_capacity(n);
        for u in 0..n {
            let node = root.child(u as u64);
            let mut rng = node.rng();
            let h = Client::<M>::sample_order(params, &mut rng);
            clients.push(Client::new(params, h, make(h, &node, rng)));
            cursors.push(population.stream(u).derivative().cursor());
        }
        Clients { clients, cursors }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// User `u`'s announced order `h_u`.
    pub fn order(&self, u: usize) -> u32 {
        self.clients[u].h
    }

    /// Advances every client through period `t`, in ascending user
    /// order: client `u` observes `X_u[t]`, and `visit(u, h_u, report)`
    /// receives its report if an order-`h_u` interval completes at `t`,
    /// `None` otherwise.
    ///
    /// # Panics
    /// Panics unless `t` is the next period, like [`Client::observe`].
    pub fn step(&mut self, t: u64, mut visit: impl FnMut(usize, u32, Option<ClientReport>)) {
        for (u, (client, cursor)) in self.clients.iter_mut().zip(&mut self.cursors).enumerate() {
            let report = client.observe(t, cursor.next_at(t));
            visit(u, client.h, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composed::ComposedRandomizer;
    use crate::randomizer::FutureRand;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rtf_streams::stream::BoolStream;

    fn params() -> ProtocolParams {
        ProtocolParams::new(100, 16, 3, 1.0, 0.05).unwrap()
    }

    fn make_client(p: &ProtocolParams, h: u32, seed: u64) -> Client<FutureRand> {
        let mut rng = StdRng::seed_from_u64(seed);
        let k_eff = p.k_for_order(h);
        let composed = ComposedRandomizer::for_protocol(k_eff, p.epsilon());
        let m = FutureRand::init(p.sequence_len(h), &composed, &mut rng);
        Client::new(p, h, m)
    }

    #[test]
    fn reports_exactly_at_multiples_of_stride() {
        let p = params();
        for h in 0..=p.log_d() {
            let mut c = make_client(&p, h, 42 + h as u64);
            let mut report_times = Vec::new();
            for t in 1..=p.d() {
                if let Some(r) = c.observe(t, Ternary::Zero) {
                    assert_eq!(r.t, t);
                    assert_eq!(r.j, t >> h);
                    report_times.push(t);
                }
            }
            let expect: Vec<u64> = (1..=p.d()).filter(|t| t % (1 << h) == 0).collect();
            assert_eq!(report_times, expect, "h = {h}");
            assert_eq!(c.total_reports(), expect.len() as u64);
        }
    }

    #[test]
    fn partial_sums_match_derivative_partial_sums() {
        // Drive the client with a real stream's derivative and check the
        // perturbed value is s·b̃ entries / uniform in the right slots by
        // verifying against the direct partial-sum computation: with k_eff
        // non-zero slots the FutureRand output for a non-zero s at the
        // nnz-th non-zero is s·b̃[nnz]; we reconstruct that here.
        let p = params();
        let h = 1u32;
        let stream = BoolStream::from_change_times(16, vec![3, 7, 12]);
        let x = stream.derivative();
        let mut c = make_client(&p, h, 7);
        let b_tilde = c.randomizer().b_tilde().to_vec();
        let mut nnz = 0usize;
        for t in 1..=16u64 {
            if let Some(r) = c.observe(t, x.at(t)) {
                let interval = rtf_dyadic::interval::DyadicInterval::new(h, r.j);
                let s = x.partial_sum(interval);
                if s.is_nonzero() {
                    assert_eq!(r.bit, s.mul_sign(b_tilde[nnz]), "t={t}");
                    nnz += 1;
                }
            }
        }
        assert!(nnz > 0, "test stream must produce non-zero partial sums");
    }

    #[test]
    fn clients_step_in_user_order_with_their_own_draws() {
        // Client u is built from seed node u alone, so the schedule's
        // reports equal a lone client's built from the same node, and
        // every period visits each user once, in ascending order.
        use rtf_streams::generator::UniformChanges;
        let p = params();
        let mut rng = SeedSequence::new(8).rng();
        let pop = Population::generate(&UniformChanges::new(p.d(), p.k(), 0.8), p.n(), &mut rng);
        let make = |h: u32, _: &SeedSequence, mut rng: StdRng| {
            let composed = ComposedRandomizer::for_protocol(p.k_for_order(h), p.epsilon());
            FutureRand::init(p.sequence_len(h), &composed, &mut rng)
        };
        let mut clients = Clients::new(&p, &pop, 31, make);
        let mut lone: Vec<Client<FutureRand>> = (0..p.n())
            .map(|u| {
                let mut rng = SeedSequence::new(31).child(u as u64).rng();
                let h = Client::<FutureRand>::sample_order(&p, &mut rng);
                Client::new(&p, h, make(h, &SeedSequence::new(0), rng))
            })
            .collect();
        assert_eq!(clients.len(), p.n());
        for t in 1..=p.d() {
            let mut next = 0;
            clients.step(t, |u, h, report| {
                assert_eq!(u, next, "ascending user order");
                next += 1;
                assert_eq!(h, lone[u].order());
                let x = pop.stream(u).derivative().at(t);
                assert_eq!(report, lone[u].observe(t, x), "user {u}, t = {t}");
            });
            assert_eq!(next, p.n());
        }
    }

    #[test]
    fn order_sampling_is_uniform() {
        let p = params(); // log d = 4 ⇒ 5 orders
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 50_000;
        let mut counts = vec![0usize; p.num_orders() as usize];
        for _ in 0..trials {
            counts[Client::<FutureRand>::sample_order(&p, &mut rng) as usize] += 1;
        }
        let expect = trials as f64 / p.num_orders() as f64;
        for (h, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "order {h}: {c} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "periods must arrive in order")]
    fn out_of_order_periods_rejected() {
        let p = params();
        let mut c = make_client(&p, 0, 4);
        let _ = c.observe(1, Ternary::Zero);
        let _ = c.observe(3, Ternary::Zero);
    }

    #[test]
    #[should_panic(expected = "not a Boolean derivative")]
    fn invalid_derivative_rejected() {
        let p = params();
        let mut c = make_client(&p, 2, 5);
        // Two +1s without a −1 in between: running sum would hit 2.
        let _ = c.observe(1, Ternary::Plus);
        let _ = c.observe(2, Ternary::Plus);
    }

    #[test]
    #[should_panic(expected = "randomizer initialised for L")]
    fn mismatched_randomizer_length_rejected() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(6);
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let m = FutureRand::init(4, &composed, &mut rng); // wrong L for h=0
        let _ = Client::new(&p, 0, m);
    }
}
