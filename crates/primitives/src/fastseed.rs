//! The client randomness generator: a counter-based, word-at-a-time
//! source of every client's zero-report signs.
//!
//! The protocol only requires each user's zero-slot reports to be
//! uniform ±1 draws from private randomness (Property III); *which*
//! generator produces them is an implementation degree of freedom. This
//! module's answer is a stateless, SplitMix64-keyed counter generator in
//! the spirit of Philox: [`word`]`(user_key, lane, counter)` yields 64
//! i.i.d. sign bits per call, so a span randomizer fills whole packed
//! sign words without materializing per-report state, and bit `j` of a
//! client's stream is a pure function of its key and `j` — sequential,
//! batched and live execution cannot drift apart.
//!
//! Order sampling and the pre-computed `b̃` vectors still come from each
//! client's hierarchical `StdRng` node; only the zero-report signs come
//! from here. The stream is frozen: a golden test over every engine
//! (`tests/equivalence.rs`) pins its outputs bit for bit. It was once
//! "schema v2" beside a per-report `StdRng` schema v1; v1 is gone, and
//! [`SeedSchema`] survives only so a stale `RTF_SEED_SCHEMA=v1` setting
//! fails loudly.

use crate::seeding::{splitmix64, SeedSequence};

/// The stream lane carrying a client's zero-report ±1 signs. Other
/// lanes are reserved for future per-client streams under the same key.
pub const SIGN_LANE: u64 = 0;

/// Domain-separation tweak for deriving a client's fast key from its
/// node in the seed hierarchy (see [`client_key`]).
const CLIENT_KEY_TWEAK: u64 = 0xFA57_5EED_C0DE_0001;

/// The client randomness schema. One variant: the counter stream of
/// this module ("v2"). Kept so `RTF_SEED_SCHEMA` settings and the
/// run metadata that names the schema keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SeedSchema {
    /// Zero-report signs from the counter generator [`word`].
    #[default]
    V2Fast,
}

impl SeedSchema {
    /// Reads the schema from the `RTF_SEED_SCHEMA` environment variable:
    /// unset, empty, `v2` or `fast` (any case) select
    /// [`SeedSchema::V2Fast`].
    ///
    /// # Panics
    /// Panics on any other value, so a stale script or CI setting naming
    /// the removed v1 schema never silently runs v2.
    pub fn from_env() -> Self {
        Self::from_setting(&std::env::var("RTF_SEED_SCHEMA").unwrap_or_default())
    }

    fn from_setting(value: &str) -> Self {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("v2") || v.eq_ignore_ascii_case("fast") {
            return SeedSchema::V2Fast;
        }
        panic!(
            "unsupported RTF_SEED_SCHEMA {value:?}: v2 (fast) is the only seed schema \
             (v1/std was removed)"
        )
    }
}

impl std::fmt::Display for SeedSchema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("v2")
    }
}

/// Derives a client's private fast-seed key from its node in the seed
/// hierarchy (`root.child(user)`). The key depends only on the user's
/// identity path — never on shard, worker count, or lane position — so
/// every execution mode derives the identical stream.
#[inline]
pub fn client_key(node: &SeedSequence) -> u64 {
    splitmix64(node.seed() ^ CLIENT_KEY_TWEAK)
}

/// The stateless counter generator: 64 uniform bits as a pure function
/// of `(user_key, lane, counter)`.
///
/// Philox in spirit — a keyed bijection of the counter, here built from
/// two SplitMix64 finalizer rounds with the key injected between them.
/// Each round has full avalanche, so consecutive counters (and adjacent
/// lanes) produce statistically independent words; the `fastseed` test
/// suite pins per-bit unbiasedness, cross-lane/counter independence,
/// and avalanche.
#[inline]
pub fn word(user_key: u64, lane: u64, counter: u64) -> u64 {
    let z = counter ^ user_key.rotate_left(17) ^ lane.wrapping_mul(0x9E6C_63D0_876A_68F5);
    splitmix64(splitmix64(z) ^ user_key)
}

/// Bit `index` of a client's [`SIGN_LANE`] stream: `true` ⇒ `+1`. The
/// packed-lane convention of the runtime's `SignLane` (bit 1 is plus),
/// so whole words from [`word`] drop straight into packed sign lanes.
#[inline]
pub fn sign_at(user_key: u64, index: u64) -> bool {
    (word(user_key, SIGN_LANE, index >> 6) >> (index & 63)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binomial bound: for `n` fair coin flips, `|ones − n/2|` exceeds
    /// `z·√n/2` with probability ≈ erfc(z/√2) — at z = 5 that is
    /// ~5.7e-7 per check, and every check below is deterministic.
    fn binomial_slack(n: u64) -> f64 {
        5.0 * (n as f64).sqrt() / 2.0
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(word(1, 2, 3), word(1, 2, 3));
        assert_ne!(word(1, 2, 3), word(2, 2, 3));
        assert_ne!(word(1, 2, 3), word(1, 3, 3));
        assert_ne!(word(1, 2, 3), word(1, 2, 4));
    }

    #[test]
    fn per_bit_unbiasedness_across_counters() {
        // One key, a long counter run: every bit position must be fair.
        let key = client_key(&SeedSequence::new(42).child(7));
        let n = 16_384u64;
        let mut ones = [0u64; 64];
        for c in 0..n {
            let w = word(key, SIGN_LANE, c);
            for (b, slot) in ones.iter_mut().enumerate() {
                *slot += (w >> b) & 1;
            }
        }
        let slack = binomial_slack(n);
        for (b, &count) in ones.iter().enumerate() {
            let dev = (count as f64 - n as f64 / 2.0).abs();
            assert!(dev <= slack, "bit {b}: {count}/{n} ones (dev {dev})");
        }
    }

    #[test]
    fn per_bit_unbiasedness_across_keys() {
        // Fixed counter, many keys (the cross-user direction).
        let root = SeedSequence::new(99);
        let n = 16_384u64;
        let mut ones = [0u64; 64];
        for u in 0..n {
            let w = word(client_key(&root.child(u)), SIGN_LANE, 5);
            for (b, slot) in ones.iter_mut().enumerate() {
                *slot += (w >> b) & 1;
            }
        }
        let slack = binomial_slack(n);
        for (b, &count) in ones.iter().enumerate() {
            let dev = (count as f64 - n as f64 / 2.0).abs();
            assert!(dev <= slack, "bit {b}: {count}/{n} ones (dev {dev})");
        }
    }

    #[test]
    fn lanes_are_independent_at_fixed_counter() {
        // Bitwise agreement between two lanes of the same key at the
        // same counter must be a fair coin — no cross-lane correlation.
        let root = SeedSequence::new(7);
        let trials = 1_024u64;
        for (la, lb) in [(0u64, 1u64), (0, 2), (1, 2)] {
            let mut agree = 0u64;
            for u in 0..trials {
                let key = client_key(&root.child(u));
                for c in 0..4 {
                    agree += (!(word(key, la, c) ^ word(key, lb, c))).count_ones() as u64;
                }
            }
            let n = trials * 4 * 64;
            let dev = (agree as f64 - n as f64 / 2.0).abs();
            assert!(
                dev <= binomial_slack(n),
                "lanes ({la},{lb}): {agree}/{n} agreements"
            );
        }
    }

    #[test]
    fn consecutive_counters_are_independent() {
        // Same key and lane, adjacent counters — the within-stream
        // direction a block cipher must also decorrelate.
        let key = client_key(&SeedSequence::new(3).child(0));
        let n_words = 8_192u64;
        let mut agree = 0u64;
        for c in 0..n_words {
            agree += (!(word(key, SIGN_LANE, c) ^ word(key, SIGN_LANE, c + 1))).count_ones() as u64;
        }
        let n = n_words * 64;
        let dev = (agree as f64 - n as f64 / 2.0).abs();
        assert!(dev <= binomial_slack(n), "{agree}/{n} agreements");
    }

    #[test]
    fn counter_avalanche() {
        // Flipping any single counter bit flips ~32 output bits on
        // average; a weak mix would leave low-order structure.
        let key = client_key(&SeedSequence::new(11).child(4));
        for bit in 0..64u32 {
            let mut total = 0u64;
            let trials = 256u64;
            for c in 0..trials {
                total += (word(key, SIGN_LANE, c) ^ word(key, SIGN_LANE, c ^ (1 << bit)))
                    .count_ones() as u64;
            }
            let mean = total as f64 / trials as f64;
            assert!(
                (mean - 32.0).abs() < 4.0,
                "counter bit {bit}: mean flip count {mean}"
            );
        }
    }

    #[test]
    fn sign_at_matches_word_bits() {
        let key = client_key(&SeedSequence::new(5).child(1));
        for j in 0..512u64 {
            let expect = (word(key, SIGN_LANE, j / 64) >> (j % 64)) & 1 == 1;
            assert_eq!(sign_at(key, j), expect, "index {j}");
        }
    }

    #[test]
    fn client_keys_are_identity_stable_and_distinct() {
        let root = SeedSequence::new(40);
        assert_eq!(client_key(&root.child(9)), client_key(&root.child(9)));
        let mut seen = std::collections::HashSet::new();
        for u in 0..10_000u64 {
            assert!(seen.insert(client_key(&root.child(u))), "collision at {u}");
        }
    }

    #[test]
    fn schema_parse_and_display() {
        for setting in ["", "  ", "v2", "V2", "fast", " FAST "] {
            assert_eq!(
                SeedSchema::from_setting(setting),
                SeedSchema::V2Fast,
                "{setting:?}"
            );
        }
        assert_eq!(SeedSchema::V2Fast.to_string(), "v2");
        assert_eq!(SeedSchema::default(), SeedSchema::V2Fast);
    }

    #[test]
    fn removed_schema_settings_fail_loudly() {
        for setting in ["v1", "std", "v3"] {
            let msg = std::panic::catch_unwind(|| SeedSchema::from_setting(setting))
                .unwrap_err()
                .downcast::<String>()
                .unwrap();
            assert!(msg.contains("v1/std was removed"), "{setting:?}: {msg}");
        }
    }
}
