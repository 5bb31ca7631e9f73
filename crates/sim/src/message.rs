//! Wire formats and communication accounting.
//!
//! Two message kinds cross the wire in the paper's protocol:
//!
//! * one [`OrderAnnouncement`] per user before period 1 (Algorithm 1,
//!   line 1);
//! * one [`ReportMsg`] per completed order-`h_u` interval (one payload
//!   *bit* each; the framing here is a compact fixed-width binary layout,
//!   and both the framed bytes and the information-theoretic payload bits
//!   are tracked).
//!
//! A frame is a fixed-width little-endian byte array; decoding reads a
//! byte slice, so a truncated copy is a shorter slice.

/// A wire frame that cannot be decoded: the typed, non-panicking verdict
/// of [`OrderAnnouncement::try_decode`] / [`ReportMsg::try_decode`].
///
/// The frame paths that carry untrusted (network/Byzantine) bytes route
/// through `try_decode` and classify this error — a malformed frame is
/// counted and skipped, never a panic. The panicking `decode` variants
/// remain for trusted columnar lanes whose bytes the pipeline itself
/// produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer holds fewer bytes than the fixed-width layout needs.
    Truncated {
        /// Bytes the layout requires.
        need: usize,
        /// Bytes the buffer actually held.
        got: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A user's one-time announcement of its sampled order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderAnnouncement {
    /// The user id.
    pub user: u32,
    /// The sampled order `h_u ∈ [0..log d]`.
    pub order: u8,
}

impl OrderAnnouncement {
    /// Encoded size in bytes (fixed-width layout).
    pub const WIRE_BYTES: usize = 5;

    /// Encodes into the compact fixed-width layout.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        let mut b = [0u8; Self::WIRE_BYTES];
        b[..4].copy_from_slice(&self.user.to_le_bytes());
        b[4] = self.order;
        b
    }

    /// Decodes from the compact layout.
    ///
    /// # Panics
    /// Panics if the buffer is shorter than [`Self::WIRE_BYTES`]. Only
    /// for trusted lanes; untrusted bytes go through [`Self::try_decode`].
    pub fn decode(buf: &[u8]) -> Self {
        Self::try_decode(buf).expect("trusted announcement frame")
    }

    /// Fallible decode for untrusted bytes: a short buffer is a typed
    /// [`DecodeError`], never a panic. Bytes past the layout are ignored.
    pub fn try_decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let b = fixed::<{ Self::WIRE_BYTES }>(buf)?;
        Ok(OrderAnnouncement {
            user: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            order: b[4],
        })
    }
}

/// One report: a single perturbed bit for the interval completing at `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportMsg {
    /// The reporting user.
    pub user: u32,
    /// The period at which the report is due.
    pub t: u32,
    /// The perturbed partial sum, `true` encoding `+1`.
    pub bit: bool,
}

impl ReportMsg {
    /// Encoded size in bytes (fixed-width layout).
    pub const WIRE_BYTES: usize = 9;

    /// The information-theoretic payload: a single bit.
    pub const PAYLOAD_BITS: u64 = 1;

    /// Encodes into the compact fixed-width layout.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        let mut b = [0u8; Self::WIRE_BYTES];
        b[..4].copy_from_slice(&self.user.to_le_bytes());
        b[4..8].copy_from_slice(&self.t.to_le_bytes());
        b[8] = u8::from(self.bit);
        b
    }

    /// Decodes from the compact layout.
    ///
    /// # Panics
    /// Panics if the buffer is shorter than [`Self::WIRE_BYTES`]. Only
    /// for trusted lanes; untrusted bytes go through [`Self::try_decode`].
    pub fn decode(buf: &[u8]) -> Self {
        Self::try_decode(buf).expect("trusted report frame")
    }

    /// Fallible decode for untrusted bytes: a short buffer is a typed
    /// [`DecodeError`], never a panic. Bytes past the layout are ignored.
    pub fn try_decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let b = fixed::<{ Self::WIRE_BYTES }>(buf)?;
        Ok(ReportMsg {
            user: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            t: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            bit: b[8] != 0,
        })
    }
}

/// The first `N` bytes of `buf`, or [`DecodeError::Truncated`] if it is
/// shorter.
fn fixed<const N: usize>(buf: &[u8]) -> Result<&[u8; N], DecodeError> {
    buf.get(..N)
        .and_then(|b| b.try_into().ok())
        .ok_or(DecodeError::Truncated {
            need: N,
            got: buf.len(),
        })
}

/// Running communication totals for one protocol execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Number of messages sent (announcements + reports).
    pub messages: u64,
    /// Total framed bytes on the wire.
    pub wire_bytes: u64,
    /// Total information-theoretic payload bits (1 per report).
    pub payload_bits: u64,
}

impl WireStats {
    /// Accounts for one announcement.
    pub fn record_announcement(&mut self) {
        self.messages += 1;
        self.wire_bytes += OrderAnnouncement::WIRE_BYTES as u64;
    }

    /// Accounts for one report.
    pub fn record_report(&mut self) {
        self.messages += 1;
        self.wire_bytes += ReportMsg::WIRE_BYTES as u64;
        self.payload_bits += ReportMsg::PAYLOAD_BITS;
    }

    /// Accounts for a columnar batch of `count` reports at once — the
    /// batched pipeline's equivalent of `count` `record_report` calls.
    pub fn record_report_batch(&mut self, count: u64) {
        self.messages += count;
        self.wire_bytes += count * ReportMsg::WIRE_BYTES as u64;
        self.payload_bits += count * ReportMsg::PAYLOAD_BITS;
    }

    /// Adds another shard's totals into `self` (exact integer merge).
    pub fn merge(&mut self, other: &WireStats) {
        self.messages += other.messages;
        self.wire_bytes += other.wire_bytes;
        self.payload_bits += other.payload_bits;
    }

    /// Average payload bits per user per period; `0.0` for an empty
    /// population or horizon (never NaN).
    pub fn bits_per_user_period(&self, n: usize, d: u64) -> f64 {
        if n == 0 || d == 0 {
            return 0.0;
        }
        self.payload_bits as f64 / (n as f64 * d as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announcement_round_trip() {
        let a = OrderAnnouncement {
            user: 12345,
            order: 7,
        };
        assert_eq!(OrderAnnouncement::decode(&a.encode()), a);
    }

    #[test]
    fn report_round_trip() {
        for bit in [false, true] {
            let r = ReportMsg {
                user: u32::MAX,
                t: 1,
                bit,
            };
            assert_eq!(ReportMsg::decode(&r.encode()), r);
        }
    }

    #[test]
    fn try_decode_rejects_short_buffers_typed() {
        // Every strict prefix of a valid encoding is a typed error, not
        // a panic — the untrusted frame path depends on it.
        let ann = OrderAnnouncement { user: 7, order: 3 }.encode();
        for cut in 0..OrderAnnouncement::WIRE_BYTES {
            let err = OrderAnnouncement::try_decode(&ann[..cut]).unwrap_err();
            assert_eq!(
                err,
                DecodeError::Truncated {
                    need: OrderAnnouncement::WIRE_BYTES,
                    got: cut,
                }
            );
        }
        let rep = ReportMsg {
            user: 9,
            t: 4,
            bit: true,
        }
        .encode();
        for cut in 0..ReportMsg::WIRE_BYTES {
            let err = ReportMsg::try_decode(&rep[..cut]).unwrap_err();
            assert_eq!(
                err,
                DecodeError::Truncated {
                    need: ReportMsg::WIRE_BYTES,
                    got: cut,
                }
            );
            assert!(err.to_string().contains("truncated"));
        }
        // Full buffers decode identically through both variants.
        assert_eq!(
            ReportMsg::try_decode(&rep).unwrap(),
            ReportMsg::decode(&rep)
        );
    }

    #[test]
    fn bits_per_user_period_is_zero_for_empty_denominators() {
        let mut s = WireStats::default();
        s.record_report_batch(10);
        // n = 0 or d = 0 used to produce NaN; the guard returns 0.0.
        assert_eq!(s.bits_per_user_period(0, 64), 0.0);
        assert_eq!(s.bits_per_user_period(100, 0), 0.0);
        assert_eq!(s.bits_per_user_period(0, 0), 0.0);
        assert!((s.bits_per_user_period(10, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wire_stats_accumulate() {
        let mut s = WireStats::default();
        s.record_announcement();
        s.record_report();
        s.record_report();
        assert_eq!(s.messages, 3);
        assert_eq!(
            s.wire_bytes,
            (OrderAnnouncement::WIRE_BYTES + 2 * ReportMsg::WIRE_BYTES) as u64
        );
        assert_eq!(s.payload_bits, 2);
        assert!((s.bits_per_user_period(1, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_accounting_matches_per_report() {
        let mut per_report = WireStats::default();
        for _ in 0..17 {
            per_report.record_report();
        }
        let mut batched = WireStats::default();
        batched.record_report_batch(17);
        assert_eq!(per_report, batched);

        // Shard merge: two halves equal the whole.
        let mut a = WireStats::default();
        a.record_announcement();
        a.record_report_batch(5);
        let mut b = WireStats::default();
        b.record_report_batch(12);
        let mut merged = a;
        merged.merge(&b);
        let mut whole = WireStats::default();
        whole.record_announcement();
        whole.record_report_batch(17);
        assert_eq!(merged, whole);
    }

    #[test]
    fn report_debug_names_its_fields() {
        let r = ReportMsg {
            user: 3,
            t: 9,
            bit: true,
        };
        assert_eq!(format!("{r:?}"), "ReportMsg { user: 3, t: 9, bit: true }");
    }
}
