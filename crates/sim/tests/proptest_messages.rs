//! Property tests for the wire formats and their accounting.
//!
//! Two invariants the whole communication-cost story rests on:
//!
//! * every message round-trips through its compact framing losslessly,
//!   at exactly the declared `WIRE_BYTES`;
//! * `WireStats` byte totals are *exactly* the sum of the encoded frame
//!   lengths of the recorded messages (no hidden framing, no drift
//!   between the accounting and the bytes).

use proptest::prelude::*;
use rtf_sim::message::{OrderAnnouncement, ReportMsg, WireStats};

proptest! {
    /// `OrderAnnouncement` encode→decode is the identity over the full
    /// field space, and the frame is exactly `WIRE_BYTES` long.
    #[test]
    fn announcement_roundtrip(user in 0u32..=u32::MAX, order in 0u8..=u8::MAX) {
        let a = OrderAnnouncement { user, order };
        let frame = a.encode();
        prop_assert_eq!(frame.len(), OrderAnnouncement::WIRE_BYTES);
        prop_assert_eq!(OrderAnnouncement::decode(&frame), a);
    }

    /// `ReportMsg` encode→decode is the identity over the full field
    /// space, and the frame is exactly `WIRE_BYTES` long.
    #[test]
    fn report_roundtrip(user in 0u32..=u32::MAX, t in 0u32..=u32::MAX, bit_raw in 0u8..2) {
        let r = ReportMsg { user, t, bit: bit_raw == 1 };
        let frame = r.encode();
        prop_assert_eq!(frame.len(), ReportMsg::WIRE_BYTES);
        prop_assert_eq!(ReportMsg::decode(&frame), r);
    }

    /// Decoding ignores trailing bytes beyond the fixed-width frame — the
    /// property that lets a receiver carve messages out of a larger
    /// buffer.
    #[test]
    fn decode_reads_exactly_the_frame(user in 0u32..=u32::MAX, t in 1u32..=u32::MAX, junk in 0u64..=u64::MAX) {
        let r = ReportMsg { user, t, bit: true };
        let mut buf = r.encode().to_vec();
        buf.extend_from_slice(&junk.to_le_bytes());
        prop_assert_eq!(ReportMsg::decode(&buf[..]), r);
    }

    /// `WireStats` totals equal the sum of the encoded frame lengths of
    /// the recorded message sequence, message-for-message, and payload
    /// bits count exactly the reports.
    #[test]
    fn wire_stats_equal_sum_of_frame_lengths(kinds in prop::collection::vec(0u8..2, 0..200)) {
        let mut stats = WireStats::default();
        let mut framed_bytes = 0u64;
        let mut reports = 0u64;
        for (i, &kind) in kinds.iter().enumerate() {
            if kind == 0 {
                let a = OrderAnnouncement { user: i as u32, order: (i % 11) as u8 };
                framed_bytes += a.encode().len() as u64;
                stats.record_announcement();
            } else {
                let r = ReportMsg { user: i as u32, t: (i + 1) as u32, bit: i % 2 == 0 };
                framed_bytes += r.encode().len() as u64;
                stats.record_report();
                reports += 1;
            }
        }
        prop_assert_eq!(stats.wire_bytes, framed_bytes);
        prop_assert_eq!(stats.messages, kinds.len() as u64);
        prop_assert_eq!(stats.payload_bits, reports * ReportMsg::PAYLOAD_BITS);
    }

    /// The per-user-per-period payload rate is linear in the recorded
    /// reports: exactly `reports / (n·d)` bits.
    #[test]
    fn bits_per_user_period_is_exact(reports in 0u64..10_000, n in 1usize..5_000, d in 1u64..2_048) {
        let mut stats = WireStats::default();
        for _ in 0..reports {
            stats.record_report();
        }
        let rate = stats.bits_per_user_period(n, d);
        let expect = reports as f64 / (n as f64 * d as f64);
        prop_assert!((rate - expect).abs() < 1e-12, "rate {} vs {}", rate, expect);
    }
}
