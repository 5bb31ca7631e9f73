//! The snapshot wire format — a versioned, self-describing, checksummed
//! byte encoding for durable server/service state.
//!
//! The longitudinal protocol only has a production story if the
//! aggregator process can stop and resume mid-horizon with **exact**
//! recovery, so the serialization layer is deliberately boring and
//! fully validated:
//!
//! * an 8-byte magic (`RTFSNAP\0`), a `u32` format version, and a
//!   one-byte seed schema up front — foreign bytes are
//!   [`SnapshotError::BadMagic`], bytes from another format version are
//!   [`SnapshotError::UnsupportedVersion`], never a misparse;
//! * little-endian fixed-width primitives with `f64` stored as raw IEEE
//!   bits, so a restore is bit-identical, not merely close;
//! * a trailing FNV-1a 64 checksum over everything before it. Most
//!   single-byte corruptions inside an `f64` lane would still parse as a
//!   *valid, different* value — the checksum is what turns silent
//!   misparse into [`SnapshotError::ChecksumMismatch`];
//! * every length and discriminant is validated on read; malformed input
//!   is a typed [`SnapshotError`], **never** a panic.
//!
//! **Version policy:** [`SNAPSHOT_VERSION`] is bumped on any encoding
//! change; readers accept exactly the version they know how to decode
//! (currently 2) and reject the rest loudly. There is no cross-version
//! migration — a horizon lasts days, not years, so "re-run from the
//! start of the horizon" is an acceptable upgrade story and silent
//! misreads are not. The header's seed schema byte is always 2, the
//! counter stream every client draws from: state written under the
//! removed per-report `StdRng` schema v1 (version 1 bytes, or schema
//! byte 1) would resume with different report bits, so
//! [`SnapReader::new`] — and with it every restore path — refuses it.
//!
//! The field-by-field encodings of the domain types live next to their
//! private fields (`Server`, `AnyAccumulator`, the runtime's batches and
//! journals); this module only supplies the primitives: [`SnapWriter`],
//! [`SnapReader`], and [`SnapshotError`].

/// The current snapshot format version. Bump on any encoding change.
///
/// * **1** — magic + version header; written under seed schema v1, no
///   longer readable.
/// * **2** — adds a one-byte seed schema to the header.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The header's seed schema byte: the client counter stream. Byte 1
/// named the removed schema v1.
const SEED_SCHEMA_BYTE: u8 = 2;

/// The 8-byte magic prefix of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RTFSNAP\0";

/// Why snapshot bytes were rejected. Every malformed input maps to one
/// of these — restoring never panics and never silently misparses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes end before the encoding says they should.
    Truncated,
    /// The magic prefix is absent — these are not snapshot bytes.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The trailing FNV-1a 64 checksum does not match the content.
    ChecksumMismatch,
    /// A field failed its validity check; the message names it.
    Corrupt(&'static str),
    /// Well-formed content followed by unconsumed bytes.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (supported: {SNAPSHOT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64 over `bytes` — small, dependency-free, and plenty to catch
/// the random corruption the checksum exists for (it is not, and need
/// not be, cryptographic).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends little-endian primitives to a growing snapshot buffer;
/// [`finish`](Self::finish) seals it with the trailing checksum.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A writer primed with the magic, current format version, and seed
    /// schema byte.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(SEED_SCHEMA_BYTE);
        SnapWriter { buf }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i8`.
    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Writes a `usize` as `u64` (lossless on every supported platform).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bits — restores are
    /// bit-identical, NaN payloads and signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (`0`/`1`).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Seals the snapshot: appends the FNV-1a 64 checksum of everything
    /// written so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

/// Validates the header + checksum of snapshot bytes up front, then
/// yields primitives; every read is bounds-checked.
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// The payload between the header and the checksum.
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Verifies magic, version, trailing checksum, and the header seed
    /// schema, and positions the reader at the first payload byte.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] if the bytes cannot even hold the
    /// envelope, [`BadMagic`](SnapshotError::BadMagic) /
    /// [`UnsupportedVersion`](SnapshotError::UnsupportedVersion) /
    /// [`ChecksumMismatch`](SnapshotError::ChecksumMismatch) for the
    /// respective header failures (version 1 is unsupported),
    /// [`Corrupt`](SnapshotError::Corrupt) for the removed schema v1's
    /// byte or an unknown one.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let version_header = SNAPSHOT_MAGIC.len() + 4;
        if bytes.len() < version_header + 8 {
            // Too short for magic + version + checksum. If even the
            // magic is absent or wrong, say that instead — "not a
            // snapshot" beats "truncated snapshot" for a foreign file.
            if bytes.len() < SNAPSHOT_MAGIC.len() || bytes[..8] != SNAPSHOT_MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let header = version_header + 1;
        let (content, sum_bytes) = bytes.split_at(bytes.len() - 8);
        if content.len() < header {
            return Err(SnapshotError::Truncated);
        }
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if fnv1a64(content) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        match content[version_header] {
            SEED_SCHEMA_BYTE => {}
            1 => return Err(SnapshotError::Corrupt("seed schema v1 was removed")),
            _ => return Err(SnapshotError::Corrupt("unknown seed schema byte")),
        }
        Ok(SnapReader {
            buf: &content[header..],
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i8`.
    pub fn i8(&mut self) -> Result<i8, SnapshotError> {
        Ok(self.take(1)?[0] as i8)
    }

    /// Reads a `usize` written by [`SnapWriter::usize`], rejecting
    /// values that do not fit the platform.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("usize overflows platform"))
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting anything but `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte not 0/1")),
        }
    }

    /// Reads a length prefix that is about to drive `len` reads of
    /// `min_elem_bytes`-sized elements, rejecting lengths the remaining
    /// payload cannot possibly hold — an allocation guard for
    /// hand-crafted input.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        self.room_for(len as u64, min_elem_bytes)
    }

    /// Checks that the remaining payload can hold `count` elements of at
    /// least `min_elem_bytes` each and returns `count` — the same
    /// allocation guard as [`len`](Self::len), for a count that is not a
    /// length prefix (a period counter, a tree sized by the horizon).
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] if the payload is too short.
    pub fn room_for(&self, count: u64, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let remaining = (self.buf.len() - self.pos) as u64;
        match count.checked_mul(min_elem_bytes.max(1) as u64) {
            // count ≤ remaining bytes ≤ usize::MAX, so the cast is lossless.
            Some(bytes) if bytes <= remaining => Ok(count as usize),
            _ => Err(SnapshotError::Truncated),
        }
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    /// [`SnapshotError::TrailingBytes`] if content remains.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.i8(-1);
        w.usize(12345);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.bool(false);
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.i8().unwrap(), -1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn foreign_bytes_are_bad_magic() {
        assert_eq!(SnapReader::new(b"").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(
            SnapReader::new(b"not a snapshot at all").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn short_but_valid_magic_is_truncated() {
        let bytes = SnapWriter::new().finish();
        assert_eq!(
            SnapReader::new(&bytes[..bytes.len() - 1]).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn future_version_rejected_by_name() {
        let mut bytes = SnapWriter::new().finish();
        bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            SnapReader::new(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 999 }
        );
    }

    /// `bytes` with header byte `at` set to `value` and the checksum
    /// resealed.
    fn with_header_byte(bytes: &[u8], at: usize, value: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at] = value;
        let end = out.len() - 8;
        let sum = fnv1a64(&out[..end]);
        out[end..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn header_records_the_schema_both_ways() {
        // Written: magic, version 2, schema byte 2; read back cleanly.
        let mut w = SnapWriter::new();
        w.u64(77);
        let bytes = w.finish();
        assert_eq!(&bytes[8..13], &[2, 0, 0, 0, 2]);
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u64().unwrap(), 77);
        r.finish().unwrap();
    }

    #[test]
    fn v1_bytes_are_an_unsupported_version() {
        // A version-1 snapshot (no schema byte) was written under the
        // removed schema v1: refused by version, checksum intact.
        let mut w = SnapWriter::new();
        w.u64(123);
        let bytes = w.finish();
        let content = &bytes[..bytes.len() - 8];
        let mut v1 = Vec::with_capacity(bytes.len() - 1);
        v1.extend_from_slice(&SNAPSHOT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&content[13..]);
        let sum = fnv1a64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapReader::new(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 1 }
        );
    }

    #[test]
    fn removed_schema_byte_rejected_as_corrupt() {
        let bytes = SnapWriter::new().finish();
        assert_eq!(
            SnapReader::new(&with_header_byte(&bytes, 12, 1)).unwrap_err(),
            SnapshotError::Corrupt("seed schema v1 was removed")
        );
    }

    #[test]
    fn unknown_schema_byte_rejected_as_corrupt() {
        let bytes = SnapWriter::new().finish();
        assert_eq!(
            SnapReader::new(&with_header_byte(&bytes, 12, 9)).unwrap_err(),
            SnapshotError::Corrupt("unknown seed schema byte")
        );
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let mut w = SnapWriter::new();
        w.f64(1.5);
        w.u64(99);
        let bytes = w.finish();
        // Header flips hit magic/version checks; payload and checksum
        // flips hit the checksum. No flip may parse cleanly.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                assert!(
                    SnapReader::new(&evil).is_err(),
                    "flip at byte {i} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn reads_past_the_end_are_truncated() {
        let bytes = SnapWriter::new().finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn unconsumed_payload_is_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.finish();
        let r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapshotError::TrailingBytes);
    }

    #[test]
    fn absurd_length_prefixes_rejected_without_allocating() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.len(8).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn room_for_bounds_counts_by_the_remaining_payload() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.room_for(2, 8), Ok(2));
        assert_eq!(r.room_for(3, 8), Err(SnapshotError::Truncated));
        assert_eq!(r.room_for(u64::MAX, 8), Err(SnapshotError::Truncated));
        r.u64().unwrap();
        assert_eq!(r.room_for(2, 8), Err(SnapshotError::Truncated));
        assert_eq!(r.room_for(1, 8), Ok(1));
    }

    #[test]
    fn non_boolean_byte_rejected() {
        let mut w = SnapWriter::new();
        w.u8(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            r.bool().unwrap_err(),
            SnapshotError::Corrupt("bool byte not 0/1")
        );
    }
}
