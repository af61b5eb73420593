//! Record codecs.
//!
//! Everything that moves through the engine — job inputs, map output
//! key/value pairs, reduce outputs — implements [`Rec`]:
//!
//! * `encode_into`/`decode` define the physical wire form: a binary
//!   framing of lexical tokens (see below); `encode_into` *appends* to a
//!   caller-provided buffer, so emit sites write straight into shuffle
//!   spill arenas with no per-record allocation, and [`Rec::to_bytes`] is
//!   merely a convenience wrapper;
//! * [`Rec::text_size`] defines the *simulated* size: the number of bytes
//!   the record would occupy as a text row in Hadoop (tab/space-separated
//!   tokens plus newline). All HDFS-read/write and shuffle counters are in
//!   text bytes, because that is what the paper measures — Pig and Hive
//!   move text through HDFS. The wire form is this repository's own and is
//!   the larger of the two today (on the `ntga_multicycle` ledger workload
//!   25.4 MB of wire bytes against 20.9 MB of modelled text).
//!
//! Keys are compared as raw encoded bytes during the shuffle sort, so an
//! implementation must be *canonical*: equal values encode to equal bytes.
//! All implementations here are.
//!
//! # Who owns the framing
//!
//! This module is the only one that knows how a token length, a
//! component/list/column count and a side/index tag are laid out (today a
//! `u32`, a `u32` and a `u64`, little-endian). Operators that splice
//! encoded records know *structure* — count, then items; tag, then record
//! — and spell it with the primitives here: [`put_token`],
//! [`put_decimal_token`], [`put_count`], [`put_tag`] to append,
//! [`split_tag`] and [`token_key`] to take apart, [`token_len`],
//! [`token_key_text`] and [`counted_len`] to measure. They read through
//! [`SliceReader`] and take offsets from it, never from a literal width.
//!
//! [`SliceReader::read_str`] checks a record's UTF-8 about once per byte,
//! not per token, and hands tokens out as slices of that text (DESIGN.md,
//! "Text is checked once"); strings and errors are `from_utf8`'s per token.

use crate::error::MrError;
use rdf_model::atom::Atom;
use std::io::Write;

/// A readable slice with position tracking for decoding.
pub struct SliceReader<'a> {
    buf: &'a [u8],
    /// A stretch of the input known to be UTF-8, which tokens are read from.
    text: &'a str,
    /// `remaining()` where `text` begins: at first the start, where no token does.
    text_rem: usize,
}

impl<'a> SliceReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, text: "", text_rem: buf.len() }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// End a read that must have consumed the whole slice.
    pub fn finish(&self) -> Result<(), MrError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(MrError::Codec(format!("{n} trailing bytes after record"))),
        }
    }

    /// Read a token length or a count, as [`put_count`] writes it.
    pub fn read_u32(&mut self) -> Result<u32, MrError> {
        let Some((head, tail)) = self.buf.split_first_chunk() else {
            return Err(MrError::Codec("unexpected end of buffer (u32)".into()));
        };
        self.buf = tail;
        Ok(u32::from_le_bytes(*head))
    }

    /// Read a tag, as [`put_tag`] writes it.
    pub fn read_u64(&mut self) -> Result<u64, MrError> {
        let Some((head, tail)) = self.buf.split_first_chunk() else {
            return Err(MrError::Codec("unexpected end of buffer (u64)".into()));
        };
        self.buf = tail;
        Ok(u64::from_le_bytes(*head))
    }

    /// Read `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], MrError> {
        if self.buf.len() < n {
            return Err(MrError::Codec("unexpected end of buffer (bytes)".into()));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read a length-prefixed UTF-8 string: a slice of the checked
    /// stretch, which restarts at the token if it does not hold it.
    pub fn read_str(&mut self) -> Result<&'a str, MrError> {
        let len = self.read_u32()? as usize;
        let from = self.buf;
        let raw = self.read_bytes(len)?;
        if let Some(token) = self.checked(from.len(), len) {
            return Ok(token);
        }
        #[cfg(test)]
        tests::SCANS.with(|n| n.set(n.get() + 1));
        // Restart up to the first non-text byte (safe code re-checks that prefix to
        // make it a `str`); a token still not held is not UTF-8 on its own.
        self.text = std::str::from_utf8(from)
            .or_else(|e| std::str::from_utf8(&from[..e.valid_up_to()]))
            .unwrap_or_default();
        self.text_rem = from.len();
        self.checked(from.len(), len).map_or_else(
            || std::str::from_utf8(raw).map_err(|e| MrError::Codec(format!("invalid utf-8: {e}"))),
            Ok,
        )
    }

    /// The `len`-byte token that began at `remaining() == rem`, if the
    /// stretch holds it on char boundaries (`at + len` ≤ twice the input).
    fn checked(&self, rem: usize, len: usize) -> Option<&'a str> {
        let at = self.text_rem.checked_sub(rem)?;
        self.text.get(at..at + len)
    }

    /// Read a length-prefixed UTF-8 token as an [`Atom`] of its own.
    pub fn read_atom(&mut self) -> Result<Atom, MrError> {
        self.read_str().map(Atom::from)
    }
}

/// Bytes of a token's length prefix, and of a count.
const LEN_BYTES: usize = 4;

/// Append one token: its length, then its bytes — what [`Atom`] and
/// `String` encode to and [`SliceReader::read_str`] reads.
#[inline]
pub fn put_token(buf: &mut Vec<u8>, token: &str) {
    put_count(buf, u32::try_from(token.len()).expect("string too long"));
    buf.extend_from_slice(token.as_bytes());
}

/// Append the token that spells `k` in decimal digits — a `φ_m` partition
/// key.
#[inline]
pub fn put_decimal_token(buf: &mut Vec<u8>, k: u64) {
    put_count(buf, decimal_digits(k) as u32);
    write!(buf, "{k}").expect("writing to a Vec");
}

/// Append a component, list or column count, or a token's length
/// ([`SliceReader::read_u32`]).
#[inline]
pub fn put_count(buf: &mut Vec<u8>, n: u32) {
    buf.extend_from_slice(&n.to_le_bytes());
}

/// Append a join-side or pattern-index tag — a `u64` record
/// ([`SliceReader::read_u64`]).
#[inline]
pub fn put_tag(buf: &mut Vec<u8>, tag: u64) {
    buf.extend_from_slice(&tag.to_le_bytes());
}

/// Split a shuffle value into the tag it opens with and the record behind
/// it.
#[inline]
pub fn split_tag(value: &[u8]) -> Result<(u64, &[u8]), MrError> {
    let mut r = SliceReader::new(value);
    let tag = r.read_u64()?;
    Ok((tag, r.buf))
}

/// Read a whole buffer as one encoded token — a shuffle key — with the
/// errors `Atom::from_bytes` gives.
pub fn token_key(key: &[u8]) -> Result<&str, MrError> {
    let mut r = SliceReader::new(key);
    let token = r.read_str()?;
    r.finish()?;
    Ok(token)
}

/// Text bytes of a key that is one encoded token, taken from its length
/// alone: for keys an operator has just written or read.
#[inline]
pub fn token_key_text(key: &[u8]) -> u64 {
    (key.len() - LEN_BYTES) as u64
}

/// Encoded length of `token`.
#[inline]
pub fn token_len(token: &str) -> usize {
    LEN_BYTES + token.len()
}

/// Encoded length of a count followed by `items` bytes of items.
#[inline]
pub fn counted_len(items: usize) -> usize {
    LEN_BYTES + items
}

/// A record that can move through the engine.
pub trait Rec: Sized + Send + Sync + Clone + 'static {
    /// Append the canonical binary encoding of `self` to `buf`.
    ///
    /// This is the primitive the engine's zero-copy emit path is built
    /// on: map emissions encode directly into a per-partition spill
    /// arena, so implementations must only ever *append* (never inspect
    /// or truncate `buf`, which may already hold other records).
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Decode one record from the reader.
    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError>;

    /// Simulated on-disk/wire size in bytes: the record as one text row
    /// (tokens + separators + newline).
    fn text_size(&self) -> u64;

    /// Convenience: encode into a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        self.encode_into(&mut v);
        v
    }

    /// Convenience: decode from a full slice, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> Result<Self, MrError> {
        let mut r = SliceReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Rec for String {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_token(buf, self);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        Ok(r.read_str()?.to_string())
    }

    fn text_size(&self) -> u64 {
        self.len() as u64 + 1 // + newline
    }
}

/// Byte-identical to the `String` codec (u32-LE length prefix + UTF-8),
/// so `String`-era wire bytes, shuffle sort order, and `text_size`
/// accounting all carry over unchanged.
impl Rec for Atom {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_token(buf, self);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        r.read_atom()
    }

    fn text_size(&self) -> u64 {
        self.len() as u64 + 1 // + newline
    }
}

impl Rec for u64 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_tag(buf, *self);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        r.read_u64()
    }

    fn text_size(&self) -> u64 {
        // Decimal digits + newline, as a text row would store it.
        decimal_digits(*self) + 1
    }
}

/// Number of decimal digits of `n` (at least 1).
pub fn decimal_digits(n: u64) -> u64 {
    if n == 0 {
        1
    } else {
        n.ilog10() as u64 + 1
    }
}

impl<T: Rec> Rec for Vec<T> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_count(buf, u32::try_from(self.len()).expect("vec too long"));
        for item in self {
            item.encode_into(buf);
        }
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        let n = r.read_u32()? as usize;
        // A hint only: no element but `()` encodes to zero bytes, so a
        // count past the bytes that remain is one `decode` will refuse.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }

    fn text_size(&self) -> u64 {
        // Items lose their own newline; joined by a 1-byte separator, one
        // trailing newline for the row.
        if self.is_empty() {
            1
        } else {
            self.iter().map(|x| x.text_size()).sum::<u64>()
        }
    }
}

impl<A: Rec, B: Rec> Rec for (A, B) {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.encode_into(buf);
        self.1.encode_into(buf);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }

    fn text_size(&self) -> u64 {
        // Two fields on one row: drop one of the two newlines, add one tab.
        self.0.text_size() + self.1.text_size() - 1
    }
}

impl Rec for () {
    fn encode_into(&self, _buf: &mut Vec<u8>) {}

    fn decode(_r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        Ok(())
    }

    fn text_size(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Times `read_str` checked bytes as UTF-8 on this thread instead
        /// of slicing the checked stretch.
        pub(super) static SCANS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Scans a row decode takes.
    fn scans(row: &[&str]) -> usize {
        let rec = row.iter().map(|t| String::from(*t)).collect::<Vec<_>>().to_bytes();
        let before = SCANS.with(std::cell::Cell::get);
        let decoded = Vec::<String>::from_bytes(&rec).unwrap();
        assert_eq!(decoded, row);
        SCANS.with(std::cell::Cell::get) - before
    }

    #[test]
    fn an_all_text_row_is_scanned_once() {
        assert_eq!(scans(&["<s1>", "<p>", "\"caf\u{e9}\"", "", "\u{4e2d}", "<o>"]), 1);
        assert_eq!(scans(&[]), 0);
    }

    #[test]
    fn a_long_token_restarts_the_stretch_once() {
        let long = "x".repeat(199) + "\u{e9}";
        // The stretch from `<s1>` ends at the long token's length byte,
        // 0xC9; the one from the long token covers the rest.
        assert_eq!(scans(&["<s1>", "<p>", &long, "<o>", "<q>", "\"b\"", "<o2>"]), 2);
        assert_eq!(scans(&[&long, "<o>", "<q>", "<o2>"]), 1);
    }

    fn roundtrip<T: Rec + PartialEq + std::fmt::Debug>(v: T) {
        let enc = v.to_bytes();
        let dec = T::from_bytes(&enc).unwrap();
        assert_eq!(v, dec);
    }

    #[test]
    fn string_roundtrip() {
        roundtrip(String::from("hello world"));
        roundtrip(String::new());
        roundtrip(String::from("unicode: \u{1F980}"));
    }

    #[test]
    fn u64_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
    }

    #[test]
    fn vec_roundtrip() {
        roundtrip(vec![String::from("a"), String::from("bb")]);
        roundtrip(Vec::<String>::new());
        roundtrip(vec![1u64, 2, 3]);
    }

    #[test]
    fn tuple_roundtrip() {
        roundtrip((String::from("k"), 42u64));
        roundtrip((String::from("k"), vec![String::from("v")]));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = String::from("x").to_bytes();
        enc.push(0);
        assert!(String::from_bytes(&enc).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = String::from("hello").to_bytes();
        assert!(String::from_bytes(&enc[..3]).is_err());
        assert!(u64::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn decode_rejects_bad_utf8() {
        let mut enc = Vec::new();
        put_count(&mut enc, 2);
        enc.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::from_bytes(&enc).is_err());
    }

    #[test]
    fn text_sizes() {
        assert_eq!(String::from("abc").text_size(), 4);
        assert_eq!(0u64.text_size(), 2);
        assert_eq!(12345u64.text_size(), 6);
        assert_eq!(vec![String::from("ab"), String::from("c")].text_size(), 5);
        assert_eq!((String::from("ab"), String::from("c")).text_size(), 4);
        assert_eq!(Vec::<String>::new().text_size(), 1);
    }

    #[test]
    fn canonical_key_encoding() {
        // Equal strings must encode to equal bytes (shuffle grouping
        // relies on it).
        assert_eq!(String::from("k1").to_bytes(), String::from("k1").to_bytes());
        assert_ne!(String::from("k1").to_bytes(), String::from("k2").to_bytes());
    }

    #[test]
    fn atom_codec_matches_string_codec() {
        for s in ["", "k1", "<gene9>", "unicode: \u{1F980}"] {
            let owned = String::from(s);
            let atom = Atom::from(s);
            assert_eq!(owned.to_bytes(), atom.to_bytes(), "wire bytes for {s:?}");
            assert_eq!(owned.text_size(), atom.text_size(), "text size for {s:?}");
            roundtrip(atom);
        }
    }

    #[test]
    fn decimal_digit_helper() {
        assert_eq!(decimal_digits(0), 1);
        assert_eq!(decimal_digits(9), 1);
        assert_eq!(decimal_digits(10), 2);
        assert_eq!(decimal_digits(u64::MAX), 20);
    }
}
