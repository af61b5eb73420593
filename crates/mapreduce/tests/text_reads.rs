//! Hostile bytes against `SliceReader::read_str`, which hands out tokens
//! as slices of a stretch of text it has already checked. A reference
//! reader in this file checks every token with its own `from_utf8`, as the
//! codec's format defines; on every input the two must agree, read for
//! read: the same `Ok` string (same bytes, same place in the input), the
//! same `MrError`, the same bytes left. Inputs: records of ASCII,
//! multi-byte, empty, long (128–300 bytes, so a length byte ≥ 0x80) and
//! invalid tokens between tags and counts; every truncation and single-bit
//! flip of valid records; reads that do not follow the record's layout.
//! CI runs this in release too, where a wrapped offset would otherwise go
//! unnoticed.

use mrsim::{MrError, SliceReader};
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};
use proptest::strategy::{BoxedStrategy, Just, Strategy, Union};
use proptest::test_runner::TestCaseError;

/// One read, as a decoder makes it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Str,
    U8,
    U32,
    U64,
}

/// One field of a record: a token (its bytes need not be UTF-8), a tag or
/// a count.
#[derive(Debug, Clone)]
enum Item {
    Token(Vec<u8>),
    Tag(u64),
    Count(u32),
}

impl Item {
    fn op(&self) -> Op {
        match self {
            Item::Token(_) => Op::Str,
            Item::Tag(_) => Op::U64,
            Item::Count(_) => Op::U32,
        }
    }
}

fn encode(items: &[Item]) -> Vec<u8> {
    let mut rec = Vec::new();
    for item in items {
        match item {
            Item::Token(bytes) => {
                rec.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                rec.extend_from_slice(bytes);
            }
            Item::Tag(tag) => rec.extend_from_slice(&tag.to_le_bytes()),
            Item::Count(n) => rec.extend_from_slice(&n.to_le_bytes()),
        }
    }
    rec
}

/// The codec's reads, each token checked on its own.
struct Reference<'a> {
    buf: &'a [u8],
}

impl<'a> Reference<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], MrError> {
        if self.buf.len() < n {
            return Err(MrError::Codec(format!("unexpected end of buffer ({what})")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn read_u32(&mut self) -> Result<u32, MrError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    fn read_str(&mut self) -> Result<&'a str, MrError> {
        let len = self.read_u32()? as usize;
        let raw = self.take(len, "bytes")?;
        std::str::from_utf8(raw).map_err(|e| MrError::Codec(format!("invalid utf-8: {e}")))
    }
}

/// Run `ops` over `input` with both readers, on past errors, and hold
/// them to each other after every read.
fn agree(input: &[u8], ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut r, mut reference) = (SliceReader::new(input), Reference { buf: input });
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Str => {
                let (got, want) = (r.read_str(), reference.read_str());
                if let (Ok(got), Ok(want)) = (&got, &want) {
                    // The reference's strings lie in the input; so must these.
                    prop_assert!(std::ptr::eq(got.as_ptr(), want.as_ptr()), "read {i} moved");
                }
                prop_assert_eq!(got, want, "read {} of {:?}", i, ops);
            }
            Op::U8 => prop_assert_eq!(r.read_bytes(1), reference.take(1, "bytes")),
            Op::U32 => prop_assert_eq!(r.read_u32(), reference.read_u32()),
            Op::U64 => prop_assert_eq!(
                r.read_u64(),
                reference.take(8, "u64").map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            ),
        }
        prop_assert_eq!(r.remaining(), reference.buf.len(), "after read {}", i);
    }
    Ok(())
}

fn chars(cs: Vec<char>, len: std::ops::RangeInclusive<usize>) -> BoxedStrategy<String> {
    prop::collection::vec(prop::sample::select(cs), len)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

/// Text tokens: ASCII, multi-byte, empty, and 128–300 bytes long.
fn text_token() -> impl Strategy<Value = Vec<u8>> + 'static {
    let ascii = || chars(vec!['<', '>', 'a', 'z', '0', '"', ' ', '\0'], 0..=24);
    let multi_byte = chars(vec!['a', '\u{e9}', '\u{4e2d}', '\u{1F980}', '\u{80}'], 0..=12);
    let long_ascii = (128usize..=300).prop_map(|n| "x".repeat(n));
    let long_multi_byte = chars(vec!['x', '\u{e9}', '\u{4e2d}'], 43..=100).prop_map(|mut t| {
        while t.len() < 128 {
            t.push('x');
        }
        t
    });
    Union::new([
        ascii(),
        ascii(),
        ascii(),
        multi_byte,
        Just(String::new()).boxed(),
        long_ascii.boxed(),
        long_multi_byte.boxed(),
    ])
    .prop_map(String::into_bytes)
}

/// A text token with bytes that are not UTF-8 somewhere inside it.
fn broken_token() -> impl Strategy<Value = Vec<u8>> + 'static {
    let bad = prop::sample::select(vec![
        &[0xFF][..],
        &[0xC3],
        &[0x80],
        &[0xE4, 0xB8],
        &[0xED, 0xA0, 0x80],
        &[0xF4, 0x90, 0x80, 0x80],
        &[0xC0, 0xAF],
    ]);
    (text_token(), bad, text_token()).prop_map(|(mut head, bad, tail)| {
        head.extend_from_slice(bad);
        head.extend_from_slice(&tail);
        head
    })
}

/// Mostly tokens, some of them `broken` ones, between tags and counts.
fn record(broken: bool) -> impl Strategy<Value = Vec<Item>> {
    let token = || {
        if broken {
            Union::new([text_token().boxed(), text_token().boxed(), broken_token().boxed()]).boxed()
        } else {
            text_token().boxed()
        }
    };
    let item = Union::new([
        token().prop_map(Item::Token).boxed(),
        token().prop_map(Item::Token).boxed(),
        token().prop_map(Item::Token).boxed(),
        (0u64..=u64::MAX).prop_map(Item::Tag).boxed(),
        (0u32..1000).prop_map(Item::Count).boxed(),
    ]);
    prop::collection::vec(item, 0..8)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(prop::sample::select(vec![Op::Str, Op::U8, Op::U32, Op::U64]), 0..16)
}

proptest! {
    #[test]
    fn layout_reads_match_the_reference(items in record(true)) {
        let ops: Vec<Op> = items.iter().map(Item::op).collect();
        agree(&encode(&items), &ops)?;
    }

    #[test]
    fn reads_off_the_layout_match_the_reference(items in record(true), ops in ops()) {
        agree(&encode(&items), &ops)?;
    }

    #[test]
    fn every_truncation_and_bit_flip_matches_the_reference(items in record(false)) {
        let ops: Vec<Op> = items.iter().map(Item::op).collect();
        let rec = encode(&items);
        for cut in 0..rec.len() {
            agree(&rec[..cut], &ops)?;
        }
        let mut flipped = rec.clone();
        for bit in 0..rec.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            agree(&flipped, &ops)?;
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// A token that ends in the lead byte 0xC3, followed by a length prefix
/// 0xA9 0 0 0: the record past the first length is UTF-8 ("é"), but the
/// token is not, and its read must say so.
#[test]
fn a_token_cut_inside_a_char_is_refused() {
    let items = [Item::Token(b"ab\xC3".to_vec()), Item::Token(vec![b'z'; 0xA9])];
    let rec = encode(&items);
    assert!(std::str::from_utf8(&rec[4..]).is_ok());
    agree(&rec, &[Op::Str, Op::Str]).unwrap();
    let mut r = SliceReader::new(&rec);
    assert!(r.read_str().is_err());
    assert_eq!(r.read_str().unwrap(), "z".repeat(0xA9));
}
