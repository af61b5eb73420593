//! Golden byte fixtures for the dictionary-ID wire format.
//!
//! The ID-native shuffle ships LEB128 unsigned varints: 7 payload bits
//! per byte, least-significant group first, high bit = continuation. The
//! fixtures below pin the exact bytes of every ID record type so any
//! drift in the wire format fails loudly (CI runs this file as the
//! format-drift gate). The varint layer is re-implemented here from its
//! spec instead of calling back into `mrsim`, so a codec regression
//! cannot hide by changing both sides at once.

use mr_rdf::{IdPair, IdTripleRec};
use mrsim::Rec;
use proptest::prelude::{prop_assert_eq, proptest};

/// Spec reference encoder: LEB128, low group first, 0x80 continuation.
fn ref_uvarint(mut v: u32) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

fn ref_concat(ids: &[u32]) -> Vec<u8> {
    ids.iter().flat_map(|&v| ref_uvarint(v)).collect()
}

/// Length-boundary ids: the first and last value of every encoded width.
const BOUNDARY_IDS: [u32; 9] =
    [0, 0x7f, 0x80, 0x3fff, 0x4000, 0x1f_ffff, 0x20_0000, 0x0fff_ffff, u32::MAX];

#[test]
fn id_triple_golden_bytes() {
    let rec = IdTripleRec { s: 1, p: 128, o: 16_384 };
    assert_eq!(rec.to_bytes(), [0x01, 0x80, 0x01, 0x80, 0x80, 0x01]);
    assert_eq!(rec.text_size(), 6);

    let max = IdTripleRec { s: u32::MAX, p: 0, o: 0x7f };
    assert_eq!(max.to_bytes(), [0xff, 0xff, 0xff, 0xff, 0x0f, 0x00, 0x7f]);
    assert_eq!(max.text_size(), 7);
}

#[test]
fn id_pair_golden_bytes() {
    assert_eq!(IdPair(0, 0).to_bytes(), [0x00, 0x00]);
    assert_eq!(IdPair(0x3fff, 0x4000).to_bytes(), [0xff, 0x7f, 0x80, 0x80, 0x01]);
    assert_eq!(IdPair(0x1f_ffff, 0x20_0000).to_bytes(), [0xff, 0xff, 0x7f, 0x80, 0x80, 0x80, 0x01]);
}

#[test]
fn boundary_ids_match_reference_encoder_and_roundtrip() {
    for &id in &BOUNDARY_IDS {
        let rec = IdTripleRec { s: id, p: id, o: id };
        assert_eq!(rec.to_bytes(), ref_concat(&[id, id, id]), "id {id:#x}");
        assert_eq!(IdTripleRec::from_bytes(&rec.to_bytes()).unwrap(), rec);
        // Encoded width steps exactly at the 7-bit group boundaries.
        let expected_len = match id {
            0..=0x7f => 1,
            0x80..=0x3fff => 2,
            0x4000..=0x1f_ffff => 3,
            0x20_0000..=0x0fff_ffff => 4,
            _ => 5,
        };
        assert_eq!(ref_uvarint(id).len(), expected_len, "id {id:#x}");
        assert_eq!(rec.text_size(), 3 * expected_len as u64, "id {id:#x}");
    }
}

proptest! {
    #[test]
    fn id_records_match_reference_encoder(
        s in 0u32..=u32::MAX, p in 0u32..=u32::MAX, o in 0u32..=u32::MAX
    ) {
        let triple = IdTripleRec { s, p, o };
        prop_assert_eq!(triple.to_bytes(), ref_concat(&[s, p, o]));
        let pair = IdPair(p, o);
        prop_assert_eq!(pair.to_bytes(), ref_concat(&[p, o]));
        // text_size is the binary wire size for every ID record.
        prop_assert_eq!(triple.text_size(), triple.to_bytes().len() as u64);
        prop_assert_eq!(pair.text_size(), pair.to_bytes().len() as u64);
    }

    #[test]
    fn id_records_roundtrip(s in 0u32..=u32::MAX, p in 0u32..=u32::MAX, o in 0u32..=u32::MAX) {
        let rec = IdTripleRec { s, p, o };
        prop_assert_eq!(IdTripleRec::from_bytes(&rec.to_bytes()).unwrap(), rec);
        let pair = IdPair(p, o);
        prop_assert_eq!(IdPair::from_bytes(&pair.to_bytes()).unwrap(), pair);
    }
}
