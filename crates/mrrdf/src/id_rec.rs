//! Dictionary-ID-encoded record types — the ID-native data plane.
//!
//! These records carry LEB128-varint dictionary ids through the shuffle
//! instead of lexical tokens. Unlike the text-model records, their
//! simulated size *is* their binary wire size (an ID-encoded job ships
//! compact binary rows, not text), so the text counters and the
//! post-encoding wire counters agree up to the engine's per-pair row
//! separator. Ids resolve back to [`rdf_model::atom::Atom`]s only at
//! output boundaries via the [`rdf_model::Dictionary`] snapshot attached
//! with `Engine::with_dict`.

use mrsim::codec::{uvarint_len, write_uvarint};
use mrsim::{DfsFile, Engine, MrError, Rec, SliceReader};
use rdf_model::{Dictionary, TripleStore};

/// Conventional DFS name for the ID-encoded base triple relation.
pub const ID_TRIPLES_FILE: &str = "id_triples";

/// One triple as three dictionary ids `(s, p, o)`, varint-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdTripleRec {
    /// Subject id.
    pub s: u32,
    /// Property id.
    pub p: u32,
    /// Object id.
    pub o: u32,
}

impl Rec for IdTripleRec {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.s);
        write_uvarint(buf, self.p);
        write_uvarint(buf, self.o);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        Ok(IdTripleRec { s: r.read_uvarint()?, p: r.read_uvarint()?, o: r.read_uvarint()? })
    }

    fn text_size(&self) -> u64 {
        uvarint_len(self.s) + uvarint_len(self.p) + uvarint_len(self.o)
    }
}

/// A `(property id, object id)` shuffle value, varint-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdPair(pub u32, pub u32);

impl Rec for IdPair {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.0);
        write_uvarint(buf, self.1);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        Ok(IdPair(r.read_uvarint()?, r.read_uvarint()?))
    }

    fn text_size(&self) -> u64 {
        uvarint_len(self.0) + uvarint_len(self.1)
    }
}

/// Encode a triple store into the engine's DFS under `name` as
/// [`IdTripleRec`]s, interning every term into `dict`. Attach a snapshot
/// of the final dictionary to the engine with `Engine::with_dict` before
/// running ID-native jobs over the file.
pub fn load_store_ids(
    engine: &Engine,
    name: &str,
    store: &TripleStore,
    dict: &mut Dictionary,
) -> Result<(), MrError> {
    let mut file = DfsFile::default();
    for t in store.iter() {
        let rec = IdTripleRec { s: dict.encode(&t.s), p: dict.encode(&t.p), o: dict.encode(&t.o) };
        file.text_bytes += rec.text_size();
        file.records.push(rec.to_bytes());
    }
    engine.hdfs().lock().put(name, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::STriple;

    #[test]
    fn id_records_roundtrip() {
        let t = IdTripleRec { s: 0, p: 128, o: u32::MAX };
        assert_eq!(IdTripleRec::from_bytes(&t.to_bytes()).unwrap(), t);
        let p = IdPair(0x3fff, 0x4000);
        assert_eq!(IdPair::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn text_size_is_wire_size() {
        for rec in [
            IdTripleRec { s: 0, p: 0x7f, o: 0x80 },
            IdTripleRec { s: 0x4000, p: 0x20_0000, o: u32::MAX },
        ] {
            assert_eq!(rec.text_size(), rec.to_bytes().len() as u64);
        }
        let pair = IdPair(0x3fff, u32::MAX);
        assert_eq!(pair.text_size(), pair.to_bytes().len() as u64);
    }

    #[test]
    fn load_store_ids_builds_dictionary_and_accounts_wire_bytes() {
        let engine = Engine::unbounded();
        let store = TripleStore::from_triples(vec![
            STriple::new("<a>", "<p>", "<b>"),
            STriple::new("<a>", "<q>", "\"x\""),
        ]);
        let mut dict = Dictionary::new();
        load_store_ids(&engine, ID_TRIPLES_FILE, &store, &mut dict).unwrap();
        // 5 distinct terms: <a>, <p>, <b>, <q>, "x".
        assert_eq!(dict.len(), 5);
        let file = engine.hdfs().lock().get(ID_TRIPLES_FILE).unwrap();
        assert_eq!(file.records.len(), 2);
        let wire: u64 = file.records.iter().map(|r| r.len() as u64).sum();
        assert_eq!(file.text_bytes, wire);
        // Small dictionary: every id is a 1-byte varint.
        assert_eq!(wire, 6);
    }
}
