//! Triples as engine records.

use crate::codec::{put_token, token_len};
use crate::{DfsFile, Engine, MrError, Rec, SliceReader};
use rdf_model::{STriple, StatsBuilder, StoreStats, TripleStore};

/// Conventional DFS name for the base triple relation.
pub const TRIPLES_FILE: &str = "triples";

/// An [`STriple`] wrapped as an `mrsim` record.
///
/// The simulated text size is the N-Triples row size
/// ([`STriple::text_size`]), so scans of the base relation cost exactly
/// what scanning the N-Triples file would cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleRec(pub STriple);

impl Rec for TripleRec {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.s.encode_into(buf);
        self.0.p.encode_into(buf);
        self.0.o.encode_into(buf);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        let s = r.read_atom()?;
        let p = r.read_atom()?;
        let o = r.read_atom()?;
        Ok(TripleRec(STriple { s, p, o }))
    }

    fn text_size(&self) -> u64 {
        self.0.text_size()
    }
}

/// An encoded [`TripleRec`] read in place: the three tokens as `&str` and
/// the two byte ranges Job 1's map re-emits unchanged. Same length-prefix,
/// UTF-8 and trailing-byte errors as [`TripleRec::from_bytes`]; no
/// [`rdf_model::Atom`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleView<'a> {
    /// Subject token.
    pub s: &'a str,
    /// Property token.
    pub p: &'a str,
    /// Object token.
    pub o: &'a str,
    /// The encoded subject (length prefix and bytes): an `Atom` key.
    pub s_bytes: &'a [u8],
    /// The encoded property and object: an `(Atom, Atom)` value.
    pub po_bytes: &'a [u8],
}

impl<'a> TripleView<'a> {
    /// Read one whole encoded [`TripleRec`].
    pub fn from_bytes(buf: &'a [u8]) -> Result<Self, MrError> {
        let mut r = SliceReader::new(buf);
        let s = r.read_str()?;
        let s_len = buf.len() - r.remaining();
        let p = r.read_str()?;
        let o = r.read_str()?;
        r.finish()?;
        let (s_bytes, po_bytes) = buf.split_at(s_len);
        Ok(TripleView { s, p, o, s_bytes, po_bytes })
    }
}

/// Load a triple store into the engine's DFS under `name`, as one packed
/// file (see [`DfsFile`]) whose buffer is reserved once, at its exact
/// length.
pub fn load_store(engine: &Engine, name: &str, store: &TripleStore) -> Result<(), MrError> {
    let encoded = |t: &STriple| token_len(&t.s) + token_len(&t.p) + token_len(&t.o);
    let mut file = DfsFile::with_capacity(store.iter().map(encoded).sum(), store.len());
    for t in store.iter() {
        // A `TripleRec`'s bytes.
        file.push_record(t.text_size(), |buf| {
            for token in [&t.s, &t.p, &t.o] {
                put_token(buf, token);
            }
        })?;
    }
    engine.hdfs().lock().put(name, file)
}

/// ANALYZE a triple relation where it lies: [`StoreStats`] of the DFS file
/// `name`, accumulated over the [`TripleView`]s of its records — what
/// `read_store(engine, name)?.stats()` gives, without building the store.
/// Cost-based planning uses it to plan against whatever relation an engine
/// actually holds when the caller has no handle on the original store.
pub fn analyze(engine: &Engine, name: &str) -> Result<StoreStats, MrError> {
    let file = engine.hdfs().lock().get(name)?;
    let mut stats = StatsBuilder::default();
    for raw in file.iter() {
        let t = TripleView::from_bytes(raw)?;
        stats.add(t.s, t.p, t.o);
    }
    Ok(stats.finish())
}

/// Read a triple relation back out of the engine's DFS — the inverse of
/// [`load_store`].
pub fn read_store(engine: &Engine, name: &str) -> Result<TripleStore, MrError> {
    let file = engine.hdfs().lock().get(name)?;
    let mut triples = Vec::with_capacity(file.len());
    for raw in file.iter() {
        triples.push(TripleRec::from_bytes(raw)?.0);
    }
    Ok(TripleStore::from_triples(triples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The system allocator, watching one thread while [`WATCH`] holds
    /// `(size, seen, reallocated)`: `seen` turns true when a block of
    /// exactly `size` bytes is allocated, `reallocated` when any block is
    /// grown or shrunk.
    struct Watching;

    thread_local! {
        static WATCH: Cell<Option<(usize, bool, bool)>> = const { Cell::new(None) };
    }

    fn watched(alloc_size: Option<usize>, realloc: bool) {
        let _ = WATCH.try_with(|w| {
            if let Some((size, seen, reallocated)) = w.get() {
                w.set(Some((size, seen || alloc_size == Some(size), reallocated || realloc)));
            }
        });
    }

    // SAFETY: every call forwards to `System` unchanged.
    unsafe impl GlobalAlloc for Watching {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            watched(Some(layout.size()), false);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            watched(None, true);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: Watching = Watching;

    #[test]
    fn roundtrip() {
        let rec = TripleRec(STriple::new("<s>", "<p>", "\"o value\""));
        let back = TripleRec::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn view_reads_what_decode_reads() {
        let rec = TripleRec(STriple::new("<s>", "<p\u{e9}>", "\"o value\""));
        let bytes = rec.to_bytes();
        let v = TripleView::from_bytes(&bytes).unwrap();
        assert_eq!((v.s, v.p, v.o), (&*rec.0.s, &*rec.0.p, &*rec.0.o));
        assert_eq!(v.s_bytes, rec.0.s.to_bytes());
        assert_eq!(v.po_bytes, (rec.0.p.clone(), rec.0.o.clone()).to_bytes());
        // Every truncation, a trailing byte and a broken token fail on
        // both readers alike.
        let mut bad: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        bad.push([&bytes[..], &[0]].concat());
        let mut broken = bytes.clone();
        broken[8] = 0xff;
        bad.push(broken);
        for b in &bad {
            let want = TripleRec::from_bytes(b).unwrap_err();
            assert_eq!(TripleView::from_bytes(b).unwrap_err().to_string(), want.to_string());
        }
    }

    #[test]
    fn text_size_is_ntriples_row() {
        let t = STriple::new("<s>", "<p>", "<o>");
        assert_eq!(TripleRec(t.clone()).text_size(), t.text_size());
    }

    #[test]
    fn load_store_accounts_bytes() {
        let engine = Engine::unbounded();
        let store = TripleStore::from_triples(vec![
            STriple::new("<a>", "<p>", "<b>"),
            STriple::new("<a>", "<q>", "\"x\""),
            STriple::new("", "<caf\u{e9}>", "\"a much longer literal than sixteen bytes\""),
        ]);
        let want: Vec<Vec<u8>> = store.iter().map(|t| TripleRec(t.clone()).to_bytes()).collect();
        let payload = want.iter().map(Vec::len).sum::<usize>();
        WATCH.set(Some((payload, false, false)));
        load_store(&engine, TRIPLES_FILE, &store).unwrap();
        let watch = WATCH.take();
        let file = engine.hdfs().lock().get(TRIPLES_FILE).unwrap();
        assert_eq!(file.text_bytes, store.text_bytes());
        // Record for record what the codec writes.
        assert_eq!(file.iter().collect::<Vec<_>>(), want);
        // One buffer, allocated once at its exact length (its capacity is
        // its length) and never grown; the last record ends at its end.
        assert_eq!(watch, Some((payload, true, false)));
        assert_eq!(file.payload_bytes(), payload as u64);
    }

    #[test]
    fn read_store_inverts_load_store() {
        let engine = Engine::unbounded();
        let store = TripleStore::from_triples(vec![
            STriple::new("<a>", "<p>", "<b>"),
            STriple::new("<a>", "<q>", "\"x\""),
        ]);
        load_store(&engine, TRIPLES_FILE, &store).unwrap();
        let back = read_store(&engine, TRIPLES_FILE).unwrap();
        assert_eq!(back.stats(), store.stats());
        assert_eq!(analyze(&engine, TRIPLES_FILE).unwrap(), store.stats());
        assert!(matches!(read_store(&engine, "nope"), Err(MrError::NoSuchFile(_))));
        assert!(matches!(analyze(&engine, "nope"), Err(MrError::NoSuchFile(_))));
    }
}
