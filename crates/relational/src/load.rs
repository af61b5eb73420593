//! Pig's pass-through load: the map-only job that reads the entire input
//! and writes it back before a multi-star query's star joins (the paper's
//! "initial map-only job to read entire input and compress it"). It writes
//! uncompressed: the extra cycle and write cost are kept without changing
//! downstream scan volumes.

use mr_rdf::TripleView;
use mrsim::{JobSpec, MrError, OutEmitter, RawMapOnlyOp, TaskContext};
use std::sync::Arc;

/// The map of the load job: each triple copied as it stands.
pub struct LoadCopy;

impl LoadCopy {
    /// Check that `rec` is one encoded [`mr_rdf::TripleRec`] and
    /// `emit(record, text)` its own bytes with its N-Triples row size.
    pub fn copy(
        rec: &[u8],
        emit: impl FnOnce(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let t = TripleView::from_bytes(rec)?;
        emit(rec.to_vec(), rdf_model::STriple::text_size_of(t.s, t.p, t.o))
    }
}

impl RawMapOnlyOp for LoadCopy {
    fn run(&self, _ctx: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
        Self::copy(record, |record, text| out.emit_raw(record, text))
    }
}

/// The load job: a full scan of `input` copied to `output`.
pub fn load_copy_job(name: impl Into<String>, input: &str, output: &str) -> JobSpec {
    JobSpec::map_only(name, vec![input.to_string()], Arc::new(LoadCopy), output).with_full_scan()
}
