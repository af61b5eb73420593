//! The raw operators the engine's tests run jobs with: a word count
//! ([`WordOne`] then [`CountReduce`]), a distinct-lines job ([`SelfPair`]
//! then [`KeyOnly`]) and an [`Identity`] map-only op. Records are encoded
//! `String`s, read in place like any operator's. The integration tests
//! declare this module as `mod common;`, the crate's unit tests include it
//! by path, so it names the crate `mrsim` in both.

#![allow(dead_code)] // each test target uses its own subset

use mrsim::codec::{put_tag, token_key, Rec};
use mrsim::{MapEmitter, MrError, OutEmitter, RawMapOnlyOp, RawMapOp, RawReduceOp, TaskContext};

/// Word-count map: a word shipped under itself with the `u64` value 1, the
/// row `word \t 1 \n`.
pub struct WordOne;

impl RawMapOp for WordOne {
    fn run(&self, _ctx: &TaskContext, word: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        let text = token_key(word)?.len() as u64 + 2;
        out.emit_raw_with(word, text, |value| put_tag(value, 1));
        Ok(())
    }
}

/// Word-count reduce: per key the `String` row `key:sum` of its `u64`
/// values.
pub struct CountReduce;

impl RawReduceOp for CountReduce {
    fn run(
        &self,
        _ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        let key = token_key(key)?;
        let sum: u64 = values.iter().map(|v| u64::from_bytes(v)).sum::<Result<_, _>>()?;
        let row = format!("{key}:{sum}");
        out.emit_raw(row.to_bytes(), row.text_size())
    }
}

/// Distinct-lines map: a line shipped as its own key and value, the row
/// `line \t line \n`.
pub struct SelfPair;

impl RawMapOp for SelfPair {
    fn run(&self, _ctx: &TaskContext, line: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        let text = 2 * token_key(line)?.len() as u64 + 1;
        out.emit_raw(line, line, text);
        Ok(())
    }
}

/// Distinct-lines reduce: each key once, as a `String` row.
pub struct KeyOnly;

impl RawReduceOp for KeyOnly {
    fn run(
        &self,
        _ctx: &TaskContext,
        key: &[u8],
        _values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        let text = token_key(key)?.len() as u64 + 1;
        out.emit_raw(key.to_vec(), text)
    }
}

/// Map-only copy: each `String` record written as it stands.
pub struct Identity;

impl RawMapOnlyOp for Identity {
    fn run(&self, _ctx: &TaskContext, line: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
        let text = token_key(line)?.len() as u64 + 1;
        out.emit_raw(line.to_vec(), text)
    }
}
