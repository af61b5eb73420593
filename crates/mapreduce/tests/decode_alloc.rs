//! A count read off the wire is a loop bound and at most a hint, never a
//! reservation: four hostile bytes must not make `Vec<T>::decode` ask the
//! allocator for megabytes before the first element fails to decode.
//!
//! The allocator below counts for the whole test binary, so this file
//! holds exactly one test.

use mrsim::{MrError, Rec};
use rdf_model::atom::Atom;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested from the allocator since the last reset (frees are not
/// subtracted: a reservation counts even if it is dropped at once).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn hostile_count_reserves_no_more_than_the_bytes_behind_it() {
    // A count of u32::MAX, then 8 bytes: one empty-token element with an
    // empty object list decodes, the second finds nothing to read.
    let mut bytes = vec![0xff; 4];
    bytes.extend_from_slice(&[0; 8]);

    REQUESTED.store(0, Ordering::Relaxed);
    let got = Vec::<(Atom, Vec<Atom>)>::from_bytes(&bytes);
    let requested = REQUESTED.load(Ordering::Relaxed);

    assert!(matches!(got, Err(MrError::Codec(_))), "unexpected result: {got:?}");
    assert!(requested < 64 << 10, "decode requested {requested} bytes for a 12-byte input");

    // The count stays a hint, not a limit: zero-width elements decode in
    // any number.
    assert_eq!(Vec::<()>::from_bytes(&1000u32.to_le_bytes()).unwrap().len(), 1000);
}
