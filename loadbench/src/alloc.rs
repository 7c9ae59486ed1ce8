//! A counting global allocator for the traced process only.
//!
//! `loadbench-traced` installs [`Counting`] with `#[global_allocator]`;
//! the untraced `loadbench` does not, so its counters stay at zero and
//! no end-to-end figure is taken under it. Threads that belong to the
//! load generator call [`exclude_this_thread`], so the counts are the
//! program's allocations, not the harness's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// `System`, plus a count of allocations and bytes requested.
pub struct Counting;

fn count(size: usize) {
    // `try_with` fails only while this thread's locals are being torn
    // down; such late allocations are counted.
    if !EXCLUDED.try_with(Cell::get).unwrap_or(false) {
        // Relaxed: plain statistics, read after the threads that wrote
        // them have been joined or between phases.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and a const-initialized thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Stop counting the calling thread's allocations.
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// `(allocations, bytes)` counted so far.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
