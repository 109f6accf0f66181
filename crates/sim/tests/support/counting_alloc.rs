//! A `#[global_allocator]` that counts allocations and the bytes they ask
//! for per thread, shared by the `alloc_free` suites of `smrp-sim` and
//! `smrp-proto` and by `smrp-proto`'s `hierarchy_build_alloc` (the
//! `smrp-proto` suites include this file by `#[path]`).
//!
//! The counter is per thread, so the harness's own threads don't disturb
//! a test's measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one(bytes: usize) {
    // Ignoring the errors: a thread that is tearing down its locals is
    // past anything these tests measure.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System`; the caller vouches for the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has asked for so far: every allocation's size
/// plus every reallocation's new size.
#[allow(dead_code)] // The `alloc_free` suites count calls only.
pub fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}
