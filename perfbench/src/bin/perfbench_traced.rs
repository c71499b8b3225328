//! The traced benchmark binary (`--trace 1`). It counts allocations with
//! `counting-alloc`, but only while the traced pass switches counting on:
//! the counters are shared atomics, and counting during the two-worker
//! passes would slow allocation-heavy schemes and distort their speed-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use counting_alloc::CountingAlloc;

/// Whether allocations are counted. It publishes no other data, so
/// relaxed loads and stores suffice.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Forwards to `CountingAlloc` while counting is on, else to `System`.
struct Switched;

// SAFETY: every call forwards to `System`, directly or through
// `CountingAlloc`, which forwards each call to `System` unchanged; a block
// allocated by either path is therefore a `System` block, valid to free or
// reallocate through either path.
unsafe impl GlobalAlloc for Switched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }
}

#[global_allocator]
static ALLOC: Switched = Switched;

fn count(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn main() {
    count(true);
    let installed = counting_alloc::is_installed();
    count(false);
    std::process::exit(perfbench::main(installed.then_some(count as perfbench::CountSwitch)));
}
