//! A counting allocator for tests that must show a hostile length never
//! drives an allocation: the system allocator, recording each thread's
//! largest request. A test binary installs it with `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// Forget this thread's largest allocation so far.
pub fn reset_largest() {
    LARGEST_ALLOC.with(|max| max.set(0));
}

/// This thread's largest single allocation since the last reset.
pub fn largest() -> usize {
    LARGEST_ALLOC.with(Cell::get)
}

/// The system allocator, recording each thread's largest request.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised thread-local `Cell` (no allocation, no unwinding).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the thread-local is gone while a thread tears down.
        let _ = LARGEST_ALLOC.try_with(|max| max.set(max.get().max(layout.size())));
        // SAFETY: the caller's obligations for `alloc` are passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST_ALLOC.try_with(|max| max.set(max.get().max(new_size)));
        // SAFETY: the caller's obligations for `realloc` are passed on as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
