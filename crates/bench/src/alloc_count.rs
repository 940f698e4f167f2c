//! A counting global allocator for allocation-budget benches.
//!
//! The training engine claims a steady-state step allocates *nothing*, the
//! buffered event loop that an aggregation copies none of its in-flight
//! tasks, a FedTiny round that its trainers are pooled. Claims like that rot
//! silently — the only durable proof is a counter under the allocator. A
//! bench binary installs [`CountingAlloc`]
//! as its `#[global_allocator]`, brackets the measured loop with
//! [`allocated_bytes`] snapshots, and pins the delta per round in its
//! `BENCH_*.json` report, where `bench_check` gates it.
//!
//! The counter tracks *allocation traffic* (bytes requested from the
//! system allocator), not live bytes: a `Vec` that grows once and is
//! reused forever counts its growth once, which is exactly the
//! steady-state question. `realloc` counts only the growth beyond the old
//! size. Frees are not subtracted — an alloc/free churn loop must show up,
//! not cancel out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Cumulative bytes requested from the allocator by this process (all
/// threads) since startup. Meaningful only when [`CountingAlloc`] is
/// installed as the `#[global_allocator]`; otherwise it stays 0.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// A [`System`]-backed allocator that counts every requested byte.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ft_bench::CountingAlloc = ft_bench::CountingAlloc;
/// ```
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size()) as u64;
        ALLOCATED.fetch_add(grown, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
