//! Allocation observability: a counting global allocator.
//!
//! Enabled with the `count-allocs` feature, this wraps [`std::alloc::System`]
//! and counts every allocation (and reallocation) with a relaxed atomic.
//! The bench harness samples the counter around measured regions to emit
//! `allocs_per_stmt` columns next to the MB/s numbers — the arena/interner
//! work is a heap-traffic reduction first and a wall-clock win second, so
//! the benches record both. It also tracks live heap bytes and their
//! peak, so [`peak_heap_growth`] can report the most heap a region held
//! at once — an exact, allocator-level memory figure that does not depend
//! on the host's page sizes or on what the process freed earlier.
//!
//! With the feature off, [`alloc_count`] always returns 0, and
//! [`allocs_per_stmt`] and [`peak_heap_growth`] return `None`; nothing is
//! installed and the system allocator is untouched (counting costs a few
//! relaxed atomic operations per allocation, which is noise for the parse
//! path but still opt-in).

#[cfg(feature = "count-allocs")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Requested bytes currently allocated.
    static LIVE: AtomicU64 = AtomicU64::new(0);
    /// Highest value `LIVE` reached since the last [`reset_peak`].
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// Counts allocations and live bytes, delegates everything to
    /// [`System`].
    struct CountingAlloc;

    // SAFETY: pure delegation to `System`; the counters have no effect on
    // the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let ptr = unsafe { System.alloc(layout) };
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            shrink(layout.size());
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let ptr = unsafe { System.alloc_zeroed(layout) };
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc is new heap traffic (a grow usually moves), so it
            // counts: Vec-growth churn is exactly what the arena removes.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let new = unsafe { System.realloc(ptr, layout, new_size) };
            if !new.is_null() {
                if new_size >= layout.size() {
                    grow(new_size - layout.size());
                } else {
                    shrink(layout.size() - new_size);
                }
            }
            new
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn alloc_count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    pub fn live_bytes() -> u64 {
        LIVE.load(Ordering::Relaxed)
    }

    /// Restart peak tracking from the bytes live now.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn peak_bytes() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }

    pub const COUNTING: bool = true;
}

#[cfg(not(feature = "count-allocs"))]
mod imp {
    pub fn alloc_count() -> u64 {
        0
    }

    pub fn live_bytes() -> u64 {
        0
    }

    pub fn reset_peak() {}

    pub fn peak_bytes() -> u64 {
        0
    }

    pub const COUNTING: bool = false;
}

/// Total heap allocations (including reallocations) since process start.
/// Always 0 without the `count-allocs` feature.
pub fn alloc_count() -> u64 {
    imp::alloc_count()
}

/// Whether allocation counting is compiled in.
pub const COUNTING: bool = imp::COUNTING;

/// Allocations per statement across a measured region, or `None` when
/// counting is compiled out (so JSON rows can omit the column rather than
/// report a misleading 0).
pub fn allocs_per_stmt(before: u64, after: u64, statements: usize) -> Option<f64> {
    if !COUNTING || statements == 0 {
        return None;
    }
    Some((after - before) as f64 / statements as f64)
}

/// Run `f` and return its result together with the most heap bytes it
/// held at once: the peak of live requested bytes while `f` ran, minus
/// the bytes live when it started. `None` when counting is compiled out.
/// The figure is process-wide, so the caller must be the only thread
/// allocating while `f` runs.
pub fn peak_heap_growth<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = imp::live_bytes();
    imp::reset_peak();
    let out = f();
    let peak = imp::peak_bytes();
    (out, COUNTING.then(|| peak.saturating_sub(before)))
}
