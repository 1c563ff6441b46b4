//! Process measurements without dependencies (Linux): a child's exit
//! status and peak RSS from `wait4(2)`, this process's `VmHWM` from
//! `/proc/self/status`, and a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
pub struct Reaped {
    /// The exit code, or `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    /// The child's peak resident set size in MB.
    pub peak_rss_mb: f64,
}

/// Reap `child` with `wait4`, taking its resource usage. Consumes the
/// handle so nothing waits on the pid a second time.
pub fn reap(child: Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the kernel expects; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Reaped {
        exit_code,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

/// This process's peak resident set size (`VmHWM`) in MB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Seconds of hypervisor steal time summed over all CPUs since boot
/// (`/proc/stat`, in clock ticks). A guest whose CPUs are taken away by the
/// host accrues steal only on CPUs that had work to run.
pub fn steal_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let steal: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .expect("steal column in /proc/stat");
    // SAFETY: sysconf only reads a system constant.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    steal / ticks.max(1) as f64
}

/// A stopwatch that also reads steal time, for timings net of it.
pub struct Stopwatch {
    start: std::time::Instant,
    steal_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            steal_s: steal_s(),
            start: std::time::Instant::now(),
        }
    }

    /// Seconds since the start, less the steal time accrued meanwhile.
    pub fn net_s(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        (wall - (steal_s() - self.steal_s)).max(0.0)
    }
}

/// Reset `VmHWM` to the current RSS, so the next [`vm_hwm_mb`] reads the
/// peak of the work in between.
pub fn reset_hwm() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts allocations (reallocations included) while counting is on, and
/// delegates everything to [`System`].
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn allocation counting on (traced runs) or off (timed runs).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
