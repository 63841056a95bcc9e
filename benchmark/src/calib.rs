//! Host speed, measured with a reference kernel, and timings adjusted by it.
//!
//! The benchmark runs on small shared hosts whose CPUs other tenants slow
//! down in spells: a fixed LS-base forward pass took from 1× to 2× its best
//! time, in spells of seconds to minutes, with no CPU time stolen — the
//! CPU itself ran slower. No estimator inside a run can see past a spell
//! that covers the whole run. What can is a second clock: a fixed reference
//! kernel, timed around every measurement window, slows down with the host
//! and not with the program. Over 20-second spans the forward pass's median
//! time spread by 0.19 (interquartile range over median), and its ratio to
//! the reference kernel's by 0.02.
//!
//! So every timing the benchmark reports is **adjusted to a reference
//! host**: divided by the window's *slowness*, the reference kernel's time
//! around the window over [`NOMINAL_SECS`], its time on the reference host. The
//! raw timings are printed beside the adjusted ones.
//!
//! The kernel's time is thread CPU time, on one thread pinned to each CPU
//! the process may use, all at once. CPU time counts neither time stolen by the
//! hypervisor nor time the kernel waits while the program's own threads
//! run, so a program that keeps a core busy cannot make the host look slow
//! and its own timings look better.

use std::hint::black_box;

/// Reference-kernel CPU seconds per thread on the reference host: the
/// kernel's median time on the 2-vCPU host the README's numbers come from
/// (its fastest twentieth took 1.27 ms, its slowest 2.06 ms or more).
pub const NOMINAL_SECS: f64 = 0.0017;

/// Threads the kernel runs on at once when the process's CPUs are unknown.
const THREADS: usize = 2;

/// CPUs the kernel is timed on at most.
const MAX_CPUS: usize = 8;

/// Table updates per kernel run.
const KERNEL_OPS: u64 = 150_000;

/// Slots in the kernel's table (32 KiB).
const SLOTS: usize = 4096;

/// The reference kernel: updates of a table at hashed positions of a linear
/// congruential sequence — integer arithmetic, hashing, data-dependent
/// branches and cache traffic, like the program's own lookups. The table is
/// allocated and touched before the caller starts timing, so the kernel's
/// time has no page faults or allocator work in it.
fn kernel(table: &mut [u64; SLOTS]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut x = 1u64;
    for i in 0..KERNEL_OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        black_box(x).hash(&mut h);
        let k = h.finish();
        let slot = &mut table[(k % SLOTS as u64) as usize];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(i);
        } else {
            *slot ^= k;
        }
    }
    table.iter().fold(x, |a, &v| a ^ v)
}

/// The calling thread's CPU time, in seconds.
fn thread_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `repr(C)` timespec that
    // the call fills in; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A CPU set as `sched_getaffinity(2)` and `sched_setaffinity(2)` take it.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on (none if the kernel will not say).
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, exclusively borrowed buffer of exactly the
    // size passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Keep the calling thread on `cpu` alone (best effort).
fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0 is
    // the calling thread, whose affinity is all the call changes. A failure
    // leaves the thread where it was.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// How slow the host is now: the reference kernel's CPU time on each CPU
/// the process may use (one pinned thread per CPU, all at once), averaged
/// and divided by [`NOMINAL_SECS`]. The program's threads move between all
/// of those CPUs, which other tenants slow down by different amounts.
pub fn slowness() -> f64 {
    let mut cpus = allowed_cpus();
    cpus.truncate(MAX_CPUS);
    if cpus.is_empty() {
        cpus = vec![usize::MAX; THREADS];
    }
    let secs: f64 = std::thread::scope(|s| {
        let runs: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                s.spawn(move || {
                    if cpu != usize::MAX {
                        pin_to(cpu);
                    }
                    let mut table = Box::new([0u64; SLOTS]);
                    black_box(&mut table);
                    let t0 = thread_cpu_secs();
                    black_box(kernel(&mut table));
                    thread_cpu_secs() - t0
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("reference kernel thread"))
            .sum()
    });
    secs / cpus.len() as f64 / NOMINAL_SECS
}

/// Slowness readings taken between successive pieces of work; piece `i`
/// is judged by the readings just before and just after it.
pub struct Gauge {
    last: f64,
}

impl Gauge {
    /// A gauge with its first reading taken now.
    pub fn new() -> Gauge {
        Gauge { last: slowness() }
    }

    /// Take a reading now, after a piece of work, and return the piece's
    /// slowness: the mean of this reading and the one before it.
    pub fn after(&mut self) -> f64 {
        let now = slowness();
        let s = (self.last + now) / 2.0;
        self.last = now;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_positive_and_finite() {
        let mut g = Gauge::new();
        let s = g.after();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    #[test]
    fn a_busy_thread_of_our_own_does_not_read_as_a_slow_host() {
        // Keep more threads busy than there are cores: the kernel threads
        // get less of the wall clock, but the same CPU time per run.
        let quiet = (0..5).map(|_| slowness()).fold(f64::INFINITY, f64::min);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let busy = std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut table = Box::new([0u64; SLOTS]);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        black_box(kernel(&mut table));
                    }
                });
            }
            let busy = (0..5).map(|_| slowness()).fold(f64::INFINITY, f64::min);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            busy
        });
        assert!(busy < quiet * 1.5, "quiet {quiet}, busy {busy}");
    }
}
