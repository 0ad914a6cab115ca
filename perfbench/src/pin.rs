//! Pins the benchmark to one CPU.
//!
//! On a small shared host a thread that migrates between CPUs sees its
//! speed change with each move, and a thread that wakes a halted CPU
//! waits for the host to schedule it. Pinned to one CPU, one run's
//! repeats agree far more closely. Threads spawned later inherit the
//! pin: `serve-fleet`'s simulation threads and its policy server share
//! the CPU. Where pinning is unavailable this does nothing.

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the last CPU it may run on (CPU 0 usually takes the most
/// interrupts). Returns the CPU, or `None` if pinning is unavailable.
pub fn pin_to_last_cpu() -> Option<usize> {
    let cpu = *imp::allowed_cpus().last()?;
    imp::pin(cpu).then_some(cpu)
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 CPUs as a bit set.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs this thread may run on, ascending (empty if unknown).
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) -> bool {
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}
