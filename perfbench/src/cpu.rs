//! Process CPU time: the clock the end-to-end times are read from.
//!
//! The benchmark's host is a few virtual CPUs of a shared machine. The
//! hypervisor takes the CPUs away from this process for a share of
//! the wall time that changes with the other guests' load (steal time,
//! the `steal` column of `/proc/stat`): on the machine this was
//! written on, a 32 768-case micro-grid run on one worker took 3.9–5.0 s
//! of wall time for 2.8–3.0 s of CPU time, with 1.4–2.9 s stolen. CPU
//! time leaves the stolen share out, so it measures the program rather
//! than its neighbours. Wall time is still read through
//! `zen2_obs::clock` and printed beside it.

/// CPU time this process has used, all threads (exited ones too),
/// in nanoseconds; `None` where the clock cannot be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut tp = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `tp` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets), and the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut tp) };
    (rc == 0).then(|| tp.tv_sec as u64 * 1_000_000_000 + tp.tv_nsec as u64)
}

/// CPU time this process has used; read only on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_ns() -> Option<u64> {
    None
}

/// CPU seconds used since `start_ns` (a [`process_ns`] reading), or NaN
/// when the clock cannot be read, which the gate counts as a failure.
pub fn secs_since(start_ns: Option<u64>) -> f64 {
    match (start_ns, process_ns()) {
        (Some(start), Some(now)) => now.saturating_sub(start) as f64 / 1e9,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_counts_work_done() {
        let start = process_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let used = secs_since(start);
        assert!(used > 0.0 && used < 60.0, "{used}");
    }
}
