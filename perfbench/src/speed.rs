//! Host-speed calibration: every reported timing is taken on one pinned
//! CPU and expressed in reference seconds.
//!
//! The benchmark's host is a small share of a machine it shares with other
//! tenants.  The speed of the same code on it moves between two states, up
//! to twice apart, in stretches of seconds to minutes, and the guest sees
//! no steal time for it (CPU time grows with wall time).  A wall-clock
//! median of one run therefore measures the neighbours as much as the
//! program.
//!
//! So each timed interval is bracketed by a fixed calibration kernel that
//! belongs to the benchmark, not to the program: a floating-point
//! recurrence of the kind the model's fixed point and the simulator's
//! statistics run.  An interval of wall time `t` whose kernels took `k₀`
//! before and `k₁` after is reported as `t · REFERENCE_S / ((k₀ + k₁)/2)`:
//! the time it would have taken on a host where the kernel takes exactly
//! [`REFERENCE_S`].  A change to the program moves the interval and not the
//! kernel, so it shows in full; a change of host state moves both.  Each
//! run prints the scales it applied, so wall-clock figures can be recovered.

use std::time::Instant;

/// The calibration kernel's time on the reference host.  It is a unit,
/// not a measurement: the kernel takes 0.6–1.3 ms on a 2.1 GHz Xeon vCPU
/// (family 6, model 207), depending on the neighbours.
pub const REFERENCE_S: f64 = 1e-3;

/// Steps of the calibration kernel's recurrence.
const KERNEL_STEPS: u32 = 60_000;

/// Runs the calibration kernel once and returns its wall time in seconds.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0.5_f64);
    let mut acc = 0.0;
    for k in 0..KERNEL_STEPS {
        x = (x * 3.7 * (1.0 - x)).max(1e-9);
        acc += (x + f64::from(k)).ln() / (1.0 + x.exp());
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Reference seconds per wall second over an interval bracketed by kernel
/// runs of `before` and `after` seconds.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}

/// Runs `f` between two kernel runs; returns its result, its wall time
/// and its wall-to-reference scale.
pub fn bracket<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = kernel_s();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, wall, scale(before, kernel_s()))
}

/// Pins the process's current thread, and every thread it starts later, to
/// the CPU it is running on, so that the kernel runs on the same CPU as the
/// work it calibrates.  Returns that CPU, or `None` where pinning is not
/// available.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    unsafe extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    const MASK_WORDS: usize = 16;
    // SAFETY: both are glibc/musl routines with these C signatures;
    // `sched_setaffinity` reads exactly `size` bytes from `mask`, which
    // points at a live array of that many bytes.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok()?;
        let mut mask = [0_u64; MASK_WORDS];
        *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_the_mean_of_their_bracketing_kernels() {
        assert!((scale(REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
        assert!((scale(1.5e-3, 2.5e-3) - 0.5).abs() < 1e-12);
        let (value, wall, scale) = bracket(|| 7);
        assert_eq!(value, 7);
        assert!(wall >= 0.0 && scale > 0.0 && scale.is_finite());
    }
}
