//! CPU time from the kernel's clocks: the whole process's and the calling
//! thread's.
//!
//! Other tenants of a shared host take wall time from the program, not
//! CPU time: a guest kernel with paravirtual steal accounting leaves
//! the time its virtual CPU was stolen out of every task's run time. So
//! CPU time per request reads the program's own cost where wall-clock
//! figures read the host's load.

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process.
const PROCESS: i64 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
const THREAD: i64 = 3;

/// CPU seconds the whole process has used; `NaN` where the clock is
/// not available.
#[must_use]
pub fn process_s() -> f64 {
    clock_s(PROCESS)
}

/// CPU seconds the calling thread has used; `NaN` where the clock is not
/// available.
#[must_use]
pub fn thread_s() -> f64 {
    clock_s(THREAD)
}

/// `clock_gettime(id)` in seconds, by raw system call: the offline
/// toolchain has no libc crate.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn clock_s(id: i64) -> f64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    // struct timespec { tv_sec: i64, tv_nsec: i64 }
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one timespec to the pointer it is
    // given, and `ts` is one; the syscall clobbers only rcx and r11.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") id,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret == 0 {
        ts[0] as f64 + ts[1] as f64 * 1e-9
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn clock_s(_id: i64) -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 1u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) + 1);
        }
        let (p1, t1) = (process_s(), thread_s());
        assert!(t1 - t0 >= 0.03, "thread {t0} -> {t1}");
        assert!(p1 - p0 >= t1 - t0 - 1e-3, "process {p0} -> {p1}");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_s() - t1 < 0.01);
    }
}
