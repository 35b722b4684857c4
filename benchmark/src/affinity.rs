//! CPU affinity for the benchmark's own threads.
//!
//! On a two-core host the scheduler is free to put a client thread and a
//! gateway worker on one core or on two, and which it picks changes the
//! round trip severalfold (a local context switch against a cross-core
//! wake-up), for a whole run at a time. Pinning takes that choice away:
//! the gateway's threads get one core, the load generator's the other.
//!
//! A thread's mask is inherited by the threads it spawns, so pinning the
//! caller just before `serve(…)` pins every thread the gateway starts,
//! without touching the program. The standard library has no call for this
//! and the benchmark has no libc to call, hence the raw system calls; on
//! other targets, or where the kernel refuses, nothing is pinned and the
//! run says so.

/// CPUs this process may run on, ascending (empty when unknown): the mask
/// of whichever thread asks first, so ask before pinning anything.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; 16];
        let bytes = sys::getaffinity(&mut mask);
        if bytes <= 0 {
            return Vec::new();
        }
        (0..(bytes as usize * 8).min(mask.len() * 64))
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pin the calling thread — and every thread it spawns from now on — to
/// `cpu`. Returns whether the kernel agreed.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    sys::setaffinity(&mask) == 0
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::arch::asm;

    const SYS_SCHED_SETAFFINITY: i64 = 203;
    const SYS_SCHED_GETAFFINITY: i64 = 204;

    /// A three-argument Linux system call.
    ///
    /// # Safety
    ///
    /// `nr` must be a system call that is sound to make with these
    /// arguments: any pointer among them must be valid for what the kernel
    /// reads or writes through it.
    unsafe fn syscall3(nr: i64, a: usize, b: usize, c: usize) -> i64 {
        let ret: i64;
        // SAFETY: the x86-64 Linux convention — number in rax, arguments in
        // rdi, rsi, rdx, result in rax, rcx and r11 clobbered, no stack
        // use; that the call itself is sound is the caller's contract.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// `sched_getaffinity(0, …)`: bytes of mask written, or a negative errno.
    pub fn getaffinity(mask: &mut [u64; 16]) -> i64 {
        // SAFETY: sched_getaffinity(pid 0 = this thread, len, ptr) writes at
        // most `len` bytes at `ptr`; both describe the exclusively borrowed
        // array.
        unsafe {
            syscall3(
                SYS_SCHED_GETAFFINITY,
                0,
                std::mem::size_of_val(mask),
                mask.as_mut_ptr() as usize,
            )
        }
    }

    /// `sched_setaffinity(0, …)`: 0, or a negative errno.
    pub fn setaffinity(mask: &[u64; 16]) -> i64 {
        // SAFETY: sched_setaffinity(pid 0 = this thread, len, ptr) only
        // reads `len` bytes at `ptr`; both describe the borrowed array.
        unsafe {
            syscall3(
                SYS_SCHED_SETAFFINITY,
                0,
                std::mem::size_of_val(mask),
                mask.as_ptr() as usize,
            )
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn getaffinity(_: &mut [u64; 16]) -> i64 {
        -1
    }

    pub fn setaffinity(_: &[u64; 16]) -> i64 {
        -1
    }
}
