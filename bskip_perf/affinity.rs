//! Pinning a workload to one CPU, without a `libc` crate to call.
//!
//! `svc_pipe` runs a client thread and the server's connection threads.
//! Spread over two vCPUs, every window the client sends wakes a server
//! thread on the *other* vCPU, which has just halted: an inter-processor
//! interrupt and a wake-up from halt, both of which trap to the
//! hypervisor and cost what the host charges that minute (a loopback
//! ping-pong between two threads took 4.6 µs one hour and 52 µs the next).
//! On one CPU a wake-up is a flag and a context switch, the same every
//! time, and the workload measures what it is there for: the CPU a request
//! costs the wire path.
//!
//! The standard library has no affinity call, so this makes the two Linux
//! system calls itself.  Anywhere else (and if the kernel refuses) the
//! workload runs unpinned and says so.

/// Keeps the calling thread, and every thread it spawns from now on, on
/// one CPU until dropped.
pub struct Pinned {
    /// The affinity mask to restore; `None` when nothing was changed.
    restore: Option<Mask>,
    /// The CPU the thread is pinned to, if it is.
    pub cpu: Option<usize>,
}

/// Room for 1024 CPUs, the kernel's default limit.
type Mask = [u64; 16];

impl Pinned {
    /// Pins to the lowest-numbered CPU the thread may run on.
    pub fn to_one_cpu() -> Self {
        let mut allowed: Mask = [0; 16];
        if !sys::get_affinity(&mut allowed) {
            return Pinned {
                restore: None,
                cpu: None,
            };
        }
        let Some(word) = allowed.iter().position(|&bits| bits != 0) else {
            return Pinned {
                restore: None,
                cpu: None,
            };
        };
        let bit = allowed[word].trailing_zeros() as usize;
        let mut one: Mask = [0; 16];
        one[word] = 1 << bit;
        if sys::set_affinity(&one) {
            Pinned {
                restore: Some(allowed),
                cpu: Some(word * 64 + bit),
            }
        } else {
            Pinned {
                restore: None,
                cpu: None,
            }
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(allowed) = self.restore.take() {
            sys::set_affinity(&allowed);
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::Mask;

    #[cfg(target_arch = "x86_64")]
    const SCHED_SETAFFINITY: usize = 203;
    #[cfg(target_arch = "x86_64")]
    const SCHED_GETAFFINITY: usize = 204;
    #[cfg(target_arch = "aarch64")]
    const SCHED_SETAFFINITY: usize = 122;
    #[cfg(target_arch = "aarch64")]
    const SCHED_GETAFFINITY: usize = 123;

    /// `syscall(number, a, b, c)`; a negative result is `-errno`.
    ///
    /// # Safety
    /// The arguments must be valid for the system call `number`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
        let result: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => result,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        result
    }

    /// # Safety
    /// The arguments must be valid for the system call `number`.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
        let result: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") number,
            inlateout("x0") a as isize => result,
            in("x1") b,
            in("x2") c,
            options(nostack),
        );
        result
    }

    /// The calling thread's affinity mask (thread id 0 = this thread).
    pub fn get_affinity(mask: &mut Mask) -> bool {
        // SAFETY: the kernel writes at most `size_of::<Mask>()` bytes into
        // `mask`, which is that large and exclusively borrowed.
        let wrote = unsafe {
            syscall3(
                SCHED_GETAFFINITY,
                0,
                std::mem::size_of::<Mask>(),
                mask.as_mut_ptr() as usize,
            )
        };
        wrote > 0
    }

    pub fn set_affinity(mask: &Mask) -> bool {
        // SAFETY: the kernel reads `size_of::<Mask>()` bytes from `mask`.
        let result = unsafe {
            syscall3(
                SCHED_SETAFFINITY,
                0,
                std::mem::size_of::<Mask>(),
                mask.as_ptr() as usize,
            )
        };
        result == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::Mask;

    pub fn get_affinity(_mask: &mut Mask) -> bool {
        false
    }

    pub fn set_affinity(_mask: &Mask) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_dropping_restores() {
        let mut before: Mask = [0; 16];
        if !sys::get_affinity(&mut before) {
            assert!(Pinned::to_one_cpu().cpu.is_none());
            return;
        }
        let pinned = Pinned::to_one_cpu();
        let cpu = pinned.cpu.expect("pinned where affinity can be read");
        let mut during: Mask = [0; 16];
        assert!(sys::get_affinity(&mut during));
        assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_ne!(during[cpu / 64] & (1 << (cpu % 64)), 0);
        // A thread spawned while pinned inherits the mask.
        let child = std::thread::spawn(|| {
            let mut mask: Mask = [0; 16];
            sys::get_affinity(&mut mask);
            mask
        })
        .join()
        .unwrap();
        assert_eq!(child, during);
        drop(pinned);
        let mut after: Mask = [0; 16];
        assert!(sys::get_affinity(&mut after));
        assert_eq!(after, before);
    }
}
