//! Thread placement: the client thread and the system's reactor thread each
//! get a CPU of their own.
//!
//! With both threads on one CPU, every invalidation waits for the client to
//! be descheduled before the reactor can apply it: throughput halves and
//! invalidation age rises from microseconds to milliseconds. The benchmark
//! therefore pins the calling thread to the reactor's CPU while the system
//! is built (the reactor thread inherits that affinity when it is spawned),
//! then moves the calling thread, which is the client, to a second CPU. A
//! process allowed fewer than two CPUs cannot be placed this way and the
//! run is refused.

use std::fmt;

/// The two CPUs a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// CPU of the closed-loop client thread.
    pub client_cpu: usize,
    /// CPU of the system's reactor thread.
    pub reactor_cpu: usize,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "client on cpu {}, reactor on cpu {}",
            self.client_cpu, self.reactor_cpu
        )
    }
}

impl Placement {
    /// Picks the first two CPUs the process may run on.
    ///
    /// # Errors
    /// Fails if the affinity mask cannot be read or allows fewer than two
    /// CPUs, in which case client and reactor would share a CPU.
    pub fn choose() -> Result<Placement, String> {
        let allowed = sys::allowed_cpus()?;
        match allowed[..] {
            [client_cpu, reactor_cpu, ..] => Ok(Placement {
                client_cpu,
                reactor_cpu,
            }),
            _ => Err(format!(
                "refusing a shared-CPU run: the process may use only cpus {allowed:?}, \
                 but the client and the reactor thread each need one"
            )),
        }
    }

    /// Pins the calling thread to the reactor's CPU; a thread spawned now
    /// inherits that placement.
    ///
    /// # Errors
    /// Fails if the kernel rejects the affinity change.
    pub fn pin_for_spawn(&self) -> Result<(), String> {
        sys::pin_current_thread(self.reactor_cpu)
    }

    /// Pins the calling thread to the client's CPU and checks it runs there.
    ///
    /// # Errors
    /// Fails if the kernel rejects the affinity change or the thread is
    /// found on another CPU afterwards.
    pub fn pin_client(&self) -> Result<(), String> {
        sys::pin_current_thread(self.client_cpu)?;
        match sys::current_cpu() {
            Some(cpu) if cpu != self.client_cpu => Err(format!(
                "client thread runs on cpu {cpu} after pinning it to cpu {}",
                self.client_cpu
            )),
            _ => Ok(()),
        }
    }
}

/// The calling thread's CPU affinity, restored when dropped, so a run
/// leaves its caller placed as it found it.
#[derive(Debug)]
pub struct AffinityGuard(sys::Mask);

impl AffinityGuard {
    /// Saves the calling thread's affinity.
    ///
    /// # Errors
    /// Fails if the affinity mask cannot be read.
    pub fn save() -> Result<AffinityGuard, String> {
        sys::current_mask().map(AffinityGuard)
    }
}

impl Drop for AffinityGuard {
    fn drop(&mut self) {
        // Best effort: the mask was read from this thread, so restoring it
        // only fails if the CPUs went away meanwhile.
        let _ = sys::set_mask(&self.0);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words in a glibc `cpu_set_t` (1024 CPUs).
    const MASK_WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// A glibc `cpu_set_t`.
    pub(crate) type Mask = [u64; MASK_WORDS];

    pub(super) fn current_mask() -> Result<Mask, String> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(mask)
    }

    pub(super) fn set_mask(mask: &Mask) -> Result<(), String> {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }

    pub(super) fn allowed_cpus() -> Result<Vec<usize>, String> {
        let mask = current_mask()?;
        Ok((0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect())
    }

    pub(super) fn pin_current_thread(cpu: usize) -> Result<(), String> {
        if cpu >= MASK_WORDS * 64 {
            return Err(format!("cpu {cpu} is outside the affinity mask"));
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set_mask(&mask).map_err(|e| format!("pinning to cpu {cpu}: {e}"))
    }

    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments and only reads state.
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu).ok()
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(crate) type Mask = ();

    pub(super) fn current_mask() -> Result<Mask, String> {
        Err("thread placement is implemented for Linux only".into())
    }

    pub(super) fn set_mask(_mask: &Mask) -> Result<(), String> {
        Err("thread placement is implemented for Linux only".into())
    }

    pub(super) fn allowed_cpus() -> Result<Vec<usize>, String> {
        Err("thread placement is implemented for Linux only".into())
    }

    pub(super) fn pin_current_thread(_cpu: usize) -> Result<(), String> {
        Err("thread placement is implemented for Linux only".into())
    }

    pub(super) fn current_cpu() -> Option<usize> {
        None
    }
}
