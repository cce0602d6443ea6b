//! Rotating the benchmark across the CPUs it may run on.
//!
//! On a shared host one virtual CPU can be slowed for seconds at a time
//! by a neighbour on the same physical core, while the other runs at full
//! speed; a run that stays on the slow one reads far slower than the same
//! code elsewhere. Timed segments therefore move round-robin over every
//! CPU the process is allowed on, so each run samples all of them and
//! the upper segment rates measure the code rather than the neighbours.
//! The original affinity is restored when the rotation is dropped.

/// Round-robin pinning over the CPUs the process may use.
pub struct CpuRotation {
    original: Mask,
    cpus: Vec<usize>,
    next: usize,
}

const WORDS: usize = 16;
type Mask = [u64; WORDS];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) -> bool {
    false
}

impl CpuRotation {
    /// A rotation over the CPUs currently allowed (a no-op rotation when
    /// there is one, or when the affinity cannot be read).
    pub fn new() -> Self {
        let original = get().unwrap_or([0; WORDS]);
        let cpus = (0..WORDS * 64)
            .filter(|&c| original[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        CpuRotation {
            original,
            cpus,
            next: 0,
        }
    }

    /// Pin the calling thread to the next CPU of the rotation.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: Mask = [0; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            set(&self.original);
        }
    }
}
