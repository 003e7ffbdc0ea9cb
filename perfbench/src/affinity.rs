//! Pinning the process to one CPU, through glibc's `sched_setaffinity`
//! and `sched_getcpu` (the standard library has no affinity API, and the
//! benchmark adds no crates).

use std::io;

/// glibc's `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// The CPU the calling thread is running on.
fn current_cpu() -> io::Result<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no caller
    // memory; a negative return is an error, which `try_from` rejects.
    let cpu = unsafe { sched_getcpu() };
    usize::try_from(cpu).map_err(|_| io::Error::last_os_error())
}

fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    let mut set = CpuSet { bits: [0; 16] };
    let word = set
        .bits
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "cpu index over 1023"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `set` is an initialised buffer of exactly the size passed,
    // alive for the whole call; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins every thread of this process to the CPU the caller runs on, and
/// returns that CPU. Threads spawned afterwards inherit the mask.
pub fn pin_process_here() -> io::Result<usize> {
    let cpu = current_cpu()?;
    for entry in std::fs::read_dir("/proc/self/task")? {
        let name = entry?.file_name();
        let Some(tid) = name.to_str().and_then(|s| s.parse::<i32>().ok()) else {
            continue;
        };
        match pin(tid, cpu) {
            // A thread that exited since the listing has nothing to pin.
            Err(e) if e.raw_os_error() == Some(3) => {}
            other => other?,
        }
    }
    Ok(cpu)
}
