//! CPU-time clocks. On a shared virtual host the wall clock also counts
//! time the hypervisor gave the CPU to someone else (steal), which moves
//! from run to run; CPU time charges only the work done, so the gated
//! metrics read it.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuMask = [u64; 16];

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of the
    // 64-bit Linux ABI, and the clock ids are the ones Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process, finished
/// threads included.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds (user + system) used so far by process `pid`, from
/// `/proc/<pid>/stat` (clock-tick resolution).
pub fn pid_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf takes an integer name and has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    (ticks > 0).then(|| (utime + stime) / ticks as f64)
}

/// CPU seconds used so far by the live threads of process `pid`, from
/// the nanosecond run-time counters in `/proc/<pid>/task/*/schedstat`.
/// Exact for a process none of whose threads has exited yet.
pub fn live_threads_s(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 * 1e-9)
}

/// The CPUs the calling thread may run on (empty if unreadable).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; false if the kernel refused.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_s() > p0 && thread_s() > t0);
        assert!(pid_s(std::process::id()).is_some_and(|s| s >= 0.0));
        assert!(live_threads_s(std::process::id()).is_some_and(|s| s > 0.0));
    }

    #[test]
    fn pinning_round_trips() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        assert!(pin(&allowed[..1]));
        assert_eq!(allowed_cpus(), allowed[..1]);
        assert!(pin(&allowed));
        assert_eq!(allowed_cpus(), allowed);
    }
}
