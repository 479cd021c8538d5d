//! CPU-time clocks for the host metrics.
//!
//! The benchmark shares its cores with whatever else the host runs. A
//! wall clock then measures the scheduler as much as the program: a
//! run that waits for a core reads slower although the program did the
//! same work. CPU time counts only the time the program's threads ran,
//! so the host metrics that sum up work (set-up, throughput, cost per
//! job) are taken from it; round-trip latencies stay on the wall clock.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// A CPU affinity mask (`cpu_set_t`: 1024 bits).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CpuSet([u8; 128]);

impl CpuSet {
    /// The calling thread's current mask.
    pub fn of_this_thread() -> CpuSet {
        let mut set = CpuSet([0; 128]);
        // SAFETY: the buffer is a writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, set.0.len(), set.0.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        set
    }

    /// The mask holding only `cpu`.
    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 128]);
        set.0[cpu / 8] |= 1 << (cpu % 8);
        set
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 8)
            .filter(|&c| self.0[c / 8] & (1 << (c % 8)) != 0)
            .collect()
    }

    /// Restricts the calling thread to this mask.
    pub fn apply_to_this_thread(&self) {
        // SAFETY: the buffer is a valid cpu_set_t of the size passed.
        let rc = unsafe { sched_setaffinity(0, self.0.len(), self.0.as_ptr()) };
        assert_eq!(rc, 0, "sched_setaffinity failed");
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

fn read_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and both clock ids
    // exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process.
pub fn process_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds (user + system) used so far by process `pid`, its
/// exited threads included, from `/proc/<pid>/stat`. The resolution is
/// one clock tick (usually 10 ms), so it suits intervals of seconds.
pub fn of_pid_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the command name, which is parenthesised and may
    // hold spaces: state is field 3, utime and stime are 14 and 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    (ticks > 0).then(|| (utime + stime) as f64 / ticks as f64)
}

/// CPU seconds used so far by the live threads of process `pid`, from
/// each `/proc/<pid>/task/<tid>/schedstat` (nanosecond resolution).
/// Threads that already exited, or exit while they are read, are not
/// counted.
pub fn of_pid_threads_s(pid: u32) -> Option<f64> {
    let mut ns: u64 = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let Ok(task) = task else { continue };
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) -> u64 {
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_secs_f64() < seconds {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        x
    }

    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let (p0, t0) = (process_s(), thread_s());
        std::hint::black_box(spin(0.05));
        let (p1, t1) = (process_s(), thread_s());
        assert!(t1 - t0 >= 0.02, "thread clock barely moved: {}", t1 - t0);
        assert!(p1 - p0 >= t1 - t0 - 1e-3);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_s() - t1 < 0.01, "sleep counted as CPU time");
    }

    #[test]
    fn affinity_round_trips() {
        let all = CpuSet::of_this_thread();
        let cpus = all.cpus();
        assert!(!cpus.is_empty());
        CpuSet::only(cpus[0]).apply_to_this_thread();
        assert_eq!(CpuSet::of_this_thread().cpus(), vec![cpus[0]]);
        all.apply_to_this_thread();
        assert_eq!(CpuSet::of_this_thread(), all);
    }

    #[test]
    fn proc_readers_see_this_process() {
        std::hint::black_box(spin(0.05));
        let pid = std::process::id();
        let stat = of_pid_s(pid).expect("/proc/<pid>/stat");
        let live = of_pid_threads_s(pid).expect("/proc/<pid>/task");
        assert!(stat > 0.0 && live > 0.0);
        assert!(live <= process_s() + 1e-3);
    }
}
