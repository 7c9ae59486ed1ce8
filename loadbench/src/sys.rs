//! The few operating-system facilities the load generator needs that
//! `std` does not expose: a poll with a nanosecond timeout, per-thread
//! timer slack, CPU affinity and scheduling policy, and the `/proc`
//! counters behind the CPU, memory and host-validity figures. Linux
//! only, like the server's epoll backend.

use std::io;
use std::os::fd::RawFd;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_IDLE: i32 = 5;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Block until one of `fds` is readable (or writable, where its flag is
/// set) or `timeout_ns` passes. Interrupted waits return early; the
/// caller's loop re-checks its clock either way.
pub fn wait(fds: &[(RawFd, bool)], timeout_ns: u64) -> io::Result<()> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, want_write)| PollFd {
            fd,
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `pfds` is a live, initialized array of `pfds.len()` pollfd
    // structs with the C layout; `ts` outlives the call; a null sigmask
    // means "leave the signal mask alone".
    let rc = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Let this thread's timed waits wake within a microsecond of their
/// deadline instead of the default 50 µs slack, so a sender is not late
/// by the kernel's timer coalescing.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Run the calling thread under `SCHED_IDLE`: only when its CPU has
/// nothing else to run.
pub fn set_idle_policy() -> io::Result<()> {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a live `struct sched_param`; pid 0 is the
    // calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Keep the calling thread on `cpus` from now on.
pub fn set_thread_cpus(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn clock_ticks_per_sec() -> u64 {
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}

/// utime + stime from a `/proc/.../stat` file, in microseconds.
fn stat_cpu_us(path: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(path)?;
    // The command name (field 2) may hold spaces; fields resume after
    // the last ')'. utime and stime are fields 14 and 15.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other(format!("malformed {path}")))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other(format!("malformed {path}")))
    };
    let ticks = field(11)? + field(12)?;
    Ok(ticks * 1_000_000 / clock_ticks_per_sec())
}

/// CPU time the whole process has used, in microseconds.
pub fn process_cpu_us() -> io::Result<u64> {
    stat_cpu_us("/proc/self/stat")
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> io::Result<u64> {
    let link = std::fs::read_link("/proc/thread-self")?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| io::Error::other("unreadable /proc/thread-self"))
}

/// CPU time thread `tid` of this process has used, in microseconds.
pub fn thread_cpu_us(tid: u64) -> io::Result<u64> {
    stat_cpu_us(&format!("/proc/self/task/{tid}/stat"))
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    let kb: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kb as f64 / 1024.0)
}

/// Host-wide CPU time as `(steal, total)` jiffies from `/proc/stat`.
pub fn host_steal_total() -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat")?;
    let line = text
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or_else(|| io::Error::other("no cpu line in /proc/stat"))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so it is not added again.
    let total: u64 = v.iter().take(8).sum();
    Ok((v.get(7).copied().unwrap_or(0), total))
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
