//! Process accounting from `/proc`: CPU seconds consumed (user + system,
//! every thread, living or joined) and peak resident set size.
//!
//! Off Linux — or when a process has already gone — [`sample`] returns
//! `None` and the report prints the metrics as unavailable instead of 0.

use std::ffi::{c_int, c_long};

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSample {
    /// utime + stime, seconds.
    pub cpu_s: f64,
    /// `VmHWM`: the largest resident set the process ever had, MiB.
    pub peak_rss_mb: f64,
}

extern "C" {
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: c_int = 2;

/// Clock ticks per second — the unit of the times in `/proc/<pid>/stat`.
fn ticks_per_second() -> f64 {
    // SAFETY: `sysconf` takes an integer, touches no memory of ours and is
    // thread-safe; an unknown name returns -1, handled below.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// utime + stime in ticks from the text of `/proc/<pid>/stat`. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reads the counters of process `pid`.
pub fn sample(pid: u32) -> Option<ProcSample> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(ProcSample {
        cpu_s: parse_cpu_ticks(&stat)? as f64 / ticks_per_second(),
        peak_rss_mb: parse_vm_hwm_kb(&status)? as f64 / 1024.0,
    })
}

/// Starts this process's `VmHWM` over from its current resident set, so
/// that the next reading is the peak since now. False where the kernel
/// does not offer it; the peak then keeps its old value.
pub fn reset_peak_rss() -> bool {
    // "5" is the value `proc(5)` defines for resetting the peak.
    cfg!(target_os = "linux") && std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Sums the samples of several processes; `None` if any is unavailable.
pub fn sample_all(pids: &[u32]) -> Option<ProcSample> {
    let mut total = ProcSample {
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
    };
    for &pid in pids {
        let s = sample(pid)?;
        total.cpu_s += s.cpu_s;
        total.peak_rss_mb += s.peak_rss_mb;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_a_stat_line_with_a_hostile_command_name() {
        let stat = "1234 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 99 1000 10";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_busy_loop_shows_up_as_cpu_time() {
        let pid = std::process::id();
        let before = sample(pid).expect("own /proc entry is readable");
        let started = Instant::now();
        let mut x = 1u64;
        while started.elapsed() < Duration::from_millis(300) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = sample(pid).unwrap();
        let burned = after.cpu_s - before.cpu_s;
        // Other test threads may add to it, a descheduled loop may take
        // from it: accept anything that clearly is not zero.
        assert!(burned >= 0.1, "300 ms of spinning counted as {burned} s");
        assert!(after.peak_rss_mb > 1.0);
        assert!(sample(u32::MAX).is_none(), "no such process");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_peak_can_start_over() {
        let pid = std::process::id();
        let big = vec![1u8; 64 << 20];
        let with_big = sample(pid).unwrap().peak_rss_mb;
        assert!(with_big >= 64.0, "{with_big} MiB with 64 MiB touched");
        drop(std::hint::black_box(big));
        // Other tests allocate meanwhile: only ask that most of it is gone.
        if reset_peak_rss() {
            let after = sample(pid).unwrap().peak_rss_mb;
            assert!(after < with_big - 32.0, "{after} MiB after the reset");
        }
    }
}
