//! How fast the machine is while the benchmark runs, and the correction of
//! a measured time to nominal machine speed.
//!
//! The host this suite was sized on is a 2-vCPU guest of a shared machine.
//! Each vCPU flips between full speed and roughly 0.55–0.65 of it (another
//! tenant on the sibling hyperthread) for spells of half a second to a
//! minute and more. A round then takes up to 1.5 times as long and burns
//! 1.5 times the CPU seconds, whole runs fall into one state or the other,
//! and no summary of raw times — median, quartile or minimum — repeats
//! within a quarter. `/proc/stat` shows no steal and there is no PMU, so
//! the speed has to be measured.
//!
//! A [`SpeedMonitor`] pins one sampler thread to every CPU the process may
//! use. Every [`PERIOD`] a sampler times a fixed, cache-resident integer
//! kernel (~0.1 ms, a hundredth of a CPU). The kernel's time over a window,
//! relative to [`NOMINAL_KERNEL_MS`], is the machine's **slowdown** during
//! that window: 1.0 undisturbed, ~1.9 with both vCPUs slowed. A measured
//! time is brought to nominal speed by dividing it by `slowdown ^
//! exponent`; the exponent is below 1 because the engine shares a core less
//! badly than the kernel does and part of a round is waiting, not
//! computing. The exponents ([`SpeedExponents`], one set per workload) were
//! fitted on this host with `tools/fit_exponents.py` (see
//! `suite/README.md`) and are constants: they are part of the definition of
//! the metrics, not tuned per run.
//!
//! Nominal speed is a constant of the sizing host, like the scale factor
//! and the thread counts, and not the fastest reading of the run: for
//! minutes at a time this host also runs a seventh *faster* than usual
//! (kernel 0.087 ms instead of 0.102), the engine gains almost nothing
//! from that, and a nominal that followed it moved every slowdown of those
//! runs by 17 %. Readings faster than nominal count as nominal. On a
//! machine that is faster throughout nothing is corrected; on a slower one
//! every time is scaled by the same factor.

use std::ffi::{c_int, c_ulong};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between two readings of one sampler.
const PERIOD: Duration = Duration::from_millis(20);
/// Passes over [`KERNEL_WORDS`] per reading: ~0.1 ms at full speed here.
const KERNEL_PASSES: u64 = 100;
/// Working set of the kernel, 16 KiB: it stays in the first-level cache, so
/// a reading takes nothing from the engine but its time.
const KERNEL_WORDS: u64 = 2048;
/// What the kernel takes on an undisturbed CPU of the sizing host (Intel
/// Xeon @ 2.1 GHz guest), milliseconds: the fastest reading of 88 of 100
/// sizing runs was 0.1012–0.1039 whatever else the run saw, and
/// 0.0863–0.0897 in the other 12.
pub const NOMINAL_KERNEL_MS: f64 = 0.102;
/// A reading this many times nominal was interrupted (the sampler was
/// descheduled half-way), not slowed; it says nothing about speed.
const INTERRUPTED: f64 = 4.0;
/// More CPUs than this are not sampled; the suite is sized for two.
const MAX_SAMPLERS: usize = 8;

/// How a workload's times follow the machine's speed: `time / slowdown ^
/// exponent` is the time at nominal speed. One set per workload, because
/// what a round is made of differs: how much of it computes on both CPUs,
/// how much waits, and — on `elastic_slo` — how much the controller makes
/// up for a slower machine with a higher DOP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedExponents {
    /// Client-observed round latency.
    pub latency: f64,
    /// CPU seconds per round.
    pub cpu: f64,
    /// Set-up: mostly one thread generating tables, no waiting.
    pub setup: f64,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

const MASK_WORDS: usize = 16;
const WORD_BITS: usize = c_ulong::BITS as usize;

/// CPUs the calling thread may run on; empty when the kernel will not say.
fn allowed_cpus() -> Vec<usize> {
    if !cfg!(target_os = "linux") {
        return Vec::new();
    }
    let mut mask = [0 as c_ulong; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * WORD_BITS)
        .filter(|cpu| mask[cpu / WORD_BITS] >> (cpu % WORD_BITS) & 1 == 1)
        .collect()
}

/// Keeps the calling thread on `cpu`. A refusal is harmless: the sampler
/// then reads whichever CPU it is put on.
fn pin_to(cpu: usize) {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    mask[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
    // SAFETY: `mask` is a live buffer of exactly the size passed and is only
    // read; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Filter, multiply, shift and add on four independent accumulators: the
/// kind of instruction mix a scan-and-aggregate loop has, and one that
/// feels a busy sibling hyperthread (a dependent chain would not).
fn kernel(words: &[u64]) -> u64 {
    let mut acc = [0u64; 4];
    for pass in 0..KERNEL_PASSES {
        for chunk in words.chunks_exact(4) {
            for (a, w) in acc.iter_mut().zip(chunk) {
                let v = w ^ pass;
                if v & 3 != 0 {
                    *a = a.wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7);
                }
            }
        }
        acc = std::hint::black_box(acc);
    }
    acc.iter().fold(0, |x, a| x ^ a)
}

/// One reading: when it was taken and how long the kernel took.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    kernel_ms: f64,
}

/// Samples machine speed from its creation until it is dropped.
pub struct SpeedMonitor {
    stop: Arc<AtomicBool>,
    readings: Arc<Mutex<Vec<Reading>>>,
    samplers: Vec<JoinHandle<()>>,
}

impl SpeedMonitor {
    pub fn start() -> SpeedMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let readings = Arc::new(Mutex::new(Vec::new()));
        let mut cpus: Vec<Option<usize>> = allowed_cpus().into_iter().map(Some).collect();
        if cpus.is_empty() {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            cpus = vec![None; n];
        }
        cpus.truncate(MAX_SAMPLERS);
        let samplers = cpus
            .into_iter()
            .map(|cpu| {
                let (stop, readings) = (stop.clone(), readings.clone());
                std::thread::spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_to(cpu);
                    }
                    let words: Vec<u64> = (0..KERNEL_WORDS).map(|i| i * 7 + 1).collect();
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(PERIOD);
                        let at = Instant::now();
                        std::hint::black_box(kernel(std::hint::black_box(&words)));
                        let kernel_ms = at.elapsed().as_secs_f64() * 1e3;
                        readings
                            .lock()
                            .expect("no sampler panics holding the lock")
                            .push(Reading { at, kernel_ms });
                    }
                })
            })
            .collect();
        SpeedMonitor {
            stop,
            readings,
            samplers,
        }
    }

    /// Everything read so far.
    pub fn snapshot(&self) -> SpeedTrace {
        SpeedTrace {
            readings: self
                .readings
                .lock()
                .expect("no sampler panics holding the lock")
                .clone(),
        }
    }
}

impl Drop for SpeedMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for sampler in self.samplers.drain(..) {
            // A sampler cannot panic short of a poisoned lock; nothing to do
            // about it while dropping.
            let _ = sampler.join();
        }
    }
}

/// The readings of a run.
pub struct SpeedTrace {
    readings: Vec<Reading>,
}

impl SpeedTrace {
    pub fn readings(&self) -> usize {
        self.readings.len()
    }

    /// The fastest reading, milliseconds (infinite when nothing was read):
    /// what to compare [`NOMINAL_KERNEL_MS`] with on another machine.
    pub fn fastest_ms(&self) -> f64 {
        self.readings
            .iter()
            .map(|r| r.kernel_ms)
            .fold(f64::INFINITY, f64::min)
    }

    /// How many times slower than nominal the machine was between `from`
    /// and `to`: the mean reading over nominal, a reading faster than
    /// nominal counting as nominal. 1.0 when the window holds no usable
    /// reading (nothing to correct by).
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let (sum, n) = self
            .readings
            .iter()
            .filter(|r| r.at >= from && r.at <= to)
            .map(|r| r.kernel_ms / NOMINAL_KERNEL_MS)
            .filter(|s| *s <= INTERRUPTED)
            .fold((0.0, 0u32), |(sum, n), s| (sum + s.max(1.0), n + 1));
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }
}

/// `value` as it would have been measured at nominal machine speed.
pub fn at_nominal_speed(value: f64, slowdown: f64, exponent: f64) -> f64 {
    value / slowdown.powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readings 10 ms apart, given in multiples of nominal.
    fn trace(slowdowns: &[f64], start: Instant) -> SpeedTrace {
        SpeedTrace {
            readings: slowdowns
                .iter()
                .enumerate()
                .map(|(i, s)| Reading {
                    at: start + Duration::from_millis(10 * i as u64),
                    kernel_ms: s * NOMINAL_KERNEL_MS,
                })
                .collect(),
        }
    }

    #[test]
    fn slowdown_is_the_window_mean_over_nominal() {
        let start = Instant::now();
        // At 0, 10, 20, 30, 40 ms; the 9.0 was interrupted, the 0.8 is a
        // machine faster than nominal.
        let t = trace(&[1.0, 2.0, 2.0, 9.0, 0.8], start);
        assert!((t.fastest_ms() - 0.8 * NOMINAL_KERNEL_MS).abs() < 1e-12);
        let ms = |n| start + Duration::from_millis(n);
        assert!((t.slowdown(ms(5), ms(25)) - 2.0).abs() < 1e-9);
        assert!((t.slowdown(ms(5), ms(35)) - 2.0).abs() < 1e-9);
        assert!((t.slowdown(ms(0), ms(40)) - 1.5).abs() < 1e-9);
        assert_eq!(t.slowdown(ms(35), ms(40)), 1.0, "faster counts as nominal");
        assert_eq!(t.slowdown(ms(41), ms(50)), 1.0, "empty window");
        assert_eq!(trace(&[], start).slowdown(ms(0), ms(40)), 1.0);
    }

    #[test]
    fn correction_divides_by_a_power_of_the_slowdown() {
        assert_eq!(at_nominal_speed(900.0, 1.0, 0.6), 900.0);
        let corrected = at_nominal_speed(900.0, 1.8, 0.6);
        assert!((corrected - 900.0 / 1.8f64.powf(0.6)).abs() < 1e-9);
        assert!(corrected > 500.0 && corrected < 900.0);
    }

    #[test]
    fn a_monitor_reads_every_cpu_and_stops_on_drop() {
        let monitor = SpeedMonitor::start();
        let from = Instant::now();
        std::thread::sleep(PERIOD * 6);
        let t = monitor.snapshot();
        drop(monitor);
        assert!(t.readings() >= 3, "{} readings in 6 periods", t.readings());
        assert!(t.fastest_ms() > 0.0 && t.fastest_ms().is_finite());
        let s = t.slowdown(from, Instant::now());
        assert!((1.0..=INTERRUPTED).contains(&s), "slowdown {s}");
    }
}
