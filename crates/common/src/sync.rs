//! Thin locking wrappers over `std::sync`.
//!
//! The engine runs driver threads that must never observe poisoned locks —
//! a panicking driver already aborts the query, so lock poisoning carries no
//! extra information. These wrappers expose the ergonomic `lock()`/`read()`/
//! `write()` API (no `Result`) and recover the guard from a poisoned lock,
//! which also keeps the engine dependency-free.

use std::sync::{self, LockResult};
use std::time::Duration;

pub use std::sync::{Condvar, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

fn ignore_poison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] that recovers the guard from a poisoned lock, pairing
/// with [`Mutex`]'s poison-ignoring guards.
pub fn condvar_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    ignore_poison(cv.wait(guard))
}

/// Mutual-exclusion lock whose guard accessor never returns `Err`.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        ignore_poison(self.0.lock())
    }

    pub fn into_inner(self) -> T {
        ignore_poison(self.0.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        ignore_poison(self.0.get_mut())
    }
}

/// Reader-writer lock whose guard accessors never return `Err`.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        ignore_poison(self.0.read())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        ignore_poison(self.0.write())
    }

    pub fn into_inner(self) -> T {
        ignore_poison(self.0.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        ignore_poison(self.0.get_mut())
    }
}

/// Counting semaphore gating how many tasks may occupy a compute slot at
/// once. The cluster scheduler runs one thread per task but hands out only
/// `worker_threads` permits; a task blocked on exchange backpressure
/// releases its permit while waiting ([`yield_slot`]), which is what makes
/// bounded exchange buffers deadlock-free on a fixed-size pool.
#[derive(Debug)]
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is available, then takes it.
    pub fn acquire(&self) {
        let mut p = self.permits.lock();
        while *p == 0 {
            p = condvar_wait(&self.cv, p);
        }
        *p -= 1;
    }

    /// Returns a permit, waking one waiter.
    pub fn release(&self) {
        *self.permits.lock() += 1;
        self.cv.notify_one();
    }

    /// Permits currently available (diagnostic only — racy by nature).
    pub fn available(&self) -> usize {
        *self.permits.lock()
    }
}

/// Runs `wait` with the compute slot `gate` handed back: every blocking wait
/// of a task goes through here. A lock guard the wait holds must be
/// dropped inside it, before the slot is re-acquired.
pub fn yield_slot<R>(gate: Option<&Semaphore>, wait: impl FnOnce() -> R) -> R {
    gate.inspect(|g| g.release());
    let outcome = wait();
    gate.inspect(|g| g.acquire());
    outcome
}

/// A wake-up flag for **one waiter**: any thread [`raise`](Signal::raise)s
/// it, the waiter blocks in [`wait_timeout`](Signal::wait_timeout) until it
/// is raised and takes it down again. The flag is level-triggered — a raise
/// that lands while the waiter is busy is kept for its next wait, and any
/// number of raises in between collapse into one — so "something happened,
/// look again" is never lost and never queues up. The elasticity controller
/// sleeps on one of these per query instead of polling its split queues.
#[derive(Debug, Default)]
pub struct Signal {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl Signal {
    pub fn new() -> Self {
        Signal::default()
    }

    /// Sets the flag and wakes the waiter if it is blocked.
    pub fn raise(&self) {
        *self.raised.lock() = true;
        self.cv.notify_one();
    }

    /// Blocks until the flag is raised or `timeout` has passed, whichever
    /// comes first, and clears the flag. Returns whether it was raised.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let guard = self.raised.lock();
        let (mut guard, _) = ignore_poison(
            self.cv
                .wait_timeout_while(guard, timeout, |raised| !*raised),
        );
        std::mem::take(&mut *guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A poisoned std mutex would error here; the wrapper recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn semaphore_gates_concurrency() {
        let sem = Arc::new(Semaphore::new(2));
        sem.acquire();
        sem.acquire();
        assert_eq!(sem.available(), 0);
        // A third acquire must block until someone releases.
        let s2 = sem.clone();
        let h = std::thread::spawn(move || {
            s2.acquire();
            s2.release();
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(!h.is_finished(), "third acquire should be blocked");
        sem.release();
        h.join().unwrap();
        sem.release();
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn signal_keeps_a_raise_for_the_next_wait_and_collapses_repeats() {
        let s = Signal::new();
        s.raise();
        s.raise();
        assert!(s.wait_timeout(Duration::ZERO), "raised before the wait");
        assert!(
            !s.wait_timeout(Duration::ZERO),
            "two raises are one wake-up"
        );
    }

    #[test]
    fn signal_wakes_a_blocked_waiter_and_otherwise_times_out() {
        let s = Arc::new(Signal::new());
        let started = Instant::now();
        assert!(!s.wait_timeout(Duration::from_millis(5)));
        assert!(started.elapsed() >= Duration::from_millis(5));
        let s2 = s.clone();
        let waiter = std::thread::spawn(move || s2.wait_timeout(Duration::from_secs(30)));
        s.raise();
        assert!(
            waiter.join().unwrap(),
            "raise ends the wait, not the timeout"
        );
    }
}
