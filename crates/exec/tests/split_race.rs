//! Seeded property test: `SplitQueue` hands out every split **exactly
//! once** while a controller thread concurrently grows the claimant set,
//! retires live slots, and toggles pause boundaries.
//!
//! This is the concurrency core of intra-query elasticity: if a claim can
//! be lost (a retired task's in-flight claim vanishing) or duplicated (two
//! slots racing `pop_front`), re-parallelization silently corrupts query
//! results. The schedule here is driven by a seeded xorshift RNG so every
//! run explores a different interleaving deterministically per seed.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use accordion_common::SplitId;
use accordion_data::column::Column;
use accordion_data::page::DataPage;
use accordion_exec::SplitQueue;
use accordion_storage::split::Split;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn split(id: u64) -> Split {
    let page = DataPage::new(vec![Column::from_i64(vec![id as i64])]);
    Split {
        id: SplitId(id),
        table: "race".into(),
        rows: page.row_count() as u64,
        pages: Arc::new(vec![page]),
    }
}

/// Spawns a claimant for `slot`: drains claims into the shared log until
/// the queue is exhausted or the slot is retired.
fn spawn_claimant(
    queue: &Arc<SplitQueue>,
    log: &Arc<Mutex<Vec<u64>>>,
    slot: u32,
) -> JoinHandle<()> {
    let queue = queue.clone();
    let log = log.clone();
    std::thread::spawn(move || {
        while let Some(s) = queue.claim(slot, None) {
            log.lock().unwrap().push(s.id.0);
            // A sliver of "work" so claims interleave with retunes.
            std::thread::yield_now();
        }
    })
}

/// One seeded episode: N splits, a schedule of grow/retire/pause events,
/// then drain and check the exactly-once invariant.
fn run_episode(seed: u64) {
    const SPLITS: u64 = 96;
    let mut rng = Rng::new(seed);
    let queue = Arc::new(SplitQueue::new((0..SPLITS).map(split).collect()));
    let log = Arc::new(Mutex::new(Vec::new()));
    let next_slot = AtomicU32::new(0);
    let mut live: Vec<u32> = Vec::new();
    let mut handles: Vec<JoinHandle<()>> = Vec::new();

    // Initial task set: 1-4 claimants.
    for _ in 0..=rng.below(3) {
        let slot = next_slot.fetch_add(1, Ordering::Relaxed);
        handles.push(spawn_claimant(&queue, &log, slot));
        live.push(slot);
    }

    // Controller: a random schedule of retunes racing the claimants.
    for _ in 0..24 {
        match rng.below(4) {
            // Grow: add a fresh slot (slot ids are never reused).
            0 => {
                let slot = next_slot.fetch_add(1, Ordering::Relaxed);
                handles.push(spawn_claimant(&queue, &log, slot));
                live.push(slot);
            }
            // Shrink: retire a random live slot — possibly one blocked at
            // a pause boundary or mid-claim.
            1 if live.len() > 1 => {
                let idx = rng.below(live.len() as u64) as usize;
                queue.retire(live.swap_remove(idx));
            }
            // Pause at a boundary just ahead of the current claim count,
            // hold briefly, then advance — the decision window.
            2 => {
                let threshold = queue.claimed() + rng.below(3);
                queue.set_pause_after(Some(threshold));
                std::thread::sleep(Duration::from_micros(rng.below(200)));
                queue.set_pause_after(Some(threshold + 1 + rng.below(4)));
            }
            _ => std::thread::yield_now(),
        }
    }

    // End of schedule: make sure at least one live claimant exists, then
    // detach the controller so the pool drains.
    let slot = next_slot.fetch_add(1, Ordering::Relaxed);
    handles.push(spawn_claimant(&queue, &log, slot));
    queue.release();
    for h in handles {
        h.join().unwrap();
    }

    let claimed = log.lock().unwrap().clone();
    let unique: HashSet<u64> = claimed.iter().copied().collect();
    assert_eq!(
        claimed.len() as u64,
        SPLITS,
        "seed {seed}: {} claims for {SPLITS} splits — duplication or loss",
        claimed.len()
    );
    assert_eq!(
        unique.len() as u64,
        SPLITS,
        "seed {seed}: duplicate split ids in {claimed:?}"
    );
    assert_eq!(
        queue.claimed(),
        SPLITS,
        "seed {seed}: claim counter drifted"
    );
    assert_eq!(
        queue.remaining_splits(),
        0,
        "seed {seed}: splits left behind"
    );
}

#[test]
fn claims_are_exactly_once_under_racing_grow_and_shrink() {
    for seed in 1..=16u64 {
        run_episode(seed);
    }
}

#[test]
fn retiring_every_slot_then_growing_still_drains_the_pool() {
    // The pathological shrink: every live slot is retired while splits
    // remain. A subsequently grown slot must still drain the remainder —
    // nothing is lost with the old task set.
    let queue = Arc::new(SplitQueue::new((0..8).map(split).collect()));
    let log = Arc::new(Mutex::new(Vec::new()));
    // Pause at claim 0 so the first slot is parked at the decision
    // boundary before it can drain anything, then retire it there.
    queue.set_pause_after(Some(0));
    let first = spawn_claimant(&queue, &log, 0);
    queue.retire(0);
    first.join().unwrap();
    assert_eq!(queue.remaining_splits(), 8, "retired before any claim");
    queue.release();
    let second = spawn_claimant(&queue, &log, 1);
    second.join().unwrap();
    let claimed = log.lock().unwrap().clone();
    let unique: HashSet<u64> = claimed.iter().copied().collect();
    assert_eq!(claimed.len(), 8);
    assert_eq!(unique.len(), 8);
}
