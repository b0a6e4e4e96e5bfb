//! The split queue: the one way a stage scans.
//!
//! Every task of a stage that scans a table **claims** its next split from
//! the stage's one [`SplitQueue`], in every elasticity mode and on every
//! node; no task owns a fixed share. The unconsumed remainder of the
//! table's `SplitSet` is therefore a single pool any task set, including
//! one grown or shrunk mid-query, can drain. Each split is handed out
//! exactly once, which is what makes re-parallelization lossless and
//! duplication-free by construction. A mode only decides whether a
//! controller drives the queue. A task's scan,
//! [`ScanSource`](crate::operators::ScanSource), claims through a
//! [`SplitFeed`], the task's handle on the pool. The one exception is the
//! serial reference executor ([`crate::execute_tree`]): its tasks run one
//! after another, each to completion, so each drains a queue of its own
//! over a share of the splits instead, through the same scan.
//!
//! The queue doubles as the controller's **decision boundary**. With a
//! pause threshold set, claims beyond it wait until the controller has
//! consulted its schedule or the what-if predictor and applied any DOP
//! change, so retunes always happen *between splits*, never mid-split
//! (paper Fig 13). The threads that reach the boundary run the controller's
//! [`Step`] themselves ([`SplitQueue::set_step`]): the claim that reaches
//! the threshold or takes the last split, before it scans, and a claimant
//! parked at it ([`SplitQueue::parked`]). Remote claims arrive through the
//! coordinator's claim service into this same method. Before node 0 has
//! installed a step (a worker's share can start first), a claim at the
//! threshold waits with its compute slot yielded. A retired task's next
//! claim returns `None`, as on exhaustion, and its scan ends.
//!
//! Every claim takes the front of the queue: splits are handed out in the
//! order the queue was built with, whichever task or node asks.
//!
//! The [`SplitSource`] trait abstracts *where* the pool lives: in-process
//! tasks claim straight from the shared [`SplitQueue`], while the tasks of
//! a distributed worker claim through a proxy that forwards to the
//! coordinator's queue — the single pool is what keeps mid-query DOP
//! changes lossless, so it is never sharded across nodes.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use accordion_common::sync::{condvar_wait, yield_slot, Condvar, Mutex, Semaphore};
use accordion_common::NodeId;
use accordion_storage::split::Split;

/// A pool of splits that tasks claim from, one at a time. Implemented by
/// the in-process [`SplitQueue`] and by the distributed worker's proxy to
/// the coordinator's queue.
pub trait SplitSource: Send + Sync {
    /// Claims the next split for task `slot`; `node` is ignored. Returns
    /// `None` when the pool is exhausted or the slot was retired. `gate` is
    /// yielded for the duration of any wait.
    fn claim(&self, slot: u32, node: Option<NodeId>, gate: Option<&Semaphore>) -> Option<Split>;
}

/// The one entry of the query's elasticity controller, which boundary
/// events run (`accordion_cluster::elastic`).
pub trait Step: Send + Sync {
    /// `parked`: the caller is a claimant waiting at a paused boundary.
    fn step(&self, parked: bool);
}

#[derive(Debug)]
struct QueueState {
    splits: VecDeque<Split>,
    claimed: u64,
    retired: HashSet<u32>,
    /// Claims at or beyond this count block until the controller advances
    /// the threshold (or releases the queue).
    pause_after: Option<u64>,
    /// Controller detached: never block a claim again.
    released: bool,
    /// Claimants at the pause threshold right now.
    parked: u32,
    /// See [`SplitQueue::set_step`]. Weak: the controller holds the queue.
    step: Option<Weak<dyn Step>>,
}

impl QueueState {
    /// True while the pause threshold holds claims back.
    fn paused(&self) -> bool {
        !self.released && matches!(self.pause_after, Some(n) if self.claimed >= n)
    }

    fn step(&self) -> Option<Arc<dyn Step>> {
        self.step.as_ref()?.upgrade()
    }

    /// One claim attempt for `slot`: `None` if it must wait at the pause
    /// boundary, `Some(None)` if the queue is exhausted or the slot retired.
    fn take(&mut self, slot: u32) -> Option<Option<Split>> {
        if self.retired.contains(&slot) || self.splits.is_empty() {
            return Some(None);
        }
        if self.paused() {
            return None;
        }
        let split = self.splits.pop_front().expect("non-empty checked above");
        self.claimed += 1;
        Some(Some(split))
    }
}

/// Multi-task split pool of one stage's table.
#[derive(Debug)]
pub struct SplitQueue {
    /// Rows in every split the queue started with, claimed or not.
    total_rows: u64,
    state: Mutex<QueueState>,
    /// Wakes claimants waiting at the pause threshold (see [`Self::claim`]).
    cv: Condvar,
}

impl SplitQueue {
    pub fn new(splits: Vec<Split>) -> Self {
        SplitQueue {
            total_rows: splits.iter().map(|s| s.rows).sum(),
            state: Mutex::new(QueueState {
                splits: splits.into(),
                claimed: 0,
                retired: HashSet::new(),
                pause_after: None,
                released: false,
                parked: 0,
                step: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claims the next split for task `slot`. At a pause boundary the
    /// claimant steps the controller, counted in [`Self::parked`], until
    /// the decision lands; before a step is installed it waits with `gate`
    /// (the scheduler's compute-slot semaphore) yielded. Returns `None` when
    /// the queue is exhausted or the slot was retired.
    pub fn claim(&self, slot: u32, gate: Option<&Semaphore>) -> Option<Split> {
        loop {
            let mut st = self.state.lock();
            if let Some(split) = st.take(slot) {
                // A claim that brought the stage to its boundary, or left
                // nothing to decide, steps before its split is scanned.
                let due = split.is_some() && (st.paused() || st.splits.is_empty());
                let step = due.then(|| st.step()).flatten();
                drop(st);
                step.inspect(|s| s.step(false));
                return split;
            }
            st.parked += 1;
            if let Some(step) = st.step() {
                drop(st);
                step.step(true);
                self.state.lock().parked -= 1;
            } else {
                yield_slot(gate, || {
                    while st.paused()
                        && !st.retired.contains(&slot)
                        && !st.splits.is_empty()
                        && st.step().is_none()
                    {
                        st = condvar_wait(&self.cv, st);
                    }
                    st.parked -= 1;
                    drop(st);
                });
            }
        }
    }

    /// Retires a task slot: its next claim returns `None`, making it finish
    /// its current split, end its scan and exit.
    pub fn retire(&self, slot: u32) {
        self.state.lock().retired.insert(slot);
        self.cv.notify_all();
    }

    /// Splits handed out so far.
    pub fn claimed(&self) -> u64 {
        self.state.lock().claimed
    }

    /// Splits not yet claimed.
    pub fn remaining_splits(&self) -> usize {
        self.state.lock().splits.len()
    }

    /// Rows in every split the queue was built with, claimed or not: the
    /// what-if predictor's `V_remain` is this minus the rows scanned, since
    /// a claimed split still has to be scanned.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Sets the pause threshold: claims once `claimed >= threshold` block
    /// until the controller advances or releases it.
    pub fn set_pause_after(&self, threshold: Option<u64>) {
        self.state.lock().pause_after = threshold;
        self.cv.notify_all();
    }

    /// True when the controller owes the queue a decision: the pause
    /// threshold was reached and unclaimed splits remain.
    pub fn decision_due(&self) -> bool {
        let st = self.state.lock();
        st.paused() && !st.splits.is_empty()
    }

    /// Claimants blocked at the pause threshold right now. While this is
    /// non-zero the stage is running below its DOP, so the controller
    /// decides on what it knows instead of waiting to know more.
    pub fn parked(&self) -> u32 {
        self.state.lock().parked
    }

    /// Installs the step that claims at the pause threshold run (see the
    /// module docs), and wakes the claimants already waiting there to run
    /// it. A queue without one steps nothing.
    pub fn set_step(&self, step: Weak<dyn Step>) {
        self.state.lock().step = Some(step);
        self.cv.notify_all();
    }

    /// Detaches the controller: clears any pause and guarantees no claim
    /// ever blocks again (also the error-path unblock).
    pub fn release(&self) {
        let mut st = self.state.lock();
        st.released = true;
        st.pause_after = None;
        drop(st);
        self.cv.notify_all();
    }
}

impl SplitSource for SplitQueue {
    fn claim(&self, slot: u32, _node: Option<NodeId>, gate: Option<&Semaphore>) -> Option<Split> {
        SplitQueue::claim(self, slot, gate)
    }
}

/// One task's handle on its stage's split pool.
#[derive(Clone)]
pub struct SplitFeed {
    source: Arc<dyn SplitSource>,
    /// This task's slot id (stable across the query; never reused).
    slot: u32,
    /// Compute-slot semaphore to yield while blocked at a pause boundary.
    gate: Option<Arc<Semaphore>>,
}

impl std::fmt::Debug for SplitFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitFeed")
            .field("slot", &self.slot)
            .finish()
    }
}

impl SplitFeed {
    pub fn new(queue: Arc<SplitQueue>, slot: u32, gate: Option<Arc<Semaphore>>) -> Self {
        SplitFeed::from_source(queue, slot, gate)
    }

    /// A feed over any [`SplitSource`] — the distributed worker's proxy to
    /// the coordinator's queue uses this.
    pub fn from_source(
        source: Arc<dyn SplitSource>,
        slot: u32,
        gate: Option<Arc<Semaphore>>,
    ) -> Self {
        SplitFeed { source, slot, gate }
    }

    pub fn claim(&self) -> Option<Split> {
        self.source.claim(self.slot, None, self.gate.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{PageStream, ScanSource};
    use accordion_common::SplitId;
    use accordion_data::column::Column;
    use accordion_data::page::{DataPage, EndReason, Page};
    use std::time::Duration;

    fn split(id: u64, vals: Vec<i64>) -> Split {
        let page = DataPage::new(vec![Column::from_i64(vals)]);
        Split {
            id: SplitId(id),
            table: "t".into(),
            rows: page.row_count() as u64,
            pages: Arc::new(vec![page]),
        }
    }

    #[test]
    fn claims_hand_out_each_split_exactly_once() {
        let q = SplitQueue::new(vec![
            split(0, vec![1]),
            split(1, vec![2]),
            split(2, vec![3]),
        ]);
        assert_eq!(q.remaining_splits(), 3);
        let mut ids = Vec::new();
        while let Some(s) = q.claim(0, None) {
            ids.push(s.id.0);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(q.claimed(), 3);
        assert!(q.claim(1, None).is_none(), "exhausted for every slot");
    }

    #[test]
    fn claim_without_node_stays_exact_fifo() {
        // Built out of id order: claims follow the queue's order, not the
        // ids, across slots, through the trait (whose `node` is ignored)
        // and through a feed.
        let q = Arc::new(SplitQueue::new(vec![
            split(2, vec![1]),
            split(0, vec![2]),
            split(3, vec![3]),
            split(1, vec![4]),
        ]));
        assert_eq!(q.claim(0, None).unwrap().id.0, 2);
        assert_eq!(q.claim(5, None).unwrap().id.0, 0);
        let source: &dyn SplitSource = &*q;
        assert_eq!(source.claim(1, Some(NodeId(1)), None).unwrap().id.0, 3);
        let feed = SplitFeed::new(q.clone(), 3, None);
        assert_eq!(feed.claim().unwrap().id.0, 1);
        assert!(feed.claim().is_none());
        assert_eq!((q.claimed(), q.remaining_splits()), (4, 0));
    }

    #[test]
    fn retired_slot_claims_nothing() {
        let q = SplitQueue::new(vec![split(0, vec![1]), split(1, vec![2])]);
        q.retire(7);
        assert!(q.claim(7, None).is_none());
        // Other slots keep claiming.
        assert!(q.claim(0, None).is_some());
    }

    #[test]
    fn pause_blocks_claims_until_advanced() {
        let q = Arc::new(SplitQueue::new(vec![
            split(0, vec![1]),
            split(1, vec![2]),
            split(2, vec![3]),
        ]));
        q.set_pause_after(Some(1));
        assert!(
            q.claim(0, None).is_some(),
            "claims below the threshold pass"
        );
        assert!(q.decision_due());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.claim(0, None));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "claim at the threshold must block");
        // The controller advances the threshold by one decision interval
        // past the claim it is about to admit.
        q.set_pause_after(Some(3));
        assert!(h.join().unwrap().is_some());
        assert!(!q.decision_due(), "below the new threshold");
    }

    #[test]
    fn release_unblocks_everything_forever() {
        let q = Arc::new(SplitQueue::new(vec![split(0, vec![1]), split(1, vec![2])]));
        q.set_pause_after(Some(0));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.claim(0, None));
        std::thread::sleep(Duration::from_millis(10));
        q.release();
        assert!(h.join().unwrap().is_some());
        assert!(!q.decision_due());
        assert!(q.claim(0, None).is_some(), "no pause after release");
    }

    #[test]
    fn retire_wakes_a_blocked_claimant() {
        let q = Arc::new(SplitQueue::new(vec![split(0, vec![1]), split(1, vec![2])]));
        q.set_pause_after(Some(0));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.claim(3, None));
        std::thread::sleep(Duration::from_millis(10));
        q.retire(3);
        assert!(h.join().unwrap().is_none(), "retired mid-wait");
    }

    #[test]
    fn blocked_claim_yields_gate_permit() {
        let q = Arc::new(SplitQueue::new(vec![split(0, vec![1]), split(1, vec![2])]));
        q.set_pause_after(Some(0));
        let gate = Arc::new(Semaphore::new(1));
        gate.acquire(); // the claiming "task" holds the only slot
        let claimer = {
            let (q, gate) = (q.clone(), gate.clone());
            std::thread::spawn(move || {
                let s = q.claim(0, Some(&gate));
                gate.release();
                s
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        // While the claimant is parked its compute slot must be free.
        gate.acquire();
        gate.release();
        q.release();
        assert!(claimer.join().unwrap().is_some());
    }

    /// A step that counts its calls and, stepped by a parked claimant,
    /// moves the boundary one claim on, as a decision does.
    #[derive(Default)]
    struct Counting {
        queue: std::sync::OnceLock<Arc<SplitQueue>>,
        calls: Mutex<Vec<bool>>,
    }

    impl Step for Counting {
        fn step(&self, parked: bool) {
            self.calls.lock().push(parked);
            if parked {
                let q = self.queue.get().unwrap();
                q.set_pause_after(Some(q.claimed() + 1));
            }
        }
    }

    fn counted(splits: Vec<Split>) -> (Arc<SplitQueue>, Arc<Counting>) {
        let q = Arc::new(SplitQueue::new(splits));
        let step = Arc::new(Counting::default());
        step.queue.set(q.clone()).unwrap();
        q.set_step(Arc::downgrade(&(step.clone() as Arc<dyn Step>)));
        (q, step)
    }

    #[test]
    fn the_queue_steps_at_every_event_the_controller_decides_on() {
        let (q, step) = counted(vec![
            split(0, vec![1]),
            split(1, vec![2]),
            split(2, vec![3]),
            split(3, vec![4]),
        ]);
        let calls = || step.calls.lock().clone();
        q.set_pause_after(Some(2));
        assert!(q.claim(0, None).is_some());
        assert!(
            calls().is_empty(),
            "a claim below the threshold is no event"
        );
        assert!(q.claim(0, None).is_some());
        assert_eq!(calls(), [false], "the claim that reaches the threshold");
        assert_eq!(q.parked(), 0, "due, but nobody waits for it yet");
        // A claimant at the threshold steps, counted as parked, and the
        // split the decision lets through takes the stage back to it.
        assert!(q.claim(1, None).is_some());
        assert_eq!(calls(), [false, true, false]);
        assert_eq!(q.parked(), 0);
        // The claim that empties the queue steps, so the stage can finish.
        q.release();
        assert_eq!(q.claim(1, None).unwrap().id.0, 3);
        assert_eq!(calls(), [false, true, false, false]);
        assert!(q.claim(1, None).is_none());
        assert_eq!(calls().len(), 4, "an exhausted queue steps nothing");
    }

    #[test]
    fn a_claimant_waiting_before_the_step_is_installed_steps_once_it_is() {
        // A worker's claim can reach the boundary before node 0 has
        // installed its step: it waits, parked, and installing wakes it.
        let q = Arc::new(SplitQueue::new(vec![split(0, vec![1]), split(1, vec![2])]));
        q.set_pause_after(Some(0));
        let claimant = {
            let q = q.clone();
            std::thread::spawn(move || q.claim(0, None))
        };
        while q.parked() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        assert!(!claimant.is_finished(), "nothing moves the boundary yet");
        let step = Arc::new(Counting::default());
        step.queue.set(q.clone()).unwrap();
        q.set_step(Arc::downgrade(&(step.clone() as Arc<dyn Step>)));
        assert_eq!(claimant.join().unwrap().unwrap().id.0, 0);
        assert!(step.calls.lock()[0], "it stepped as a parked claimant");
        assert_eq!(q.parked(), 0);
    }

    #[test]
    fn an_unwatched_queue_counts_its_rows_and_raises_nothing() {
        let q = SplitQueue::new(vec![split(0, vec![1, 2]), split(1, vec![3])]);
        assert_eq!(q.total_rows(), 3);
        q.set_pause_after(Some(1));
        assert!(q.claim(0, None).is_some());
        assert!(q.decision_due());
        // A claimed split is still part of the total the controller
        // subtracts scanned rows from.
        assert_eq!((q.remaining_splits(), q.total_rows()), (1, 3));
    }

    #[test]
    fn feed_scan_source_streams_and_signals_end() {
        let q = Arc::new(SplitQueue::new(vec![
            split(0, vec![1, 2]),
            split(1, vec![3]),
        ]));
        let mut src = ScanSource::claiming(SplitFeed::new(q.clone(), 0, None), vec![0], 10);
        let mut rows = 0;
        let reason = loop {
            match src.next_page().unwrap() {
                Page::End(e) => break e.reason,
                Page::Data(p) => rows += p.row_count(),
            }
        };
        assert_eq!(rows, 3);
        assert_eq!(reason, EndReason::ScanExhausted);

        // A retired feed's scan ends at once, having scanned nothing.
        let q = Arc::new(SplitQueue::new(vec![split(0, vec![1])]));
        q.retire(0);
        let mut src = ScanSource::claiming(SplitFeed::new(q.clone(), 0, None), vec![0], 10);
        assert!(src.next_page().unwrap().is_end());
        assert_eq!((q.claimed(), q.remaining_splits()), (0, 1));
    }
}
