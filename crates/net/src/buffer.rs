//! Elastic exchange buffers (paper §4.2.2).
//!
//! An [`ElasticQueue`] is one per-(consumer task, partition) page buffer of a
//! shuffle exchange: multi-producer (every task of the upstream stage writes
//! into it; each node's tasks are one producer, see `crate::exchange`),
//! single-consumer, bounded, and blocking on both sides. Capacity starts at
//! **one page** and grows — doubling, up to the configured limit — whenever
//! the consumer pulls from a buffer it finds full, i.e. when the buffer (not
//! the producer) is what limits throughput. That is the paper's
//! consumer-side resize, applied on demand instead of on a timer.
//!
//! Blocking waits optionally yield a compute-slot [`Semaphore`] while parked
//! (see `accordion-cluster`): a producer blocked on a full buffer, or a
//! consumer blocked on an empty one, hands its slot to a runnable task. This
//! is what makes capacity-1 buffers deadlock-free on a pool with fewer
//! worker slots than tasks.
//!
//! A page from another node never waits for room — its sender's credit
//! window bounds how many are in flight — and carries its credit back to
//! the sender when it leaves the buffer (`crate::tcp`).
//!
//! Termination is in-band: each producer finishes the queue once (the last
//! writer of a node's group maps its `Page::End` onto
//! [`ElasticQueue::writer_finished`], here or through a FINISH frame); when
//! the last producer has finished and the buffer is drained, pulls return
//! an end page. Errors propagate by [`ElasticQueue::poison`]ing the queue,
//! which wakes and fails every blocked endpoint.

use std::collections::VecDeque;
use std::sync::Arc;

use accordion_common::config::NetworkConfig;
use accordion_common::metrics::Counter;
use accordion_common::sync::{condvar_wait, yield_slot, Condvar, Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::page::{DataPage, EndReason, Page};

/// Returns a remote page's credit, plus any growth, to its sender.
pub(crate) type Credit = Arc<dyn Fn(u32) + Send + Sync>;

struct QueueState {
    pages: VecDeque<(Arc<DataPage>, Option<Credit>)>,
    capacity: usize,
    max: Option<usize>,
    /// Producers that have not yet finished this queue.
    writers: u32,
    poison: Option<AccordionError>,
    /// Consumer went away (e.g. a LIMIT stopped pulling early): pushes are
    /// silently dropped so producers never block on a dead buffer.
    closed: bool,
}

/// One bounded, blocking, elastically-sized page buffer.
pub struct ElasticQueue {
    state: Mutex<QueueState>,
    /// Signaled when a page or end-of-stream arrives.
    data: Condvar,
    /// Signaled when space frees up (or capacity grows).
    space: Condvar,
    pages_in: Counter,
    bytes_in: Counter,
    grow_events: Counter,
}

impl ElasticQueue {
    /// A buffer of `writers` producers that starts at `network`'s
    /// `initial_buffer_pages` and grows up to its `max_buffer_pages`.
    pub fn new(network: &NetworkConfig, writers: u32) -> Self {
        ElasticQueue {
            state: Mutex::new(QueueState {
                pages: VecDeque::new(),
                capacity: network.initial_buffer_pages.max(1),
                max: network.max_buffer_pages,
                writers: writers.max(1),
                poison: None,
                closed: false,
            }),
            data: Condvar::new(),
            space: Condvar::new(),
            pages_in: Counter::new(),
            bytes_in: Counter::new(),
            grow_events: Counter::new(),
        }
    }

    /// Enqueues one page, blocking while the buffer is full. `gate` (the
    /// scheduler's compute-slot semaphore, if any) is released for the
    /// duration of the wait and re-acquired before returning.
    pub fn push(&self, page: Arc<DataPage>, gate: Option<&Semaphore>) -> Result<()> {
        self.push_credited(page, None, gate)
    }

    /// [`push`](Self::push) for a page that came with the `credit` its
    /// sender gets back when the page is pulled or dropped. Such a page
    /// never waits for room: the sender's window bounds how many are in
    /// flight.
    pub(crate) fn push_credited(
        &self,
        page: Arc<DataPage>,
        credit: Option<Credit>,
        gate: Option<&Semaphore>,
    ) -> Result<()> {
        loop {
            let mut st = self.state.lock();
            if let Some(e) = &st.poison {
                return Err(e.clone());
            }
            if st.closed {
                // The consumer stopped pulling (end-signal direction of the
                // paper's shutdown protocol): drop the page, never block.
                drop(st);
                credit.inspect(|credit| credit(1));
                return Ok(());
            }
            if credit.is_some() || st.pages.len() < st.capacity {
                self.pages_in.inc();
                self.bytes_in.add(page.byte_size() as u64);
                st.pages.push_back((page, credit));
                self.data.notify_all();
                return Ok(());
            }
            // Full: park until the consumer makes room, yielding the
            // compute slot so a runnable task (the consumer, with luck)
            // can take it. Then re-check everything: capacity and poison
            // may have changed while the slot was being re-acquired.
            yield_slot(gate, || {
                while st.pages.len() >= st.capacity && st.poison.is_none() && !st.closed {
                    st = condvar_wait(&self.space, st);
                }
                drop(st);
            });
        }
    }

    /// Dequeues the next page, blocking while the buffer is empty and
    /// producers remain. Returns an end page once the last producer has
    /// finished and the buffer is drained.
    pub fn pull(&self, gate: Option<&Semaphore>) -> Result<Page> {
        loop {
            let mut st = self.state.lock();
            if let Some(e) = &st.poison {
                return Err(e.clone());
            }
            if let Some((page, returned)) = st.pages.pop_front() {
                // The consumer found the buffer full: the buffer was the
                // bottleneck, so grow it (consumer-side demand, §4.2.2) —
                // and hand the growth to a remote page's sender as credit.
                let mut credit = 1;
                if st.pages.len() + 1 >= st.capacity {
                    let grown = st.capacity.saturating_mul(2);
                    let grown = match st.max {
                        Some(m) => grown.min(m),
                        None => grown,
                    };
                    if grown > st.capacity {
                        credit += u32::try_from(grown - st.capacity).unwrap_or(u32::MAX - 1);
                        st.capacity = grown;
                        self.grow_events.inc();
                    }
                }
                self.space.notify_all();
                drop(st);
                returned.inspect(|returned| returned(credit));
                return Ok(Page::Data(page));
            }
            if st.writers == 0 || st.closed {
                return Ok(Page::end(EndReason::UpstreamFinished));
            }
            yield_slot(gate, || {
                while st.pages.is_empty() && st.writers > 0 && st.poison.is_none() && !st.closed {
                    st = condvar_wait(&self.data, st);
                }
                drop(st);
            });
        }
    }

    /// Producers that have not yet finished this queue.
    pub fn writers(&self) -> u32 {
        self.state.lock().writers
    }

    /// Marks one producer as finished; once none is left, consumers see an
    /// end page after draining.
    pub fn writer_finished(&self) {
        let mut st = self.state.lock();
        st.writers = st.writers.saturating_sub(1);
        self.data.notify_all();
    }

    /// Closes the consumer side: buffered pages are discarded (remote ones
    /// credited) and every current or future push is silently dropped.
    /// Called when a reader is dropped before draining (e.g. LIMIT
    /// satisfied mid-stream), so upstream tasks blocked on a full buffer or
    /// a credit window unblock and run out.
    pub fn close_consumer(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        let dropped = std::mem::take(&mut st.pages);
        self.data.notify_all();
        self.space.notify_all();
        drop(st);
        for credit in dropped.into_iter().filter_map(|(_, credit)| credit) {
            credit(1);
        }
    }

    /// True once the consumer side has gone away (see
    /// [`ElasticQueue::close_consumer`]). Writers use this to skip pages
    /// that would be dropped anyway.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Fails the queue: every current and future push/pull returns `err`.
    pub fn poison(&self, err: AccordionError) {
        let mut st = self.state.lock();
        if st.poison.is_none() {
            st.poison = Some(err);
        }
        self.data.notify_all();
        self.space.notify_all();
    }

    /// Current capacity in pages.
    pub fn capacity(&self) -> usize {
        self.state.lock().capacity
    }

    /// Number of consumer-side capacity growths so far.
    pub fn grow_events(&self) -> u64 {
        self.grow_events.get()
    }

    /// Total pages ever enqueued.
    pub fn pages_in(&self) -> u64 {
        self.pages_in.get()
    }

    /// Total bytes ever enqueued.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::column::Column;
    use std::time::Duration;

    fn limits(initial_pages: usize, max_pages: Option<usize>) -> NetworkConfig {
        NetworkConfig::builder()
            .buffer_pages(initial_pages, max_pages)
            .build()
    }

    fn page(n: i64) -> Arc<DataPage> {
        Arc::new(DataPage::new(vec![Column::from_i64(vec![n])]))
    }

    #[test]
    fn fifo_and_end_after_writers_finish() {
        let q = ElasticQueue::new(&limits(usize::MAX, None), 2);
        q.push(page(1), None).unwrap();
        q.push(page(2), None).unwrap();
        q.writer_finished();
        q.writer_finished();
        assert_eq!(q.pull(None).unwrap().row_count(), 1);
        assert_eq!(q.pull(None).unwrap().row_count(), 1);
        assert!(q.pull(None).unwrap().is_end());
    }

    #[test]
    fn bounded_push_blocks_until_pull() {
        let q = Arc::new(ElasticQueue::new(&limits(1, Some(1)), 1));
        q.push(page(1), None).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(page(2), None));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "second push must block at capacity 1");
        assert_eq!(q.pull(None).unwrap().row_count(), 1);
        h.join().unwrap().unwrap();
        assert_eq!(q.capacity(), 1, "max 1 page forbids growth");
    }

    #[test]
    fn consumer_demand_grows_capacity() {
        let q = ElasticQueue::new(&limits(1, Some(8)), 1);
        assert_eq!(q.capacity(), 1, "paper: buffers start at one page");
        q.push(page(1), None).unwrap();
        // Pulling from a full buffer doubles it: 1 → 2 → 4 → 8 (capped).
        q.pull(None).unwrap();
        assert_eq!(q.capacity(), 2);
        q.push(page(2), None).unwrap();
        q.push(page(3), None).unwrap();
        q.pull(None).unwrap();
        assert_eq!(q.capacity(), 4);
        assert_eq!(q.grow_events(), 2);
        // Pulling from a non-full buffer does not grow it.
        q.pull(None).unwrap();
        assert_eq!(q.capacity(), 4);
    }

    #[test]
    fn poison_wakes_blocked_sides() {
        let q = Arc::new(ElasticQueue::new(&limits(1, Some(1)), 1));
        q.push(page(1), None).unwrap();
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push(page(2), None))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.poison(AccordionError::Execution("boom".into()));
        assert!(producer.join().unwrap().is_err());
        assert!(q.pull(None).is_err());
        assert!(q.push(page(3), None).is_err());
    }

    #[test]
    fn close_consumer_unblocks_and_drops() {
        let q = Arc::new(ElasticQueue::new(&limits(1, Some(1)), 1));
        q.push(page(1), None).unwrap();
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push(page(2), None))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close_consumer();
        // The blocked producer unblocks successfully; its page is dropped.
        producer.join().unwrap().unwrap();
        q.push(page(3), None).unwrap();
        assert_eq!(q.pages_in(), 1, "only the pre-close page was accepted");
        assert!(
            q.pull(None).unwrap().is_end(),
            "closed queue reads as ended"
        );
    }

    #[test]
    fn blocked_pull_yields_gate_permit() {
        let q = Arc::new(ElasticQueue::new(&limits(1, None), 1));
        let gate = Arc::new(Semaphore::new(1));
        gate.acquire(); // the consumer "task" holds the only slot
        let consumer = {
            let (q, gate) = (q.clone(), gate.clone());
            std::thread::spawn(move || {
                let p = q.pull(Some(&gate)).unwrap();
                gate.release();
                p
            })
        };
        // While the consumer is parked on the empty queue, its slot must be
        // available for the producer.
        std::thread::sleep(Duration::from_millis(10));
        gate.acquire();
        q.push(page(7), None).unwrap();
        gate.release();
        assert_eq!(consumer.join().unwrap().row_count(), 1);
    }
}
