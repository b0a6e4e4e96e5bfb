//! Simulated NIC: token-bucket bandwidth models plus fixed link latency.
//!
//! Every page a writer pushes through an exchange is charged against the
//! bucket before it lands in the destination buffer, so a configured
//! bandwidth cap (`NetworkConfig::nic_bandwidth_bytes_per_sec`) translates
//! into real wall-clock backpressure on the producing task — the same shape
//! of throttling the paper's 10 Gbps NICs impose. The default configuration
//! is unlimited, in which case every charge is free and the model adds no
//! overhead.
//!
//! [`NodeNic`] owns the **node-level** bucket shared by every query the
//! executor runs; [`NodeNic::for_query`] hands each query a [`NicModel`]
//! charging that bucket plus the configured link latency.
//!
//! A charge that has to sleep (bandwidth debt or link latency) **yields the
//! caller's compute slot** for the duration — the same discipline exchange
//! backpressure waits follow — so a throttled writer on a 1-slot pool
//! cannot starve every other task of CPU while it waits on simulated wire
//! time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{Mutex, Semaphore};

#[derive(Debug)]
struct Bucket {
    /// Token balance in bytes; may go negative (debt is slept off).
    available: f64,
    last_refill: Instant,
}

/// Token bucket refilled at a fixed byte rate, capped at `burst` bytes.
#[derive(Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    bucket: Mutex<Bucket>,
}

impl TokenBucket {
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: usize) -> Self {
        TokenBucket {
            rate_bytes_per_sec: rate_bytes_per_sec.max(1) as f64,
            burst_bytes: burst_bytes.max(1) as f64,
            bucket: Mutex::new(Bucket {
                available: burst_bytes.max(1) as f64,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Charges `bytes` tokens and returns how long the caller must wait for
    /// the bucket to cover them (zero when the balance stays non-negative).
    /// The debt is recorded immediately, so concurrent debits serialize
    /// their waits correctly even though nobody sleeps under the lock.
    pub fn debit(&self, bytes: usize) -> Duration {
        let mut b = self.bucket.lock();
        let now = Instant::now();
        b.available += now.duration_since(b.last_refill).as_secs_f64() * self.rate_bytes_per_sec;
        b.available = b.available.min(self.burst_bytes);
        b.last_refill = now;
        b.available -= bytes as f64;
        if b.available < 0.0 {
            Duration::from_secs_f64(-b.available / self.rate_bytes_per_sec)
        } else {
            Duration::ZERO
        }
    }

    /// Charges `bytes` tokens, sleeping until the bucket can cover them.
    pub fn acquire(&self, bytes: usize) {
        let wait = self.debit(bytes);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

/// The per-query network model: an optional reference to the node-level
/// bucket every query shares, and a per-page one-way latency.
#[derive(Debug, Default)]
pub struct NicModel {
    node: Option<Arc<TokenBucket>>,
    latency: Duration,
}

impl NicModel {
    /// A model that charges nothing (shared-memory exchange).
    pub fn unlimited() -> Self {
        NicModel::default()
    }

    /// Charges the transfer of one `bytes`-sized page: node-level bandwidth
    /// tokens, then link latency. Any wait is
    /// slept with the compute slot in `gate` released, so simulated wire
    /// time never pins a worker thread the way real send syscalls don't.
    pub fn charge(&self, bytes: usize, gate: Option<&Semaphore>) {
        let mut wait = self.latency;
        if let Some(node) = &self.node {
            wait += node.debit(bytes);
        }
        if wait.is_zero() {
            return;
        }
        if let Some(gate) = gate {
            gate.release();
        }
        std::thread::sleep(wait);
        if let Some(gate) = gate {
            gate.acquire();
        }
    }
}

/// The node's NIC: the bandwidth budget shared by every query a
/// `QueryExecutor` runs. Construct once per executor and mint one
/// [`NicModel`] per query with [`NodeNic::for_query`].
#[derive(Debug, Default)]
pub struct NodeNic {
    node_bucket: Option<Arc<TokenBucket>>,
}

impl NodeNic {
    pub fn new(config: &NetworkConfig) -> Self {
        NodeNic {
            node_bucket: config
                .nic_bandwidth_bytes_per_sec
                .map(|rate| Arc::new(TokenBucket::new(rate, config.max_response_bytes))),
        }
    }

    /// Mints the per-query model: the shared node bucket (when one exists)
    /// and the configured link latency.
    pub fn for_query(&self, config: &NetworkConfig) -> NicModel {
        NicModel {
            node: self.node_bucket.clone(),
            latency: Duration::from_micros(config.link_latency_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_charges_are_free() {
        let nic = NicModel::unlimited();
        let start = Instant::now();
        for _ in 0..1000 {
            nic.charge(1 << 20, None);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn bandwidth_cap_throttles() {
        // 1 MB/s, zero burst headroom beyond 1 KB: pushing 20 KB past the
        // initial burst must take ≥ ~19 ms.
        let bucket = TokenBucket::new(1_000_000, 1_000);
        let start = Instant::now();
        for _ in 0..20 {
            bucket.acquire(1_000);
        }
        assert!(
            start.elapsed() >= Duration::from_millis(15),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    fn latency_only(link_latency_us: u64) -> NicModel {
        let config = NetworkConfig {
            link_latency_us,
            ..NetworkConfig::unlimited()
        };
        NodeNic::new(&config).for_query(&config)
    }

    #[test]
    fn latency_applies_per_page() {
        let nic = latency_only(2_000);
        let start = Instant::now();
        nic.charge(1, None);
        nic.charge(1, None);
        assert!(start.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn charge_yields_the_compute_slot_while_sleeping() {
        // One slot, a charge that must sleep ~20 ms: a second thread must
        // be able to grab the slot *during* the sleep, not after it.
        let nic = Arc::new(latency_only(20_000));
        let gate = Arc::new(Semaphore::new(1));
        gate.acquire();
        let (nic2, gate2) = (nic.clone(), gate.clone());
        let sleeper = std::thread::spawn(move || nic2.charge(1, Some(&gate2)));
        let start = Instant::now();
        gate.acquire(); // must succeed mid-sleep
        let got_slot_after = start.elapsed();
        gate.release();
        sleeper.join().unwrap();
        assert!(
            got_slot_after < Duration::from_millis(15),
            "slot was held through the NIC sleep ({got_slot_after:?})"
        );
    }

    #[test]
    fn node_bucket_is_shared_across_queries() {
        let config = NetworkConfig {
            nic_bandwidth_bytes_per_sec: Some(1_000_000),
            max_response_bytes: 1_000,
            ..NetworkConfig::unlimited()
        };
        let node = NodeNic::new(&config);
        let a = node.for_query(&config);
        let b = node.for_query(&config);
        // Query A burns the node burst; query B must then be throttled even
        // though B itself never charged before.
        a.charge(1_000, None);
        let start = Instant::now();
        for _ in 0..10 {
            b.charge(1_000, None);
        }
        assert!(
            start.elapsed() >= Duration::from_millis(8),
            "node budget not shared ({:?})",
            start.elapsed()
        );
    }
}
