//! Strongly-typed identifiers.
//!
//! Stages are numbered as in the paper (0 is the output stage, Fig 4); a
//! stage's tasks run pipelines; splits live on nodes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stage number inside a query (0 is the output/root stage, as in Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub u32);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Pipeline index inside a task (assigned by the pipeline splitter, Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipelineId(pub u32);

impl fmt::Display for PipelineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A compute or storage node of the (simulated) cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Identifier of a data split (a chunk of a base table on some node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SplitId(pub u64);

impl fmt::Display for SplitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "split-{}", self.0)
    }
}

/// Simple process-wide monotonic id generator, used wherever a fresh
/// `SplitId` sequence is needed without threading state.
#[derive(Debug, Default)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    pub const fn new() -> Self {
        IdGen {
            next: AtomicU64::new(0),
        }
    }

    pub fn next_u64(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// 64-bit FNV-1a of `bytes`: the engine's one stable, seedless fingerprint
/// (TPC-H table seeds and checksums, plan fingerprints, query-id prefixes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn id_gen_is_monotonic() {
        let g = IdGen::new();
        let a = g.next_u64();
        let b = g.next_u64();
        let c = g.next_u64();
        assert_eq!((b, c), (a + 1, a + 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(StageId(2).to_string(), "S2");
        assert_eq!(NodeId(1).to_string(), "node-1");
        assert_eq!(PipelineId(2).to_string(), "P2");
        assert_eq!(SplitId(9).to_string(), "split-9");
    }

    #[test]
    fn ids_order_by_components() {
        assert!(StageId(0) < StageId(1));
        assert!(SplitId(3) < SplitId(10));
    }
}
