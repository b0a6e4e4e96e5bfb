//! Strongly-typed identifiers.
//!
//! Stages are numbered as in the paper (0 is the output stage, Fig 4); a
//! stage's tasks run pipelines; a split is named by its place in its table.

use std::fmt;

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

/// A node of a fleet. Only the ignored `node` parameter of
/// `SplitSource::claim` still takes one; a fleet names its nodes by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a data split: its position in its table's split list, the
/// same in every process that builds the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SplitId(pub u64);

impl fmt::Display for SplitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "split-{}", self.0)
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
    fn display_forms() {
        assert_eq!(StageId(2).to_string(), "S2");
        assert_eq!(PipelineId(2).to_string(), "P2");
        assert_eq!(SplitId(9).to_string(), "split-9");
    }

    #[test]
    fn ids_order_by_components() {
        assert!(StageId(0) < StageId(1));
        assert!(SplitId(3) < SplitId(10));
    }
}
