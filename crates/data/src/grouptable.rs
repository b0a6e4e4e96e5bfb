//! Open-addressing hash table over encoded row keys.
//!
//! [`GroupTable`] is the raw table behind grouped aggregation and the join
//! build side, with the key bytes append-only in an internal key arena.
//! Callers hash whole pages with [`crate::hash::hash_columns`], encode each
//! row's key into one amortized scratch buffer
//! ([`crate::rowkey::encode_key_into`]) and probe — no per-row `Vec<u8>`
//! allocation and no tree rebalancing on the hot path.
//!
//! **Layout.** A slot is 8 bytes: a `u32` *tag* — the high half of the
//! key's 64-bit hash — and the `u32` group id (`u32::MAX` = empty). The low
//! half of the hash picks the first slot; collisions probe quadratically
//! (triangular steps) over a power-of-two slot count kept at most half
//! full. A probe compares key bytes only where the tag matches, so two
//! keys whose hashes differ anywhere in the high half never touch the
//! arena. The full hashes live in a per-group side vector, in id order:
//! growing walks it to re-place every group, and never re-hashes a key.
//!
//! Group ids are dense and in insertion (first-seen) order, `0..len()`:
//! table order, which is how a partial aggregate emits its groups, and a
//! final aggregate whose rows a covering sort reorders anyway. Where the
//! order is observable, [`GroupTable::sorted_ids`] returns group ids
//! sorted by their encoded key bytes, which is exactly the iteration order
//! of the `BTreeMap<Vec<u8>, _>` it replaced — deterministic,
//! history-independent output, at the price of a sort over every group
//! (q_shuffle's ~375 k per task). It sorts `(prefix, id)` pairs, the
//! prefix being a key's first 8 bytes read big-endian and zero-padded, and
//! compares whole keys only between equal prefixes. Padding cannot reorder
//! two keys: where one is
//! shorter than 8 bytes and their padded prefixes tie, the full compare
//! decides, and where they differ in a padded byte the shorter key is a
//! prefix of the other, which sorts first either way.

/// Append-only storage for the distinct encoded keys, one contiguous byte
/// buffer plus offsets (same layout idea as the Utf8 column).
#[derive(Debug, Default)]
struct KeyArena {
    bytes: Vec<u8>,
    /// `offsets.len() == groups + 1`; group `g` spans
    /// `bytes[offsets[g]..offsets[g+1]]`.
    offsets: Vec<u32>,
}

impl KeyArena {
    fn new() -> Self {
        KeyArena {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    #[inline]
    fn key(&self, group: u32) -> &[u8] {
        let g = group as usize;
        &self.bytes[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    #[inline]
    fn push(&mut self, key: &[u8]) -> u32 {
        let id = (self.offsets.len() - 1) as u32;
        self.bytes.extend_from_slice(key);
        self.offsets.push(self.bytes.len() as u32);
        id
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// One slot: the high half of the key's hash (cheap early-out on probe)
/// and the group id it maps to. A `group` of `EMPTY` marks an unused slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    group: u32,
}

const EMPTY: u32 = u32::MAX;
const EMPTY_SLOT: Slot = Slot {
    tag: 0,
    group: EMPTY,
};

#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// A key's first 8 bytes, big-endian, zero-padded: comparing prefixes is
/// comparing those bytes.
#[inline]
fn key_prefix(key: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    let n = key.len().min(8);
    bytes[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(bytes)
}

/// Open-addressing raw hash table mapping encoded keys to dense group ids
/// (`0..len()`), insertion-ordered.
#[derive(Debug)]
pub struct GroupTable {
    slots: Vec<Slot>,
    /// `hashes[g]` is group `g`'s full hash — what [`grow`](Self::grow)
    /// places it by.
    hashes: Vec<u64>,
    arena: KeyArena,
    /// Capacity mask; `slots.len()` is always a power of two.
    mask: usize,
}

impl GroupTable {
    pub fn new() -> Self {
        GroupTable::with_capacity(16)
    }

    pub fn with_capacity(groups: usize) -> Self {
        let cap = (groups * 2).next_power_of_two().max(16);
        GroupTable {
            slots: vec![EMPTY_SLOT; cap],
            hashes: Vec::new(),
            arena: KeyArena::new(),
            mask: cap - 1,
        }
    }

    /// Number of distinct keys inserted so far.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoded key bytes of a group id.
    #[inline]
    pub fn key(&self, group: u32) -> &[u8] {
        self.arena.key(group)
    }

    /// Looks `key` up, inserting a fresh group id on miss.
    #[inline]
    pub fn insert(&mut self, hash: u64, key: &[u8]) -> u32 {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = tag_of(hash);
        let mut idx = hash as usize & self.mask;
        let mut step = 0usize;
        loop {
            let slot = self.slots[idx];
            if slot.group == EMPTY {
                let group = self.arena.push(key);
                self.hashes.push(hash);
                self.slots[idx] = Slot { tag, group };
                return group;
            }
            if slot.tag == tag && self.arena.key(slot.group) == key {
                return slot.group;
            }
            // Quadratic probing: triangular steps visit every slot of a
            // power-of-two table exactly once.
            step += 1;
            idx = (idx + step) & self.mask;
        }
    }

    /// Read-only lookup (join probe side).
    #[inline]
    pub fn get(&self, hash: u64, key: &[u8]) -> Option<u32> {
        let tag = tag_of(hash);
        let mut idx = hash as usize & self.mask;
        let mut step = 0usize;
        loop {
            let slot = self.slots[idx];
            if slot.group == EMPTY {
                return None;
            }
            if slot.tag == tag && self.arena.key(slot.group) == key {
                return Some(slot.group);
            }
            step += 1;
            idx = (idx + step) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        self.slots = vec![EMPTY_SLOT; new_cap];
        self.mask = new_cap - 1;
        for (group, &hash) in self.hashes.iter().enumerate() {
            let mut idx = hash as usize & self.mask;
            let mut step = 0usize;
            while self.slots[idx].group != EMPTY {
                step += 1;
                idx = (idx + step) & self.mask;
            }
            self.slots[idx] = Slot {
                tag: tag_of(hash),
                group: group as u32,
            };
        }
    }

    /// Group ids sorted by encoded key bytes — the deterministic emission
    /// order where group order is observable (identical to iterating the
    /// replaced `BTreeMap<Vec<u8>, _>`).
    pub fn sorted_ids(&self) -> Vec<u32> {
        let mut pairs: Vec<(u64, u32)> = (0..self.len() as u32)
            .map(|g| (key_prefix(self.arena.key(g)), g))
            .collect();
        pairs.sort_unstable_by(|&(pa, a), &(pb, b)| {
            pa.cmp(&pb)
                .then_with(|| self.arena.key(a).cmp(self.arena.key(b)))
        });
        pairs.into_iter().map(|(_, g)| g).collect()
    }
}

impl Default for GroupTable {
    fn default() -> Self {
        GroupTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(key: &[u8]) -> u64 {
        // Any deterministic stand-in hash works for table mechanics.
        key.iter().fold(0x9E37u64, |acc, &b| {
            (acc ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    #[test]
    fn insert_dedups_and_ids_are_dense() {
        let mut t = GroupTable::new();
        let a = t.insert(h(b"a"), b"a");
        let b = t.insert(h(b"b"), b"b");
        let a2 = t.insert(h(b"a"), b"a");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a2, a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.key(a), b"a");
        assert_eq!(t.key(b), b"b");
    }

    #[test]
    fn get_finds_only_inserted() {
        let mut t = GroupTable::new();
        t.insert(h(b"k1"), b"k1");
        assert_eq!(t.get(h(b"k1"), b"k1"), Some(0));
        assert_eq!(t.get(h(b"k2"), b"k2"), None);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t = GroupTable::with_capacity(1);
        let keys: Vec<Vec<u8>> = (0..10_000i64).map(|i| i.to_le_bytes().to_vec()).collect();
        for k in &keys {
            t.insert(h(k), k);
        }
        assert_eq!(t.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(h(k), k), Some(i as u32), "key {i} lost in growth");
            assert_eq!(t.key(i as u32), k.as_slice());
        }
        // Re-inserting returns the existing ids.
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.insert(h(k), k), i as u32);
        }
    }

    #[test]
    fn colliding_hashes_stay_distinct_keys() {
        let mut t = GroupTable::new();
        // Same hash, different bytes: full-key comparison must disambiguate.
        let a = t.insert(42, b"left");
        let b = t.insert(42, b"right");
        assert_ne!(a, b);
        assert_eq!(t.get(42, b"left"), Some(a));
        assert_eq!(t.get(42, b"right"), Some(b));
        assert_eq!(t.get(42, b"missing"), None);
    }

    #[test]
    fn sorted_ids_order_by_key_bytes() {
        let mut t = GroupTable::new();
        t.insert(h(b"zz"), b"zz");
        t.insert(h(b"a"), b"a");
        t.insert(h(b"mm"), b"mm");
        let order = t.sorted_ids();
        let keys: Vec<&[u8]> = order.iter().map(|&g| t.key(g)).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"mm", b"zz"]);
    }

    /// Inserts `keys` into a fresh table and checks `sorted_ids` against a
    /// plain memcmp sort of the distinct keys.
    fn assert_sorted_ids_are_memcmp_order(keys: &[Vec<u8>], context: &str) {
        let mut t = GroupTable::new();
        for k in keys {
            t.insert(h(k), k);
        }
        let mut expected: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<&[u8]> = t.sorted_ids().iter().map(|&g| t.key(g)).collect();
        assert_eq!(got, expected, "{context}");
    }

    #[test]
    fn sorted_ids_equal_a_plain_memcmp_sort() {
        use crate::column::Column;
        use crate::page::DataPage;
        use crate::rowkey::encode_key;

        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for seed in 0..20 {
            // Raw keys of 0..=12 bytes over {0, 1, 2, 255}: the empty key,
            // keys under 8 bytes, keys that are prefixes of each other and
            // keys that differ from them only in trailing zero bytes —
            // exactly what zero padding could confuse.
            let raw: Vec<Vec<u8>> = (0..300)
                .map(|_| {
                    (0..next(13))
                        .map(|_| [0u8, 1, 2, 255][next(4) as usize])
                        .collect()
                })
                .collect();
            assert_sorted_ids_are_memcmp_order(&raw, &format!("raw keys, seed {seed}"));

            // Encoded compound keys: Int64s equal in their low 7 bytes
            // (same 8-byte prefix, tag included), Utf8 values of one length
            // sharing their first 3 bytes (tag + length + 3 bytes = 8), and
            // NULL tags in both columns.
            let rows = 200;
            let ints: Vec<i64> = (0..rows)
                .map(|_| (next(3) as i64) << 56 | next(4) as i64)
                .collect();
            let words = [
                "abc",
                "abcd",
                "abce",
                "abd",
                "",
                "ab",
                "abcdefghij",
                "abcdefghik",
            ];
            let strs: Vec<&str> = (0..rows).map(|_| words[next(8) as usize]).collect();
            let int_nulls: Vec<bool> = (0..rows).map(|_| next(6) == 0).collect();
            let str_nulls: Vec<bool> = (0..rows).map(|_| next(6) == 0).collect();
            let page = DataPage::new(vec![
                Column::from_i64_nullable(ints, &int_nulls),
                Column::from_utf8_nullable(
                    crate::column::Utf8Column::from_strings(&strs),
                    &str_nulls,
                ),
            ]);
            for key_cols in [&[0usize, 1][..], &[1, 0], &[1], &[0]] {
                let keys: Vec<Vec<u8>> =
                    (0..rows).map(|r| encode_key(&page, key_cols, r)).collect();
                assert_sorted_ids_are_memcmp_order(
                    &keys,
                    &format!("encoded keys {key_cols:?}, seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn equal_tags_and_equal_hashes_stay_exact_through_growth() {
        // A third of the keys share one full hash; the rest share the tag
        // (high half) but not the low half. Every lookup must still go by
        // the key bytes, before and after each doubling from 16 slots.
        const TAG: u64 = 0xDEAD_BEEF << 32;
        let keys: Vec<Vec<u8>> = (0..1500u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let hash = |i: usize| -> u64 {
            if i.is_multiple_of(3) {
                TAG | 42
            } else {
                TAG | (i as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF
            }
        };
        assert!((0..keys.len()).all(|i| tag_of(hash(i)) == tag_of(TAG)));
        let mut t = GroupTable::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.insert(hash(i), k), i as u32, "key {i} is new");
            assert_eq!(t.get(hash(i), k), Some(i as u32));
        }
        assert_eq!(t.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(hash(i), k), Some(i as u32), "key {i} lost in growth");
            assert_eq!(t.insert(hash(i), k), i as u32, "key {i} re-inserted");
            assert_eq!(t.key(i as u32), k.as_slice());
        }
        let absent = 5000u32.to_le_bytes();
        assert_eq!(t.get(TAG | 42, &absent), None);
        assert_eq!(t.get(hash(1), &absent), None);
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn empty_key_is_a_valid_group() {
        let mut t = GroupTable::new();
        let g = t.insert(7, b"");
        assert_eq!(t.insert(7, b""), g);
        assert_eq!(t.key(g), b"");
        assert_eq!(t.sorted_ids(), vec![0]);
    }
}
