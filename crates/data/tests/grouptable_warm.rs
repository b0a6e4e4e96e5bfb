//! `GroupTable::warm` loads table slots and nothing else: on an empty
//! table, between inserts across every doubling, right after each growth
//! and for hashes of keys the table does not hold, everything a caller can
//! observe — `len()`, each group's key bytes, the id `get` and `insert`
//! return for every key — is what it was before the call.

use accordion_data::grouptable::GroupTable;

/// A deterministic stand-in hash: table mechanics need no particular one.
fn h(key: &[u8]) -> u64 {
    key.iter().fold(0x9E37u64, |acc, &b| {
        (acc ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `len()`, every group's key bytes, and what `get` answers for `keys`.
fn observe(t: &GroupTable, keys: &[Vec<u8>]) -> (usize, Vec<Vec<u8>>, Vec<Option<u32>>) {
    let stored = (0..t.len() as u32).map(|g| t.key(g).to_vec()).collect();
    let found = keys.iter().map(|k| t.get(h(k), k)).collect();
    (t.len(), stored, found)
}

#[test]
fn warm_changes_nothing_it_reads() {
    let keys: Vec<Vec<u8>> = (0..2_000u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let absent: Vec<u64> = (0..64u64).map(|i| h(&(i + 10_000).to_le_bytes())).collect();
    let all: Vec<u64> = keys
        .iter()
        .map(|k| h(k))
        .chain(absent.iter().copied())
        .collect();

    let mut t = GroupTable::new();
    let before = observe(&t, &keys);
    t.warm(&all);
    t.warm(&[]);
    assert_eq!(observe(&t, &keys), before, "empty table");

    for (i, k) in keys.iter().enumerate() {
        let before = observe(&t, &keys);
        t.warm(&all[i..(i + 32).min(all.len())]);
        t.warm(&absent);
        assert_eq!(observe(&t, &keys), before, "before key {i}");
        assert_eq!(t.insert(h(k), k), i as u32, "key {i} is new");
        // A table of 16 slots kept at most half full doubles on the insert
        // that finds 8, 16, 32, ... groups in it.
        if i >= 8 && i.is_power_of_two() {
            let grown = observe(&t, &keys);
            t.warm(&all);
            assert_eq!(observe(&t, &keys), grown, "right after growth at key {i}");
        }
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(h(k), k), Some(i as u32));
        assert_eq!(t.insert(h(k), k), i as u32);
        assert_eq!(t.key(i as u32), k.as_slice());
    }
    assert_eq!(t.len(), keys.len());
}
