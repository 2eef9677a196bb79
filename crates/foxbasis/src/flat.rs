//! A flat, deterministic open-addressing index: key → value in one
//! hashed probe, with duplicate keys kept in insertion order.
//!
//! Every arriving segment and every station call asks "which
//! connection?"; an ordered tree answers in O(log n) node hops, this
//! in one probe.
//! The table is one vector of `(key, value)` entries, linear probing,
//! the load kept under 1/2 by doubling — so the heap is touched only
//! when it grows — and deletion by backward shift, so no tombstone
//! ever lengthens a probe. A vacant slot holds [`FlatKey::EMPTY`] and a
//! default value: no tag, no `Option`, so an `(u32, u32)` entry is 8
//! bytes.
//!
//! **Deterministic.** A key's [`FlatKey::hash64`] goes through one fixed
//! 64-bit finalizer (splitmix64's mixer); there is no per-process seed,
//! so the layout is a function of the insertions alone. And there is no
//! iteration API: the layout is never an observable order
//! (`hash_iter`, DESIGN.md §5.8, met by construction). What a caller can
//! see is the entries under one key, and those come back in insertion
//! order: an entry is filed after every entry with an equal key, the
//! backward shift never moves one past another, and growth re-files
//! from a vacant slot on, so a probe run that wraps the end of the
//! array is re-filed in its probe order.
//!
//! **Worst case.** A lookup costs the run of occupied slots it walks: a
//! run of colliding keys costs its length. The mixer is fixed, so keys
//! can be chosen to collide; the engine bounds what a peer can file
//! (see DESIGN.md §5.7).

// rx_panic (DESIGN.md §5.8): every arriving segment is looked up here.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// A key a [`FlatIndex`] can file under.
pub trait FlatKey: Copy + Eq {
    /// The one value never filed: it marks a vacant slot.
    const EMPTY: Self;

    /// The key's bits folded to 64; the index mixes them.
    fn hash64(self) -> u64;
}

impl FlatKey for u16 {
    /// A `u16` key is a bound port, and port 0 is never bound.
    const EMPTY: u16 = 0;

    fn hash64(self) -> u64 {
        u64::from(self)
    }
}

impl FlatKey for u32 {
    /// A `u32` key is a connection id, and ids count up from 0.
    const EMPTY: u32 = u32::MAX;

    fn hash64(self) -> u64 {
        u64::from(self)
    }
}

/// splitmix64's finalizer: every input bit moves every output bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Slots the first insertion allocates.
const MIN_SLOTS: usize = 4;

/// The index. `V::default()` fills vacant slots, so it should not
/// allocate.
pub struct FlatIndex<K, V> {
    /// Zero or a power of two slots, more than twice `len`.
    slots: Vec<(K, V)>,
    len: usize,
}

impl<K: FlatKey, V: Default> Default for FlatIndex<K, V> {
    fn default() -> Self {
        FlatIndex::new()
    }
}

impl<K: FlatKey, V: Default> FlatIndex<K, V> {
    /// An empty index; it allocates on the first insertion.
    pub fn new() -> Self {
        FlatIndex { slots: Vec::new(), len: 0 }
    }

    /// Entries filed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is filed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `v` under `k`, after every entry already filed under `k`.
    /// `k` must not be [`FlatKey::EMPTY`].
    pub fn insert(&mut self, k: K, v: V) {
        debug_assert!(k != K::EMPTY, "the vacant-slot key is never filed");
        if 2 * (self.len + 1) >= self.slots.len() {
            self.grow();
        }
        self.place(k, v);
        self.len += 1;
    }

    /// The first entry under `k`, in insertion order, whose value `pred`
    /// accepts; `pred` sees each of `k`'s entries until one is accepted.
    pub fn find(&self, k: &K, pred: impl FnMut(&V) -> bool) -> Option<&V> {
        let at = self.position(k, pred)?;
        self.slots.get(at).map(|(_, v)| v)
    }

    /// The first entry filed under `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k, |_| true)
    }

    /// The first entry filed under `k`, to update in place.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        let at = self.position(k, |_| true)?;
        self.slots.get_mut(at).map(|(_, v)| v)
    }

    /// Unfiles and returns the entry [`FlatIndex::find`] would return.
    pub fn remove_where(&mut self, k: &K, pred: impl FnMut(&V) -> bool) -> Option<V> {
        let mut hole = self.position(k, pred)?;
        let (_, v) = std::mem::replace(&mut self.slots[hole], (K::EMPTY, V::default()));
        self.len -= 1;
        // Backward shift: pull each later entry of the run into the hole
        // unless that would put it before its home.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let key = self.slots[i].0;
            if key == K::EMPTY {
                return Some(v);
            }
            let home = self.home(&key);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots.swap(hole, i);
                hole = i;
            }
        }
    }

    /// How many slots a search for `k` reads, the vacant one it stops at
    /// included: what a miss costs, and the most any lookup of `k` can.
    pub fn probes(&self, k: &K) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(k);
        let mut n = 1;
        while self.slots[i].0 != K::EMPTY {
            i = (i + 1) & mask;
            n += 1;
        }
        n
    }

    /// The slot a search for `k` starts at. Only called with slots.
    fn home(&self, k: &K) -> usize {
        // Truncating is the point: the low bits pick the slot.
        (mix(k.hash64()) as usize) & (self.slots.len() - 1)
    }

    /// The slot of `find`'s answer.
    fn position(&self, k: &K, mut pred: impl FnMut(&V) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(k);
        loop {
            let (key, v) = &self.slots[i];
            if *key == K::EMPTY {
                return None;
            }
            if key == k && pred(v) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Puts an entry in the first vacant slot from its home on: after
    /// every entry with an equal key, which all share that home.
    fn place(&mut self, k: K, v: V) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(&k);
        while self.slots[i].0 != K::EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (k, v);
    }

    /// Doubles the slots and re-files every entry, walking the old slots
    /// from a vacant one so that each run is re-filed in probe order.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let mut old =
            std::mem::replace(&mut self.slots, (0..slots).map(|_| (K::EMPTY, V::default())).collect());
        let vacant = old.iter().position(|(k, _)| *k == K::EMPTY).unwrap_or(0);
        old.rotate_left(vacant);
        for (k, v) in old {
            if k != K::EMPTY {
                self.place(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A key that collides on purpose: `hash64` is its value mod 3, so
    /// every run is long and different keys share runs.
    #[derive(Copy, Clone, PartialEq, Eq, Debug, PartialOrd, Ord)]
    struct Clump(u32);

    impl FlatKey for Clump {
        const EMPTY: Clump = Clump(0);

        fn hash64(self) -> u64 {
            u64::from(self.0 % 3)
        }
    }

    /// Every entry is reachable from its home without crossing a vacant
    /// slot, `len` counts the entries, and the load is under 1/2.
    fn check<K: FlatKey, V: Default>(ix: &FlatIndex<K, V>) {
        let n = ix.slots.len();
        let filed = ix.slots.iter().filter(|(k, _)| *k != K::EMPTY).count();
        assert_eq!(filed, ix.len, "len against the occupied slots");
        assert!(n == 0 || (n.is_power_of_two() && 2 * ix.len < n), "{} entries in {n} slots", ix.len);
        for (i, (k, _)) in ix.slots.iter().enumerate().filter(|(_, (k, _))| *k != K::EMPTY) {
            let mut at = ix.home(k);
            while at != i {
                assert!(ix.slots[at].0 != K::EMPTY, "slot {i} is cut off from its home");
                at = (at + 1) & (n - 1);
            }
        }
    }

    /// Runs `(op, key, arg)` steps on an index and on a `BTreeMap` of
    /// vectors, comparing every answer and checking the layout after
    /// each step.
    fn run_against_model<K: FlatKey + Ord + std::fmt::Debug>(ops: &[(u8, K, u32)]) {
        let mut ix: FlatIndex<K, u32> = FlatIndex::new();
        let mut model: BTreeMap<K, Vec<u32>> = BTreeMap::new();
        for (serial, &(op, k, arg)) in ops.iter().enumerate() {
            let under = model.entry(k).or_default();
            match op % 4 {
                // Insert (twice as often as the rest): values are unique.
                0 | 1 => {
                    let v = serial as u32;
                    ix.insert(k, v);
                    under.push(v);
                }
                // Remove the first entry under `k` that `arg` picks —
                // often one in the middle of its run.
                2 => {
                    let pick = |v: &u32| v % 3 == arg % 3;
                    let want = under.iter().position(pick).map(|at| under.remove(at));
                    assert_eq!(ix.remove_where(&k, pick), want, "remove under {k:?}");
                }
                // Find, with and without a predicate.
                _ => {
                    let pick = |v: &u32| v % 2 == arg % 2;
                    assert_eq!(ix.find(&k, pick), under.iter().find(|v| pick(v)));
                    assert_eq!(ix.get(&k), under.first());
                }
            }
            check(&ix);
        }
        // Every key's entries, in insertion order, drained front first.
        assert_eq!(ix.len(), model.values().map(Vec::len).sum::<usize>());
        for (k, under) in &model {
            for &v in under {
                assert_eq!(ix.remove_where(k, |_| true), Some(v), "{k:?}'s entries out of order");
            }
            assert_eq!(ix.get(k), None);
        }
        assert!(ix.is_empty());
        check(&ix);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn answers_like_a_btreemap_of_vecs(
            ops in proptest::collection::vec((0u8..4, 1u32..40, any::<u32>()), 0..400)
        ) {
            run_against_model(&ops);
        }

        #[test]
        fn colliding_keys_answer_like_a_btreemap_of_vecs(
            ops in proptest::collection::vec((0u8..4, (1u32..12).prop_map(Clump), any::<u32>()), 0..300)
        ) {
            run_against_model(&ops);
        }
    }

    #[test]
    fn a_run_that_wraps_the_end_keeps_its_order() {
        // A key whose home is the last of the first eight slots.
        let k = (1u32..).find(|&h| mix(u64::from(h)) & 7 == 7).unwrap();
        let mut ix = FlatIndex::new();
        for v in 10..13 {
            ix.insert(k, v);
        }
        assert_eq!(ix.slots.len(), 8);
        assert_eq!([ix.slots[7], ix.slots[0], ix.slots[1]], [(k, 10), (k, 11), (k, 12)], "the run wraps");
        assert_eq!(ix.probes(&k), 4);

        // The middle one goes: the last shifts back across the end.
        assert_eq!(ix.remove_where(&k, |&v| v == 11), Some(11));
        assert_eq!([ix.slots[7], ix.slots[0], ix.slots[1]], [(k, 10), (k, 12), (u32::EMPTY, 0)]);
        ix.insert(k, 13);

        // Growth re-files the wrapped run in its order.
        for other in (1u32..).filter(|&o| o != k).take(4) {
            ix.insert(other, 0);
        }
        assert_eq!(ix.slots.len(), 16);
        check(&ix);
        let mut seen = Vec::new();
        ix.find(&k, |&v| {
            seen.push(v);
            false
        });
        assert_eq!(seen, [10, 12, 13]);
    }

    #[test]
    fn updates_in_place_and_allocates_only_to_grow() {
        let mut ix: FlatIndex<u16, u32> = FlatIndex::new();
        assert_eq!((ix.get(&80), ix.probes(&80), ix.slots.capacity()), (None, 0, 0));
        ix.insert(80, 1);
        *ix.get_mut(&80).unwrap() += 1;
        assert_eq!(ix.get(&80), Some(&2));
        ix.insert(81, 0);
        let storage = ix.slots.as_ptr();
        for round in 1..100 {
            assert_eq!(ix.remove_where(&81, |_| true), Some(round - 1));
            ix.insert(81, round);
        }
        assert_eq!(ix.slots.as_ptr(), storage, "churn at a steady population reuses the slots");
        assert_eq!(std::mem::size_of::<(u32, u32)>(), 8);
    }
}
