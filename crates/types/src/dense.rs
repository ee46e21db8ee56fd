//! Dense, index-addressed per-node containers.
//!
//! [`NodeId`]s are dense `u32` indices assigned from a fixed membership
//! list, so per-node state never needs a tree or hash map: a `Vec` indexed
//! by [`NodeId::index`] gives O(1) access with contiguous memory, and a
//! fixed-size bitset answers "which nodes?" queries by scanning machine
//! words instead of walking pointer-chasing map nodes. These containers
//! back every per-node table on the protocol hot path.

use core::fmt;

use crate::NodeId;

/// A map from [`NodeId`] to `T`, stored as a `Vec` indexed by the id.
///
/// Designed for dense membership: ids come from `0..n`, so the backing
/// vector holds at most `n` slots. Iteration order is always ascending
/// [`NodeId`], matching the ordering a `BTreeMap<NodeId, T>` would give.
///
/// # Example
///
/// ```
/// use ssbyz_types::{DenseNodeMap, NodeId};
///
/// let mut m: DenseNodeMap<&str> = DenseNodeMap::new();
/// m.insert(NodeId::new(2), "c");
/// m.insert(NodeId::new(0), "a");
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.get(NodeId::new(2)), Some(&"c"));
/// let keys: Vec<NodeId> = m.keys().collect();
/// assert_eq!(keys, vec![NodeId::new(0), NodeId::new(2)]);
/// ```
#[derive(Clone)]
pub struct DenseNodeMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for DenseNodeMap<T> {
    fn default() -> Self {
        DenseNodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> DenseNodeMap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for ids `0..n` without reallocating.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let mut slots = Vec::new();
        slots.reserve_exact(n);
        DenseNodeMap { slots, len: 0 }
    }

    /// Number of present entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` has an entry.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.slots.get(id.index()).is_some_and(Option::is_some)
    }

    /// The entry for `id`, if present.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry for `id`, if present.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    fn grow_to(&mut self, index: usize) {
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
    }

    /// Inserts `value` for `id`, returning the previous entry if any.
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        self.grow_to(id.index());
        let prev = self.slots[id.index()].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let prev = self.slots.get_mut(id.index()).and_then(Option::take);
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// The entry for `id`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, id: NodeId, make: impl FnOnce() -> T) -> &mut T {
        self.grow_to(id.index());
        let slot = &mut self.slots[id.index()];
        if slot.is_none() {
            *slot = Some(make());
            self.len += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Iterates present entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (NodeId::new(i as u32), v)))
    }

    /// Iterates present entries mutably, in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (NodeId::new(i as u32), v)))
    }

    /// Iterates present ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates present values mutably, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot.as_mut() {
                if !keep(NodeId::new(i as u32), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Removes every entry (keeps the allocation).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }
}

impl<T: fmt::Debug> fmt::Debug for DenseNodeMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for DenseNodeMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for DenseNodeMap<T> {}

const WORD_BITS: usize = 64;

/// A set of [`NodeId`]s stored as machine words.
///
/// Membership tests, inserts and removes are O(1); iteration and counting
/// scan words (64 ids at a time). The population count is maintained
/// incrementally so [`NodeBitSet::count`] is O(1) — this is what lets the
/// arrival log answer "how many distinct senders" without rescanning.
///
/// # Example
///
/// ```
/// use ssbyz_types::{NodeBitSet, NodeId};
///
/// let mut s = NodeBitSet::new();
/// assert!(s.insert(NodeId::new(3)));
/// assert!(!s.insert(NodeId::new(3))); // already present
/// assert!(s.contains(NodeId::new(3)));
/// assert_eq!(s.count(), 1);
/// ```
#[derive(Clone, Default)]
pub struct NodeBitSet {
    words: Vec<u64>,
    count: usize,
}

impl NodeBitSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set sized for ids `0..n`.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        NodeBitSet {
            words: vec![0; n.div_ceil(WORD_BITS)],
            count: 0,
        }
    }

    /// Number of ids in the set (O(1)).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `id` is in the set.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Adds `id`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        if fresh {
            self.count += 1;
        }
        fresh
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        let present = *word & mask != 0;
        *word &= !mask;
        if present {
            self.count -= 1;
        }
        present
    }

    /// Removes every id (keeps the allocation).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
        self.count = 0;
    }

    /// Keeps only the ids for which `keep` returns `true`, visiting them
    /// in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if !keep(NodeId::new((wi * WORD_BITS + bit) as u32)) {
                    *word &= !(1u64 << bit);
                    self.count -= 1;
                }
            }
        }
    }

    /// Keeps only the ids that are also in `other`.
    pub fn intersect_with(&mut self, other: &NodeBitSet) {
        let mut count = 0;
        for (wi, word) in self.words.iter_mut().enumerate() {
            *word &= other.words.get(wi).copied().unwrap_or(0);
            count += word.count_ones() as usize;
        }
        self.count = count;
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            core::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(NodeId::new((wi * WORD_BITS + bit) as u32))
            })
        })
    }
}

impl fmt::Debug for NodeBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for NodeBitSet {
    fn eq(&self, other: &Self) -> bool {
        if self.count != other.count {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|w| *w == 0)
    }
}

impl Eq for NodeBitSet {}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn dense_map_basics() {
        let mut m: DenseNodeMap<u32> = DenseNodeMap::with_capacity(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(id(2), 20), None);
        assert_eq!(m.insert(id(2), 21), Some(20));
        assert_eq!(m.insert(id(0), 1), None);
        assert_eq!(m.len(), 2);
        assert!(m.contains(id(0)) && !m.contains(id(1)));
        assert_eq!(m.get(id(2)), Some(&21));
        *m.get_mut(id(0)).unwrap() += 1;
        assert_eq!(m.get(id(0)), Some(&2));
        assert_eq!(m.remove(id(5)), None);
        assert_eq!(m.remove(id(2)), Some(21));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dense_map_iteration_is_id_ordered() {
        let mut m: DenseNodeMap<&str> = DenseNodeMap::new();
        m.insert(id(3), "d");
        m.insert(id(1), "b");
        m.insert(id(7), "h");
        let got: Vec<_> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, vec![(id(1), "b"), (id(3), "d"), (id(7), "h")]);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![id(1), id(3), id(7)]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec!["b", "d", "h"]);
    }

    #[test]
    fn dense_map_get_or_insert_and_retain() {
        let mut m: DenseNodeMap<Vec<u32>> = DenseNodeMap::new();
        m.get_or_insert_with(id(4), Vec::new).push(1);
        m.get_or_insert_with(id(4), || panic!("present")).push(2);
        m.get_or_insert_with(id(6), Vec::new);
        assert_eq!(m.get(id(4)), Some(&vec![1, 2]));
        m.retain(|_, v| !v.is_empty());
        assert_eq!(m.len(), 1);
        assert!(!m.contains(id(6)));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn dense_map_equality_ignores_capacity() {
        let mut a: DenseNodeMap<u32> = DenseNodeMap::new();
        let mut b: DenseNodeMap<u32> = DenseNodeMap::new();
        a.insert(id(1), 1);
        b.insert(id(9), 9); // forces a longer backing vec
        b.remove(id(9));
        b.insert(id(1), 1);
        assert_eq!(a, b);
        b.insert(id(2), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn bitset_basics() {
        let mut s = NodeBitSet::with_capacity(4);
        assert!(s.insert(id(0)));
        assert!(s.insert(id(70))); // grows past one word
        assert!(!s.insert(id(70)));
        assert_eq!(s.count(), 2);
        assert!(s.contains(id(70)) && !s.contains(id(69)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![id(0), id(70)]);
        assert!(s.remove(id(0)));
        assert!(!s.remove(id(0)));
        assert_eq!(s.count(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn bitset_retain_and_intersect() {
        let mut s = NodeBitSet::new();
        for i in [1u32, 5, 64, 70, 130] {
            s.insert(id(i));
        }
        let mut seen = Vec::new();
        s.retain(|x| {
            seen.push(x);
            x.index() != 5 && x.index() != 130
        });
        assert_eq!(seen, vec![id(1), id(5), id(64), id(70), id(130)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![id(1), id(64), id(70)]);
        assert_eq!(s.count(), 3);
        // `other` is shorter than `s`: ids past its last word drop out.
        let mut other = NodeBitSet::new();
        other.insert(id(1));
        other.insert(id(2));
        s.intersect_with(&other);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![id(1)]);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn bitset_equality_ignores_capacity() {
        let mut a = NodeBitSet::new();
        let mut b = NodeBitSet::new();
        a.insert(id(3));
        b.insert(id(200));
        b.remove(id(200));
        b.insert(id(3));
        assert_eq!(a, b);
        b.insert(id(64));
        assert_ne!(a, b);
    }
}
