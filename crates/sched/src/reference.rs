//! The retained `BinaryHeap` scheduler — the golden model.
//!
//! This is (modulo the handle surface) the event queue that
//! `ssbyz-simnet` and the `ssbyz-runtime` router used before the timer
//! wheel: a min-heap on `(due, seq)`. Like
//! `ssbyz_core::store::reference`, it exists as the golden model: the
//! equivalence property tests drive random insert/cancel/advance
//! interleavings through both queues and require identical
//! `(due, seq, payload)` pop streams.
//!
//! Cancellation is deliberately the *old* lazy scheme: a tombstone set,
//! with dead entries filtered at pop. That keeps the model honest about
//! the failure mode the wheel eliminates — [`EventQueue::occupancy`]
//! grows with every cancelled-but-unpopped entry.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::{EventQueue, Expired, TimerHandle};

struct Scheduled<T> {
    due: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Min-heap event queue on `(due, seq)` with tombstone cancellation.
#[derive(Default)]
pub struct ReferenceQueue<T> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    /// Seqs of live (inserted, neither popped nor cancelled) entries.
    pending: HashSet<u64>,
    /// Seqs cancelled but still buried in the heap.
    tombstones: HashSet<u64>,
    seq: u64,
}

impl<T> ReferenceQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            tombstones: HashSet::new(),
            seq: 0,
        }
    }

    /// Drops tombstoned entries sitting at the top of the heap.
    fn skim(&mut self) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.tombstones.remove(&head.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

impl<T> EventQueue<T> for ReferenceQueue<T> {
    fn insert(&mut self, due: u64, payload: T) -> TimerHandle {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { due, seq, payload }));
        self.pending.insert(seq);
        // The seq doubles as the handle: unique per entry, never reused.
        TimerHandle(seq)
    }

    fn cancel(&mut self, handle: TimerHandle) -> bool {
        let seq = handle.0;
        if !self.pending.remove(&seq) {
            return false;
        }
        // Lazy: the entry stays in the heap until pop walks past it.
        self.tombstones.insert(seq);
        true
    }

    fn peek_due(&mut self) -> Option<u64> {
        self.skim();
        self.heap.peek().map(|Reverse(head)| head.due)
    }

    fn pop(&mut self) -> Option<Expired<T>> {
        self.skim();
        let Reverse(head) = self.heap.pop()?;
        self.pending.remove(&head.seq);
        Some(Expired {
            due: head.due,
            seq: head.seq,
            payload: head.payload,
        })
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn occupancy(&self) -> usize {
        // Includes tombstoned garbage — the cost the wheel avoids.
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_equal_due() {
        let mut q: ReferenceQueue<&str> = ReferenceQueue::new();
        q.insert(10, "a");
        q.insert(5, "b");
        q.insert(10, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["b", "a", "c"]);
    }

    #[test]
    fn cancel_is_lazy_but_invisible() {
        let mut q: ReferenceQueue<u32> = ReferenceQueue::new();
        let h = q.insert(10, 1);
        q.insert(20, 2);
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.len(), 1);
        assert_eq!(q.occupancy(), 2, "tombstone still buried");
        assert_eq!(q.peek_due(), Some(20));
        assert_eq!(q.pop().map(|e| e.payload), Some(2));
        assert!(q.pop().is_none());
    }
}
