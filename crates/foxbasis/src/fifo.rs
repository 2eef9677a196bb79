//! The FIFO queue of the Fox Basis (`structure Q: FIFO` in the paper's
//! Fig. 6).
//!
//! The per-connection `to_do` queue of [`TcpAction`]s — the heart of the
//! quasi-synchronous control structure — is a FIFO, and so is each
//! layer's queue of received messages. The paper also notes (§4) that
//! replacing this FIFO with a priority queue would let particular
//! actions (e.g. ones that affect packet latency) run at higher
//! priority; [`Fifo::take_first_match`] is that hook, and the engine's
//! `latency_priority` option uses it.
//!
//! [`TcpAction`]: ../../foxtcp/action/enum.TcpAction.html

use std::collections::VecDeque;
use std::fmt;

/// A first-in first-out queue.
#[derive(Clone, PartialEq)]
pub struct Fifo<T> {
    items: VecDeque<T>,
}

impl<T> Fifo<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Fifo { items: VecDeque::new() }
    }

    /// Creates an empty queue with room for `n` elements before
    /// reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Fifo { items: VecDeque::with_capacity(n) }
    }

    /// Appends `item` at the tail of the queue.
    pub fn add(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// Removes and returns the item at the head of the queue, or `None`
    /// if the queue is empty.
    #[allow(
        clippy::should_implement_trait,
        reason = "named after the paper's `Q.next`, not the `Iterator` method"
    )]
    pub fn next(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the head of the queue without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of queued items.
    pub fn size(&self) -> usize {
        self.items.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates from head to tail without consuming the queue.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes every item for which `keep` returns false, preserving the
    /// order of the survivors.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.items.retain(keep);
    }

    /// Drains the whole queue head-to-tail into a vector.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }

    /// Removes and returns the first item matching `pred`, if any —
    /// the hook that turns the FIFO into the priority queue the paper
    /// proposes for latency-sensitive actions (§4).
    pub fn take_first_match(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let at = self.items.iter().position(&mut pred)?;
        self.items.remove(at)
    }
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<T> FromIterator<T> for Fifo<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Fifo { items: iter.into_iter().collect() }
    }
}

impl<T> IntoIterator for Fifo<T> {
    type Item = T;
    type IntoIter = std::collections::vec_deque::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = Fifo::new();
        q.add(1);
        q.add(2);
        q.add(3);
        assert_eq!(q.size(), 3);
        assert_eq!(q.next(), Some(1));
        assert_eq!(q.next(), Some(2));
        assert_eq!(q.next(), Some(3));
        assert_eq!(q.next(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = Fifo::new();
        q.add("a");
        assert_eq!(q.peek(), Some(&"a"));
        assert_eq!(q.size(), 1);
        assert_eq!(q.next(), Some("a"));
    }

    #[test]
    fn retain_preserves_order() {
        let mut q: Fifo<i32> = (0..10).collect();
        q.retain(|x| x % 2 == 0);
        assert_eq!(q.drain_all(), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn clear_and_iter() {
        let mut q: Fifo<i32> = (0..3).collect();
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn into_iter_order() {
        let q: Fifo<i32> = (0..4).collect();
        assert_eq!(q.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}

#[cfg(test)]
mod priority_tests {
    use super::*;

    #[test]
    fn take_first_match_preserves_rest() {
        let mut q: Fifo<i32> = (0..6).collect();
        assert_eq!(q.take_first_match(|x| x % 2 == 1), Some(1));
        assert_eq!(q.drain_all(), vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn take_first_match_none() {
        let mut q: Fifo<i32> = (0..3).collect();
        assert_eq!(q.take_first_match(|x| *x > 10), None);
        assert_eq!(q.size(), 3);
    }
}
