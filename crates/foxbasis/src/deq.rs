//! The double-ended queue of the Fox Basis (`structure D: DEQ` in the
//! paper's Fig. 6).
//!
//! The structured TCP keeps its resend queue in a deque: the Send module
//! appends each segment it transmits at the back, as a `SentSegment`
//! sequence range over the send buffer (the bytes stay there), and the
//! Resend module trims and releases acknowledged ranges from the front.

use std::collections::VecDeque;
use std::fmt;

/// A double-ended queue.
#[derive(Clone, PartialEq)]
pub struct Deq<T> {
    items: VecDeque<T>,
}

impl<T> Deq<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Deq { items: VecDeque::new() }
    }

    /// Appends at the back.
    pub fn push_back(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// Removes from the front.
    pub fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// References the front element.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutably references the front element.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// References the back element.
    pub fn back(&self) -> Option<&T> {
        self.items.back()
    }

    /// Mutably references the back element.
    pub fn back_mut(&mut self) -> Option<&mut T> {
        self.items.back_mut()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates front-to-back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterates front-to-back with mutable access.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// Removes every element for which `keep` returns false, preserving
    /// order.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.items.retain(keep);
    }
}

impl<T> Default for Deq<T> {
    fn default() -> Self {
        Deq::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Deq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<T> FromIterator<T> for Deq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Deq { items: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_ends() {
        let mut d = Deq::new();
        d.push_back(1);
        d.push_back(2);
        d.push_back(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.front(), Some(&1));
        assert_eq!(d.back(), Some(&3));
        assert_eq!(d.pop_front(), Some(1));
        assert_eq!(d.pop_front(), Some(2));
        assert_eq!(d.pop_front(), Some(3));
        assert!(d.is_empty());
    }

    #[test]
    fn front_mut_allows_in_place_edit() {
        let mut d: Deq<i32> = [10, 20].into_iter().collect();
        *d.front_mut().unwrap() += 1;
        *d.back_mut().unwrap() += 2;
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![11, 22]);
    }

    #[test]
    fn retain_and_clear() {
        let mut d: Deq<i32> = (0..6).collect();
        d.retain(|x| x % 3 != 0);
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![1, 2, 4, 5]);
        d.clear();
        assert!(d.is_empty());
    }
}
