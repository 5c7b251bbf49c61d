//! A short list that keeps its first items inline.
//!
//! The match machines build a few short lists per data reference: the bus
//! ops and data movements of each [`RefOutcome`](crate::ops::RefOutcome),
//! and the arrival order of each [`SharerSet`](crate::sharer_set::SharerSet).
//! In the common case each holds a handful of items or none: a hit emits
//! nothing, a miss a few operations, and most blocks have few sharers.
//! [`InlineList`] stores up to `N` items in place and moves them to a heap
//! `Vec` only when a push finds the inline buffer full, so the common case
//! allocates nothing.
//!
//! An empty list holds no buffer. It becomes inline on its first push,
//! which fills the buffer with copies of the pushed item, so making an
//! empty list writes only a tag and item types need no `Default`.

use std::fmt;
use std::ops::Deref;

/// An ordered list of `Copy` items, inline up to `N` of them (`N` at most
/// 255).
///
/// It dereferences to a slice, so reading it is reading a `[T]`. Equality
/// is slice equality: lists holding the same items are equal whether they
/// sit inline or on the heap.
///
/// # Examples
///
/// ```
/// use dirsim_protocol::inline_list::InlineList;
///
/// let mut list: InlineList<u8, 2> = InlineList::new();
/// assert!(list.is_empty());
/// list.push(1);
/// list.push(2);
/// list.push(3); // past the inline capacity: the items move to the heap
/// assert_eq!(list, vec![1, 2, 3]);
/// list.remove(0);
/// assert_eq!(list[..], [2, 3]);
/// ```
#[derive(Clone)]
pub struct InlineList<T: Copy, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    Empty,
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineList<T, N> {
    /// Rejects, at compile time, an inline capacity its `u8` length cannot
    /// count.
    const CAPACITY_FITS: () = assert!(N > 0 && N <= u8::MAX as usize);

    /// Creates an empty list.
    pub const fn new() -> Self {
        InlineList { repr: Repr::Empty }
    }

    /// Appends `item`, moving the list to the heap if the inline buffer
    /// is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        #[allow(clippy::let_unit_value)]
        let () = Self::CAPACITY_FITS;
        match &mut self.repr {
            Repr::Empty => {
                self.repr = Repr::Inline {
                    len: 1,
                    buf: [item; N],
                }
            }
            Repr::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < N {
                    buf[n] = item;
                    *len += 1;
                } else {
                    self.spill(item);
                }
            }
            Repr::Heap(v) => v.push(item),
        }
    }

    /// Moves a full inline buffer to the heap, then appends `item`.
    #[cold]
    fn spill(&mut self, item: T) {
        let mut v = Vec::with_capacity(2 * N);
        v.extend_from_slice(self.as_slice());
        v.push(item);
        self.repr = Repr::Heap(v);
    }

    /// The items, in order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// Removes the item at `index`, shifting later items down, so the
    /// survivors keep their order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) {
        match &mut self.repr {
            Repr::Empty => panic!("index {index} out of bounds of an empty list"),
            Repr::Inline { len, buf } => {
                buf.copy_within(index + 1..usize::from(*len), index);
                *len -= 1;
            }
            Repr::Heap(v) => {
                v.remove(index);
            }
        }
    }

    /// Removes every item. A list on the heap keeps its buffer.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Empty => {}
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineList<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_read_as_their_items_inline_and_on_the_heap() {
        let mut list: InlineList<u32, 2> = InlineList::new();
        assert_eq!(format!("{list:?}"), "[]");
        list.extend([1, 2]);
        assert_eq!(format!("{list:?}"), "[1, 2]");
        list.push(3);
        assert_eq!(format!("{list:?}"), "[1, 2, 3]");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_past_the_end_panics() {
        let mut list: InlineList<u32, 4> = InlineList::new();
        list.remove(0);
    }

    #[test]
    fn equality_ignores_where_the_items_live() {
        let mut spilled: InlineList<u32, 2> = InlineList::new();
        spilled.extend([1, 2, 3]);
        spilled.remove(2);
        let mut inline: InlineList<u32, 2> = InlineList::new();
        inline.extend([1, 2]);
        assert_eq!(spilled, inline);
        spilled.clear();
        inline.clear();
        assert_eq!(spilled, InlineList::new());
        assert_eq!(inline, InlineList::new());
    }
}
