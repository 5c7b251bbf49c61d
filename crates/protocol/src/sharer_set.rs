//! Ordered set of caches holding a block, packed for the hot path.
//!
//! [`SharerSet`] preserves *insertion order* so that pointer-limited
//! directory schemes can apply deterministic eviction policies (evict the
//! oldest sharer), and so that broadcast-free invalidation can enumerate
//! holders in a stable order.
//!
//! Membership lives in two inline bitmap words, one bit per cache id below
//! [`INLINE_IDS`], so `contains`/`insert`/`count_others` are a mask test
//! instead of a linear scan. Cache ids at or above [`INLINE_IDS`] spill
//! into extra heap-allocated bitmap words. The insertion order is an
//! [`InlineList`] of [`INLINE_MEMBERS`] ids that moves to the heap past
//! that many sharers; its length is the set's size, so no popcount is
//! needed. In a system of up to 128 caches a set allocates only once more
//! than [`INLINE_MEMBERS`] caches share its block.

use dirsim_mem::CacheId;

use crate::inline_list::InlineList;

/// Number of cache ids covered by one bitmap word.
pub const WORD_BITS: u32 = 64;

/// Number of inline bitmap words.
const INLINE_WORDS: usize = 2;

/// Number of cache ids covered by the inline bitmap words; wider ids
/// spill to the heap.
pub const INLINE_IDS: u32 = WORD_BITS * INLINE_WORDS as u32;

/// Number of members tracked in the inline insertion-order buffer before
/// spilling to the heap.
pub const INLINE_MEMBERS: usize = 8;

/// Insertion-ordered set of cache identities with packed bitmap words
/// carrying membership.
///
/// Membership tests are O(1) bit operations on the inline words for cache
/// ids below [`INLINE_IDS`]; wider systems spill to extra bitmap words.
/// Insertion order is kept alongside, and its length is the cardinality,
/// so that the directory semantics pinned by the tests below (duplicate
/// inserts do not rejuvenate, remove-then-reinsert moves to newest) are
/// bit-identical to the original linear-scan representation.
///
/// # Examples
///
/// ```
/// use dirsim_protocol::sharer_set::SharerSet;
/// use dirsim_mem::CacheId;
///
/// let mut s = SharerSet::new();
/// s.insert(CacheId::new(2));
/// s.insert(CacheId::new(0));
/// s.insert(CacheId::new(2)); // duplicate, ignored
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.oldest(), Some(CacheId::new(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharerSet {
    /// Membership bits for cache ids `0..INLINE_IDS`, `WORD_BITS` per word.
    words: [u64; INLINE_WORDS],
    /// Membership bits for cache ids `INLINE_IDS..`, one word per
    /// `WORD_BITS` ids; allocated only when such an id is inserted.
    /// Boxed on purpose: the spill is cold, and the double indirection
    /// keeps this field pointer-sized so `SharerSet` itself stays lean
    /// for the (universal) unspilled case.
    #[allow(clippy::box_collection)]
    high: Option<Box<Vec<u64>>>,
    order: InlineList<CacheId, INLINE_MEMBERS>,
}

impl SharerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set holding a single cache.
    pub fn singleton(cache: CacheId) -> Self {
        let mut s = SharerSet::new();
        s.insert(cache);
        s
    }

    /// Inserts a cache; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, cache: CacheId) -> bool {
        let id = cache.index() as u32;
        if id < INLINE_IDS {
            let (word, bit) = Self::word_bit(id);
            if self.words[word] & bit != 0 {
                return false;
            }
            self.words[word] |= bit;
        } else if !self.set_high(id) {
            return false;
        }
        self.order.push(cache);
        true
    }

    /// Removes a cache; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, cache: CacheId) -> bool {
        let id = cache.index() as u32;
        if id < INLINE_IDS {
            let (word, bit) = Self::word_bit(id);
            if self.words[word] & bit == 0 {
                return false;
            }
            self.words[word] &= !bit;
        } else if !self.clear_high(id) {
            return false;
        }
        let pos = self
            .order
            .iter()
            .position(|&c| c == cache)
            .expect("bitmap and order buffer agree on membership");
        self.order.remove(pos);
        true
    }

    /// Whether the cache is a member.
    #[inline]
    pub fn contains(&self, cache: CacheId) -> bool {
        let id = cache.index() as u32;
        if id < INLINE_IDS {
            let (word, bit) = Self::word_bit(id);
            self.words[word] & bit != 0
        } else {
            self.high_bit(id)
        }
    }

    /// Number of members: the length of the order buffer, which holds
    /// exactly the members the bitmap words mark.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The earliest-inserted member still present, if any.
    #[inline]
    pub fn oldest(&self) -> Option<CacheId> {
        self.order.first().copied()
    }

    /// The earliest-inserted member other than `except`, if any.
    #[inline]
    pub fn oldest_other(&self, except: CacheId) -> Option<CacheId> {
        self.order.iter().copied().find(|&c| c != except)
    }

    /// Iterates members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = CacheId> + '_ {
        self.order.iter().copied()
    }

    /// Members other than `except`, in insertion order.
    pub fn others(&self, except: CacheId) -> impl Iterator<Item = CacheId> + '_ {
        self.order.iter().copied().filter(move |&c| c != except)
    }

    /// Number of members other than `except` — the length minus a
    /// membership bit, never a scan.
    #[inline]
    pub fn count_others(&self, except: CacheId) -> usize {
        self.len() - usize::from(self.contains(except))
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words = [0; INLINE_WORDS];
        if let Some(high) = &mut self.high {
            high.iter_mut().for_each(|w| *w = 0);
        }
        self.order.clear();
    }

    /// Retains only `cache` (dropping everything else).
    pub fn retain_only(&mut self, cache: CacheId) {
        let keep = self.contains(cache);
        self.clear();
        if keep {
            self.insert(cache);
        }
    }

    /// The word and bit of `id` in a bitmap whose first word holds id 0:
    /// the inline words take a cache id, the spill words the id less
    /// `INLINE_IDS`.
    #[inline]
    fn word_bit(id: u32) -> (usize, u64) {
        ((id / WORD_BITS) as usize, 1u64 << (id % WORD_BITS))
    }

    /// Tests the spill-word bit for a high cache id.
    #[cold]
    fn high_bit(&self, id: u32) -> bool {
        let (word, bit) = Self::word_bit(id - INLINE_IDS);
        self.high
            .as_ref()
            .and_then(|h| h.get(word))
            .is_some_and(|w| w & bit != 0)
    }

    /// Sets the spill-word bit for a high cache id; `false` if already set.
    #[cold]
    fn set_high(&mut self, id: u32) -> bool {
        let (word, bit) = Self::word_bit(id - INLINE_IDS);
        let high = self.high.get_or_insert_with(Default::default);
        if high.len() <= word {
            high.resize(word + 1, 0);
        }
        if high[word] & bit != 0 {
            return false;
        }
        high[word] |= bit;
        true
    }

    /// Clears the spill-word bit for a high cache id; `false` if unset.
    #[cold]
    fn clear_high(&mut self, id: u32) -> bool {
        let (word, bit) = Self::word_bit(id - INLINE_IDS);
        match &mut self.high {
            Some(high) if high.len() > word && high[word] & bit != 0 => {
                high[word] &= !bit;
                true
            }
            _ => false,
        }
    }
}

/// Equality is membership *and* insertion order — two sets that hold the
/// same caches in different arrival order are different directory states.
impl PartialEq for SharerSet {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}

impl Eq for SharerSet {}

impl FromIterator<CacheId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CacheId>>(iter: I) -> Self {
        let mut set = SharerSet::new();
        for c in iter {
            set.insert(c);
        }
        set
    }
}

impl Extend<CacheId> for SharerSet {
    fn extend<I: IntoIterator<Item = CacheId>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl<'a> IntoIterator for &'a SharerSet {
    type Item = CacheId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, CacheId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn insert_dedups() {
        let mut s = SharerSet::new();
        assert!(s.insert(c(1)));
        assert!(!s.insert(c(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_and_contains() {
        let mut s: SharerSet = [c(1), c(2), c(3)].into_iter().collect();
        assert!(s.contains(c(2)));
        assert!(s.remove(c(2)));
        assert!(!s.remove(c(2)));
        assert!(!s.contains(c(2)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insertion_order_preserved() {
        let mut s = SharerSet::new();
        s.insert(c(5));
        s.insert(c(1));
        s.insert(c(9));
        let order: Vec<_> = s.iter().collect();
        assert_eq!(order, vec![c(5), c(1), c(9)]);
        assert_eq!(s.oldest(), Some(c(5)));
    }

    #[test]
    fn oldest_other_skips_exception() {
        let s: SharerSet = [c(5), c(1)].into_iter().collect();
        assert_eq!(s.oldest_other(c(5)), Some(c(1)));
        assert_eq!(s.oldest_other(c(1)), Some(c(5)));
        let solo = SharerSet::singleton(c(7));
        assert_eq!(solo.oldest_other(c(7)), None);
    }

    #[test]
    fn others_and_count() {
        let s: SharerSet = [c(1), c(2), c(3)].into_iter().collect();
        let others: Vec<_> = s.others(c(2)).collect();
        assert_eq!(others, vec![c(1), c(3)]);
        assert_eq!(s.count_others(c(2)), 2);
        assert_eq!(s.count_others(c(9)), 3);
    }

    #[test]
    fn retain_only() {
        let mut s: SharerSet = [c(1), c(2), c(3)].into_iter().collect();
        s.retain_only(c(2));
        assert_eq!(s.len(), 1);
        assert!(s.contains(c(2)));
        let mut t: SharerSet = [c(1)].into_iter().collect();
        t.retain_only(c(9));
        assert!(t.is_empty());
    }

    #[test]
    fn reinsert_does_not_refresh_insertion_order() {
        // A duplicate insert must keep the original position: `Dir_iNB`
        // eviction picks the *oldest* sharer, and a re-reading cache must
        // not be rejuvenated (it consumed no new pointer slot).
        let mut s: SharerSet = [c(1), c(2)].into_iter().collect();
        assert!(!s.insert(c(1)));
        assert_eq!(s.oldest(), Some(c(1)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![c(1), c(2)]);
    }

    #[test]
    fn remove_then_reinsert_moves_to_newest() {
        // After an eviction, a returning sharer is the newest again — the
        // order the `Dir_iNB` victim selection depends on.
        let mut s: SharerSet = [c(1), c(2), c(3)].into_iter().collect();
        assert!(s.remove(c(1)));
        assert!(s.insert(c(1)));
        assert_eq!(s.oldest(), Some(c(2)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![c(2), c(3), c(1)]);
        assert_eq!(s.oldest_other(c(2)), Some(c(3)));
    }

    #[test]
    fn clear_empties() {
        let mut s: SharerSet = [c(1), c(2)].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.oldest(), None);
    }

    #[test]
    fn extend_and_ref_iter() {
        let mut s = SharerSet::new();
        s.extend([c(1), c(2), c(1)]);
        assert_eq!(s.len(), 2);
        let via_ref: Vec<_> = (&s).into_iter().collect();
        assert_eq!(via_ref, vec![c(1), c(2)]);
    }

    #[test]
    fn inline_order_spills_past_inline_members() {
        // More members than the inline order buffer holds: order and
        // membership must survive the inline->heap promotion.
        let ids: Vec<_> = (0..(INLINE_MEMBERS as u32 + 4)).map(c).collect();
        let s: SharerSet = ids.iter().copied().collect();
        assert_eq!(s.len(), ids.len());
        assert_eq!(s.iter().collect::<Vec<_>>(), ids);
        assert!(s.contains(c(INLINE_MEMBERS as u32 + 3)));
    }

    #[test]
    fn ids_in_the_second_inline_word_need_no_spill() {
        // Ids from WORD_BITS to INLINE_IDS live in the second inline word:
        // no spill words are allocated for them.
        let mut s = SharerSet::new();
        assert!(s.insert(c(WORD_BITS - 1)));
        assert!(s.insert(c(WORD_BITS)));
        assert!(s.insert(c(INLINE_IDS - 1)));
        assert!(s.high.is_none());
        assert_eq!(s.len(), 3);
        assert!(!s.contains(c(WORD_BITS + 1)));
        assert!(s.remove(c(WORD_BITS)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![c(WORD_BITS - 1), c(INLINE_IDS - 1)]
        );
    }

    #[test]
    fn high_ids_spill_past_the_inline_words() {
        // Ids at and above INLINE_IDS live in spill words; mixing low and
        // high ids must keep membership and order coherent.
        let mut s = SharerSet::new();
        assert!(s.insert(c(3)));
        assert!(s.insert(c(INLINE_IDS)));
        assert!(s.insert(c(INLINE_IDS + 65)));
        assert!(!s.insert(c(INLINE_IDS)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(c(INLINE_IDS + 65)));
        assert!(!s.contains(c(INLINE_IDS + 1)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![c(3), c(INLINE_IDS), c(INLINE_IDS + 65)]
        );
        assert!(s.remove(c(INLINE_IDS)));
        assert!(!s.remove(c(INLINE_IDS)));
        assert_eq!(s.count_others(c(3)), 1);
        s.retain_only(c(INLINE_IDS + 65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![c(INLINE_IDS + 65)]);
        s.clear();
        assert!(s.is_empty());
    }
}
