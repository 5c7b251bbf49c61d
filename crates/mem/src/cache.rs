//! Cache storage.
//!
//! The paper's evaluation uses *infinite* caches so that every miss is a
//! coherence (or cold) miss (§4); [`InfiniteCache`] models that. The paper
//! also notes that finite-cache behaviour can be estimated "to first order by
//! adding the costs due to the finite cache size" — [`FiniteCache`] (a
//! set-associative LRU cache) is provided for that extension and for the
//! ablation benchmarks.
//!
//! Both implement [`CacheStorage`], the interface protocols program against.

use crate::fxmap::FxHashMap;
use std::fmt;

use crate::block::BlockAddr;

/// Identity of one cache in the coherence system.
///
/// Depending on the experiment's sharing model this maps to a processor or
/// to a process (see [`crate::sharing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheId(u32);

impl CacheId {
    /// Creates a cache identity from a zero-based index.
    pub fn new(index: u32) -> Self {
        CacheId(index)
    }

    /// Returns the zero-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$#{}", self.0)
    }
}

impl From<u32> for CacheId {
    fn from(value: u32) -> Self {
        CacheId(value)
    }
}

/// Storage interface protocols use to track per-cache line state.
///
/// `L` is the protocol-defined per-line state. Implementations differ only in
/// capacity policy: [`InfiniteCache`] never evicts, [`FiniteCache`] evicts
/// least-recently-used lines.
pub trait CacheStorage<L> {
    /// Looks up a line without affecting replacement state.
    fn peek(&self, block: BlockAddr) -> Option<&L>;

    /// Looks up a line, updating replacement state (an access).
    fn touch(&mut self, block: BlockAddr) -> Option<&mut L>;

    /// Inserts or replaces a line, returning the evicted victim if the
    /// insertion displaced one.
    fn insert(&mut self, block: BlockAddr, line: L) -> Option<(BlockAddr, L)>;

    /// Removes a line (e.g. on invalidation).
    fn remove(&mut self, block: BlockAddr) -> Option<L>;

    /// Number of resident lines.
    fn len(&self) -> usize;

    /// Whether the cache holds no lines.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Unbounded cache: every block ever inserted stays resident until
/// explicitly removed.
#[derive(Debug, Clone, Default)]
pub struct InfiniteCache<L> {
    lines: FxHashMap<BlockAddr, L>,
}

impl<L> InfiniteCache<L> {
    /// Creates an empty infinite cache.
    pub fn new() -> Self {
        InfiniteCache {
            lines: FxHashMap::default(),
        }
    }

    /// Iterates over resident lines in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockAddr, &L)> {
        self.lines.iter()
    }
}

impl<L> CacheStorage<L> for InfiniteCache<L> {
    fn peek(&self, block: BlockAddr) -> Option<&L> {
        self.lines.get(&block)
    }

    fn touch(&mut self, block: BlockAddr) -> Option<&mut L> {
        self.lines.get_mut(&block)
    }

    fn insert(&mut self, block: BlockAddr, line: L) -> Option<(BlockAddr, L)> {
        self.lines.insert(block, line);
        None
    }

    fn remove(&mut self, block: BlockAddr) -> Option<L> {
        self.lines.remove(&block)
    }

    fn len(&self) -> usize {
        self.lines.len()
    }
}

/// Geometry of a finite set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity (lines per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// Checks that the geometry is usable by [`FiniteCache`]: a nonzero
    /// power-of-two set count and nonzero associativity.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] otherwise.
    pub fn validate(self) -> Result<(), InvalidGeometry> {
        if self.sets == 0 || !self.sets.is_power_of_two() || self.ways == 0 {
            return Err(InvalidGeometry(self));
        }
        Ok(())
    }
}

/// Error for invalid cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidGeometry(pub CacheGeometry);

impl fmt::Display for InvalidGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cache geometry: sets={} (power of two required), ways={} (nonzero required)",
            self.0.sets, self.0.ways
        )
    }
}

impl std::error::Error for InvalidGeometry {}

#[derive(Debug, Clone)]
struct Way<L> {
    block: BlockAddr,
    line: L,
    stamp: u64,
}

/// Finite set-associative cache with LRU replacement.
///
/// Storage is one contiguous slab of `sets × ways` slots plus a per-set
/// occupancy count — a set lookup is a single computed offset into the
/// slab rather than a pointer chase through a per-set allocation, which
/// matters in the engine's residency-tracking hot loop. Slots past a
/// set's occupancy hold default-initialised filler that is never read
/// (hence the `L: Default` bound).
#[derive(Debug, Clone)]
pub struct FiniteCache<L> {
    slots: Vec<Way<L>>,
    /// Resident line count per set (`≤ ways`).
    lens: Vec<u32>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    resident: usize,
}

impl<L: Default> FiniteCache<L> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if `sets` is not a power of two or
    /// `ways` is zero.
    pub fn new(geometry: CacheGeometry) -> Result<Self, InvalidGeometry> {
        geometry.validate()?;
        let capacity = geometry.sets as usize * geometry.ways as usize;
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Way {
            block: BlockAddr::new(0),
            line: L::default(),
            stamp: 0,
        });
        Ok(FiniteCache {
            slots,
            lens: vec![0; geometry.sets as usize],
            ways: geometry.ways as usize,
            set_mask: u64::from(geometry.sets) - 1,
            tick: 0,
            resident: 0,
        })
    }
}

impl<L> FiniteCache<L> {
    /// Total line capacity (`sets * ways`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.raw() & self.set_mask) as usize
    }

    /// The occupied slots of one set.
    #[inline]
    fn set(&self, set: usize) -> &[Way<L>] {
        &self.slots[set * self.ways..set * self.ways + self.lens[set] as usize]
    }

    /// The occupied slots of one set, mutably.
    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut [Way<L>] {
        &mut self.slots[set * self.ways..set * self.ways + self.lens[set] as usize]
    }
}

impl<L: Default> CacheStorage<L> for FiniteCache<L> {
    fn peek(&self, block: BlockAddr) -> Option<&L> {
        self.set(self.set_of(block))
            .iter()
            .find(|w| w.block == block)
            .map(|w| &w.line)
    }

    fn touch(&mut self, block: BlockAddr) -> Option<&mut L> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(block);
        self.set_mut(set)
            .iter_mut()
            .find(|w| w.block == block)
            .map(|w| {
                w.stamp = tick;
                &mut w.line
            })
    }

    fn insert(&mut self, block: BlockAddr, line: L) -> Option<(BlockAddr, L)> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(block);
        let len = self.lens[set_idx] as usize;
        let start = set_idx * self.ways;
        let set = &mut self.slots[start..start + len];
        if let Some(w) = set.iter_mut().find(|w| w.block == block) {
            w.line = line;
            w.stamp = tick;
            return None;
        }
        if len < self.ways {
            self.slots[start + len] = Way {
                block,
                line,
                stamp: tick,
            };
            self.lens[set_idx] += 1;
            self.resident += 1;
            return None;
        }
        // Evict the LRU way.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.stamp)
            .map(|(i, _)| i)
            .expect("set is non-empty because ways > 0");
        let victim = std::mem::replace(
            &mut set[victim_idx],
            Way {
                block,
                line,
                stamp: tick,
            },
        );
        Some((victim.block, victim.line))
    }

    fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let set_idx = self.set_of(block);
        let len = self.lens[set_idx] as usize;
        let start = set_idx * self.ways;
        let set = &mut self.slots[start..start + len];
        let pos = set.iter().position(|w| w.block == block)?;
        // Move the last occupied slot into the vacated position (the
        // order within a set carries no meaning — LRU is by stamp).
        set.swap(pos, len - 1);
        let line = std::mem::take(&mut set[len - 1].line);
        self.lens[set_idx] -= 1;
        self.resident -= 1;
        Some(line)
    }

    fn len(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_id_basics() {
        let c = CacheId::new(5);
        assert_eq!(c.index(), 5);
        assert_eq!(CacheId::from(5u32), c);
        assert_eq!(c.to_string(), "$#5");
    }

    #[test]
    fn infinite_cache_insert_and_lookup() {
        let mut c = InfiniteCache::new();
        assert!(c.is_empty());
        assert_eq!(c.insert(BlockAddr::new(1), "a"), None);
        assert_eq!(c.insert(BlockAddr::new(2), "b"), None);
        assert_eq!(c.peek(BlockAddr::new(1)), Some(&"a"));
        assert_eq!(c.len(), 2);
        *c.touch(BlockAddr::new(1)).unwrap() = "c";
        assert_eq!(c.peek(BlockAddr::new(1)), Some(&"c"));
        assert_eq!(c.remove(BlockAddr::new(1)), Some("c"));
        assert_eq!(c.peek(BlockAddr::new(1)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn infinite_cache_never_evicts() {
        let mut c = InfiniteCache::new();
        for i in 0..10_000u64 {
            assert_eq!(c.insert(BlockAddr::new(i), i), None);
        }
        assert_eq!(c.len(), 10_000);
    }

    #[test]
    fn finite_cache_rejects_bad_geometry() {
        assert!(FiniteCache::<u8>::new(CacheGeometry { sets: 3, ways: 1 }).is_err());
        assert!(FiniteCache::<u8>::new(CacheGeometry { sets: 0, ways: 1 }).is_err());
        assert!(FiniteCache::<u8>::new(CacheGeometry { sets: 4, ways: 0 }).is_err());
        let e = FiniteCache::<u8>::new(CacheGeometry { sets: 3, ways: 0 }).unwrap_err();
        assert!(e.to_string().contains("sets=3"));
    }

    #[test]
    fn finite_cache_evicts_lru() {
        // Direct-mapped-by-set: 1 set, 2 ways.
        let mut c = FiniteCache::new(CacheGeometry { sets: 1, ways: 2 }).unwrap();
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.insert(BlockAddr::new(1), 'a'), None);
        assert_eq!(c.insert(BlockAddr::new(2), 'b'), None);
        // Touch 1 so that 2 becomes LRU.
        assert!(c.touch(BlockAddr::new(1)).is_some());
        let evicted = c.insert(BlockAddr::new(3), 'c');
        assert_eq!(evicted, Some((BlockAddr::new(2), 'b')));
        assert_eq!(c.peek(BlockAddr::new(1)), Some(&'a'));
        assert_eq!(c.peek(BlockAddr::new(3)), Some(&'c'));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn finite_cache_reinsert_updates_in_place() {
        let mut c = FiniteCache::new(CacheGeometry { sets: 1, ways: 1 }).unwrap();
        assert_eq!(c.insert(BlockAddr::new(1), 'a'), None);
        assert_eq!(c.insert(BlockAddr::new(1), 'b'), None);
        assert_eq!(c.peek(BlockAddr::new(1)), Some(&'b'));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn finite_cache_sets_partition_blocks() {
        let mut c = FiniteCache::new(CacheGeometry { sets: 2, ways: 1 }).unwrap();
        // Blocks 0 and 2 map to set 0; block 1 maps to set 1.
        assert_eq!(c.insert(BlockAddr::new(0), 'a'), None);
        assert_eq!(c.insert(BlockAddr::new(1), 'b'), None);
        let evicted = c.insert(BlockAddr::new(2), 'c');
        assert_eq!(evicted, Some((BlockAddr::new(0), 'a')));
        assert_eq!(c.peek(BlockAddr::new(1)), Some(&'b'));
    }

    #[test]
    fn finite_cache_remove() {
        let mut c = FiniteCache::new(CacheGeometry { sets: 2, ways: 2 }).unwrap();
        c.insert(BlockAddr::new(4), 'x');
        assert_eq!(c.remove(BlockAddr::new(4)), Some('x'));
        assert_eq!(c.remove(BlockAddr::new(4)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn finite_cache_len_tracks_residency() {
        let mut c = FiniteCache::new(CacheGeometry { sets: 4, ways: 2 }).unwrap();
        for i in 0..100u64 {
            c.insert(BlockAddr::new(i), i);
        }
        assert_eq!(c.len(), c.capacity());
    }
}
