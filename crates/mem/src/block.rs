//! Block addressing.
//!
//! The paper simulates 16-byte (4-word) blocks throughout (§4). [`BlockMap`]
//! converts byte addresses into [`BlockAddr`] block numbers for a given
//! power-of-two block size, and [`BlockTable`] keeps per-block state.

use std::fmt;

use dirsim_trace::Addr;

use crate::fxmap::FxHashMap;

/// A cache-block number (byte address divided by block size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block number directly.
    pub const fn new(index: u64) -> Self {
        BlockAddr(index)
    }

    /// Returns the raw block number.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(value: u64) -> Self {
        BlockAddr(value)
    }
}

/// Per-block state keyed by [`BlockAddr`]: a `Vec` for block numbers
/// handed out densely in first-touch order, and an [`FxHashMap`] for any
/// other key.
///
/// [`insert`](Self::insert) pushes a block onto the dense half when its
/// number equals the dense half's length and the hashed half does not
/// hold it; every other block goes to the hashed half. So every block
/// below the dense length lives in the dense half, a lookup there is one
/// bounds check, and memory stays proportional to the entries held for
/// any key pattern. A lane bank numbers its blocks 0, 1, 2, … as it
/// first meets them, so its machines stay dense; real addresses mostly
/// land in the hashed half. Blocks are never removed.
///
/// # Examples
///
/// ```
/// use dirsim_mem::{BlockAddr, BlockTable};
///
/// let mut table = BlockTable::new();
/// table.insert(BlockAddr::new(0), "dense");
/// table.insert(BlockAddr::new(0x4000), "hashed");
/// assert_eq!(table.get(BlockAddr::new(0)), Some(&"dense"));
/// assert_eq!(table.get(BlockAddr::new(0x4000)), Some(&"hashed"));
/// assert_eq!(table.get(BlockAddr::new(1)), None);
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BlockTable<E> {
    /// Entry of block `i` at index `i`.
    dense: Vec<E>,
    /// Every other block; all keys are at least `dense.len()`.
    hashed: FxHashMap<BlockAddr, E>,
}

impl<E> Default for BlockTable<E> {
    fn default() -> Self {
        BlockTable {
            dense: Vec::new(),
            hashed: FxHashMap::default(),
        }
    }
}

impl<E> BlockTable<E> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense-half index of `block`, if the dense half holds it.
    #[inline]
    fn dense_index(&self, block: BlockAddr) -> Option<usize> {
        usize::try_from(block.raw())
            .ok()
            .filter(|&i| i < self.dense.len())
    }

    /// The entry of `block`, if the table holds it.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<&E> {
        match self.dense_index(block) {
            Some(i) => Some(&self.dense[i]),
            None => self.hashed.get(&block),
        }
    }

    /// The entry of `block` for mutation, if the table holds it.
    #[inline]
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut E> {
        match self.dense_index(block) {
            Some(i) => Some(&mut self.dense[i]),
            None => self.hashed.get_mut(&block),
        }
    }

    /// Adds `entry` for `block`, which the table must not hold yet.
    pub fn insert(&mut self, block: BlockAddr, entry: E) {
        debug_assert!(self.get(block).is_none(), "{block} is already held");
        if block.raw() == self.dense.len() as u64 && !self.hashed.contains_key(&block) {
            self.dense.push(entry);
        } else {
            self.hashed.insert(block, entry);
        }
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.dense.len() + self.hashed.len()
    }

    /// Whether the table holds no block.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every held block and its entry: the dense half in block order,
    /// then the hashed half in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &E)> + '_ {
        let dense = (0u64..).map(BlockAddr::new).zip(&self.dense);
        dense.chain(self.hashed.iter().map(|(&block, e)| (block, e)))
    }
}

/// Error returned when constructing a [`BlockMap`] with an invalid size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidBlockSize(pub u32);

impl fmt::Display for InvalidBlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block size {} is not a positive power of two", self.0)
    }
}

impl std::error::Error for InvalidBlockSize {}

/// Maps byte addresses to block numbers for a fixed block size.
///
/// # Examples
///
/// ```
/// use dirsim_mem::block::BlockMap;
/// use dirsim_trace::Addr;
///
/// let map = BlockMap::new(16).expect("16 is a power of two");
/// assert_eq!(map.block_of(Addr::new(0x0)), map.block_of(Addr::new(0xF)));
/// assert_ne!(map.block_of(Addr::new(0xF)), map.block_of(Addr::new(0x10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMap {
    shift: u32,
}

impl BlockMap {
    /// The paper's block size: 4 words of 4 bytes.
    pub const PAPER_BLOCK_BYTES: u32 = 16;

    /// Creates a map for the given block size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBlockSize`] unless `bytes` is a positive power of
    /// two.
    pub fn new(bytes: u32) -> Result<Self, InvalidBlockSize> {
        if bytes == 0 || !bytes.is_power_of_two() {
            return Err(InvalidBlockSize(bytes));
        }
        Ok(BlockMap {
            shift: bytes.trailing_zeros(),
        })
    }

    /// The map for the paper's 16-byte blocks.
    pub fn paper() -> Self {
        BlockMap::new(Self::PAPER_BLOCK_BYTES).expect("16 is a power of two")
    }

    /// Block size in bytes.
    pub fn block_bytes(self) -> u32 {
        1 << self.shift
    }

    /// The block containing a byte address.
    pub fn block_of(self, addr: Addr) -> BlockAddr {
        BlockAddr(addr.raw() >> self.shift)
    }

    /// First byte address of a block (inverse of [`Self::block_of`] up to
    /// the offset within the block).
    pub fn base_of(self, block: BlockAddr) -> Addr {
        Addr::new(block.raw() << self.shift)
    }
}

impl Default for BlockMap {
    fn default() -> Self {
        BlockMap::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_block_is_16_bytes() {
        assert_eq!(BlockMap::paper().block_bytes(), 16);
        assert_eq!(BlockMap::default(), BlockMap::paper());
    }

    #[test]
    fn rejects_bad_sizes() {
        assert_eq!(BlockMap::new(0), Err(InvalidBlockSize(0)));
        assert_eq!(BlockMap::new(24), Err(InvalidBlockSize(24)));
        assert!(BlockMap::new(64).is_ok());
    }

    #[test]
    fn block_boundaries() {
        let m = BlockMap::paper();
        assert_eq!(m.block_of(Addr::new(0)), BlockAddr::new(0));
        assert_eq!(m.block_of(Addr::new(15)), BlockAddr::new(0));
        assert_eq!(m.block_of(Addr::new(16)), BlockAddr::new(1));
        assert_eq!(m.block_of(Addr::new(31)), BlockAddr::new(1));
    }

    #[test]
    fn base_of_inverts() {
        let m = BlockMap::new(64).unwrap();
        let b = m.block_of(Addr::new(0x1234));
        let base = m.base_of(b);
        assert_eq!(base.raw() % 64, 0);
        assert_eq!(m.block_of(base), b);
    }

    #[test]
    fn error_display() {
        assert!(InvalidBlockSize(24).to_string().contains("24"));
    }

    /// Touches each key in turn in a table and an `FxHashMap` model:
    /// inserts a key neither holds, bumps one both hold, and checks that
    /// they agree after every touch and, once sorted, at the end.
    fn touch_all(keys: &[u64]) -> BlockTable<u32> {
        let mut table = BlockTable::new();
        let mut model: FxHashMap<BlockAddr, u32> = FxHashMap::default();
        for &k in keys {
            let block = BlockAddr::new(k);
            match (table.get_mut(block), model.get_mut(&block)) {
                (Some(e), Some(m)) => {
                    *e += 1;
                    *m += 1;
                }
                (None, None) => {
                    table.insert(block, 0);
                    model.insert(block, 0);
                }
                (got, want) => panic!("{block}: table {got:?}, model {want:?}"),
            }
            assert_eq!(table.get(block), model.get(&block), "{block}");
            assert_eq!(table.len(), model.len());
        }
        let mut got: Vec<(BlockAddr, u32)> = table.iter().map(|(b, &e)| (b, e)).collect();
        let mut want: Vec<(BlockAddr, u32)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        table
    }

    #[test]
    fn first_touch_numbers_stay_dense() {
        let keys: Vec<u64> = (0..300).chain((0..300).rev()).collect();
        let table = touch_all(&keys);
        assert_eq!((table.dense.len(), table.hashed.len()), (300, 0));
        assert_eq!(table.get(BlockAddr::new(300)), None);
    }

    #[test]
    fn other_keys_land_in_the_hashed_half() {
        // A nonzero start, and sparse 64-bit keys.
        let table = touch_all(&[5, 6, 7, 5]);
        assert_eq!((table.dense.len(), table.hashed.len()), (0, 3));
        let table = touch_all(&[u64::MAX, 1 << 40, 0, u64::MAX, 1, 1 << 40]);
        assert_eq!((table.dense.len(), table.hashed.len()), (2, 2));
        assert!(table.get(BlockAddr::new(2)).is_none());
    }

    #[test]
    fn a_hashed_key_at_the_dense_length_stays_hashed() {
        // Block 2 arrives first, so it is hashed; 0 and 1 then fill the
        // dense half up to it, and it and every later key stay hashed.
        let table = touch_all(&[2, 0, 1, 2, 3, 4, 2, 0]);
        assert_eq!((table.dense.len(), table.hashed.len()), (2, 3));
        assert_eq!(table.get(BlockAddr::new(2)), Some(&2));
    }

    #[test]
    fn iter_lists_the_dense_half_in_block_order() {
        let table = touch_all(&[0, 1, 9, 2]);
        let blocks: Vec<u64> = table.iter().map(|(b, _)| b.raw()).collect();
        assert_eq!(blocks, [0, 1, 2, 9]);
        assert!(!table.is_empty() && BlockTable::<u8>::default().is_empty());
    }
}
