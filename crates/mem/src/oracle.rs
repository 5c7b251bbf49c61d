//! Coherence-correctness oracle.
//!
//! [`ShadowMemory`] tracks, independently of any protocol, a version number
//! per block: every write bumps the block's global version, and each copy
//! (per-cache and main-memory) records which version it reflects. The
//! simulation engine feeds the oracle the *data movements* a protocol
//! claims to perform (fills, write-backs, invalidations, updates), and the
//! oracle checks the fundamental coherence property: **a processor never
//! reads a stale copy** (and a dirty datum is never silently lost).
//!
//! This is how the test suite establishes that each protocol state machine
//! — directory or snoopy — is not just cheap but *correct*.

use std::collections::HashMap;
use std::fmt;

use crate::block::BlockAddr;
use crate::cache::CacheId;

/// A violation of coherence detected by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// A cache read a copy that does not reflect the latest write.
    StaleRead {
        /// Offending cache.
        cache: CacheId,
        /// Block read.
        block: BlockAddr,
        /// Version the cache's copy reflects.
        copy_version: u64,
        /// Latest version of the block.
        latest: u64,
    },
    /// A fill was supplied from main memory while memory was stale.
    StaleMemorySupply {
        /// Block supplied.
        block: BlockAddr,
        /// Version memory holds.
        memory_version: u64,
        /// Latest version of the block.
        latest: u64,
    },
    /// A fill was supplied by a cache that holds no copy of the block.
    SupplierHasNoCopy {
        /// Claimed supplier.
        supplier: CacheId,
        /// Block supplied.
        block: BlockAddr,
    },
    /// A cache wrote (or wrote back) a block it does not hold.
    WriterHasNoCopy {
        /// Offending cache.
        cache: CacheId,
        /// Block written.
        block: BlockAddr,
    },
    /// A dirty copy was invalidated without being written back first, losing
    /// the only up-to-date copy.
    DirtyCopyLost {
        /// Cache whose copy was dropped.
        cache: CacheId,
        /// Block lost.
        block: BlockAddr,
        /// Version that was lost.
        lost_version: u64,
    },
}

impl OracleViolation {
    /// The one block every violation names, for rewriting: an engine that
    /// steps blocks by a dense index translates it back to the address.
    pub fn block_mut(&mut self) -> &mut BlockAddr {
        match self {
            OracleViolation::StaleRead { block, .. }
            | OracleViolation::StaleMemorySupply { block, .. }
            | OracleViolation::SupplierHasNoCopy { block, .. }
            | OracleViolation::WriterHasNoCopy { block, .. }
            | OracleViolation::DirtyCopyLost { block, .. } => block,
        }
    }
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::StaleRead {
                cache,
                block,
                copy_version,
                latest,
            } => write!(
                f,
                "stale read: {cache} read {block} at version {copy_version}, latest is {latest}"
            ),
            OracleViolation::StaleMemorySupply {
                block,
                memory_version,
                latest,
            } => write!(
                f,
                "stale memory supply of {block}: memory at {memory_version}, latest {latest}"
            ),
            OracleViolation::SupplierHasNoCopy { supplier, block } => {
                write!(f, "{supplier} supplied {block} without holding a copy")
            }
            OracleViolation::WriterHasNoCopy { cache, block } => {
                write!(f, "{cache} wrote {block} without holding a copy")
            }
            OracleViolation::DirtyCopyLost {
                cache,
                block,
                lost_version,
            } => write!(
                f,
                "dirty copy of {block} (version {lost_version}) lost when invalidating {cache}"
            ),
        }
    }
}

impl std::error::Error for OracleViolation {}

#[derive(Debug, Clone, Default)]
struct ShadowBlock {
    /// Version of the most recent write anywhere.
    latest: u64,
    /// Version main memory reflects.
    memory: u64,
    /// Versions each cached copy reflects.
    copies: HashMap<CacheId, u64>,
}

/// Protocol-independent shadow of every block's version state.
///
/// See the module docs for the model. All methods are fed by the simulation
/// engine as the protocol under test announces data movements.
#[derive(Debug, Clone, Default)]
pub struct ShadowMemory {
    blocks: HashMap<BlockAddr, ShadowBlock>,
}

impl ShadowMemory {
    /// Creates an empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, block: BlockAddr) -> &mut ShadowBlock {
        self.blocks.entry(block).or_default()
    }

    /// A cache filled `block` from main memory.
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::StaleMemorySupply`] if memory does not hold
    /// the latest version.
    pub fn fill_from_memory(
        &mut self,
        cache: CacheId,
        block: BlockAddr,
    ) -> Result<(), OracleViolation> {
        let e = self.entry(block);
        if e.memory != e.latest {
            return Err(OracleViolation::StaleMemorySupply {
                block,
                memory_version: e.memory,
                latest: e.latest,
            });
        }
        e.copies.insert(cache, e.memory);
        Ok(())
    }

    /// A cache filled `block` from another cache (cache-to-cache supply).
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::SupplierHasNoCopy`] if the supplier holds
    /// no copy.
    pub fn fill_from_cache(
        &mut self,
        requester: CacheId,
        supplier: CacheId,
        block: BlockAddr,
    ) -> Result<(), OracleViolation> {
        let e = self.entry(block);
        let Some(&v) = e.copies.get(&supplier) else {
            return Err(OracleViolation::SupplierHasNoCopy { supplier, block });
        };
        e.copies.insert(requester, v);
        Ok(())
    }

    /// A cache performed a (copy-back) write to its resident copy.
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::WriterHasNoCopy`] if the writer holds no
    /// copy.
    pub fn write(&mut self, cache: CacheId, block: BlockAddr) -> Result<(), OracleViolation> {
        let e = self.entry(block);
        if !e.copies.contains_key(&cache) {
            return Err(OracleViolation::WriterHasNoCopy { cache, block });
        }
        e.latest += 1;
        let latest = e.latest;
        e.copies.insert(cache, latest);
        Ok(())
    }

    /// A cache performed a write-through: the write is applied to the copy
    /// *and* to main memory atomically.
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::WriterHasNoCopy`] if the writer holds no
    /// copy.
    pub fn write_through(
        &mut self,
        cache: CacheId,
        block: BlockAddr,
    ) -> Result<(), OracleViolation> {
        self.write(cache, block)?;
        let e = self.entry(block);
        e.memory = e.latest;
        Ok(())
    }

    /// A cache performed a write that is broadcast as an *update* to every
    /// other cached copy (and, in Dragon, to memory only on displacement —
    /// memory is left stale here).
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::WriterHasNoCopy`] if the writer holds no
    /// copy.
    pub fn write_update(
        &mut self,
        cache: CacheId,
        block: BlockAddr,
    ) -> Result<(), OracleViolation> {
        let e = self.entry(block);
        if !e.copies.contains_key(&cache) {
            return Err(OracleViolation::WriterHasNoCopy { cache, block });
        }
        e.latest += 1;
        let latest = e.latest;
        for v in e.copies.values_mut() {
            *v = latest;
        }
        Ok(())
    }

    /// A cache wrote its copy back to main memory (keeping or dropping the
    /// copy is signalled separately via [`Self::invalidate`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::WriterHasNoCopy`] if the cache holds no
    /// copy.
    pub fn write_back(&mut self, cache: CacheId, block: BlockAddr) -> Result<(), OracleViolation> {
        let e = self.entry(block);
        let Some(&v) = e.copies.get(&cache) else {
            return Err(OracleViolation::WriterHasNoCopy { cache, block });
        };
        e.memory = e.memory.max(v);
        Ok(())
    }

    /// A cache's copy was invalidated (removed).
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::DirtyCopyLost`] if the dropped copy was the
    /// *only* holder of the latest version and memory is stale — the write
    /// would be lost. Invalidating a cache that holds no copy is a no-op
    /// (broadcast invalidates hit everyone).
    pub fn invalidate(&mut self, cache: CacheId, block: BlockAddr) -> Result<(), OracleViolation> {
        let e = self.entry(block);
        let Some(v) = e.copies.remove(&cache) else {
            return Ok(());
        };
        let version_survives = e.memory >= v || e.copies.values().any(|&other| other >= v);
        if !version_survives && v == e.latest {
            return Err(OracleViolation::DirtyCopyLost {
                cache,
                block,
                lost_version: v,
            });
        }
        Ok(())
    }

    /// Checks that `cache` can legally *read* its copy of `block`: the copy
    /// must exist and reflect the latest version.
    ///
    /// # Errors
    ///
    /// Returns [`OracleViolation::StaleRead`] if the copy is stale, or
    /// [`OracleViolation::WriterHasNoCopy`] if there is no copy at all.
    pub fn check_read(&self, cache: CacheId, block: BlockAddr) -> Result<(), OracleViolation> {
        let Some(e) = self.blocks.get(&block) else {
            return Err(OracleViolation::WriterHasNoCopy { cache, block });
        };
        let Some(&v) = e.copies.get(&cache) else {
            return Err(OracleViolation::WriterHasNoCopy { cache, block });
        };
        if v != e.latest {
            return Err(OracleViolation::StaleRead {
                cache,
                block,
                copy_version: v,
                latest: e.latest,
            });
        }
        Ok(())
    }

    /// Whether `cache` currently holds a copy of `block` in the shadow.
    pub fn holds(&self, cache: CacheId, block: BlockAddr) -> bool {
        self.blocks
            .get(&block)
            .is_some_and(|e| e.copies.contains_key(&cache))
    }

    /// Every cache currently holding a copy of `block`, sorted by index.
    ///
    /// Static table extraction (`dirsim-analyze`) cross-checks the sharer
    /// set a protocol *reports* in its canonical state against the copies
    /// the oracle *saw* move.
    pub fn holders(&self, block: BlockAddr) -> Vec<CacheId> {
        let mut holders: Vec<CacheId> = self
            .blocks
            .get(&block)
            .map(|e| e.copies.keys().copied().collect())
            .unwrap_or_default();
        holders.sort_by_key(|c| c.index());
        holders
    }

    /// Number of blocks the shadow is tracking.
    pub fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// A canonical, version-rank-normalised image of the shadow state.
    ///
    /// Absolute version numbers grow monotonically with every write, so two
    /// shadows that will behave identically forever can still differ in raw
    /// counters. This maps each block's versions onto dense ranks and sorts
    /// everything, producing a value suitable as a hash key when exploring
    /// the reachable state space (as `dirsim-verify` does).
    ///
    /// Per block the tuple is `(copies, memory, latest)` where `copies` is a
    /// sorted list of `(cache index, version rank)`.
    pub fn canonical(&self) -> Vec<CanonicalBlock> {
        let mut out: Vec<_> = self
            .blocks
            .iter()
            .map(|(&block, e)| {
                let mut versions: Vec<u64> = e.copies.values().copied().collect();
                versions.push(e.memory);
                versions.push(e.latest);
                versions.sort_unstable();
                versions.dedup();
                let rank = |v: u64| versions.binary_search(&v).expect("own version") as u64;
                let mut copies: Vec<(usize, u64)> = e
                    .copies
                    .iter()
                    .map(|(&cache, &v)| (cache.index(), rank(v)))
                    .collect();
                copies.sort_unstable();
                (block, copies, rank(e.memory), rank(e.latest))
            })
            .collect();
        out.sort_unstable_by_key(|&(block, ..)| block);
        out
    }
}

/// One block's entry in [`ShadowMemory::canonical`]:
/// `(block, sorted (cache index, version rank) copies, memory rank, latest rank)`.
pub type CanonicalBlock = (BlockAddr, Vec<(usize, u64)>, u64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr::new(1);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn clean_read_after_memory_fill() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.check_read(c(0), B).unwrap();
    }

    #[test]
    fn read_without_copy_is_flagged() {
        let s = ShadowMemory::new();
        assert!(matches!(
            s.check_read(c(0), B),
            Err(OracleViolation::WriterHasNoCopy { .. })
        ));
    }

    #[test]
    fn stale_read_detected_after_remote_write() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.fill_from_memory(c(1), B).unwrap();
        s.write(c(1), B).unwrap();
        // Cache 0 still holds the old version.
        match s.check_read(c(0), B) {
            Err(OracleViolation::StaleRead {
                copy_version,
                latest,
                ..
            }) => {
                assert_eq!(copy_version, 0);
                assert_eq!(latest, 1);
            }
            other => panic!("expected StaleRead, got {other:?}"),
        }
        // The invalidation protocol fixes this by removing cache 0's copy
        // and refilling from the dirty holder.
        s.invalidate(c(0), B).unwrap();
        s.fill_from_cache(c(0), c(1), B).unwrap();
        s.check_read(c(0), B).unwrap();
    }

    #[test]
    fn memory_supply_after_write_without_writeback_is_stale() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.write(c(0), B).unwrap();
        assert!(matches!(
            s.fill_from_memory(c(1), B),
            Err(OracleViolation::StaleMemorySupply { .. })
        ));
        // After a write-back memory is fresh again.
        s.write_back(c(0), B).unwrap();
        s.fill_from_memory(c(1), B).unwrap();
        s.check_read(c(1), B).unwrap();
    }

    #[test]
    fn supplier_must_hold_copy() {
        let mut s = ShadowMemory::new();
        assert!(matches!(
            s.fill_from_cache(c(0), c(1), B),
            Err(OracleViolation::SupplierHasNoCopy { .. })
        ));
    }

    #[test]
    fn writer_must_hold_copy() {
        let mut s = ShadowMemory::new();
        assert!(matches!(
            s.write(c(0), B),
            Err(OracleViolation::WriterHasNoCopy { .. })
        ));
        assert!(matches!(
            s.write_back(c(0), B),
            Err(OracleViolation::WriterHasNoCopy { .. })
        ));
    }

    #[test]
    fn dirty_copy_loss_detected() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.write(c(0), B).unwrap();
        assert!(matches!(
            s.invalidate(c(0), B),
            Err(OracleViolation::DirtyCopyLost { .. })
        ));
    }

    #[test]
    fn invalidate_clean_copy_is_fine() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.invalidate(c(0), B).unwrap();
        assert!(!s.holds(c(0), B));
    }

    #[test]
    fn invalidate_nonholder_is_noop() {
        let mut s = ShadowMemory::new();
        s.invalidate(c(3), B).unwrap();
    }

    #[test]
    fn write_through_keeps_memory_fresh() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.write_through(c(0), B).unwrap();
        s.fill_from_memory(c(1), B).unwrap();
        s.check_read(c(1), B).unwrap();
    }

    #[test]
    fn write_update_refreshes_all_copies() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.fill_from_memory(c(1), B).unwrap();
        s.fill_from_memory(c(2), B).unwrap();
        s.write_update(c(0), B).unwrap();
        for i in 0..3 {
            s.check_read(c(i), B).unwrap();
        }
        // Memory is stale after an update write (Dragon semantics).
        assert!(matches!(
            s.fill_from_memory(c(3), B),
            Err(OracleViolation::StaleMemorySupply { .. })
        ));
    }

    #[test]
    fn invalidating_updated_copy_is_safe_while_others_hold_it() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), B).unwrap();
        s.fill_from_memory(c(1), B).unwrap();
        s.write_update(c(0), B).unwrap();
        // Another up-to-date copy survives, so dropping one is fine.
        s.invalidate(c(1), B).unwrap();
        s.check_read(c(0), B).unwrap();
    }

    #[test]
    fn violation_display_is_informative() {
        let v = OracleViolation::StaleRead {
            cache: c(2),
            block: B,
            copy_version: 1,
            latest: 3,
        };
        let msg = v.to_string();
        assert!(msg.contains("stale read"));
        assert!(msg.contains("version 1"));
    }

    #[test]
    fn tracked_blocks_counts() {
        let mut s = ShadowMemory::new();
        s.fill_from_memory(c(0), BlockAddr::new(1)).unwrap();
        s.fill_from_memory(c(0), BlockAddr::new(2)).unwrap();
        assert_eq!(s.tracked_blocks(), 2);
        assert!(s.holds(c(0), BlockAddr::new(1)));
    }

    #[test]
    fn holders_lists_copies_sorted() {
        let mut s = ShadowMemory::new();
        let b = BlockAddr::new(1);
        s.fill_from_memory(c(2), b).unwrap();
        s.fill_from_memory(c(0), b).unwrap();
        assert_eq!(s.holders(b), vec![c(0), c(2)]);
        assert!(s.holders(BlockAddr::new(9)).is_empty());
        s.invalidate(c(2), b).unwrap();
        assert_eq!(s.holders(b), vec![c(0)]);
    }

    #[test]
    fn canonical_ignores_absolute_version_counts() {
        // One write vs. three writes by the same sole holder: raw versions
        // differ (1 vs. 3) but the structure is identical.
        let mut a = ShadowMemory::new();
        a.fill_from_memory(c(0), B).unwrap();
        a.write(c(0), B).unwrap();

        let mut b = ShadowMemory::new();
        b.fill_from_memory(c(0), B).unwrap();
        b.write(c(0), B).unwrap();
        b.write(c(0), B).unwrap();
        b.write(c(0), B).unwrap();

        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn canonical_distinguishes_stale_from_fresh_copies() {
        // c1 holds a stale copy in `a`, a fresh one in `b`.
        let mut a = ShadowMemory::new();
        a.fill_from_memory(c(0), B).unwrap();
        a.fill_from_memory(c(1), B).unwrap();
        a.write(c(0), B).unwrap();

        let mut b = ShadowMemory::new();
        b.fill_from_memory(c(0), B).unwrap();
        b.fill_from_memory(c(1), B).unwrap();
        b.write_update(c(0), B).unwrap();

        assert_ne!(a.canonical(), b.canonical());
    }
}
