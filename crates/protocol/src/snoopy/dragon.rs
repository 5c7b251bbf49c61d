//! The Dragon update protocol (§3, Xerox Dragon).
//!
//! Dragon maintains consistency by *updating* stale cached data rather than
//! invalidating it. A dedicated "shared" bus line tells a writer whether any
//! other cache holds the block: if so, the write is broadcast as a one-word
//! update (`wh-distrib`); if not, it is purely local (`wh-local`). Because
//! nothing is ever invalidated, an infinite cache misses only on its own
//! first access to a block — the paper calls Dragon's miss rate the *native*
//! miss rate of the trace.
//!
//! Memory becomes stale on updates; the last writer is the *owner* and
//! supplies the block on later misses (`rm-blk-drty`).

use dirsim_mem::{BlockAddr, BlockTable, CacheId};

use crate::api::{
    permute_basic, BlockProbe, BlockState, CoherenceProtocol, ProtocolStyle, StateSnapshot,
};
use crate::event::EventKind;
use crate::ops::{BusOp, DataMovement, RefOutcome};
use crate::sharer_set::SharerSet;

#[derive(Debug, Clone, Default)]
struct Entry {
    holders: SharerSet,
    /// Cache responsible for supplying the block while memory is stale.
    owner: Option<CacheId>,
}

/// The Dragon update snoopy protocol (see module docs).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::snoopy::Dragon;
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_protocol::event::EventKind;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut dragon = Dragon::new(4);
/// let b = BlockAddr::new(0);
/// dragon.on_data_ref(CacheId::new(0), b, false);
/// dragon.on_data_ref(CacheId::new(1), b, false);
/// // A write while the block is shared broadcasts an update:
/// let w = dragon.on_data_ref(CacheId::new(0), b, true);
/// assert_eq!(w.kind(), EventKind::WhDistrib);
/// ```
#[derive(Debug, Clone)]
pub struct Dragon {
    caches: u32,
    blocks: BlockTable<Entry>,
}

impl Dragon {
    /// Creates a Dragon system with `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        Dragon {
            caches,
            blocks: BlockTable::new(),
        }
    }

    /// Canonical [`BlockState`] of one entry. The owner identity rides in
    /// `aux[0]` as index + 1 (0 = memory current): which cache supplies
    /// and writes back matters, not just that one exists.
    fn entry_state(block: BlockAddr, e: &Entry) -> BlockState {
        BlockState {
            block,
            holders: e.holders.iter().collect(),
            dirty: e.owner.is_some(),
            pointers: Vec::new(),
            broadcast_bit: false,
            aux: vec![e.owner.map_or(0, |c| c.index() as u64 + 1)],
        }
    }
}

impl CoherenceProtocol for Dragon {
    fn name(&self) -> String {
        "Dragon".to_string()
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        let Some(entry) = self.blocks.get_mut(block) else {
            let mut entry = Entry::default();
            entry.holders.insert(cache);
            entry.owner = write.then_some(cache);
            self.blocks.insert(block, entry);
            let kind = if write {
                EventKind::WmFirstRef
            } else {
                EventKind::RmFirstRef
            };
            let mut out = RefOutcome::event(kind);
            out.movements.push(DataMovement::FillFromMemory { cache });
            if write {
                out.movements.push(DataMovement::CacheWrite { cache });
            }
            return out;
        };

        let holds = entry.holders.contains(cache);
        match (write, holds) {
            (false, true) => RefOutcome::event(EventKind::RdHit),
            (false, false) => {
                let mut out;
                if let Some(owner) = entry.owner {
                    // Memory is stale; the owning cache supplies the block.
                    out = RefOutcome::event(EventKind::RmBlkDrty);
                    out.ops.push(BusOp::CacheSupply);
                    out.movements.push(DataMovement::FillFromCache {
                        cache,
                        supplier: owner,
                    });
                } else {
                    out = RefOutcome::event(EventKind::RmBlkCln);
                    out.ops.push(BusOp::MemRead);
                    out.movements.push(DataMovement::FillFromMemory { cache });
                }
                entry.holders.insert(cache);
                out
            }
            (true, holds) => {
                if !holds {
                    // Write miss: fetch (from owner or memory), then the
                    // write itself updates the other copies.
                    let mut out;
                    if let Some(owner) = entry.owner {
                        out = RefOutcome::event(EventKind::WmBlkDrty);
                        out.ops.push(BusOp::CacheSupply);
                        out.movements.push(DataMovement::FillFromCache {
                            cache,
                            supplier: owner,
                        });
                    } else {
                        out = RefOutcome::event(EventKind::WmBlkCln);
                        out.ops.push(BusOp::MemRead);
                        out.movements.push(DataMovement::FillFromMemory { cache });
                    }
                    entry.holders.insert(cache);
                    out.ops.push(BusOp::WriteUpdate);
                    out.movements.push(DataMovement::WriteUpdate { cache });
                    entry.owner = Some(cache);
                    return out;
                }
                // Write hit: the shared line says whether anyone else holds
                // the block.
                let shared = entry.holders.count_others(cache) > 0;
                if shared {
                    let mut out = RefOutcome::event(EventKind::WhDistrib);
                    out.ops.push(BusOp::WriteUpdate);
                    out.movements.push(DataMovement::WriteUpdate { cache });
                    entry.owner = Some(cache);
                    out
                } else {
                    let mut out = RefOutcome::event(EventKind::WhLocal);
                    out.movements.push(DataMovement::CacheWrite { cache });
                    entry.owner = Some(cache);
                    out
                }
            }
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> RefOutcome {
        let mut out = RefOutcome::default();
        let Some(entry) = self.blocks.get_mut(block) else {
            return out;
        };
        if !entry.holders.contains(cache) {
            return out;
        }
        if entry.owner == Some(cache) {
            // The owner is responsible for memory: flush on displacement.
            out.ops.push(BusOp::WriteBack);
            out.movements.push(DataMovement::WriteBack { cache });
            entry.owner = None;
        }
        entry.holders.remove(cache);
        out.movements.push(DataMovement::Invalidate { cache });
        out
    }

    fn probe(&self, block: BlockAddr) -> Option<BlockProbe> {
        self.blocks.get(block).map(|e| BlockProbe {
            holders: e.holders.iter().collect(),
            dirty: e.owner.is_some(),
        })
    }

    fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn style(&self) -> ProtocolStyle {
        ProtocolStyle::Update
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::from_blocks(
            self.blocks
                .iter()
                .map(|(block, e)| Self::entry_state(block, e))
                .collect(),
        )
    }

    fn block_state(&self, block: BlockAddr) -> Option<BlockState> {
        self.blocks.get(block).map(|e| Self::entry_state(block, e))
    }

    fn permute_block_state(&self, state: &BlockState, perm: &[u32]) -> BlockState {
        let mut permuted = permute_basic(state, perm);
        // `aux[0]` carries the owner identity as index + 1 (0 = no owner).
        if let Some(a) = permuted.aux.first_mut() {
            if *a > 0 {
                *a = perm[(*a - 1) as usize] as u64 + 1;
            }
        }
        permuted
    }

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr::new(2);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn never_invalidates_anything() {
        let mut p = Dragon::new(4);
        let mut x: u64 = 77;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let out = p.on_data_ref(
                c((x >> 33) as u32 % 4),
                BlockAddr::new((x >> 13) % 8),
                x % 3 == 0,
            );
            assert!(out
                .movements
                .iter()
                .all(|m| !matches!(m, DataMovement::Invalidate { .. })));
            assert_eq!(out.clean_write_fanout, None);
        }
    }

    #[test]
    fn misses_only_on_first_access_per_cache() {
        let mut p = Dragon::new(4);
        // Each cache misses exactly once per block, forever after hits.
        for round in 0..3 {
            for i in 0..4 {
                let out = p.on_data_ref(c(i), B, false);
                if round == 0 {
                    assert_ne!(out.kind(), EventKind::RdHit);
                } else {
                    assert_eq!(out.kind(), EventKind::RdHit);
                }
            }
        }
    }

    #[test]
    fn shared_write_hit_is_distributed() {
        let mut p = Dragon::new(4);
        p.on_data_ref(c(0), B, false);
        p.on_data_ref(c(1), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhDistrib);
        assert_eq!(out.ops, vec![BusOp::WriteUpdate]);
        // The other copy is refreshed, so its read remains a hit.
        let peek = p.on_data_ref(c(1), B, false);
        assert_eq!(peek.kind(), EventKind::RdHit);
    }

    #[test]
    fn exclusive_write_hit_is_local_and_free() {
        let mut p = Dragon::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhLocal);
        assert!(out.ops.is_empty());
    }

    #[test]
    fn owner_supplies_after_update() {
        let mut p = Dragon::new(4);
        p.on_data_ref(c(0), B, true); // cold write; memory stale
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::CacheSupply]);
        assert!(matches!(
            out.movements[0],
            DataMovement::FillFromCache { supplier, .. } if supplier == c(0)
        ));
    }

    #[test]
    fn clean_miss_comes_from_memory() {
        let mut p = Dragon::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead]);
    }

    #[test]
    fn write_miss_fetches_and_updates() {
        let mut p = Dragon::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(1), B, true);
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::WriteUpdate]);
        // Both caches still hold the block.
        assert_eq!(p.probe(B).unwrap().holders.len(), 2);
    }

    #[test]
    fn name_is_dragon() {
        assert_eq!(Dragon::new(2).name(), "Dragon");
    }
}
