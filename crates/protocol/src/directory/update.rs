//! A directory-based *update* protocol — the fourth quadrant.
//!
//! The paper evaluates snoopy-invalidate (WTI), snoopy-update (Dragon),
//! and directory-invalidate (the `Dir_i X` family). [`DirUpdate`] fills in
//! the remaining combination: Dragon's state-change model (no
//! invalidations, writes refresh remote copies) driven by a full-map
//! directory, so each update is a *directed* word message to the sharers
//! named by the map instead of a bus broadcast. On a bus it prices like
//! Dragon with per-sharer updates; on a network (see
//! `dirsim_cost::network`) it keeps Dragon's low data traffic while
//! shedding the snoopy flooding requirement — the update-protocol
//! counterpart of the paper's directory argument.

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
    /// Cache that performed the latest write while memory is stale.
    owner: Option<CacheId>,
}

/// Full-map directory with update-based writes (see module docs).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::directory::DirUpdate;
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_protocol::ops::BusOp;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut p = DirUpdate::new(4);
/// let b = BlockAddr::new(0);
/// p.on_data_ref(CacheId::new(0), b, false);
/// p.on_data_ref(CacheId::new(1), b, false);
/// p.on_data_ref(CacheId::new(2), b, false);
/// // A write sends one directed update per remote sharer:
/// let w = p.on_data_ref(CacheId::new(0), b, true);
/// let updates = w.ops.iter().filter(|&&o| o == BusOp::WriteUpdate).count();
/// assert_eq!(updates, 2);
/// ```
#[derive(Debug, Clone)]
pub struct DirUpdate {
    caches: u32,
    blocks: BlockTable<Entry>,
}

impl DirUpdate {
    /// Creates the protocol for `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        DirUpdate {
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

impl CoherenceProtocol for DirUpdate {
    fn name(&self) -> String {
        "DirUpd".to_string()
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
                    // Memory stale: the directory names the owner, which
                    // supplies the block directly.
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
                    // Write miss: fetch, then update the existing sharers
                    // with directed messages.
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
                    let remote = entry.holders.count_others(cache);
                    out.ops
                        .extend(std::iter::repeat(BusOp::WriteUpdate).take(remote));
                    out.movements.push(DataMovement::WriteUpdate { cache });
                    entry.owner = Some(cache);
                    return out;
                }
                // Write hit: the directory knows exactly who shares.
                let remote = entry.holders.count_others(cache);
                if remote > 0 {
                    let mut out = RefOutcome::event(EventKind::WhDistrib);
                    out.ops
                        .extend(std::iter::repeat(BusOp::WriteUpdate).take(remote));
                    out.movements.push(DataMovement::WriteUpdate { cache });
                    entry.owner = Some(cache);
                    out
                } else {
                    // Sole holder: like Dir1NB's free write, the map
                    // guarantees exclusivity — no bus operation at all.
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
    use crate::snoopy::Dragon;

    const B: BlockAddr = BlockAddr::new(6);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn events_match_dragon_exactly() {
        // Same state-change model as the snoopy update protocol.
        let mut diru = DirUpdate::new(4);
        let mut dragon = Dragon::new(4);
        let mut x: u64 = 11;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cache = c((x >> 33) as u32 % 4);
            let block = BlockAddr::new((x >> 13) % 8);
            let write = x % 3 == 0;
            let a = diru.on_data_ref(cache, block, write);
            let b = dragon.on_data_ref(cache, block, write);
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.movements, b.movements);
        }
    }

    #[test]
    fn updates_are_directed_per_sharer() {
        let mut p = DirUpdate::new(4);
        for i in 0..4 {
            p.on_data_ref(c(i), B, false);
        }
        let out = p.on_data_ref(c(1), B, true);
        assert_eq!(out.kind(), EventKind::WhDistrib);
        let updates = out.ops.iter().filter(|&&o| o == BusOp::WriteUpdate).count();
        assert_eq!(updates, 3, "one directed update per remote sharer");
    }

    #[test]
    fn sole_holder_write_is_free() {
        let mut p = DirUpdate::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhLocal);
        assert!(out.ops.is_empty(), "full map guarantees exclusivity");
    }

    #[test]
    fn never_invalidates() {
        let mut p = DirUpdate::new(4);
        let mut x: u64 = 17;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let out = p.on_data_ref(
                c((x >> 33) as u32 % 4),
                BlockAddr::new((x >> 13) % 6),
                x % 3 == 0,
            );
            assert!(!out.ops.contains(&BusOp::Invalidate));
            assert!(!out.ops.contains(&BusOp::BroadcastInvalidate));
        }
    }

    #[test]
    fn eviction_flushes_owner() {
        let mut p = DirUpdate::new(4);
        p.on_data_ref(c(0), B, true);
        let out = p.evict(c(0), B);
        assert_eq!(out.ops, vec![BusOp::WriteBack]);
        assert!(p.probe(B).unwrap().holders.is_empty());
        // A non-owner eviction is silent.
        p.on_data_ref(c(1), B, false);
        p.on_data_ref(c(2), B, false);
        let out = p.evict(c(2), B);
        assert!(out.ops.is_empty());
    }

    #[test]
    fn name_is_dir_upd() {
        assert_eq!(DirUpdate::new(2).name(), "DirUpd");
    }
}
