//! Write-Through-With-Invalidate (WTI), §3.
//!
//! The simplest snoopy protocol: every write is transmitted to main memory;
//! caches snooping the bus invalidate their copies of the written block.
//! Memory is therefore never stale, and misses are always serviced by
//! memory.
//!
//! WTI shares the `Dir0B` *state-change model* — multiple cached copies of
//! clean blocks, writes leave exactly one copy — so its event frequencies
//! are identical to `Dir0B`'s (the paper's §5 observation; a cross-protocol
//! test asserts this). The `dirty` flag in the state tracks "written while
//! exclusively held", which drives the same `blk-cln`/`blk-drty` event
//! split even though memory always holds current data.

use dirsim_mem::{BlockAddr, BlockTable, CacheId};

use crate::api::{BlockProbe, BlockState, CoherenceProtocol, ProtocolStyle, StateSnapshot};
use crate::event::EventKind;
use crate::ops::{BusOp, DataMovement, RefOutcome};
use crate::sharer_set::SharerSet;

#[derive(Debug, Clone, Default)]
struct Entry {
    holders: SharerSet,
    /// "Written while exclusive": mirrors the copy-back model's dirty bit
    /// for event-classification purposes only; memory is always current.
    written_exclusive: bool,
}

/// The WTI snoopy protocol (see module docs).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::snoopy::Wti;
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_protocol::ops::BusOp;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut wti = Wti::new(4);
/// let b = BlockAddr::new(0);
/// wti.on_data_ref(CacheId::new(0), b, false); // cold read
/// let w = wti.on_data_ref(CacheId::new(0), b, true);
/// assert!(w.ops.contains(&BusOp::WriteThrough)); // every write hits the bus
/// ```
#[derive(Debug, Clone)]
pub struct Wti {
    caches: u32,
    blocks: BlockTable<Entry>,
}

impl Wti {
    /// Creates a WTI system with `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        Wti {
            caches,
            blocks: BlockTable::new(),
        }
    }
}

impl CoherenceProtocol for Wti {
    fn name(&self) -> String {
        "WTI".to_string()
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        let Some(entry) = self.blocks.get_mut(block) else {
            let mut entry = Entry::default();
            entry.holders.insert(cache);
            entry.written_exclusive = write;
            self.blocks.insert(block, entry);
            let kind = if write {
                EventKind::WmFirstRef
            } else {
                EventKind::RmFirstRef
            };
            let mut out = RefOutcome::event(kind);
            out.movements.push(DataMovement::FillFromMemory { cache });
            if write {
                // The cold fetch is excluded from cost (§4), but the
                // write-through itself is a write cost, not a miss cost.
                out.ops.push(BusOp::WriteThrough);
                out.movements.push(DataMovement::WriteThrough { cache });
            }
            return out;
        };

        let holds = entry.holders.contains(cache);
        match (write, holds) {
            (false, true) => RefOutcome::event(EventKind::RdHit),
            (false, false) => {
                // Memory is always current under write-through; the event
                // split mirrors the shared state-change model.
                let kind = if entry.written_exclusive {
                    EventKind::RmBlkDrty
                } else {
                    EventKind::RmBlkCln
                };
                let mut out = RefOutcome::event(kind);
                out.ops.push(BusOp::MemRead);
                out.movements.push(DataMovement::FillFromMemory { cache });
                entry.holders.insert(cache);
                entry.written_exclusive = false;
                out
            }
            (true, true) => {
                if entry.written_exclusive {
                    // Sole writer keeps writing: still a bus write-through.
                    let mut out = RefOutcome::event(EventKind::WhBlkDrty);
                    out.ops.push(BusOp::WriteThrough);
                    out.movements.push(DataMovement::WriteThrough { cache });
                    return out;
                }
                let mut out = RefOutcome::event(EventKind::WhBlkCln);
                out.clean_write_fanout = Some(entry.holders.count_others(cache) as u32);
                // The write-through broadcast carries the invalidation for
                // free: snooping caches drop their copies as it passes.
                out.ops.push(BusOp::WriteThrough);
                for victim in entry.holders.others(cache) {
                    out.movements
                        .push(DataMovement::Invalidate { cache: victim });
                }
                out.movements.push(DataMovement::WriteThrough { cache });
                entry.holders.retain_only(cache);
                entry.written_exclusive = true;
                out
            }
            (true, false) => {
                let kind = if entry.written_exclusive {
                    EventKind::WmBlkDrty
                } else {
                    EventKind::WmBlkCln
                };
                let mut out = RefOutcome::event(kind);
                if kind == EventKind::WmBlkCln {
                    out.clean_write_fanout = Some(entry.holders.count_others(cache) as u32);
                }
                // Write-allocate: fetch the block, then write through.
                out.ops.push(BusOp::MemRead);
                out.ops.push(BusOp::WriteThrough);
                out.movements.push(DataMovement::FillFromMemory { cache });
                for victim in entry.holders.others(cache) {
                    out.movements
                        .push(DataMovement::Invalidate { cache: victim });
                }
                out.movements.push(DataMovement::WriteThrough { cache });
                entry.holders.clear();
                entry.holders.insert(cache);
                entry.written_exclusive = true;
                out
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
        // Memory is always current under write-through: drops are silent.
        entry.holders.remove(cache);
        if entry.holders.is_empty() {
            entry.written_exclusive = false;
        }
        out.movements.push(DataMovement::Invalidate { cache });
        out
    }

    fn probe(&self, block: BlockAddr) -> Option<BlockProbe> {
        self.blocks.get(block).map(|e| BlockProbe {
            holders: e.holders.iter().collect(),
            dirty: e.written_exclusive,
        })
    }

    fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn style(&self) -> ProtocolStyle {
        ProtocolStyle::WriteThrough
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::from_blocks(
            self.blocks
                .iter()
                .map(|(block, e)| {
                    BlockState::basic(block, e.holders.iter().collect(), e.written_exclusive)
                })
                .collect(),
        )
    }

    fn block_state(&self, block: BlockAddr) -> Option<BlockState> {
        self.blocks
            .get(block)
            .map(|e| BlockState::basic(block, e.holders.iter().collect(), e.written_exclusive))
    }

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr::new(1);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn every_write_goes_to_the_bus() {
        let mut p = Wti::new(4);
        p.on_data_ref(c(0), B, false);
        for _ in 0..5 {
            let out = p.on_data_ref(c(0), B, true);
            assert!(out.ops.contains(&BusOp::WriteThrough));
        }
    }

    #[test]
    fn read_hits_are_free() {
        let mut p = Wti::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(0), B, false);
        assert_eq!(out.kind(), EventKind::RdHit);
        assert!(out.ops.is_empty());
    }

    #[test]
    fn writes_invalidate_other_copies() {
        let mut p = Wti::new(4);
        p.on_data_ref(c(0), B, false);
        p.on_data_ref(c(1), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.clean_write_fanout, Some(1));
        // Invalidation is free — no Invalidate op, just the write-through.
        assert_eq!(out.ops, vec![BusOp::WriteThrough]);
        assert_eq!(p.probe(B).unwrap().holders, vec![c(0)]);
    }

    #[test]
    fn misses_always_served_by_memory() {
        let mut p = Wti::new(4);
        p.on_data_ref(c(0), B, true); // cold write
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::MemRead]);
        assert!(matches!(
            out.movements[0],
            DataMovement::FillFromMemory { .. }
        ));
    }

    #[test]
    fn write_miss_allocates_and_writes_through() {
        let mut p = Wti::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(1), B, true);
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::WriteThrough]);
    }

    #[test]
    fn cold_write_charges_only_the_write_through() {
        let mut p = Wti::new(4);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WmFirstRef);
        assert_eq!(out.ops, vec![BusOp::WriteThrough]);
    }

    #[test]
    fn never_emits_invalidate_or_writeback_ops() {
        let mut p = Wti::new(4);
        let mut x: u64 = 5;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let out = p.on_data_ref(
                c((x >> 33) as u32 % 4),
                BlockAddr::new((x >> 13) % 8),
                x % 3 == 0,
            );
            for op in &out.ops {
                assert!(
                    matches!(op, BusOp::MemRead | BusOp::WriteThrough),
                    "WTI emitted {op}"
                );
            }
        }
    }

    #[test]
    fn name_and_counts() {
        let p = Wti::new(4);
        assert_eq!(p.name(), "WTI");
        assert_eq!(p.cache_count(), 4);
        assert_eq!(p.tracked_blocks(), 0);
    }
}
