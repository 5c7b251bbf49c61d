//! The Illinois protocol (Papamarcos & Patel — the paper's reference [5]),
//! known today as MESI.
//!
//! A copy-back invalidation snoopy protocol with two refinements over the
//! basic model: an **exclusive-clean** state lets a sole holder write
//! without any bus traffic (like Berkeley's ownership check), and misses
//! are supplied **cache-to-cache** whenever any cache holds the block,
//! with a dirty supplier writing memory back in the same transaction.
//!
//! Its state-change model is the same multiple-clean/single-dirty policy
//! as `Dir0B` and WTI, so — per the paper's §5 observation — its event
//! frequencies are identical to theirs; only the bus operations differ.

use dirsim_mem::{BlockAddr, BlockTable, CacheId};

use crate::api::{BlockProbe, BlockState, CoherenceProtocol, StateSnapshot};
use crate::event::EventKind;
use crate::ops::{BusOp, DataMovement, RefOutcome};
use crate::sharer_set::SharerSet;

#[derive(Debug, Clone, Default)]
struct Entry {
    holders: SharerSet,
    dirty: bool,
    /// Sole holder has never shared since its fill (E or M state).
    exclusive: bool,
}

/// The Illinois (MESI) snoopy protocol (see module docs).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::snoopy::Illinois;
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut mesi = Illinois::new(4);
/// let b = BlockAddr::new(0);
/// mesi.on_data_ref(CacheId::new(0), b, false); // E state
/// let w = mesi.on_data_ref(CacheId::new(0), b, true);
/// assert!(w.ops.is_empty(), "E → M silently");
/// ```
#[derive(Debug, Clone)]
pub struct Illinois {
    caches: u32,
    blocks: BlockTable<Entry>,
}

impl Illinois {
    /// Creates an Illinois system with `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        Illinois {
            caches,
            blocks: BlockTable::new(),
        }
    }

    /// Canonical [`BlockState`] of one entry. The E/M bit rides in
    /// `aux[0]`: an exclusive clean copy upgrades silently where a shared
    /// one must broadcast.
    fn entry_state(block: BlockAddr, e: &Entry) -> BlockState {
        BlockState {
            block,
            holders: e.holders.iter().collect(),
            dirty: e.dirty,
            pointers: Vec::new(),
            broadcast_bit: false,
            aux: vec![u64::from(e.exclusive)],
        }
    }
}

impl CoherenceProtocol for Illinois {
    fn name(&self) -> String {
        "Illinois".to_string()
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        let Some(entry) = self.blocks.get_mut(block) else {
            // Cold fill: the snoop result says nobody has it → E (or M).
            let mut entry = Entry::default();
            entry.holders.insert(cache);
            entry.dirty = write;
            entry.exclusive = true;
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
                let kind = if entry.dirty {
                    EventKind::RmBlkDrty
                } else {
                    EventKind::RmBlkCln
                };
                let mut out = RefOutcome::event(kind);
                if let Some(supplier) = entry.holders.oldest() {
                    // Cache-to-cache supply (Illinois's hallmark); a dirty
                    // supplier also updates memory during the transfer.
                    out.ops.push(if entry.dirty {
                        BusOp::WriteBack
                    } else {
                        BusOp::CacheSupply
                    });
                    if entry.dirty {
                        out.movements
                            .push(DataMovement::WriteBack { cache: supplier });
                    }
                    out.movements
                        .push(DataMovement::FillFromCache { cache, supplier });
                } else {
                    out.ops.push(BusOp::MemRead);
                    out.movements.push(DataMovement::FillFromMemory { cache });
                }
                entry.dirty = false;
                entry.exclusive = false;
                entry.holders.insert(cache);
                out
            }
            (true, true) => {
                if entry.dirty {
                    let mut out = RefOutcome::event(EventKind::WhBlkDrty);
                    out.movements.push(DataMovement::CacheWrite { cache });
                    return out;
                }
                let mut out = RefOutcome::event(EventKind::WhBlkCln);
                out.clean_write_fanout = Some(entry.holders.count_others(cache) as u32);
                if entry.exclusive {
                    // E → M: the defining Illinois transition, bus-free.
                    out.movements.push(DataMovement::CacheWrite { cache });
                    entry.dirty = true;
                    return out;
                }
                // S → M: broadcast an invalidation on the snooping bus.
                out.ops.push(BusOp::BroadcastInvalidate);
                for victim in entry.holders.others(cache) {
                    out.movements
                        .push(DataMovement::Invalidate { cache: victim });
                }
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.retain_only(cache);
                entry.dirty = true;
                entry.exclusive = true;
                out
            }
            (true, false) => {
                let kind = if entry.dirty {
                    EventKind::WmBlkDrty
                } else {
                    EventKind::WmBlkCln
                };
                let mut out = RefOutcome::event(kind);
                if kind == EventKind::WmBlkCln {
                    out.clean_write_fanout = Some(entry.holders.count_others(cache) as u32);
                }
                if let Some(supplier) = entry.holders.oldest() {
                    out.ops.push(if entry.dirty {
                        BusOp::WriteBack
                    } else {
                        BusOp::CacheSupply
                    });
                    if entry.dirty {
                        out.movements
                            .push(DataMovement::WriteBack { cache: supplier });
                    }
                    out.movements
                        .push(DataMovement::FillFromCache { cache, supplier });
                } else {
                    out.ops.push(BusOp::MemRead);
                    out.movements.push(DataMovement::FillFromMemory { cache });
                }
                // The read-with-intent-to-modify invalidates as it snoops.
                for victim in entry.holders.others(cache) {
                    out.movements
                        .push(DataMovement::Invalidate { cache: victim });
                }
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.clear();
                entry.holders.insert(cache);
                entry.dirty = true;
                entry.exclusive = true;
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
        if entry.dirty {
            out.ops.push(BusOp::WriteBack);
            out.movements.push(DataMovement::WriteBack { cache });
            entry.dirty = false;
        }
        entry.holders.remove(cache);
        entry.exclusive = false;
        out.movements.push(DataMovement::Invalidate { cache });
        out
    }

    fn probe(&self, block: BlockAddr) -> Option<BlockProbe> {
        self.blocks.get(block).map(|e| BlockProbe {
            holders: e.holders.iter().collect(),
            dirty: e.dirty,
        })
    }

    fn tracked_blocks(&self) -> usize {
        self.blocks.len()
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

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirSpec, DirectoryProtocol};

    const B: BlockAddr = BlockAddr::new(5);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn exclusive_to_modified_is_silent() {
        let mut p = Illinois::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert!(out.ops.is_empty());
    }

    #[test]
    fn shared_write_broadcasts() {
        let mut p = Illinois::new(4);
        p.on_data_ref(c(0), B, false);
        p.on_data_ref(c(1), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.ops, vec![BusOp::BroadcastInvalidate]);
        // No directory lookup — the cache's own S state triggered it.
        assert!(!out.ops.contains(&BusOp::DirLookup));
    }

    #[test]
    fn clean_misses_are_cache_supplied() {
        let mut p = Illinois::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkCln);
        assert_eq!(out.ops, vec![BusOp::CacheSupply]);
    }

    #[test]
    fn dirty_misses_write_back_and_supply() {
        let mut p = Illinois::new(4);
        p.on_data_ref(c(0), B, true);
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::WriteBack]);
        // Supplier keeps a clean copy, requester joins.
        assert_eq!(p.probe(B).unwrap().holders.len(), 2);
        assert!(!p.probe(B).unwrap().dirty);
    }

    #[test]
    fn events_match_dir0b() {
        // Same state-change model (the paper's §5 point about [5]/[7]).
        let mut mesi = Illinois::new(4);
        let mut dir0b = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        let mut x: u64 = 23;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cache = c((x >> 33) as u32 % 4);
            let block = BlockAddr::new((x >> 13) % 8);
            let write = x % 3 == 0;
            let a = mesi.on_data_ref(cache, block, write);
            let b = dir0b.on_data_ref(cache, block, write);
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.clean_write_fanout, b.clean_write_fanout);
        }
    }

    #[test]
    fn never_uses_the_directory() {
        let mut p = Illinois::new(4);
        let mut x: u64 = 29;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let out = p.on_data_ref(
                c((x >> 33) as u32 % 4),
                BlockAddr::new((x >> 13) % 6),
                x % 3 == 0,
            );
            assert!(!out.ops.contains(&BusOp::DirLookup));
            assert!(!out.ops.contains(&BusOp::DirUpdate));
        }
    }

    #[test]
    fn eviction_restores_memory() {
        let mut p = Illinois::new(4);
        p.on_data_ref(c(0), B, true);
        let out = p.evict(c(0), B);
        assert_eq!(out.ops, vec![BusOp::WriteBack]);
        // A later miss is served by memory again.
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.ops, vec![BusOp::MemRead]);
    }

    #[test]
    fn name_is_illinois() {
        assert_eq!(Illinois::new(2).name(), "Illinois");
    }
}
