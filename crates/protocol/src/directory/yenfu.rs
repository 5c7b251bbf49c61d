//! The Yen & Fu refinement of the Censier–Feautrier directory (§2).
//!
//! The central directory is the full map of `DirnNB`, but each cache also
//! keeps a **single bit** per block, set iff that cache is the only one in
//! the system holding the block. A write hit to a clean block whose single
//! bit is set can proceed without *waiting* for a central-directory access;
//! the directory is still informed (a dataless [`BusOp::DirUpdate`]), and
//! extra bus traffic is needed to keep the single bits current whenever a
//! block goes from exclusively-held to shared. The paper's verdict — "the
//! scheme saves central directory accesses, but does not reduce the number
//! of bus accesses" — falls straight out of this model: every saved
//! `DirLookup` is replaced by a `DirUpdate`, and the single-bit clears add
//! messages on top.

use dirsim_mem::{BlockAddr, BlockTable, CacheId};

use crate::api::{BlockProbe, BlockState, CoherenceProtocol, StateSnapshot};
use crate::event::EventKind;
use crate::ops::{BusOp, DataMovement, RefOutcome};
use crate::sharer_set::SharerSet;

#[derive(Debug, Clone, Default)]
struct Entry {
    holders: SharerSet,
    dirty: bool,
}

/// The Yen & Fu single-bit directory protocol (see module docs).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::directory::YenFu;
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_protocol::ops::BusOp;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut p = YenFu::new(4);
/// let b = BlockAddr::new(0);
/// p.on_data_ref(CacheId::new(0), b, false);
/// // Sole holder writes: the single bit lets the write proceed without a
/// // blocking directory check — only an asynchronous update goes out.
/// let w = p.on_data_ref(CacheId::new(0), b, true);
/// assert_eq!(w.ops, vec![BusOp::DirUpdate]);
/// ```
#[derive(Debug, Clone)]
pub struct YenFu {
    caches: u32,
    blocks: BlockTable<Entry>,
}

impl YenFu {
    /// Creates the protocol for `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        YenFu {
            caches,
            blocks: BlockTable::new(),
        }
    }

    /// Emits the single-bit clear message if a block just went from
    /// exclusively-held to shared (the previous sole holder must be told).
    fn note_single_bit_clear(was_sole: bool, out: &mut RefOutcome) {
        if was_sole {
            out.ops.push(BusOp::DirUpdate);
        }
    }
}

impl CoherenceProtocol for YenFu {
    fn name(&self) -> String {
        "YenFu".to_string()
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        let Some(entry) = self.blocks.get_mut(block) else {
            let mut entry = Entry::default();
            entry.holders.insert(cache);
            entry.dirty = write;
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
        let was_sole = entry.holders.len() == 1;
        match (write, holds, entry.dirty) {
            (false, true, _) => RefOutcome::event(EventKind::RdHit),
            (false, false, true) => {
                let owner = entry.holders.oldest().expect("dirty block has a holder");
                let mut out = RefOutcome::event(EventKind::RmBlkDrty);
                out.ops.push(BusOp::Invalidate); // write-back request
                out.ops.push(BusOp::WriteBack);
                // The owner's single bit is cleared by the write-back
                // request itself — no extra message.
                out.movements.push(DataMovement::WriteBack { cache: owner });
                out.movements.push(DataMovement::FillFromCache {
                    cache,
                    supplier: owner,
                });
                entry.dirty = false;
                entry.holders.insert(cache);
                out
            }
            (false, false, false) => {
                let mut out = RefOutcome::event(EventKind::RmBlkCln);
                out.ops.push(BusOp::MemRead);
                // Going 1 → 2 holders clears the previous sole holder's
                // single bit: a dedicated bus message.
                Self::note_single_bit_clear(was_sole, &mut out);
                out.movements.push(DataMovement::FillFromMemory { cache });
                entry.holders.insert(cache);
                out
            }
            (true, true, true) => {
                let mut out = RefOutcome::event(EventKind::WhBlkDrty);
                out.movements.push(DataMovement::CacheWrite { cache });
                out
            }
            (true, true, false) => {
                let remote = entry.holders.count_others(cache);
                let mut out = RefOutcome::event(EventKind::WhBlkCln);
                out.clean_write_fanout = Some(remote as u32);
                if remote == 0 {
                    // Single bit set: the write proceeds immediately; the
                    // directory is updated off the critical path, but the
                    // message still occupies the bus (§2).
                    out.ops.push(BusOp::DirUpdate);
                } else {
                    out.ops.push(BusOp::DirLookup);
                    out.ops
                        .extend(std::iter::repeat(BusOp::Invalidate).take(remote));
                }
                for victim in entry.holders.others(cache) {
                    out.movements
                        .push(DataMovement::Invalidate { cache: victim });
                }
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.retain_only(cache);
                entry.dirty = true;
                out
            }
            (true, false, true) => {
                let owner = entry.holders.oldest().expect("dirty block has a holder");
                let mut out = RefOutcome::event(EventKind::WmBlkDrty);
                out.ops.push(BusOp::Invalidate);
                out.ops.push(BusOp::WriteBack);
                out.movements.push(DataMovement::WriteBack { cache: owner });
                out.movements.push(DataMovement::FillFromCache {
                    cache,
                    supplier: owner,
                });
                out.movements
                    .push(DataMovement::Invalidate { cache: owner });
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.clear();
                entry.holders.insert(cache);
                entry.dirty = true;
                out
            }
            (true, false, false) => {
                let remote = entry.holders.count_others(cache);
                let mut out = RefOutcome::event(EventKind::WmBlkCln);
                out.clean_write_fanout = Some(remote as u32);
                out.ops.push(BusOp::MemRead);
                out.ops
                    .extend(std::iter::repeat(BusOp::Invalidate).take(remote));
                out.movements.push(DataMovement::FillFromMemory { cache });
                for victim in entry.holders.others(cache) {
                    out.movements
                        .push(DataMovement::Invalidate { cache: victim });
                }
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.clear();
                entry.holders.insert(cache);
                entry.dirty = true;
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
        // Conservative single-bit handling: a survivor left as the sole
        // holder is not told its copy became exclusive (its bit stays
        // clear), costing later DirLookups instead of a message now.
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
                .map(|(block, e)| BlockState::basic(block, e.holders.iter().collect(), e.dirty))
                .collect(),
        )
    }

    fn block_state(&self, block: BlockAddr) -> Option<BlockState> {
        self.blocks
            .get(block)
            .map(|e| BlockState::basic(block, e.holders.iter().collect(), e.dirty))
    }

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirSpec, DirectoryProtocol};

    const B: BlockAddr = BlockAddr::new(4);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn sole_holder_write_uses_async_update_not_lookup() {
        let mut p = YenFu::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.ops, vec![BusOp::DirUpdate]);
    }

    #[test]
    fn second_reader_clears_single_bit_with_a_message() {
        let mut p = YenFu::new(4);
        p.on_data_ref(c(0), B, false);
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::DirUpdate]);
        // A third reader does not: the block is already shared.
        let out = p.on_data_ref(c(2), B, false);
        assert_eq!(out.ops, vec![BusOp::MemRead]);
    }

    #[test]
    fn shared_clean_write_hit_behaves_like_dirn_nb() {
        let mut p = YenFu::new(4);
        p.on_data_ref(c(0), B, false);
        p.on_data_ref(c(1), B, false);
        p.on_data_ref(c(2), B, false);
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(
            out.ops,
            vec![BusOp::DirLookup, BusOp::Invalidate, BusOp::Invalidate]
        );
    }

    #[test]
    fn events_match_dirn_nb_exactly() {
        // Same state-change model as the full map.
        let mut yenfu = YenFu::new(4);
        let mut dirn = DirectoryProtocol::new(DirSpec::dir_n_nb(), 4);
        let mut x: u64 = 21;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cache = c((x >> 33) as u32 % 4);
            let block = BlockAddr::new((x >> 13) % 8);
            let write = x % 3 == 0;
            let a = yenfu.on_data_ref(cache, block, write);
            let b = dirn.on_data_ref(cache, block, write);
            assert_eq!(a.kind(), b.kind());
        }
    }

    #[test]
    fn never_broadcasts() {
        let mut p = YenFu::new(4);
        let mut x: u64 = 5;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let out = p.on_data_ref(
                c((x >> 33) as u32 % 4),
                BlockAddr::new((x >> 13) % 6),
                x % 3 == 0,
            );
            assert!(!out.ops.contains(&BusOp::BroadcastInvalidate));
        }
    }

    #[test]
    fn dirty_miss_needs_no_single_bit_message() {
        let mut p = YenFu::new(4);
        p.on_data_ref(c(0), B, true); // cold write, dirty in 0
        let out = p.on_data_ref(c(1), B, false);
        assert_eq!(out.kind(), EventKind::RmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::Invalidate, BusOp::WriteBack]);
    }

    #[test]
    fn name_and_counts() {
        let p = YenFu::new(8);
        assert_eq!(p.name(), "YenFu");
        assert_eq!(p.cache_count(), 8);
    }
}
