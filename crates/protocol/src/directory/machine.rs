//! The generic `Dir_i{B,NB}` directory protocol state machine.
//!
//! One machine covers the whole design space of §2/§3/§6:
//!
//! * `Dir1NB` — at most one copy; every remote miss invalidates (and flushes
//!   if dirty) the previous holder.
//! * `Dir0B` — Archibald–Baer: no pointers, broadcast invalidation, with the
//!   *block clean in exactly one cache* state that lets a sole holder's
//!   write hit skip the broadcast.
//! * `DirnNB` — Censier–Feautrier full map; invalidations are sequential
//!   directed messages, never broadcast.
//! * `Dir1B`, `DiriB` — limited pointers plus a broadcast bit set on
//!   pointer overflow; invalidations are directed while the pointers are
//!   exact and broadcast once the bit is set.
//! * `DiriNB` — limited pointers without broadcast: the (i+1)-th sharer
//!   evicts a victim copy, trading a slightly higher miss rate for never
//!   broadcasting.
//!
//! The state-change model is the classic multiple-readers/single-writer
//! policy: clean blocks may be cached many times (subject to `i` for NB
//! schemes), dirty blocks live in exactly one cache. The *event
//! frequencies* produced depend only on this model; the *bus operations*
//! depend on the directory organisation, which is exactly the paper's
//! event/cost split (§4.1).

use dirsim_mem::{BlockAddr, BlockTable, CacheId};

use crate::api::{BlockProbe, BlockState, CoherenceProtocol, StateSnapshot};
#[cfg(test)]
use crate::directory::spec::PointerCapacity;
use crate::directory::spec::{DirSpec, EvictionPolicy};
use crate::event::EventKind;
use crate::ops::{BusOp, DataMovement, RefOutcome};
use crate::sharer_set::SharerSet;

#[derive(Debug, Clone, Default)]
struct Entry {
    /// Ground truth: caches holding a copy, in insertion order.
    holders: SharerSet,
    /// Dirty ⇒ exactly one holder (the writer).
    dirty: bool,
    /// Directory knowledge for broadcast schemes with limited pointers:
    /// the pointer slots currently in use (always a subset of `holders`).
    pointers: SharerSet,
    /// Broadcast bit: set when the pointers overflowed, so the directory
    /// no longer knows every holder.
    broadcast_bit: bool,
}

/// The `Dir_i{B,NB}` directory protocol (see module docs).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::directory::{DirSpec, DirectoryProtocol};
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_protocol::event::EventKind;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut dir0b = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
/// let b = BlockAddr::new(1);
/// let cold = dir0b.on_data_ref(CacheId::new(0), b, false);
/// assert_eq!(cold.kind(), EventKind::RmFirstRef);
/// let hit = dir0b.on_data_ref(CacheId::new(0), b, false);
/// assert_eq!(hit.kind(), EventKind::RdHit);
/// ```
#[derive(Debug, Clone)]
pub struct DirectoryProtocol {
    spec: DirSpec,
    caches: u32,
    blocks: BlockTable<Entry>,
    /// Strip unoverlapped directory lookups from the emitted ops — used by
    /// the Berkeley-ownership cost derivation (§5, "setting the directory
    /// access cost to 0").
    free_directory: bool,
}

impl DirectoryProtocol {
    /// Creates a directory protocol for `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(spec: DirSpec, caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        DirectoryProtocol {
            spec,
            caches,
            blocks: BlockTable::new(),
            free_directory: false,
        }
    }

    /// The specification this machine implements.
    pub fn spec(&self) -> DirSpec {
        self.spec
    }

    /// Makes unoverlapped directory lookups free (Berkeley derivation).
    pub(crate) fn with_free_directory(mut self) -> Self {
        self.free_directory = true;
        self
    }

    fn pointer_capacity(&self) -> u32 {
        self.spec.pointers().resolve(self.caches)
    }

    /// Records `cache` in the directory's pointer knowledge after it
    /// obtained a clean copy.
    fn note_clean_holder(entry: &mut Entry, cache: CacheId, capacity: u32, broadcast: bool) {
        if !broadcast {
            // NB schemes: the directory always knows every holder; pointer
            // state is implicit in `holders`.
            return;
        }
        if entry.broadcast_bit {
            return;
        }
        if entry.pointers.contains(cache) {
            return;
        }
        if (entry.pointers.len() as u32) < capacity {
            entry.pointers.insert(cache);
        } else {
            entry.broadcast_bit = true;
        }
    }

    /// Resets directory knowledge to a single (dirty) holder.
    fn reset_to_sole_holder(entry: &mut Entry, cache: CacheId, capacity: u32) {
        entry.pointers.clear();
        if capacity >= 1 {
            entry.pointers.insert(cache);
        }
        entry.broadcast_bit = false;
    }

    /// Emits the ops and movements that invalidate every clean holder of
    /// `entry` other than `writer`, and returns how many there were.
    ///
    /// NB schemes send one directed message per holder (sequential
    /// invalidation, §6). Broadcast schemes send directed messages while the
    /// pointer knowledge is exact and a single broadcast otherwise.
    fn invalidate_clean_holders(
        spec: DirSpec,
        entry: &Entry,
        writer: CacheId,
        out: &mut RefOutcome,
    ) -> usize {
        let remote = entry.holders.count_others(writer);
        if remote == 0 {
            return 0;
        }
        let exact_knowledge = !spec.allows_broadcast()
            || (!entry.broadcast_bit
                && entry
                    .holders
                    .others(writer)
                    .all(|c| entry.pointers.contains(c)));
        if exact_knowledge {
            out.ops
                .extend(std::iter::repeat(BusOp::Invalidate).take(remote));
        } else {
            out.ops.push(BusOp::BroadcastInvalidate);
        }
        for victim in entry.holders.others(writer) {
            out.movements
                .push(DataMovement::Invalidate { cache: victim });
        }
        remote
    }

    fn on_read(&mut self, cache: CacheId, block: BlockAddr) -> RefOutcome {
        let capacity = self.pointer_capacity();
        let broadcast = self.spec.allows_broadcast();
        let Some(entry) = self.blocks.get_mut(block) else {
            // Cold miss: install and exclude from cost (§4).
            let mut entry = Entry::default();
            entry.holders.insert(cache);
            Self::note_clean_holder(&mut entry, cache, capacity, broadcast);
            self.blocks.insert(block, entry);
            let mut out = RefOutcome::event(EventKind::RmFirstRef);
            out.movements.push(DataMovement::FillFromMemory { cache });
            return out;
        };

        if entry.holders.contains(cache) {
            return RefOutcome::event(EventKind::RdHit);
        }

        let spec = self.spec;
        let mut out;
        let mut just_flushed = None;
        if entry.dirty {
            // Dirty in exactly one other cache: the directory sends a
            // combined write-back/ownership-downgrade request; the flush
            // supplies the requester off the bus (§4.3).
            let owner = entry.holders.oldest().expect("dirty block has a holder");
            out = RefOutcome::event(EventKind::RmBlkDrty);
            out.ops.push(BusOp::Invalidate); // the write-back request
            out.ops.push(BusOp::WriteBack);
            out.movements.push(DataMovement::WriteBack { cache: owner });
            out.movements.push(DataMovement::FillFromCache {
                cache,
                supplier: owner,
            });
            entry.dirty = false;
            entry.holders.insert(cache);
            just_flushed = Some(owner);
            // Directory knowledge: owner keeps a clean copy, requester joins.
            Self::note_clean_holder(entry, owner, capacity, broadcast);
            Self::note_clean_holder(entry, cache, capacity, broadcast);
        } else {
            // Clean elsewhere (or only in memory): memory supplies; the
            // directory access overlaps the memory access (§4.3).
            out = RefOutcome::event(EventKind::RmBlkCln);
            out.ops.push(BusOp::MemRead);
            out.movements.push(DataMovement::FillFromMemory { cache });
            entry.holders.insert(cache);
            Self::note_clean_holder(entry, cache, capacity, broadcast);
        }

        Self::enforce_capacity(spec, capacity, entry, cache, just_flushed, &mut out);
        out
    }

    /// Enforces the copy limit of `DiriNB` schemes after `keep` joined the
    /// sharers: evicts victims until the holder count fits the pointers.
    ///
    /// `just_flushed` marks a cache whose flush request already carried the
    /// invalidation (a dirty holder asked to write back and invalidate in
    /// one message), so its eviction costs no extra bus operation.
    fn enforce_capacity(
        spec: DirSpec,
        capacity: u32,
        entry: &mut Entry,
        keep: CacheId,
        just_flushed: Option<CacheId>,
        out: &mut RefOutcome,
    ) {
        if !spec.limits_copies() {
            return;
        }
        let capacity = capacity.max(1) as usize;
        while entry.holders.len() > capacity {
            let victim = match spec.eviction() {
                EvictionPolicy::OldestSharer => entry.holders.oldest_other(keep),
                EvictionPolicy::NewestSharer => entry.holders.others(keep).last(),
            }
            .expect("over-capacity set has a non-keep member");
            entry.holders.remove(victim);
            out.movements
                .push(DataMovement::Invalidate { cache: victim });
            if just_flushed != Some(victim) {
                out.ops.push(BusOp::Invalidate);
            }
        }
    }

    fn on_write(&mut self, cache: CacheId, block: BlockAddr) -> RefOutcome {
        let capacity = self.pointer_capacity();
        let spec = self.spec;
        let free_directory = self.free_directory;
        let Some(entry) = self.blocks.get_mut(block) else {
            // Cold write miss: install dirty, excluded from cost.
            let mut entry = Entry::default();
            entry.holders.insert(cache);
            entry.dirty = true;
            Self::reset_to_sole_holder(&mut entry, cache, capacity);
            self.blocks.insert(block, entry);
            let mut out = RefOutcome::event(EventKind::WmFirstRef);
            out.movements.push(DataMovement::FillFromMemory { cache });
            out.movements.push(DataMovement::CacheWrite { cache });
            return out;
        };

        if entry.holders.contains(cache) {
            if entry.dirty {
                // Already dirty in this cache: the write is local (§2,
                // Tang: "the write can proceed immediately").
                let mut out = RefOutcome::event(EventKind::WhBlkDrty);
                out.movements.push(DataMovement::CacheWrite { cache });
                return out;
            }
            // Write hit to a clean block.
            let mut out = RefOutcome::event(EventKind::WhBlkCln);
            // Dir1NB guarantees exclusivity, so the write is free; every
            // other scheme must query the directory before invalidating,
            // and that lookup cannot overlap a memory access (§4.3).
            if !spec.is_single_copy() && !free_directory {
                out.ops.push(BusOp::DirLookup);
            }
            let remote = Self::invalidate_clean_holders(spec, entry, cache, &mut out);
            out.clean_write_fanout = Some(remote as u32);
            out.movements.push(DataMovement::CacheWrite { cache });
            entry.holders.retain_only(cache);
            entry.dirty = true;
            Self::reset_to_sole_holder(entry, cache, capacity);
            return out;
        }

        // Write miss.
        if entry.dirty {
            let owner = entry.holders.oldest().expect("dirty block has a holder");
            let mut out = RefOutcome::event(EventKind::WmBlkDrty);
            // Combined flush-and-invalidate request, then the flush itself;
            // the requester snarfs the data.
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
            Self::reset_to_sole_holder(entry, cache, capacity);
            out
        } else {
            let mut out = RefOutcome::event(EventKind::WmBlkCln);
            out.ops.push(BusOp::MemRead); // directory overlapped with memory
            out.movements.push(DataMovement::FillFromMemory { cache });
            let remote = Self::invalidate_clean_holders(spec, entry, cache, &mut out);
            out.clean_write_fanout = Some(remote as u32);
            out.movements.push(DataMovement::CacheWrite { cache });
            entry.holders.clear();
            entry.holders.insert(cache);
            entry.dirty = true;
            Self::reset_to_sole_holder(entry, cache, capacity);
            out
        }
    }

    /// Canonical [`BlockState`] of one entry. The pointer set is directory
    /// knowledge only for broadcast schemes; NB schemes consult holders
    /// directly and may leave the field stale, so exporting it would split
    /// behaviourally equivalent states.
    fn entry_state(&self, block: BlockAddr, e: &Entry) -> BlockState {
        let broadcast = self.spec.allows_broadcast();
        BlockState {
            block,
            holders: e.holders.iter().collect(),
            dirty: e.dirty,
            pointers: if broadcast {
                e.pointers.iter().collect()
            } else {
                Vec::new()
            },
            broadcast_bit: broadcast && e.broadcast_bit,
            aux: Vec::new(),
        }
    }
}

impl CoherenceProtocol for DirectoryProtocol {
    fn name(&self) -> String {
        if self.free_directory {
            format!("{}-freedir", self.spec)
        } else {
            self.spec.to_string()
        }
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        debug_assert!(
            (cache.index() as u32) < self.caches,
            "cache {cache} out of range for {} caches",
            self.caches
        );
        if write {
            self.on_write(cache, block)
        } else {
            self.on_read(cache, block)
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
            // The sole dirty holder flushes before dropping its copy.
            out.ops.push(BusOp::WriteBack);
            out.movements.push(DataMovement::WriteBack { cache });
            entry.dirty = false;
        }
        entry.holders.remove(cache);
        // Replacement hint: the directory's pointer knowledge stays exact.
        entry.pointers.remove(cache);
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
                .map(|(block, e)| self.entry_state(block, e))
                .collect(),
        )
    }

    fn block_state(&self, block: BlockAddr) -> Option<BlockState> {
        self.blocks.get(block).map(|e| self.entry_state(block, e))
    }

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr::new(42);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    fn read(p: &mut DirectoryProtocol, i: u32) -> RefOutcome {
        p.on_data_ref(c(i), B, false)
    }

    fn write(p: &mut DirectoryProtocol, i: u32) -> RefOutcome {
        p.on_data_ref(c(i), B, true)
    }

    // ---------- cold misses ----------

    #[test]
    fn cold_read_is_first_ref_with_no_ops() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        let out = read(&mut p, 0);
        assert_eq!(out.kind(), EventKind::RmFirstRef);
        assert!(out.ops.is_empty(), "cold misses are excluded from cost");
        assert_eq!(
            out.movements,
            vec![DataMovement::FillFromMemory { cache: c(0) }]
        );
    }

    #[test]
    fn cold_write_is_first_ref_and_dirty() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        let out = write(&mut p, 1);
        assert_eq!(out.kind(), EventKind::WmFirstRef);
        assert!(out.ops.is_empty());
        let probe = p.probe(B).unwrap();
        assert!(probe.dirty);
        assert_eq!(probe.holders, vec![c(1)]);
    }

    // ---------- hits ----------

    #[test]
    fn read_hit_is_free() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        read(&mut p, 0);
        let out = read(&mut p, 0);
        assert_eq!(out.kind(), EventKind::RdHit);
        assert!(out.ops.is_empty());
        assert!(out.movements.is_empty());
    }

    #[test]
    fn dirty_write_hit_is_free() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        write(&mut p, 0);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkDrty);
        assert!(out.ops.is_empty());
    }

    // ---------- Dir0B specifics ----------

    #[test]
    fn dir0b_clean_write_hit_sole_holder_skips_broadcast() {
        // The "block clean in exactly one cache" state (§2).
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        read(&mut p, 0);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.clean_write_fanout, Some(0));
        assert_eq!(out.ops, vec![BusOp::DirLookup]);
    }

    #[test]
    fn dir0b_clean_write_hit_shared_broadcasts() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        read(&mut p, 2);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.clean_write_fanout, Some(2));
        assert_eq!(out.ops, vec![BusOp::DirLookup, BusOp::BroadcastInvalidate]);
        let probe = p.probe(B).unwrap();
        assert_eq!(probe.holders, vec![c(0)]);
        assert!(probe.dirty);
    }

    #[test]
    fn dir0b_read_miss_to_dirty_block_flushes() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        write(&mut p, 0);
        let out = read(&mut p, 1);
        assert_eq!(out.kind(), EventKind::RmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::Invalidate, BusOp::WriteBack]);
        // Previous owner keeps a clean copy; requester snarfs the data.
        let probe = p.probe(B).unwrap();
        assert!(!probe.dirty);
        assert_eq!(probe.holders, vec![c(0), c(1)]);
    }

    #[test]
    fn dir0b_write_miss_to_dirty_block_flushes_and_invalidates() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        write(&mut p, 0);
        let out = write(&mut p, 1);
        assert_eq!(out.kind(), EventKind::WmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::Invalidate, BusOp::WriteBack]);
        let probe = p.probe(B).unwrap();
        assert!(probe.dirty);
        assert_eq!(probe.holders, vec![c(1)]);
    }

    #[test]
    fn dir0b_write_miss_to_clean_shared_block() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        let out = write(&mut p, 2);
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        assert_eq!(out.clean_write_fanout, Some(2));
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::BroadcastInvalidate]);
        let probe = p.probe(B).unwrap();
        assert_eq!(probe.holders, vec![c(2)]);
        assert!(probe.dirty);
    }

    // ---------- Dir1NB specifics ----------

    #[test]
    fn dir1nb_allows_only_one_copy() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_nb(), 4);
        read(&mut p, 0);
        let out = read(&mut p, 1);
        assert_eq!(out.kind(), EventKind::RmBlkCln);
        // Memory supplies, previous holder invalidated.
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::Invalidate]);
        let probe = p.probe(B).unwrap();
        assert_eq!(probe.holders, vec![c(1)]);
    }

    #[test]
    fn dir1nb_dirty_read_miss_flush_covers_invalidation() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_nb(), 4);
        write(&mut p, 0);
        let out = read(&mut p, 1);
        assert_eq!(out.kind(), EventKind::RmBlkDrty);
        // One request + write-back; the flushed holder's eviction costs no
        // extra bus op because the request already carried it.
        assert_eq!(out.ops, vec![BusOp::Invalidate, BusOp::WriteBack]);
        assert!(out
            .movements
            .contains(&DataMovement::Invalidate { cache: c(0) }));
        let probe = p.probe(B).unwrap();
        assert_eq!(probe.holders, vec![c(1)]);
        assert!(!probe.dirty);
    }

    #[test]
    fn dir1nb_clean_write_hit_is_totally_free() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_nb(), 4);
        read(&mut p, 0);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert!(out.ops.is_empty(), "Dir1NB guarantees exclusivity");
        assert_eq!(out.clean_write_fanout, Some(0));
    }

    // ---------- DirnNB (full map, sequential invalidation) ----------

    #[test]
    fn dirn_nb_sequentially_invalidates_all_sharers() {
        let mut p = DirectoryProtocol::new(DirSpec::dir_n_nb(), 8);
        for i in 0..5 {
            read(&mut p, i);
        }
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.clean_write_fanout, Some(4));
        let invs = out.ops.iter().filter(|&&o| o == BusOp::Invalidate).count();
        assert_eq!(invs, 4, "one directed invalidate per remote sharer");
        assert!(!out.ops.contains(&BusOp::BroadcastInvalidate));
        assert!(out.ops.contains(&BusOp::DirLookup));
    }

    #[test]
    fn dirn_nb_never_limits_copies() {
        let mut p = DirectoryProtocol::new(DirSpec::dir_n_nb(), 8);
        for i in 0..8 {
            read(&mut p, i);
        }
        assert_eq!(p.probe(B).unwrap().holders.len(), 8);
    }

    // ---------- Dir1B (one pointer + broadcast bit, §6) ----------

    #[test]
    fn dir1b_single_sharer_uses_directed_invalidate() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        read(&mut p, 0);
        let out = write(&mut p, 1); // write miss; one remote clean holder
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::Invalidate]);
    }

    #[test]
    fn dir1b_overflow_sets_broadcast_bit() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        read(&mut p, 0);
        read(&mut p, 1); // second sharer overflows the single pointer
        let out = write(&mut p, 2);
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::BroadcastInvalidate]);
    }

    #[test]
    fn dir1b_pointer_resets_after_write() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        write(&mut p, 2); // broadcast; now dirty in 2 with pointer reset
        read(&mut p, 3); // flush; holders {2, 3}; pointer had {2}, add 3 → overflow
        let out = write(&mut p, 2);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        // Pointer knowledge overflowed again (two clean holders, one slot).
        assert!(out.ops.contains(&BusOp::BroadcastInvalidate));
    }

    #[test]
    fn dir2b_exactly_i_pointers_stays_directed() {
        // The boundary below overflow: with exactly i = 2 sharers the
        // directory knowledge is exact, so invalidation is directed.
        let mut p = DirectoryProtocol::new(DirSpec::dir_i_b(2), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        let state = p.block_state(B).unwrap();
        assert_eq!(state.pointers, vec![c(0), c(1)]);
        assert!(!state.broadcast_bit);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(
            out.ops.iter().filter(|&&o| o == BusOp::Invalidate).count(),
            1,
            "one directed invalidate for the one known remote sharer"
        );
        assert!(!out.ops.contains(&BusOp::BroadcastInvalidate));
    }

    #[test]
    fn dir2b_one_sharer_past_i_trips_broadcast() {
        // The boundary itself: the (i+1)-th sharer overflows the pointers,
        // and the next write must fall back to a broadcast that reaches
        // *every* sharer — including the one the directory forgot.
        let mut p = DirectoryProtocol::new(DirSpec::dir_i_b(2), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        read(&mut p, 2); // one more than i
        let state = p.block_state(B).unwrap();
        assert!(state.broadcast_bit, "pointer overflow must set the bit");
        assert_eq!(state.pointers, vec![c(0), c(1)], "slots keep the first i");
        assert_eq!(state.holders.len(), 3);

        let out = write(&mut p, 3);
        assert!(out.ops.contains(&BusOp::BroadcastInvalidate));
        let invalidated = out
            .movements
            .iter()
            .filter(|m| matches!(m, DataMovement::Invalidate { .. }))
            .count();
        assert_eq!(invalidated, 3, "broadcast reaches every sharer");
        let after = p.block_state(B).unwrap();
        assert_eq!(after.holders, vec![c(3)]);
        assert!(after.dirty);
        assert_eq!(after.pointers, vec![c(3)], "knowledge reset to the writer");
        assert!(!after.broadcast_bit);
    }

    // ---------- DiriNB (limited copies) ----------

    #[test]
    fn dir2nb_eviction_path_keeps_directory_exact() {
        // NB schemes never broadcast, so the directory must track holders
        // exactly through the eviction: the snapshot exports no stale
        // pointer knowledge and the evictee is truly gone.
        let mut p = DirectoryProtocol::new(DirSpec::dir_i_nb(2).unwrap(), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        let at_capacity = p.block_state(B).unwrap();
        assert_eq!(at_capacity.holders, vec![c(0), c(1)], "no premature evict");

        let out = read(&mut p, 2);
        assert!(out
            .movements
            .contains(&DataMovement::Invalidate { cache: c(0) }));
        let state = p.block_state(B).unwrap();
        assert_eq!(state.holders, vec![c(1), c(2)]);
        assert!(!state.dirty);
        assert!(state.pointers.is_empty(), "holders are the NB knowledge");
        assert!(!state.broadcast_bit);
    }

    #[test]
    fn dir2nb_evicts_oldest_sharer_on_third_copy() {
        let mut p = DirectoryProtocol::new(DirSpec::dir_i_nb(2).unwrap(), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        let out = read(&mut p, 2);
        assert_eq!(out.kind(), EventKind::RmBlkCln);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::Invalidate]);
        let probe = p.probe(B).unwrap();
        assert_eq!(probe.holders, vec![c(1), c(2)], "oldest (cache 0) evicted");
    }

    #[test]
    fn dir2nb_newest_policy_evicts_most_recent() {
        let spec = DirSpec::dir_i_nb(2)
            .unwrap()
            .with_eviction(EvictionPolicy::NewestSharer);
        let mut p = DirectoryProtocol::new(spec, 4);
        read(&mut p, 0);
        read(&mut p, 1);
        read(&mut p, 2);
        let probe = p.probe(B).unwrap();
        assert_eq!(probe.holders, vec![c(0), c(2)], "newest other (1) evicted");
    }

    #[test]
    fn dir2nb_clean_write_hit_invalidates_sequentially() {
        let mut p = DirectoryProtocol::new(DirSpec::dir_i_nb(2).unwrap(), 4);
        read(&mut p, 0);
        read(&mut p, 1);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.ops, vec![BusOp::DirLookup, BusOp::Invalidate]);
    }

    // ---------- invariants ----------

    #[test]
    fn dirty_implies_sole_holder_always() {
        let specs = [
            DirSpec::dir0_b(),
            DirSpec::dir1_nb(),
            DirSpec::dir1_b(),
            DirSpec::dir_n_nb(),
            DirSpec::dir_i_nb(2).unwrap(),
            DirSpec::dir_i_b(2),
        ];
        for spec in specs {
            let mut p = DirectoryProtocol::new(spec, 4);
            // Pseudo-random access pattern over a few blocks.
            let mut x: u64 = 12345;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let cache = c((x >> 33) as u32 % 4);
                let block = BlockAddr::new((x >> 16) % 8);
                let write = x % 3 == 0;
                p.on_data_ref(cache, block, write);
                if let Some(probe) = p.probe(block) {
                    if probe.dirty {
                        assert_eq!(probe.holders.len(), 1, "{spec}: dirty ⇒ one holder");
                    }
                    assert!(!probe.holders.is_empty(), "{spec}: known block has holders");
                }
            }
        }
    }

    #[test]
    fn nb_limited_never_exceeds_capacity_and_never_broadcasts() {
        for i in 1..=3u32 {
            let mut p = DirectoryProtocol::new(DirSpec::dir_i_nb(i).unwrap(), 6);
            let mut x: u64 = 999;
            for _ in 0..3000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let cache = c((x >> 33) as u32 % 6);
                let block = BlockAddr::new((x >> 13) % 5);
                let write = x % 4 == 0;
                let out = p.on_data_ref(cache, block, write);
                assert!(
                    !out.ops.contains(&BusOp::BroadcastInvalidate),
                    "Dir{i}NB must never broadcast"
                );
                let probe = p.probe(block).unwrap();
                assert!(
                    probe.holders.len() <= i as usize,
                    "Dir{i}NB exceeded its copy limit: {:?}",
                    probe.holders
                );
            }
        }
    }

    // ---------- B-scheme pointer bookkeeping edge cases ----------

    #[test]
    fn dir1b_dirty_read_miss_tracks_both_holders_knowledge() {
        // After a flush the old owner stays a holder; with one pointer the
        // directory can only remember one of the two — the next clean-write
        // invalidation must therefore broadcast.
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        write(&mut p, 0); // dirty in 0, pointer {0}
        read(&mut p, 1); // flush; holders {0,1}, pointer overflows
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert!(
            out.ops.contains(&BusOp::BroadcastInvalidate),
            "one pointer cannot name both clean holders: {:?}",
            out.ops
        );
    }

    #[test]
    fn dir2b_dirty_read_miss_stays_exact() {
        // Two pointers cover both holders after a flush: invalidation stays
        // directed.
        let mut p = DirectoryProtocol::new(DirSpec::dir_i_b(2), 4);
        write(&mut p, 0);
        read(&mut p, 1);
        let out = write(&mut p, 0);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        assert_eq!(out.ops, vec![BusOp::DirLookup, BusOp::Invalidate]);
    }

    #[test]
    fn broadcast_bit_clears_after_any_write() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        for i in 0..3 {
            read(&mut p, i);
        }
        // Overflowed: the write broadcasts...
        let out = write(&mut p, 0);
        assert!(out.ops.contains(&BusOp::BroadcastInvalidate));
        // ...and resets the pointer to the writer, so the very next remote
        // write miss is directed again.
        let out = write(&mut p, 1);
        assert_eq!(out.kind(), EventKind::WmBlkDrty);
        assert_eq!(out.ops, vec![BusOp::Invalidate, BusOp::WriteBack]);
        read(&mut p, 2); // holders {1, 2}: pointer {1} + overflow on 2
        let out = write(&mut p, 1);
        assert!(out.ops.contains(&BusOp::BroadcastInvalidate));
    }

    #[test]
    fn eviction_keeps_pointer_knowledge_exact() {
        // A replacement hint removes the cache from both holders and
        // pointers, so a Dir1B slot frees up for the next sharer.
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        read(&mut p, 0); // pointer {0}
        p.evict(c(0), B);
        read(&mut p, 1); // slot free again: pointer {1}, no broadcast bit
        let out = write(&mut p, 2);
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        assert_eq!(
            out.ops,
            vec![BusOp::MemRead, BusOp::Invalidate],
            "directed invalidate proves the pointer stayed exact"
        );
    }

    #[test]
    fn rereading_same_cache_does_not_consume_pointer_slots() {
        let mut p = DirectoryProtocol::new(DirSpec::dir1_b(), 4);
        read(&mut p, 0);
        // Hits by the same cache must not overflow the single pointer.
        for _ in 0..5 {
            read(&mut p, 0);
        }
        let out = write(&mut p, 1);
        assert_eq!(out.ops, vec![BusOp::MemRead, BusOp::Invalidate]);
    }

    #[test]
    fn dirn_b_is_equivalent_to_dirn_nb() {
        // With a full pointer set the broadcast bit can never be set, so
        // DirnB degenerates to DirnNB operation for operation.
        let spec_b = DirSpec::new(PointerCapacity::Full, true).unwrap();
        let mut a = DirectoryProtocol::new(spec_b, 4);
        let mut b = DirectoryProtocol::new(DirSpec::dir_n_nb(), 4);
        let mut x: u64 = 77;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cache = c((x >> 33) as u32 % 4);
            let block = BlockAddr::new((x >> 13) % 8);
            let write = x % 3 == 0;
            let oa = a.on_data_ref(cache, block, write);
            let ob = b.on_data_ref(cache, block, write);
            assert_eq!(oa.kind(), ob.kind());
            assert_eq!(oa.ops, ob.ops);
        }
    }

    #[test]
    fn name_reflects_spec() {
        assert_eq!(DirectoryProtocol::new(DirSpec::dir0_b(), 4).name(), "Dir0B");
        assert_eq!(
            DirectoryProtocol::new(DirSpec::dir_n_nb(), 4).name(),
            "DirnNB"
        );
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn zero_caches_rejected() {
        let _ = DirectoryProtocol::new(DirSpec::dir0_b(), 0);
    }

    #[test]
    fn tracked_blocks_counts_distinct() {
        let mut p = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        p.on_data_ref(c(0), BlockAddr::new(1), false);
        p.on_data_ref(c(0), BlockAddr::new(2), true);
        p.on_data_ref(c(1), BlockAddr::new(1), false);
        assert_eq!(p.tracked_blocks(), 2);
    }
}
