//! The §6 coarse-vector sharer code and its limited-broadcast protocol.
//!
//! To cut directory storage below a full bit map, §6 proposes storing "a
//! word with `d` digits where each digit takes on one of three values: 0, 1
//! and *both*". With no *both* digits the word names exactly one cache;
//! each *both* digit doubles the denoted set. The word always denotes a
//! **superset** of the caches holding the block, using `2·log₂(n)` bits for
//! `n` caches. Invalidations become a *limited broadcast*: directed messages
//! to every cache in the superset.

use std::fmt;

use dirsim_mem::{BlockAddr, BlockTable, CacheId};

use crate::api::{BlockProbe, BlockState, CacheSymmetry, CoherenceProtocol, StateSnapshot};
use crate::event::EventKind;
use crate::ops::{BusOp, DataMovement, RefOutcome};
use crate::sharer_set::SharerSet;

/// The ternary-digit code of §6: a superset-of-sharers representation in
/// `2·d` bits (`d = ⌈log₂ n⌉` digits).
///
/// # Examples
///
/// ```
/// use dirsim_protocol::directory::CoarseCode;
///
/// let mut code = CoarseCode::new(4); // 4 caches → 2 digits
/// code.insert(0b01);
/// assert_eq!(code.superset_size(), 1);
/// code.insert(0b11); // differs in digit 1 → that digit becomes `both`
/// assert_eq!(code.superset_size(), 2);
/// assert!(code.denotes(0b01) && code.denotes(0b11));
/// assert!(!code.denotes(0b00));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseCode {
    /// Digit values where not `both`.
    fixed_bits: u64,
    /// Digits coded `both`.
    both_mask: u64,
    /// Number of digits (`⌈log₂ n⌉`).
    digits: u32,
    /// Whether any index has been inserted.
    empty: bool,
}

impl CoarseCode {
    /// Creates an empty code for a system of `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "need at least one cache");
        let digits = if caches <= 1 {
            1
        } else {
            32 - (caches - 1).leading_zeros()
        };
        CoarseCode {
            fixed_bits: 0,
            both_mask: 0,
            digits,
            empty: true,
        }
    }

    /// Storage cost in bits: two bits per digit (§6).
    pub fn storage_bits(&self) -> u32 {
        2 * self.digits
    }

    /// Number of digits.
    pub fn digits(&self) -> u32 {
        self.digits
    }

    /// Adds a cache index to the denoted set, widening digits to `both`
    /// where it disagrees with the current fixed bits.
    pub fn insert(&mut self, index: u64) {
        if self.empty {
            self.fixed_bits = index;
            self.both_mask = 0;
            self.empty = false;
            return;
        }
        let disagree = (self.fixed_bits ^ index) & !self.both_mask;
        self.both_mask |= disagree;
        self.fixed_bits &= !self.both_mask;
    }

    /// Resets to the empty code.
    pub fn clear(&mut self) {
        self.empty = true;
        self.fixed_bits = 0;
        self.both_mask = 0;
    }

    /// Resets to denote exactly one cache.
    pub fn reset_to(&mut self, index: u64) {
        self.fixed_bits = index;
        self.both_mask = 0;
        self.empty = false;
    }

    /// Whether the code's superset contains the cache index.
    pub fn denotes(&self, index: u64) -> bool {
        if self.empty {
            return false;
        }
        ((index ^ self.fixed_bits) & !self.both_mask & self.digit_mask()) == 0
    }

    /// Size of the denoted superset (over the full digit space).
    pub fn superset_size(&self) -> u64 {
        if self.empty {
            0
        } else {
            1u64 << self.both_mask.count_ones()
        }
    }

    /// Number of denoted cache indices below `caches`: the length of
    /// [`Self::members`], counted without building it.
    pub fn member_count(&self, caches: u32) -> u64 {
        if self.empty {
            return 0;
        }
        // Members are `fixed_bits + s` for each subset `s` of the `both`
        // digits, and `s = (s - both) & both` walks those subsets in
        // increasing order, so the count stops at the first member past
        // the system.
        let both = self.both_mask & self.digit_mask();
        let mut subset = 0u64;
        let mut count = 0;
        while self.fixed_bits | subset < u64::from(caches) {
            count += 1;
            if subset == both {
                break;
            }
            subset = subset.wrapping_sub(both) & both;
        }
        count
    }

    /// Mask of the code's digit positions.
    fn digit_mask(&self) -> u64 {
        if self.digits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.digits) - 1
        }
    }

    /// Enumerates the denoted cache indices that are below `caches`.
    pub fn members(&self, caches: u32) -> Vec<u64> {
        if self.empty {
            return Vec::new();
        }
        // Enumerate all assignments of the `both` digits.
        let both_positions: Vec<u32> = (0..self.digits)
            .filter(|&d| self.both_mask & (1 << d) != 0)
            .collect();
        let mut out = Vec::with_capacity(1 << both_positions.len());
        for combo in 0u64..(1u64 << both_positions.len()) {
            let mut idx = self.fixed_bits;
            for (bit, &pos) in both_positions.iter().enumerate() {
                if combo & (1 << bit) != 0 {
                    idx |= 1 << pos;
                }
            }
            if idx < u64::from(caches) {
                out.push(idx);
            }
        }
        out.sort_unstable();
        out
    }
}

impl fmt::Display for CoarseCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return f.write_str("∅");
        }
        for d in (0..self.digits).rev() {
            let ch = if self.both_mask & (1 << d) != 0 {
                '*'
            } else if self.fixed_bits & (1 << d) != 0 {
                '1'
            } else {
                '0'
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Entry {
    holders: SharerSet,
    dirty: bool,
    code: CoarseCode,
}

/// Directory protocol whose per-block sharer knowledge is a [`CoarseCode`]:
/// invalidations are directed to every cache in the coded superset (§6's
/// "limited broadcast").
///
/// The state-change model is identical to the broadcast directory schemes
/// (multiple clean copies, one dirty copy), so its event frequencies match
/// `Dir0B`; only the invalidation traffic differs.
#[derive(Debug, Clone)]
pub struct CoarseVectorProtocol {
    caches: u32,
    blocks: BlockTable<Entry>,
}

impl CoarseVectorProtocol {
    /// Creates the protocol for `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        assert!(caches > 0, "a coherence system needs at least one cache");
        CoarseVectorProtocol {
            caches,
            blocks: BlockTable::new(),
        }
    }

    /// Directory storage per block in bits (`2·log₂ n`).
    pub fn storage_bits(&self) -> u32 {
        CoarseCode::new(self.caches).storage_bits()
    }

    fn new_entry(&self, cache: CacheId, dirty: bool) -> Entry {
        let mut code = CoarseCode::new(self.caches);
        code.reset_to(cache.index() as u64);
        let mut holders = SharerSet::new();
        holders.insert(cache);
        Entry {
            holders,
            dirty,
            code,
        }
    }

    /// Directed invalidates to every *other* cache in the coded superset,
    /// and the invalidation of every other holder; returns the number of
    /// other holders.
    fn invalidate_coded_superset(
        caches: u32,
        entry: &Entry,
        writer: CacheId,
        out: &mut RefOutcome,
    ) -> usize {
        let targets =
            entry.code.member_count(caches) - u64::from(entry.code.denotes(writer.index() as u64));
        out.ops
            .extend(std::iter::repeat(BusOp::Invalidate).take(targets as usize));
        for victim in entry.holders.others(writer) {
            out.movements
                .push(DataMovement::Invalidate { cache: victim });
        }
        entry.holders.count_others(writer)
    }

    /// Canonical [`BlockState`] of one entry; the coarse code words ride
    /// in `aux` so states differing only in coding stay distinct.
    fn entry_state(block: BlockAddr, e: &Entry) -> BlockState {
        BlockState {
            block,
            holders: e.holders.iter().collect(),
            dirty: e.dirty,
            pointers: Vec::new(),
            broadcast_bit: false,
            aux: vec![e.code.fixed_bits, e.code.both_mask, u64::from(e.code.empty)],
        }
    }
}

impl CoherenceProtocol for CoarseVectorProtocol {
    fn name(&self) -> String {
        "CoarseVector".to_string()
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        let caches = self.caches;
        let Some(entry) = self.blocks.get_mut(block) else {
            let entry = self.new_entry(cache, write);
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
        match (write, holds, entry.dirty) {
            (false, true, _) => RefOutcome::event(EventKind::RdHit),
            (false, false, true) => {
                let owner = entry.holders.oldest().expect("dirty block has a holder");
                let mut out = RefOutcome::event(EventKind::RmBlkDrty);
                out.ops.push(BusOp::Invalidate);
                out.ops.push(BusOp::WriteBack);
                out.movements.push(DataMovement::WriteBack { cache: owner });
                out.movements.push(DataMovement::FillFromCache {
                    cache,
                    supplier: owner,
                });
                entry.dirty = false;
                entry.holders.insert(cache);
                entry.code.insert(cache.index() as u64);
                out
            }
            (false, false, false) => {
                let mut out = RefOutcome::event(EventKind::RmBlkCln);
                out.ops.push(BusOp::MemRead);
                out.movements.push(DataMovement::FillFromMemory { cache });
                entry.holders.insert(cache);
                entry.code.insert(cache.index() as u64);
                out
            }
            (true, true, true) => {
                let mut out = RefOutcome::event(EventKind::WhBlkDrty);
                out.movements.push(DataMovement::CacheWrite { cache });
                out
            }
            (true, true, false) => {
                let mut out = RefOutcome::event(EventKind::WhBlkCln);
                out.ops.push(BusOp::DirLookup);
                let remote = Self::invalidate_coded_superset(caches, entry, cache, &mut out);
                out.clean_write_fanout = Some(remote as u32);
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.retain_only(cache);
                entry.dirty = true;
                entry.code.reset_to(cache.index() as u64);
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
                entry.code.reset_to(cache.index() as u64);
                out
            }
            (true, false, false) => {
                let mut out = RefOutcome::event(EventKind::WmBlkCln);
                out.ops.push(BusOp::MemRead);
                out.movements.push(DataMovement::FillFromMemory { cache });
                let remote = Self::invalidate_coded_superset(caches, entry, cache, &mut out);
                out.clean_write_fanout = Some(remote as u32);
                out.movements.push(DataMovement::CacheWrite { cache });
                entry.holders.clear();
                entry.holders.insert(cache);
                entry.dirty = true;
                entry.code.reset_to(cache.index() as u64);
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
        // The coarse code cannot remove members; it stays a (now larger)
        // superset, which is safe — superset invalidation is the scheme's
        // defining property.
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

    fn cache_symmetry(&self) -> CacheSymmetry {
        // The code word stores the *binary representation* of cache
        // indices; a `both` digit denotes {x, x ^ bit}. Renaming caches
        // arbitrarily does not commute with that coding, so only
        // bit-permutation/complement renamings are symmetries.
        CacheSymmetry::Asymmetric
    }

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr::new(9);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn code_single_member() {
        let mut code = CoarseCode::new(8);
        code.insert(5);
        assert_eq!(code.superset_size(), 1);
        assert_eq!(code.members(8), vec![5]);
        assert_eq!(code.to_string(), "101");
    }

    #[test]
    fn code_widens_on_disagreement() {
        let mut code = CoarseCode::new(8);
        code.insert(0b000);
        code.insert(0b011);
        // Digits 0 and 1 disagree → both; superset is {000,001,010,011}.
        assert_eq!(code.superset_size(), 4);
        assert_eq!(code.members(8), vec![0, 1, 2, 3]);
        assert_eq!(code.to_string(), "0**");
    }

    #[test]
    fn code_superset_always_contains_inserted() {
        let mut code = CoarseCode::new(16);
        for idx in [3u64, 9, 12, 1] {
            code.insert(idx);
            assert!(code.denotes(idx));
        }
        for idx in [3u64, 9, 12, 1] {
            assert!(code.denotes(idx), "{idx} must stay denoted");
        }
    }

    #[test]
    fn code_storage_is_two_log_n() {
        assert_eq!(CoarseCode::new(4).storage_bits(), 4);
        assert_eq!(CoarseCode::new(16).storage_bits(), 8);
        assert_eq!(CoarseCode::new(64).storage_bits(), 12);
        // Non-power-of-two rounds up.
        assert_eq!(CoarseCode::new(5).storage_bits(), 6);
    }

    #[test]
    fn code_members_respects_cache_count() {
        let mut code = CoarseCode::new(5); // 3 digits, indices 0..5
        code.insert(0);
        code.insert(4);
        // both on digit 2 → superset {0, 4}; both below 5.
        assert_eq!(code.members(5), vec![0, 4]);
        code.insert(3);
        // all digits both → superset is everything < 5.
        assert_eq!(code.members(5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn code_clear_and_reset() {
        let mut code = CoarseCode::new(4);
        code.insert(2);
        code.insert(1);
        code.clear();
        assert_eq!(code.superset_size(), 0);
        assert_eq!(code.to_string(), "∅");
        code.reset_to(3);
        assert_eq!(code.members(4), vec![3]);
    }

    #[test]
    fn protocol_invalidates_superset_not_just_holders() {
        let mut p = CoarseVectorProtocol::new(8);
        p.on_data_ref(c(0), B, false);
        p.on_data_ref(c(3), B, false);
        // Code for {0,3} = digits 0,1 both → superset {0,1,2,3}.
        let out = p.on_data_ref(c(0), B, true);
        assert_eq!(out.kind(), EventKind::WhBlkCln);
        // Directed invalidates to superset minus the writer: {1,2,3} → 3.
        let invs = out.ops.iter().filter(|&&o| o == BusOp::Invalidate).count();
        assert_eq!(invs, 3);
        // But only the actual holder (3) semantically loses a copy.
        let inv_movements: Vec<_> = out
            .movements
            .iter()
            .filter(|m| matches!(m, DataMovement::Invalidate { .. }))
            .collect();
        assert_eq!(inv_movements.len(), 1);
    }

    #[test]
    fn protocol_exact_code_costs_one_invalidate() {
        let mut p = CoarseVectorProtocol::new(8);
        p.on_data_ref(c(2), B, false);
        let out = p.on_data_ref(c(6), B, true); // write miss, one clean holder
        assert_eq!(out.kind(), EventKind::WmBlkCln);
        let invs = out.ops.iter().filter(|&&o| o == BusOp::Invalidate).count();
        assert_eq!(invs, 1, "exact single-member code is a directed message");
    }

    #[test]
    fn protocol_matches_dir0b_events() {
        use crate::directory::{DirSpec, DirectoryProtocol};
        let mut coarse = CoarseVectorProtocol::new(4);
        let mut dir0b = DirectoryProtocol::new(DirSpec::dir0_b(), 4);
        let mut x: u64 = 7;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cache = c((x >> 33) as u32 % 4);
            let block = BlockAddr::new((x >> 13) % 6);
            let write = x % 3 == 0;
            let a = coarse.on_data_ref(cache, block, write);
            let b = dir0b.on_data_ref(cache, block, write);
            assert_eq!(a.kind(), b.kind(), "same state-change model");
        }
    }

    #[test]
    fn protocol_storage_bits() {
        assert_eq!(CoarseVectorProtocol::new(64).storage_bits(), 12);
    }

    #[test]
    fn protocol_name() {
        assert_eq!(CoarseVectorProtocol::new(4).name(), "CoarseVector");
    }
}
