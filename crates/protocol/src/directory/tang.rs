//! Tang's duplicate-tag directory organisation (§2).
//!
//! Tang's scheme keeps a copy of every cache's tag store at memory. The
//! *protocol* is the same full-map multiple-readers/single-writer policy as
//! Censier–Feautrier (`DirnNB`); what differs is the directory
//! **organisation**: "to find out which caches contain a block, Tang's
//! scheme must search each of these duplicate directories", whereas the
//! Censier–Feautrier bit map "allows this information to be accessed
//! directly using the address".
//!
//! [`Tang`] models that first-order cost: every unoverlapped directory
//! access becomes one lookup *per duplicate directory* (i.e. per cache).
//! Comparing `Tang` against `DirnNB` in the harness isolates exactly the
//! organisational win the paper credits to Censier & Feautrier.

use dirsim_mem::{BlockAddr, CacheId};

use crate::api::{BlockProbe, BlockState, CoherenceProtocol, StateSnapshot};
use crate::directory::{DirSpec, DirectoryProtocol};
use crate::ops::{BusOp, RefOutcome};

/// Tang's duplicate-tag organisation of the full-map directory.
///
/// # Examples
///
/// ```
/// use dirsim_protocol::directory::Tang;
/// use dirsim_protocol::api::CoherenceProtocol;
/// use dirsim_protocol::ops::BusOp;
/// use dirsim_mem::{BlockAddr, CacheId};
///
/// let mut tang = Tang::new(4);
/// let b = BlockAddr::new(0);
/// tang.on_data_ref(CacheId::new(0), b, false);
/// let w = tang.on_data_ref(CacheId::new(0), b, true); // clean write hit
/// // One search per duplicate cache directory:
/// assert_eq!(w.ops.iter().filter(|&&o| o == BusOp::DirLookup).count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Tang {
    inner: DirectoryProtocol,
    caches: u32,
}

impl Tang {
    /// Creates the protocol for `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn new(caches: u32) -> Self {
        Tang {
            inner: DirectoryProtocol::new(DirSpec::dir_n_nb(), caches),
            caches,
        }
    }
}

impl CoherenceProtocol for Tang {
    fn name(&self) -> String {
        "Tang".to_string()
    }

    fn cache_count(&self) -> u32 {
        self.caches
    }

    fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
        let mut out = self.inner.on_data_ref(cache, block, write);
        // Expand each unoverlapped directory access into a search of every
        // duplicate cache directory.
        if out.ops.contains(&BusOp::DirLookup) {
            for op in std::mem::take(&mut out.ops).iter().copied() {
                let n = if op == BusOp::DirLookup {
                    self.caches as usize
                } else {
                    1
                };
                out.ops.extend(std::iter::repeat(op).take(n));
            }
        }
        out
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> RefOutcome {
        self.inner.evict(cache, block)
    }

    fn probe(&self, block: BlockAddr) -> Option<BlockProbe> {
        self.inner.probe(block)
    }

    fn tracked_blocks(&self) -> usize {
        self.inner.tracked_blocks()
    }

    fn snapshot(&self) -> StateSnapshot {
        self.inner.snapshot()
    }

    fn block_state(&self, block: BlockAddr) -> Option<BlockState> {
        self.inner.block_state(block)
    }

    fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    const B: BlockAddr = BlockAddr::new(2);

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn events_match_dirn_nb() {
        let mut tang = Tang::new(4);
        let mut dirn = DirectoryProtocol::new(DirSpec::dir_n_nb(), 4);
        let mut x: u64 = 31;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cache = c((x >> 33) as u32 % 4);
            let block = BlockAddr::new((x >> 13) % 8);
            let write = x % 3 == 0;
            let a = tang.on_data_ref(cache, block, write);
            let b = dirn.on_data_ref(cache, block, write);
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.movements, b.movements);
        }
    }

    #[test]
    fn directory_searches_scale_with_cache_count() {
        for n in [2u32, 4, 8] {
            let mut tang = Tang::new(n);
            tang.on_data_ref(c(0), B, false);
            tang.on_data_ref(c(1), B, false);
            let out = tang.on_data_ref(c(0), B, true); // clean write hit
            assert_eq!(out.kind(), EventKind::WhBlkCln);
            let lookups = out.ops.iter().filter(|&&o| o == BusOp::DirLookup).count();
            assert_eq!(lookups, n as usize);
        }
    }

    #[test]
    fn non_directory_ops_are_untouched() {
        let mut tang = Tang::new(4);
        tang.on_data_ref(c(0), B, true); // cold write
        let out = tang.on_data_ref(c(1), B, false); // dirty read miss
        assert_eq!(out.ops, vec![BusOp::Invalidate, BusOp::WriteBack]);
    }

    #[test]
    fn name_is_tang() {
        assert_eq!(Tang::new(4).name(), "Tang");
    }
}
