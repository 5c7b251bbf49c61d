//! Property tests for the memory substrate: model-based LRU checking for
//! the finite cache, model-based checking of the per-block state table,
//! and adversarial probing of the coherence oracle.

use std::collections::HashMap;

use proptest::prelude::*;

use dirsim_mem::{
    BlockAddr, BlockTable, CacheGeometry, CacheId, CacheStorage, FiniteCache, FxHashMap,
    InfiniteCache, OracleViolation, ShadowMemory,
};

/// A reference model of an LRU set-associative cache.
#[derive(Debug, Default)]
struct ModelCache {
    /// set index -> (block -> last-touch tick)
    sets: HashMap<u64, HashMap<u64, u64>>,
    tick: u64,
}

impl ModelCache {
    fn set_of(&self, geometry: CacheGeometry, block: u64) -> u64 {
        block & u64::from(geometry.sets - 1)
    }

    fn touch(&mut self, geometry: CacheGeometry, block: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(geometry, block);
        if let Some(slot) = self.sets.entry(set).or_default().get_mut(&block) {
            *slot = self.tick;
            true
        } else {
            false
        }
    }

    fn insert(&mut self, geometry: CacheGeometry, block: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(geometry, block);
        let set = self.sets.entry(set_idx).or_default();
        if let std::collections::hash_map::Entry::Occupied(mut e) = set.entry(block) {
            e.insert(tick);
            return None;
        }
        let mut victim = None;
        if set.len() >= geometry.ways as usize {
            let (&lru, _) = set
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .expect("full set is non-empty");
            set.remove(&lru);
            victim = Some(lru);
        }
        set.insert(block, tick);
        victim
    }

    fn remove(&mut self, geometry: CacheGeometry, block: u64) -> bool {
        let set = self.set_of(geometry, block);
        self.sets
            .get_mut(&set)
            .is_some_and(|s| s.remove(&block).is_some())
    }

    fn len(&self) -> usize {
        self.sets.values().map(HashMap::len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Touch(u64),
    Insert(u64),
    Remove(u64),
}

fn cache_ops(blocks: u64, len: usize) -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        (0..3u8, 0..blocks).prop_map(|(kind, b)| match kind {
            0 => CacheOp::Touch(b),
            1 => CacheOp::Insert(b),
            _ => CacheOp::Remove(b),
        }),
        1..len,
    )
}

/// The block keys a [`BlockTable`] property case touches, one per
/// `raw` draw from a 48-key pool, under one of five key patterns:
/// first-touch numbers from 0 (a lane bank's), the same from `start`,
/// the pool ids in draw order, sparse 64-bit keys, and first-touch
/// numbers whose first key is `j`, which the table hashes before the
/// dense half grows to it.
fn table_keys(pattern: u8, raw: &[u64], start: u64, sparse: &[u64]) -> Vec<u64> {
    let mut first_touch: HashMap<u64, u64> = HashMap::new();
    let j = start % 8 + 1;
    raw.iter()
        .map(|&r| {
            let next = first_touch.len() as u64;
            let n = *first_touch.entry(r).or_insert(next);
            match pattern {
                0 => n,
                1 => n + start,
                2 => r,
                3 => sparse[r as usize],
                _ if n == 0 => j,
                _ if n <= j => n - 1,
                _ => n,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The finite cache agrees with a straightforward LRU model on every
    /// operation outcome.
    #[test]
    fn finite_cache_matches_lru_model(
        ops in cache_ops(64, 300),
        sets_log in 0u32..4,
        ways in 1u32..5,
    ) {
        let geometry = CacheGeometry { sets: 1 << sets_log, ways };
        let mut real: FiniteCache<u64> = FiniteCache::new(geometry).unwrap();
        let mut model = ModelCache::default();
        for op in ops {
            match op {
                CacheOp::Touch(b) => {
                    let got = real.touch(BlockAddr::new(b)).is_some();
                    let want = model.touch(geometry, b);
                    prop_assert_eq!(got, want, "touch({})", b);
                }
                CacheOp::Insert(b) => {
                    let got = real.insert(BlockAddr::new(b), b).map(|(v, _)| v.raw());
                    let want = model.insert(geometry, b);
                    prop_assert_eq!(got, want, "insert({})", b);
                }
                CacheOp::Remove(b) => {
                    let got = real.remove(BlockAddr::new(b)).is_some();
                    let want = model.remove(geometry, b);
                    prop_assert_eq!(got, want, "remove({})", b);
                }
            }
            prop_assert_eq!(real.len(), model.len());
            prop_assert!(real.len() <= real.capacity());
        }
    }

    /// The infinite cache is a plain map: everything inserted stays.
    #[test]
    fn infinite_cache_retains_everything(blocks in prop::collection::vec(0u64..1000, 1..200)) {
        let mut c = InfiniteCache::new();
        for &b in &blocks {
            prop_assert!(c.insert(BlockAddr::new(b), b).is_none());
        }
        for &b in &blocks {
            prop_assert_eq!(c.peek(BlockAddr::new(b)), Some(&b));
        }
    }

    /// Legal oracle walks never report violations: fills from fresh
    /// sources, writes by holders, write-backs before invalidating dirty
    /// copies.
    #[test]
    fn oracle_accepts_legal_histories(
        script in prop::collection::vec((0u32..4, 0u8..4), 1..200)
    ) {
        let mut oracle = ShadowMemory::new();
        let block = BlockAddr::new(0);
        // Track a legal single-writer protocol by hand.
        let mut holders: Vec<u32> = Vec::new();
        let mut dirty: Option<u32> = None;
        for (cache, action) in script {
            let c = CacheId::new(cache);
            match action {
                // Acquire a clean copy.
                0 => {
                    if let Some(d) = dirty {
                        oracle.write_back(CacheId::new(d), block).unwrap();
                        dirty = None;
                    }
                    oracle.fill_from_memory(c, block).unwrap();
                    if !holders.contains(&cache) {
                        holders.push(cache);
                    }
                }
                // Write: invalidate others first.
                1 => {
                    if !holders.contains(&cache) {
                        if let Some(d) = dirty {
                            oracle.write_back(CacheId::new(d), block).unwrap();
                            dirty = None;
                        }
                        oracle.fill_from_memory(c, block).unwrap();
                        holders.push(cache);
                    }
                    for &h in holders.iter().filter(|&&h| h != cache) {
                        if dirty == Some(h) {
                            oracle.write_back(CacheId::new(h), block).unwrap();
                        }
                        oracle.invalidate(CacheId::new(h), block).unwrap();
                    }
                    holders.retain(|&h| h == cache);
                    oracle.write(c, block).unwrap();
                    dirty = Some(cache);
                }
                // Read own copy if held.
                2 => {
                    if holders.contains(&cache)
                        && (dirty.is_none() || dirty == Some(cache))
                    {
                        oracle.check_read(c, block).unwrap();
                    }
                }
                // Write back if dirty holder.
                _ => {
                    if dirty == Some(cache) {
                        oracle.write_back(c, block).unwrap();
                        dirty = None;
                    }
                }
            }
        }
    }

    /// A block table agrees with an `FxHashMap` model under every key
    /// pattern: the same inserts and updates leave the same entries, as
    /// seen through `get`, `get_mut`, `len` and, once sorted, `iter`.
    #[test]
    fn block_table_matches_a_hash_map(
        pattern in 0u8..5,
        raw in prop::collection::vec(0u64..48, 1..400),
        start in 1u64..100,
        sparse in prop::collection::vec(any::<u64>(), 48..49),
    ) {
        let keys = table_keys(pattern, &raw, start, &sparse);
        let mut table: BlockTable<u64> = BlockTable::new();
        let mut model: FxHashMap<BlockAddr, u64> = FxHashMap::default();
        for (step, &k) in (0u64..).zip(&keys) {
            let block = BlockAddr::new(k);
            let held = model.contains_key(&block);
            prop_assert_eq!(table.get_mut(block).is_some(), held, "get_mut({})", k);
            if held {
                *table.get_mut(block).unwrap() += step;
                *model.get_mut(&block).unwrap() += step;
            } else {
                table.insert(block, step);
                model.insert(block, step);
            }
            prop_assert_eq!(table.get(block), model.get(&block), "get({})", k);
            let absent = BlockAddr::new(k.wrapping_add(1));
            prop_assert_eq!(table.get(absent), model.get(&absent), "get({})", absent);
            prop_assert_eq!(table.len(), model.len());
        }
        let mut got: Vec<(BlockAddr, u64)> = table.iter().map(|(b, &e)| (b, e)).collect();
        let mut want: Vec<(BlockAddr, u64)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The oracle always catches a planted stale read.
    #[test]
    fn oracle_detects_planted_staleness(writers in 1u32..4) {
        let mut oracle = ShadowMemory::new();
        let block = BlockAddr::new(9);
        oracle.fill_from_memory(CacheId::new(0), block).unwrap();
        oracle.fill_from_memory(CacheId::new(writers), block).unwrap();
        for _ in 0..writers {
            oracle.write(CacheId::new(writers), block).unwrap();
        }
        // Cache 0 was never invalidated or updated: its read must fail.
        let err = oracle.check_read(CacheId::new(0), block).unwrap_err();
        let is_stale = matches!(err, OracleViolation::StaleRead { .. });
        prop_assert!(is_stale);
    }
}
