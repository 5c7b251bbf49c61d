//! Property tests for the protocol crate: SharerSet model checking,
//! coarse-code algebra, directory naming, and cross-protocol structural
//! identities on random streams.

use std::collections::BTreeSet;

use proptest::prelude::*;

use dirsim_mem::{BlockAddr, CacheId};
use dirsim_protocol::directory::{CoarseCode, DirSpec, PointerCapacity};
use dirsim_protocol::inline_list::InlineList;
use dirsim_protocol::ops::{INLINE_MOVEMENTS, INLINE_OPS};
use dirsim_protocol::sharer_set::{INLINE_IDS, INLINE_MEMBERS, WORD_BITS};
use dirsim_protocol::{EventKind, Scheme, SharerSet};

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u32),
    Remove(u32),
    RetainOnly(u32),
    Clear,
}

fn set_ops(len: usize) -> impl Strategy<Value = Vec<SetOp>> {
    prop::collection::vec(
        (0..4u8, 0..16u32).prop_map(|(kind, c)| match kind {
            0 => SetOp::Insert(c),
            1 => SetOp::Remove(c),
            2 => SetOp::RetainOnly(c),
            _ => SetOp::Clear,
        }),
        1..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SharerSet behaves like an insertion-ordered Vec-with-set-semantics.
    #[test]
    fn sharer_set_matches_vec_model(ops in set_ops(200)) {
        let mut real = SharerSet::new();
        let mut model: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                SetOp::Insert(c) => {
                    let added = real.insert(CacheId::new(c));
                    let model_added = !model.contains(&c);
                    if model_added {
                        model.push(c);
                    }
                    prop_assert_eq!(added, model_added);
                }
                SetOp::Remove(c) => {
                    let removed = real.remove(CacheId::new(c));
                    let model_removed = model.iter().position(|&x| x == c).map(|i| {
                        model.remove(i);
                    });
                    prop_assert_eq!(removed, model_removed.is_some());
                }
                SetOp::RetainOnly(c) => {
                    real.retain_only(CacheId::new(c));
                    model.retain(|&x| x == c);
                }
                SetOp::Clear => {
                    real.clear();
                    model.clear();
                }
            }
            let real_order: Vec<u32> =
                real.iter().map(|c| c.index() as u32).collect();
            prop_assert_eq!(&real_order, &model);
            prop_assert_eq!(real.len(), model.len());
            prop_assert_eq!(
                real.oldest().map(|c| c.index() as u32),
                model.first().copied()
            );
        }
    }

    /// The packed-word representation agrees with a `BTreeSet` membership
    /// model across the 128→spill boundary: candidate ids straddle
    /// `WORD_BITS` (first vs. second inline word) and `INLINE_IDS` (inline
    /// words vs. heap spill words), and exceed `INLINE_MEMBERS` (inline
    /// order buffer vs. heap promotion), so every storage transition is
    /// crossed mid-sequence. The `BTreeSet` checks membership/cardinality;
    /// a `Vec` shadow checks the insertion-order contract the
    /// pointer-replacement policies depend on.
    #[test]
    fn sharer_set_matches_btree_model_across_spill_boundary(
        ops in prop::collection::vec((0..4u8, 0..26usize), 1..250)
    ) {
        // Low ids, ids hugging both sides of the boundary between the
        // inline words and of the one past them, and ids deep in the
        // second spill word.
        let ids: Vec<u32> = (0..6)
            .chain(WORD_BITS - 3..WORD_BITS + 3)
            .chain(INLINE_IDS - 3..INLINE_IDS + 3)
            .chain(INLINE_IDS + WORD_BITS + 1..INLINE_IDS + WORD_BITS + 9)
            .collect();
        prop_assert!(ids.len() == 26 && ids.len() > INLINE_MEMBERS);
        let mut real = SharerSet::new();
        let mut membership: BTreeSet<u32> = BTreeSet::new();
        let mut order: Vec<u32> = Vec::new();
        for (kind, pick) in ops {
            let id = ids[pick];
            match kind {
                0 => {
                    let added = real.insert(CacheId::new(id));
                    prop_assert_eq!(added, membership.insert(id));
                    if added {
                        order.push(id);
                    }
                }
                1 => {
                    let removed = real.remove(CacheId::new(id));
                    prop_assert_eq!(removed, membership.remove(&id));
                    order.retain(|&x| x != id);
                }
                2 => {
                    real.retain_only(CacheId::new(id));
                    let keep = membership.contains(&id);
                    membership.clear();
                    order.clear();
                    if keep {
                        membership.insert(id);
                        order.push(id);
                    }
                }
                _ => {
                    real.clear();
                    membership.clear();
                    order.clear();
                }
            }
            prop_assert_eq!(real.len(), membership.len());
            prop_assert_eq!(real.is_empty(), membership.is_empty());
            for &candidate in &ids {
                prop_assert_eq!(
                    real.contains(CacheId::new(candidate)),
                    membership.contains(&candidate),
                    "membership diverged at id {}",
                    candidate
                );
                prop_assert_eq!(
                    real.count_others(CacheId::new(candidate)),
                    membership.len()
                        - usize::from(membership.contains(&candidate))
                );
            }
            let real_order: Vec<u32> =
                real.iter().map(|c| c.index() as u32).collect();
            prop_assert_eq!(&real_order, &order);
            prop_assert_eq!(
                real.oldest().map(|c| c.index() as u32),
                order.first().copied()
            );
        }
    }

    /// `InlineList` behaves like a `Vec` before and after it moves to the
    /// heap: every push, removal and clear leaves the same items in the
    /// same order.
    #[test]
    fn inline_list_matches_vec_model(
        ops in prop::collection::vec((0..16u8, 0..16usize), 1..200)
    ) {
        let mut real: InlineList<u32, 3> = InlineList::new();
        let mut model: Vec<u32> = Vec::new();
        for (step, (kind, pick)) in ops.into_iter().enumerate() {
            match kind {
                0..=11 => {
                    real.push(step as u32);
                    model.push(step as u32);
                }
                12..=14 if !model.is_empty() => {
                    let at = pick % model.len();
                    real.remove(at);
                    model.remove(at);
                }
                12..=14 => {}
                _ => {
                    real.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(real.as_slice(), model.as_slice());
            prop_assert_eq!(&real, &model);
            prop_assert_eq!(real.clone(), real.clone());
        }
    }

    /// Every outcome of a four-cache system fits the outcome lists' inline
    /// capacities, for every scheme.
    #[test]
    fn four_cache_outcomes_stay_inline(
        raw in prop::collection::vec((0u32..4, 0u64..6, any::<bool>(), 0u8..8), 1..200)
    ) {
        let nb = |i| Scheme::Directory(DirSpec::dir_i_nb(i).unwrap());
        for scheme in [
            Scheme::dir0_b(),
            Scheme::dir1_b(),
            Scheme::dir_i_b(2),
            Scheme::dir_i_b(4),
            Scheme::dir1_nb(),
            nb(2),
            nb(4),
            Scheme::dir_n_nb(),
            Scheme::CoarseVector,
            Scheme::Tang,
            Scheme::YenFu,
            Scheme::DirUpdate,
            Scheme::Wti,
            Scheme::Illinois,
            Scheme::Dragon,
            Scheme::Berkeley,
        ] {
            let mut p = scheme.build(4);
            for &(c, blk, w, evict) in &raw {
                let (cache, block) = (CacheId::new(c), BlockAddr::new(blk));
                let out = if evict == 0 {
                    p.evict(cache, block)
                } else {
                    p.on_data_ref(cache, block, w)
                };
                prop_assert!(out.ops.len() <= INLINE_OPS, "{}: {:?}", scheme, out);
                prop_assert!(out.movements.len() <= INLINE_MOVEMENTS, "{}: {:?}", scheme, out);
            }
        }
    }

    /// The coarse code's superset size matches its member enumeration over
    /// the full digit space.
    #[test]
    fn coarse_code_member_count_matches_superset(
        caches_log in 1u32..6,
        inserts in prop::collection::vec(0u64..64, 1..15),
    ) {
        let caches = 1u32 << caches_log; // power of two: members == superset
        let mut code = CoarseCode::new(caches);
        for &i in &inserts {
            code.insert(i % u64::from(caches));
        }
        let members = code.members(caches);
        prop_assert_eq!(members.len() as u64, code.superset_size());
        // Members are sorted and unique.
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(members, sorted);
    }

    /// The coarse code counts its members below any system width, powers
    /// of two or not, without enumerating them.
    #[test]
    fn coarse_code_member_count_matches_members(
        caches in 1u32..200,
        inserts in prop::collection::vec(0u32..200, 1..6),
    ) {
        let mut code = CoarseCode::new(caches);
        for &i in &inserts {
            code.insert(u64::from(i % caches));
            prop_assert_eq!(code.member_count(caches), code.members(caches).len() as u64);
        }
    }

    /// DirSpec display names are parseable back into (i, broadcast).
    #[test]
    fn dir_spec_names_are_faithful(i in 0u32..100, broadcast in any::<bool>()) {
        let Ok(spec) = DirSpec::new(PointerCapacity::Limited(i), broadcast) else {
            prop_assert!(i == 0 && !broadcast, "only Dir0NB is rejected");
            return Ok(());
        };
        let name = spec.to_string();
        let suffix = if broadcast { "B" } else { "NB" };
        prop_assert_eq!(name, format!("Dir{i}{suffix}"));
    }

    /// Every scheme classifies a deterministic stream deterministically
    /// (two instances agree event-by-event).
    #[test]
    fn protocols_are_deterministic(
        raw in prop::collection::vec((0u32..4, 0u64..10, any::<bool>()), 1..200)
    ) {
        for scheme in [
            Scheme::Directory(DirSpec::dir0_b()),
            Scheme::Directory(DirSpec::dir1_nb()),
            Scheme::Tang,
            Scheme::YenFu,
            Scheme::CoarseVector,
            Scheme::Wti,
            Scheme::Dragon,
            Scheme::Berkeley,
        ] {
            let mut a = scheme.build(4);
            let mut b = scheme.build(4);
            for &(c, blk, w) in &raw {
                let oa = a.on_data_ref(CacheId::new(c), BlockAddr::new(blk), w);
                let ob = b.on_data_ref(CacheId::new(c), BlockAddr::new(blk), w);
                prop_assert_eq!(&oa, &ob, "{} diverged", scheme);
            }
        }
    }

    /// A read immediately after any reference by the same cache is a hit,
    /// for every invalidation scheme (the copy was just installed).
    #[test]
    fn own_reference_installs_a_copy(
        raw in prop::collection::vec((0u32..4, 0u64..10, any::<bool>()), 1..150)
    ) {
        for scheme in [
            Scheme::Directory(DirSpec::dir0_b()),
            Scheme::Directory(DirSpec::dir_n_nb()),
            Scheme::Tang,
            Scheme::YenFu,
            Scheme::Wti,
            Scheme::Dragon,
        ] {
            let mut p = scheme.build(4);
            for &(c, blk, w) in &raw {
                let cache = CacheId::new(c);
                let block = BlockAddr::new(blk);
                p.on_data_ref(cache, block, w);
                let probe = p.probe(block).unwrap();
                prop_assert!(
                    probe.holders.contains(&cache),
                    "{}: cache lost its own copy",
                    scheme
                );
            }
        }
    }

    /// Tang and DirnNB differ only in DirLookup multiplicity.
    #[test]
    fn tang_is_dirn_nb_with_scaled_lookups(
        raw in prop::collection::vec((0u32..4, 0u64..8, any::<bool>()), 1..200)
    ) {
        use dirsim_protocol::BusOp;
        let mut tang = Scheme::Tang.build(4);
        let mut dirn = Scheme::Directory(DirSpec::dir_n_nb()).build(4);
        for &(c, blk, w) in &raw {
            let a = tang.on_data_ref(CacheId::new(c), BlockAddr::new(blk), w);
            let b = dirn.on_data_ref(CacheId::new(c), BlockAddr::new(blk), w);
            let count = |ops: &[BusOp], op: BusOp| ops.iter().filter(|&&o| o == op).count();
            prop_assert_eq!(
                count(&a.ops, BusOp::DirLookup),
                4 * count(&b.ops, BusOp::DirLookup)
            );
            let strip = |ops: &[BusOp]| -> Vec<BusOp> {
                ops.iter().copied().filter(|&o| o != BusOp::DirLookup).collect()
            };
            prop_assert_eq!(strip(&a.ops), strip(&b.ops));
        }
    }

    /// Eviction then re-reference behaves like a (non-cold) miss.
    #[test]
    fn evict_then_reread_misses(
        scheme_pick in 0usize..6,
        blk in 0u64..8,
    ) {
        let schemes = [
            Scheme::Directory(DirSpec::dir0_b()),
            Scheme::Directory(DirSpec::dir_n_nb()),
            Scheme::Tang,
            Scheme::YenFu,
            Scheme::Wti,
            Scheme::Dragon,
        ];
        let scheme = schemes[scheme_pick];
        let mut p = scheme.build(4);
        let cache = CacheId::new(0);
        let block = BlockAddr::new(blk);
        p.on_data_ref(cache, block, false); // cold
        p.evict(cache, block);
        let probe = p.probe(block).unwrap();
        prop_assert!(!probe.holders.contains(&cache));
        let out = p.on_data_ref(cache, block, false);
        prop_assert_ne!(out.kind(), EventKind::RdHit, "{}", scheme);
        prop_assert_ne!(out.kind(), EventKind::RmFirstRef, "{}", scheme);
    }
}
