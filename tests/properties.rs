//! Property-based tests (proptest) over random reference streams: protocol
//! invariants, oracle cleanliness, format round-trips, and cost-model
//! algebra.

use proptest::prelude::*;

use dirsim::prelude::*;
use dirsim_mem::{BlockAddr, CacheId};
use dirsim_protocol::directory::EvictionPolicy;
use dirsim_trace::RefFlags;

/// A compact random reference: (cpu/pid index, block index, is-write).
fn raw_refs(caches: u32, blocks: u64, len: usize) -> impl Strategy<Value = Vec<(u32, u64, bool)>> {
    prop::collection::vec((0..caches, 0..blocks, any::<bool>()), 1..len)
}

fn all_schemes() -> Vec<Scheme> {
    let mut v = Scheme::paper_lineup();
    v.push(Scheme::Berkeley);
    v.push(Scheme::CoarseVector);
    v.push(Scheme::Directory(DirSpec::dir_n_nb()));
    v.push(Scheme::Directory(DirSpec::dir1_b()));
    v.push(Scheme::Directory(DirSpec::dir_i_b(2)));
    v.push(Scheme::Directory(DirSpec::dir_i_nb(2).unwrap()));
    v
}

fn to_memrefs(raw: &[(u32, u64, bool)]) -> Vec<MemRef> {
    raw.iter()
        .map(|&(c, b, w)| {
            let cpu = CpuId::new(c as u16);
            let pid = ProcessId::new(c);
            let addr = Addr::new(b * 16);
            if w {
                MemRef::write(cpu, pid, addr)
            } else {
                MemRef::read(cpu, pid, addr)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The big one: every scheme stays coherent (oracle- and
    /// invariant-audited) on any reference stream.
    #[test]
    fn every_scheme_is_coherent_on_random_traces(raw in raw_refs(4, 12, 400)) {
        let refs = to_memrefs(&raw);
        let sim = Simulator::new(SimConfig {
            check_oracle: true,
            check_invariants: true,
            ..SimConfig::default()
        });
        for scheme in all_schemes() {
            let mut protocol = scheme.build(4);
            sim.run(protocol.as_mut(), refs.iter().copied())
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Single-writer invariant: a dirty block has exactly one holder, in
    /// every directory scheme, after every reference.
    #[test]
    fn dirty_implies_sole_holder(raw in raw_refs(4, 8, 300)) {
        for scheme in all_schemes() {
            let mut protocol = scheme.build(4);
            for &(c, b, w) in &raw {
                let block = BlockAddr::new(b);
                protocol.on_data_ref(CacheId::new(c), block, w);
                let probe = protocol.probe(block).unwrap();
                if probe.dirty && scheme != Scheme::Dragon {
                    prop_assert_eq!(probe.holders.len(), 1, "{}", scheme);
                }
                prop_assert!(!probe.holders.is_empty(), "{}", scheme);
            }
        }
    }

    /// `DiriNB` never exceeds its copy limit and never broadcasts.
    #[test]
    fn limited_nb_capacity_respected(raw in raw_refs(6, 8, 300), i in 1u32..4) {
        let spec = DirSpec::dir_i_nb(i).unwrap();
        let mut protocol = Scheme::Directory(spec).build(6);
        for &(c, b, w) in &raw {
            let block = BlockAddr::new(b);
            let out = protocol.on_data_ref(CacheId::new(c % 6), block, w);
            prop_assert!(!out.ops.contains(&BusOp::BroadcastInvalidate));
            let probe = protocol.probe(block).unwrap();
            prop_assert!(probe.holders.len() <= i as usize);
        }
    }

    /// Both eviction policies keep the capacity invariant.
    #[test]
    fn eviction_policies_equivalent_capacity(raw in raw_refs(5, 6, 200)) {
        for policy in [EvictionPolicy::OldestSharer, EvictionPolicy::NewestSharer] {
            let spec = DirSpec::dir_i_nb(2).unwrap().with_eviction(policy);
            let mut protocol = Scheme::Directory(spec).build(5);
            for &(c, b, w) in &raw {
                let block = BlockAddr::new(b);
                protocol.on_data_ref(CacheId::new(c % 5), block, w);
                prop_assert!(protocol.probe(block).unwrap().holders.len() <= 2);
            }
        }
    }

    /// WTI and Dir0B classify every reference identically (§5).
    #[test]
    fn wti_dir0b_event_identity(raw in raw_refs(4, 10, 400)) {
        let mut wti = Scheme::Wti.build(4);
        let mut dir0b = Scheme::Directory(DirSpec::dir0_b()).build(4);
        for &(c, b, w) in &raw {
            let block = BlockAddr::new(b);
            let a = wti.on_data_ref(CacheId::new(c), block, w);
            let d = dir0b.on_data_ref(CacheId::new(c), block, w);
            prop_assert_eq!(a.kind(), d.kind());
            prop_assert_eq!(a.clean_write_fanout, d.clean_write_fanout);
        }
    }

    /// Berkeley emits exactly Dir0B's ops with DirLookup stripped.
    #[test]
    fn berkeley_is_dir0b_without_dir_lookups(raw in raw_refs(4, 10, 300)) {
        let mut berkeley = Scheme::Berkeley.build(4);
        let mut dir0b = Scheme::Directory(DirSpec::dir0_b()).build(4);
        for &(c, b, w) in &raw {
            let block = BlockAddr::new(b);
            let a = berkeley.on_data_ref(CacheId::new(c), block, w);
            let d = dir0b.on_data_ref(CacheId::new(c), block, w);
            let stripped: Vec<BusOp> =
                d.ops.iter().copied().filter(|&o| o != BusOp::DirLookup).collect();
            prop_assert_eq!(a.ops, stripped);
        }
    }

    /// Dragon performs no invalidations and no write-backs, ever.
    #[test]
    fn dragon_never_invalidates(raw in raw_refs(4, 10, 300)) {
        let mut dragon = Scheme::Dragon.build(4);
        for &(c, b, w) in &raw {
            let out = dragon.on_data_ref(CacheId::new(c), BlockAddr::new(b), w);
            prop_assert!(!out.ops.contains(&BusOp::Invalidate));
            prop_assert!(!out.ops.contains(&BusOp::BroadcastInvalidate));
            prop_assert!(!out.ops.contains(&BusOp::WriteBack));
            prop_assert_eq!(out.clean_write_fanout, None);
        }
    }

    /// Event counts always partition the stream; derived totals agree.
    #[test]
    fn events_partition_stream(raw in raw_refs(4, 10, 300)) {
        let refs = to_memrefs(&raw);
        for scheme in all_schemes() {
            let mut protocol = scheme.build(4);
            let result = Simulator::paper()
                .run(protocol.as_mut(), refs.iter().copied())
                .unwrap();
            prop_assert_eq!(result.events.total(), result.refs);
            prop_assert_eq!(
                result.events.reads() + result.events.writes(),
                result.refs,
                "no instruction fetches in this stream"
            );
        }
    }

    /// Pricing is linear: merging two runs prices to the sum of cycles.
    #[test]
    fn cost_is_additive_under_merge(
        raw_a in raw_refs(4, 8, 200),
        raw_b in raw_refs(4, 8, 200),
    ) {
        let model = CostModel::pipelined();
        let sim = Simulator::paper();
        let run = |raw: &[(u32, u64, bool)]| {
            let mut p = Scheme::Directory(DirSpec::dir0_b()).build(4);
            sim.run(p.as_mut(), to_memrefs(raw)).unwrap()
        };
        let a = run(&raw_a);
        let b = run(&raw_b);
        let total_cycles =
            a.cycles_per_ref(model) * a.refs as f64 + b.cycles_per_ref(model) * b.refs as f64;
        let mut merged = a.clone();
        merged.merge(&b);
        let merged_cycles = merged.cycles_per_ref(model) * merged.refs as f64;
        prop_assert!((total_cycles - merged_cycles).abs() < 1e-6);
    }

    /// The fixed-overhead model is exactly affine in q.
    #[test]
    fn q_model_is_affine(raw in raw_refs(4, 8, 200), q in 0.0f64..8.0) {
        let mut p = Scheme::Wti.build(4);
        let result = Simulator::paper().run(p.as_mut(), to_memrefs(&raw)).unwrap();
        let bd = result.breakdown(CostModel::pipelined());
        let expected = bd.cycles_per_ref() + q * bd.transactions_per_ref();
        prop_assert!((bd.cycles_per_ref_with_overhead(q) - expected).abs() < 1e-12);
    }

    /// Binary and text trace formats round-trip arbitrary records.
    #[test]
    fn trace_formats_round_trip(
        records in prop::collection::vec(
            (0u16..8, 0u32..8, 0u64..1u64 << 40, 0u8..3, any::<bool>(), any::<bool>()),
            0..200,
        )
    ) {
        use dirsim_trace::io::{read_binary, read_text, write_binary, write_text};
        let refs: Vec<MemRef> = records
            .iter()
            .map(|&(cpu, pid, addr, kind, lock, os)| {
                let kind = match kind {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::Read,
                    _ => AccessKind::Write,
                };
                let mut flags = RefFlags::empty();
                if lock {
                    flags = flags.with_lock();
                }
                if os {
                    flags = flags.with_os();
                }
                MemRef::new(CpuId::new(cpu), ProcessId::new(pid), Addr::new(addr), kind)
                    .with_flags(flags)
            })
            .collect();
        let mut bin = Vec::new();
        write_binary(&mut bin, refs.iter().copied()).unwrap();
        let back: Vec<MemRef> = read_binary(&bin[..]).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&back, &refs);
        let mut txt = Vec::new();
        write_text(&mut txt, refs.iter().copied()).unwrap();
        let back: Vec<MemRef> = read_text(&txt[..]).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&back, &refs);
    }

    /// The coarse code always denotes a superset of what was inserted.
    #[test]
    fn coarse_code_is_a_superset(
        caches in 2u32..64,
        inserts in prop::collection::vec(0u64..64, 1..20),
    ) {
        use dirsim_protocol::directory::CoarseCode;
        let mut code = CoarseCode::new(caches);
        let mut inserted = Vec::new();
        for &i in &inserts {
            let idx = i % u64::from(caches);
            code.insert(idx);
            inserted.push(idx);
            for &j in &inserted {
                prop_assert!(code.denotes(j), "{j} dropped from code {code}");
            }
        }
        // Every inserted index is enumerated by members().
        let members = code.members(caches);
        for &j in &inserted {
            prop_assert!(members.contains(&j));
        }
        prop_assert!(members.len() as u64 <= code.superset_size());
    }

    /// Fan-out histogram algebra: fractions normalise, merge adds.
    #[test]
    fn histogram_algebra(xs in prop::collection::vec(0u32..6, 1..100)) {
        let mut h = FanoutHistogram::new();
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let full: f64 = (0..6).map(|k| h.fraction(k)).sum();
        prop_assert!((full - 1.0).abs() < 1e-9);
        prop_assert!((h.fraction_at_most(5) - 1.0).abs() < 1e-9);
        let mut doubled = h.clone();
        doubled.merge(&h);
        prop_assert_eq!(doubled.total(), 2 * h.total());
        prop_assert!((doubled.mean() - h.mean()).abs() < 1e-9);
    }

    /// The workload generator is a pure function of its configuration.
    #[test]
    fn generator_is_deterministic(seed in any::<u64>()) {
        let cfg = WorkloadConfig::builder().seed(seed).build().unwrap();
        let a: Vec<MemRef> = Workload::new(cfg.clone()).take(500).collect();
        let b: Vec<MemRef> = Workload::new(cfg).take(500).collect();
        prop_assert_eq!(a, b);
    }

    /// Merging histograms equals recording the concatenated samples —
    /// including when either side is empty, so merge has no way to leave
    /// the representation non-canonical (trailing zero buckets).
    #[test]
    fn histogram_merge_matches_direct_recording(
        a in prop::collection::vec(0u32..12, 0..40),
        b in prop::collection::vec(0u32..12, 0..40),
    ) {
        let mut left = FanoutHistogram::new();
        for &f in &a {
            left.record(f);
        }
        let mut right = FanoutHistogram::new();
        for &f in &b {
            right.record(f);
        }
        let mut merged = left.clone();
        merged.merge(&right);

        let mut direct = FanoutHistogram::new();
        for &f in a.iter().chain(&b) {
            direct.record(f);
        }
        prop_assert_eq!(&merged, &direct);
        prop_assert_eq!(merged.total(), (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.max_fanout(), a.iter().chain(&b).max().copied());

        // Merge is symmetric in value.
        let mut flipped = right;
        flipped.merge(&left);
        prop_assert_eq!(&flipped, &direct);
    }

    /// Merging with the empty histogram is the identity in both
    /// directions, and the empty histogram itself reports safe zeros.
    #[test]
    fn histogram_empty_merge_is_identity(a in prop::collection::vec(0u32..12, 0..40)) {
        let empty = FanoutHistogram::new();
        prop_assert_eq!(empty.total(), 0);
        prop_assert_eq!(empty.max_fanout(), None);
        prop_assert_eq!(empty.mean(), 0.0);

        let mut h = FanoutHistogram::new();
        for &f in &a {
            h.record(f);
        }
        let before = h.clone();
        h.merge(&empty);
        prop_assert_eq!(&h, &before);
        let mut other = FanoutHistogram::new();
        other.merge(&before);
        prop_assert_eq!(&other, &before);
    }

    /// A histogram fed a single bucket reports exactly that bucket.
    #[test]
    fn histogram_single_bucket_is_exact(f in 0u32..16, n in 1u64..50) {
        let mut h = FanoutHistogram::new();
        for _ in 0..n {
            h.record(f);
        }
        prop_assert_eq!(h.total(), n);
        prop_assert_eq!(h.count(f), n);
        prop_assert_eq!(h.max_fanout(), Some(f));
        prop_assert!((h.fraction(f) - 1.0).abs() < 1e-12);
        prop_assert!((h.mean() - f64::from(f)).abs() < 1e-9);
    }
}
