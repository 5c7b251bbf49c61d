//! Cross-crate integration tests: protocol identities, oracle audits,
//! accounting invariants, and end-to-end behaviour of the experiment
//! harness over the paper workloads.

use dirsim::prelude::*;
use dirsim::{Experiment, NamedWorkload};
use dirsim_cost::CostCategory;
use dirsim_mem::{BlockAddr, CacheId};

const REFS: usize = 60_000;

fn headline(refs: usize) -> ExperimentResults {
    dirsim::paper::headline_experiment(refs).run().unwrap()
}

fn combined(results: &ExperimentResults, scheme: Scheme) -> &dirsim::SimResult {
    &results[scheme].combined
}

#[test]
fn wti_and_dir0b_event_frequencies_are_identical() {
    // §5: "since Dir0B and WTI both rely on the same basic data
    // state-change model ... their event frequencies are identical."
    let results = headline(REFS);
    let wti = combined(&results, Scheme::Wti);
    let dir0b = combined(&results, Scheme::dir0_b());
    for kind in EventKind::ALL {
        assert_eq!(
            wti.events[kind], dir0b.events[kind],
            "event {kind} differs between WTI and Dir0B"
        );
    }
}

#[test]
fn berkeley_equals_dir0b_minus_directory_accesses() {
    // §5 aside: Berkeley's cost model is Dir0B with directory cost zero.
    let results = dirsim::paper::extended_experiment(REFS).run().unwrap();
    let dir0b = combined(&results, Scheme::dir0_b());
    let berkeley = combined(&results, Scheme::Berkeley);
    let model = CostModel::pipelined();
    let dir0b_bd = dir0b.breakdown(model);
    let berkeley_bd = berkeley.breakdown(model);
    let expected = dir0b_bd.cycles_per_ref() - dir0b_bd[CostCategory::DirAccess];
    assert!(
        (berkeley_bd.cycles_per_ref() - expected).abs() < 1e-9,
        "berkeley {} != dir0b minus dir access {}",
        berkeley_bd.cycles_per_ref(),
        expected
    );
    assert_eq!(berkeley_bd[CostCategory::DirAccess], 0.0);
}

#[test]
fn all_schemes_pass_the_coherence_oracle_on_paper_workloads() {
    // Full audit: every reference checked against the invariant catalogue,
    // and every data movement of every scheme replayed against the
    // protocol-independent shadow memory; every access must observe the
    // globally latest value.
    dirsim::paper::extended_experiment(30_000)
        .sim_config(SimConfig {
            check_oracle: true,
            check_invariants: true,
            ..SimConfig::default()
        })
        .run()
        .unwrap_or_else(|e| panic!("coherence violation: {e}"));
}

#[test]
fn event_counts_partition_every_reference() {
    let results = dirsim::paper::extended_experiment(REFS).run().unwrap();
    for s in &results.per_scheme {
        assert_eq!(
            s.combined.events.total(),
            s.combined.refs,
            "{}: event counts must partition the reference stream",
            s.scheme
        );
        for (_, r) in &s.per_trace {
            assert_eq!(r.events.total(), r.refs);
        }
    }
}

#[test]
fn table4_subcategories_add_up() {
    // The paper: "the fractions in each sub-category add up".
    let results = headline(REFS);
    for s in &results.per_scheme {
        let e = &s.combined.events;
        let reads = e[EventKind::RdHit]
            + e[EventKind::RmBlkCln]
            + e[EventKind::RmBlkDrty]
            + e[EventKind::RmFirstRef];
        assert_eq!(reads, e.reads(), "{}", s.scheme);
        let writes = e[EventKind::WhBlkCln]
            + e[EventKind::WhBlkDrty]
            + e[EventKind::WhDistrib]
            + e[EventKind::WhLocal]
            + e[EventKind::WmBlkCln]
            + e[EventKind::WmBlkDrty]
            + e[EventKind::WmFirstRef];
        assert_eq!(writes, e.writes(), "{}", s.scheme);
        assert_eq!(
            e[EventKind::Instr] + e.reads() + e.writes(),
            s.combined.refs,
            "{}",
            s.scheme
        );
    }
}

#[test]
fn reads_and_writes_agree_across_schemes() {
    // The reference stream is identical for every scheme, so the derived
    // read/write totals must agree even though the event splits differ.
    let results = headline(REFS);
    let first = &results.per_scheme[0].combined;
    for s in &results.per_scheme[1..] {
        assert_eq!(s.combined.events.reads(), first.events.reads());
        assert_eq!(s.combined.events.writes(), first.events.writes());
        assert_eq!(
            s.combined.events[EventKind::Instr],
            first.events[EventKind::Instr]
        );
        // Cold misses are a property of the trace, not the scheme.
        assert_eq!(
            s.combined.events[EventKind::RmFirstRef] + s.combined.events[EventKind::WmFirstRef],
            first.events[EventKind::RmFirstRef] + first.events[EventKind::WmFirstRef]
        );
    }
}

#[test]
fn first_ref_events_cost_nothing() {
    // §4: cold misses are excluded from the coherence cost.
    let cfg = WorkloadConfig::builder().seed(9).build().unwrap();
    // A trace short enough to be dominated by cold misses:
    let results = Experiment::new()
        .workload(NamedWorkload::new("cold", cfg))
        .scheme(Scheme::Directory(DirSpec::dir0_b()))
        .refs_per_trace(300)
        .run()
        .unwrap();
    let r = &results.per_scheme[0].combined;
    let cold = r.events[EventKind::RmFirstRef] + r.events[EventKind::WmFirstRef];
    assert!(cold > 0, "short trace should have cold misses");
    // Transactions only come from non-cold events:
    assert!(r.transactions <= r.refs - cold);
}

#[test]
fn dragon_never_invalidates() {
    let results = headline(REFS);
    let dragon = combined(&results, Scheme::Dragon);
    assert_eq!(
        dragon.fanout.total(),
        0,
        "update protocol records no fan-out"
    );
    assert_eq!(dragon.events[EventKind::WhBlkCln], 0);
    assert_eq!(dragon.ops[BusOp::Invalidate], 0);
    assert_eq!(dragon.ops[BusOp::BroadcastInvalidate], 0);
    assert_eq!(dragon.ops[BusOp::WriteBack], 0);
}

#[test]
fn dir1nb_never_needs_directory_or_broadcast() {
    let results = headline(REFS);
    let dir1nb = combined(&results, Scheme::dir1_nb());
    assert_eq!(dir1nb.ops[BusOp::DirLookup], 0, "always overlapped (§4.3)");
    assert_eq!(
        dir1nb.ops[BusOp::BroadcastInvalidate],
        0,
        "NB never broadcasts"
    );
}

#[test]
fn dirn_nb_never_broadcasts_but_queries_directory() {
    let results = dirsim::paper::extended_experiment(REFS).run().unwrap();
    let dirn = combined(&results, Scheme::dir_n_nb());
    assert_eq!(dirn.ops[BusOp::BroadcastInvalidate], 0);
    assert!(dirn.ops[BusOp::DirLookup] > 0);
    assert!(dirn.ops[BusOp::Invalidate] > 0, "sequential invalidations");
}

#[test]
fn lock_filtering_leaves_dir0b_roughly_unchanged() {
    // §5.2: "Dir0B gave the same performance as before".
    let impacts = dirsim::paper::lock_impact(
        REFS,
        vec![
            Scheme::Directory(DirSpec::dir1_nb()),
            Scheme::Directory(DirSpec::dir0_b()),
        ],
    )
    .unwrap();
    let dir1nb = &impacts[0];
    let dir0b = &impacts[1];
    assert!(
        dir1nb.improvement() > 0.25,
        "Dir1NB should improve a lot: {:?}",
        dir1nb
    );
    assert!(
        dir0b.improvement().abs() < 0.25,
        "Dir0B should be roughly unchanged: {:?}",
        dir0b
    );
    assert!(dir1nb.improvement() > 3.0 * dir0b.improvement().abs().max(0.05));
}

#[test]
fn sharing_models_agree_without_migration() {
    // With processes pinned to processors, per-process and per-processor
    // attribution are the same partition, so results are identical.
    let cfg = WorkloadConfig::builder()
        .seed(11)
        .migration_prob(0.0)
        .build()
        .unwrap();
    let refs: Vec<MemRef> = Workload::new(cfg).take(20_000).collect();
    let mut by_process = Scheme::Directory(DirSpec::dir0_b()).build(4);
    let mut by_processor = Scheme::Directory(DirSpec::dir0_b()).build(4);
    let a = Simulator::new(SimConfig {
        sharing: SharingModel::PerProcess,
        ..SimConfig::default()
    })
    .run(by_process.as_mut(), refs.iter().copied())
    .unwrap();
    let b = Simulator::new(SimConfig {
        sharing: SharingModel::PerProcessor,
        ..SimConfig::default()
    })
    .run(by_processor.as_mut(), refs.iter().copied())
    .unwrap();
    assert_eq!(a.events, b.events);
}

#[test]
fn migration_induces_processor_sharing_only() {
    // §4.4: migration-induced sharing shows up under per-processor
    // attribution but not per-process attribution.
    let cfg = WorkloadConfig::builder()
        .seed(13)
        .migration_prob(0.002)
        .shared_frac(0.0)
        .lock(dirsim_trace::synth::LockConfig {
            locks: 0,
            acquire_prob: 0.0,
            critical_section_len: 1,
            critical_write_frac: 0.0,
        })
        .os_frac(0.0)
        .build()
        .unwrap();
    let refs: Vec<MemRef> = Workload::new(cfg).take(40_000).collect();
    let run = |sharing| {
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(4);
        Simulator::new(SimConfig {
            sharing,
            ..SimConfig::default()
        })
        .run(p.as_mut(), refs.iter().copied())
        .unwrap()
    };
    let by_process = run(SharingModel::PerProcess);
    let by_processor = run(SharingModel::PerProcessor);
    assert_eq!(
        by_process.events.coherence_miss_rate(),
        0.0,
        "purely private workload: no process-level sharing"
    );
    assert!(
        by_processor.events.coherence_miss_rate() > 0.0,
        "migration must induce processor-level sharing"
    );
}

#[test]
fn trace_io_round_trips_a_full_workload() {
    use dirsim_trace::io::{read_binary, read_text, write_binary, write_text};
    let refs: Vec<MemRef> = Scenario::named("thor")
        .unwrap()
        .workload()
        .take(25_000)
        .collect();
    let mut bin = Vec::new();
    write_binary(&mut bin, refs.iter().copied()).unwrap();
    let back: Vec<MemRef> = read_binary(&bin[..]).collect::<Result<_, _>>().unwrap();
    assert_eq!(back, refs);
    let mut txt = Vec::new();
    write_text(&mut txt, refs.iter().copied()).unwrap();
    let back: Vec<MemRef> = read_text(&txt[..]).collect::<Result<_, _>>().unwrap();
    assert_eq!(back, refs);
}

#[test]
fn simulating_a_file_trace_matches_simulating_the_generator() {
    use dirsim_trace::io::{read_binary, write_binary};
    let refs: Vec<MemRef> = Scenario::named("pero")
        .unwrap()
        .workload()
        .take(20_000)
        .collect();
    let mut bin = Vec::new();
    write_binary(&mut bin, refs.iter().copied()).unwrap();
    let from_file: Vec<MemRef> = read_binary(&bin[..]).collect::<Result<_, _>>().unwrap();

    let sim = Simulator::paper();
    let mut p1 = Scheme::Dragon.build(4);
    let direct = sim.run(p1.as_mut(), refs).unwrap();
    let mut p2 = Scheme::Dragon.build(4);
    let via_file = sim.run(p2.as_mut(), from_file).unwrap();
    assert_eq!(direct.events, via_file.events);
    assert_eq!(direct.ops, via_file.ops);
}

#[test]
fn coarse_vector_costs_at_least_the_exact_full_map() {
    // The coarse code invalidates a superset, so it can never use fewer
    // directed invalidations than the exact full map.
    let results = dirsim::paper::extended_experiment(REFS).run().unwrap();
    let coarse = combined(&results, Scheme::CoarseVector);
    let full = combined(&results, Scheme::dir_n_nb());
    assert!(
        coarse.ops[BusOp::Invalidate] >= full.ops[BusOp::Invalidate],
        "superset invalidation can't beat exact knowledge"
    );
    for kind in EventKind::ALL {
        assert_eq!(
            coarse.events[kind],
            combined(&results, Scheme::dir0_b()).events[kind],
            "coarse vector shares the Dir0B state-change model ({kind})"
        );
    }
}

#[test]
fn finite_cache_storage_composes_with_block_map() {
    // The finite-cache substrate (the paper's "first-order extension")
    // plugs into the same block addressing.
    use dirsim_mem::{CacheGeometry, CacheStorage, FiniteCache};
    let map = BlockMap::paper();
    let mut cache: FiniteCache<u8> = FiniteCache::new(CacheGeometry { sets: 16, ways: 2 }).unwrap();
    let mut evictions = 0;
    for r in Scenario::named("pops").unwrap().workload().take(20_000) {
        if r.kind.is_data() {
            let block = map.block_of(r.addr);
            if cache.touch(block).is_none() && cache.insert(block, 0).is_some() {
                evictions += 1;
            }
        }
    }
    assert!(
        evictions > 0,
        "a small cache must evict under this workload"
    );
    assert!(cache.len() <= cache.capacity());
}

#[test]
fn barrier_releases_invalidate_every_waiter() {
    // Barrier rendezvous: the release write must invalidate the barrier
    // word in every spinning cache — the full-fan-out events that populate
    // the tail of Figure 1.
    use dirsim_trace::synth::BarrierConfig;
    let cfg = WorkloadConfig {
        barrier: BarrierConfig { interval: 300 },
        seed: 0xba881e8,
        ..WorkloadConfig::default()
    };
    let refs: Vec<MemRef> = Workload::new(cfg).take(80_000).collect();
    let mut p = Scheme::Directory(DirSpec::dir0_b()).build(4);
    let result = Simulator::new(SimConfig {
        check_oracle: true,
        ..SimConfig::default()
    })
    .run(p.as_mut(), refs)
    .unwrap();
    assert!(
        result.fanout.count(3) > 0,
        "4-process barriers must produce fan-out-3 invalidations: {}",
        result.fanout
    );
    // Dir1NB suffers extra misses from the same workload (barrier word
    // bouncing), while Dragon glides through with updates.
    assert!(result.events.coherence_miss_rate() > 0.0);
}

#[test]
fn compressed_traces_feed_the_engine() {
    use dirsim_trace::compress::read_compressed;
    use dirsim_trace::corpus::{write_corpus, CORPUS_FOOTER_LEN, CORPUS_HEADER_LEN};
    let refs: Vec<MemRef> = Scenario::named("pops")
        .unwrap()
        .workload()
        .take(20_000)
        .collect();
    // DTR2 is read-only: its bytes are the payload of a DTR3 corpus.
    let mut corpus = Vec::new();
    write_corpus(&mut corpus, SliceSource::new(&refs)).unwrap();
    let dtr2 = &corpus[CORPUS_HEADER_LEN..corpus.len() - CORPUS_FOOTER_LEN];
    let from_file: Vec<MemRef> = read_compressed(dtr2).collect::<Result<_, _>>().unwrap();
    let sim = Simulator::paper();
    let mut a = Scheme::Dragon.build(4);
    let direct = sim.run(a.as_mut(), refs).unwrap();
    let mut b = Scheme::Dragon.build(4);
    let via_file = sim.run(b.as_mut(), from_file).unwrap();
    assert_eq!(direct.events, via_file.events);
    assert_eq!(direct.ops, via_file.ops);
}

#[test]
fn false_sharing_is_a_block_granularity_artifact() {
    // A workload whose only "sharing" is per-process words co-located in
    // 16-byte blocks: with 16-byte coherence blocks it ping-pongs, with
    // 4-byte blocks the sharing disappears entirely.
    use dirsim_trace::synth::{LockConfig, SharingMix};
    let cfg = WorkloadConfig {
        shared_frac: 0.05,
        sharing_mix: SharingMix {
            read_mostly: 0.0,
            migratory: 0.0,
            producer_consumer: 0.0,
            false_sharing: 1.0,
        },
        lock: LockConfig {
            locks: 0,
            acquire_prob: 0.0,
            critical_section_len: 1,
            critical_write_frac: 0.0,
        },
        os_frac: 0.0,
        seed: 0xfa15e,
        ..WorkloadConfig::default()
    };
    let refs: Vec<MemRef> = Workload::new(cfg).take(60_000).collect();
    let run = |block_bytes: u32| {
        let config = SimConfig {
            block_map: BlockMap::new(block_bytes).unwrap(),
            ..SimConfig::default()
        };
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(4);
        Simulator::new(config)
            .run(p.as_mut(), refs.iter().copied())
            .unwrap()
    };
    let wide = run(16);
    let narrow = run(4);
    assert!(
        wide.events.coherence_miss_rate() > 0.001,
        "16-byte blocks must show false-sharing misses: {}",
        wide.events.coherence_miss_rate()
    );
    assert_eq!(
        narrow.events.coherence_miss_rate(),
        0.0,
        "word-sized blocks eliminate false sharing"
    );
}

/// A deliberately broken "protocol" that lets multiple writers coexist
/// without invalidation or update — a classic forgot-the-invalidate bug.
/// Exists to prove the oracle is a real check, not a rubber stamp.
mod broken {
    use dirsim_mem::{BlockAddr, CacheId};
    use dirsim_protocol::api::{BlockProbe, BlockState, CoherenceProtocol, StateSnapshot};
    use dirsim_protocol::ops::{BusOp, DataMovement, RefOutcome};
    use dirsim_protocol::EventKind;
    use std::collections::HashMap;

    #[derive(Debug, Clone, Default)]
    pub struct ForgotInvalidations {
        holders: HashMap<BlockAddr, Vec<CacheId>>,
    }

    impl CoherenceProtocol for ForgotInvalidations {
        fn name(&self) -> String {
            "Broken".to_string()
        }

        fn cache_count(&self) -> u32 {
            4
        }

        fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
            let holders = self.holders.entry(block).or_default();
            let first = holders.is_empty();
            let mut out = RefOutcome::event(match (write, first, holders.contains(&cache)) {
                (false, true, _) => EventKind::RmFirstRef,
                (true, true, _) => EventKind::WmFirstRef,
                (false, _, true) => EventKind::RdHit,
                (true, _, true) => EventKind::WhBlkDrty,
                (false, _, false) => EventKind::RmBlkCln,
                (true, _, false) => EventKind::WmBlkCln,
            });
            if !holders.contains(&cache) {
                holders.push(cache);
                out.movements.push(DataMovement::FillFromMemory { cache });
                if !first {
                    out.ops.push(BusOp::MemRead);
                }
            }
            if write {
                // The bug: writes never invalidate or update other copies.
                out.movements.push(DataMovement::CacheWrite { cache });
            }
            out
        }

        fn evict(&mut self, _cache: CacheId, _block: BlockAddr) -> RefOutcome {
            RefOutcome::default()
        }

        fn probe(&self, block: BlockAddr) -> Option<BlockProbe> {
            self.holders.get(&block).map(|h| BlockProbe {
                holders: h.clone(),
                dirty: false,
            })
        }

        fn tracked_blocks(&self) -> usize {
            self.holders.len()
        }

        fn snapshot(&self) -> StateSnapshot {
            StateSnapshot::from_blocks(
                self.holders
                    .iter()
                    .map(|(&block, h)| BlockState::basic(block, h.clone(), false))
                    .collect(),
            )
        }

        fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
            Box::new(self.clone())
        }
    }
}

#[test]
fn the_oracle_catches_a_protocol_that_forgets_invalidations() {
    use dirsim_mem::OracleViolation;
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let refs = vec![
        MemRef::read(CpuId::new(0), p0, Addr::new(0x40)),
        MemRef::read(CpuId::new(1), p1, Addr::new(0x40)),
        MemRef::write(CpuId::new(1), p1, Addr::new(0x40)),
        // Cache 0 still holds the stale copy and "reads" it:
        MemRef::read(CpuId::new(0), p0, Addr::new(0x40)),
    ];
    let mut broken = broken::ForgotInvalidations::default();
    // Invariant auditing off: it would catch this mutant earlier (at the
    // un-propagated write); this test is about the *oracle* check.
    let err = Simulator::new(SimConfig {
        check_oracle: true,
        check_invariants: false,
        ..SimConfig::default()
    })
    .run(&mut broken, refs.clone())
    .expect_err("the oracle must reject the stale read");
    assert_eq!(err.ref_index, 3);
    assert!(matches!(err.violation, OracleViolation::StaleRead { .. }));

    // Crucially, the same stream passes with a correct protocol.
    let mut good = Scheme::Directory(DirSpec::dir0_b()).build(2);
    Simulator::new(SimConfig {
        check_oracle: true,
        ..SimConfig::default()
    })
    .run(good.as_mut(), refs)
    .expect("a correct protocol passes the same stream");
}

#[test]
fn scheme_results_expose_probe_state() {
    let mut p = Scheme::Directory(DirSpec::dir_n_nb()).build(3);
    let b = BlockAddr::new(5);
    p.on_data_ref(CacheId::new(0), b, false);
    p.on_data_ref(CacheId::new(1), b, false);
    p.on_data_ref(CacheId::new(2), b, false);
    let probe = p.probe(b).unwrap();
    assert_eq!(probe.holders.len(), 3);
    assert!(!probe.dirty);
    p.on_data_ref(CacheId::new(1), b, true);
    let probe = p.probe(b).unwrap();
    assert_eq!(probe.holders, vec![CacheId::new(1)]);
    assert!(probe.dirty);
}
