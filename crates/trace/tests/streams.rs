//! The bundled scenarios' generator streams, pinned.
//!
//! Every synthetic result is computed from a generator stream, so a
//! generator change that moves a stream moves results far from it. This
//! suite fails first: it hashes each bundled scenario's first [`PREFIX`]
//! references, DTR1-encoded, with FNV-1a 64 and compares the digests
//! committed below. A change that means to move a stream re-pins them
//! and says why.
//!
//! Each stream is read both ways the generator serves it, through
//! `Iterator::next` and through [`Scenario::source`] at an odd chunk size
//! (each chunk one block fill), and both must give the pinned digest.
//!
//! The prefix is half a million references, not a million, to keep the
//! debug suite fast. It still crosses every scenario's first phase
//! boundary (`phased` changes phase at 400,000 references) and, in the
//! open systems, the first process arrival; the test checks both.

use dirsim_trace::codec::{encode_record, RECORD_LEN};
use dirsim_trace::corpus::Fnv64;
use dirsim_trace::scenario::{registry, Scenario};
use dirsim_trace::{MemRef, TraceSource};

/// References hashed per scenario.
const PREFIX: usize = 500_000;

/// The source's chunk size: odd, so chunk ends do not line up with the
/// bundled scenarios' round quantum and phase lengths.
const CHUNK: usize = 7_777;

/// Each bundled scenario's digest, in registry order.
const DIGESTS: [(&str, u64); 13] = [
    ("pops", 0xa8e8_66d9_a95f_73ee),
    ("thor", 0x6373_d64c_42d8_3fd1),
    ("pero", 0x1516_0efb_e00b_f061),
    ("open-system", 0x0740_a422_e540_9fe1),
    ("zipf-hot", 0xfcf7_5d1a_5dbd_9941),
    ("phased", 0x14dd_74a3_6e42_f28c),
    ("false-sharing", 0x6ad3_a810_f2a4_e310),
    ("producer-consumer", 0x0aa6_8f08_6a22_d66a),
    ("lock-storm", 0xae3a_11a4_fba0_7643),
    ("barrier-heavy", 0x3503_108a_d16d_d247),
    ("migratory-16", 0xef49_edd9_ba62_ff2e),
    ("read-mostly-8", 0x5f53_d6c3_77e2_c62e),
    ("open-zipf-phased", 0x672e_243b_f04b_84a5),
];

/// The FNV-1a digest of `refs`, DTR1-encoded.
#[derive(Debug)]
struct Digest {
    hash: Fnv64,
    record: [u8; RECORD_LEN],
    pid_bound: usize,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: Fnv64::new(),
            record: [0; RECORD_LEN],
            pid_bound: 0,
        }
    }

    fn update(&mut self, r: &MemRef) {
        encode_record(r, &mut self.record);
        self.hash.update(&self.record);
        self.pid_bound = self.pid_bound.max(r.pid.index() + 1);
    }
}

/// `scenario`'s name and the digest of its first [`PREFIX`] references,
/// read through `next()` and through the source, after checking that the
/// two agree and that the prefix reaches its first phase boundary and
/// first arrival.
fn digest(scenario: &Scenario) -> (String, u64) {
    let config = scenario.config();
    let name = scenario.name();
    let mut iterated = Digest::new();
    for r in scenario.workload().take(PREFIX) {
        iterated.update(&r);
    }
    let mut sourced = Digest::new();
    let mut source = scenario.source(PREFIX as u64);
    let mut chunk = Vec::new();
    while source
        .read_chunk(&mut chunk, CHUNK)
        .expect("a generator never fails")
        > 0
    {
        chunk.iter().for_each(|r| sourced.update(r));
    }
    let hash = iterated.hash.finish();
    assert_eq!(
        hash,
        sourced.hash.finish(),
        "{name}: the source and next() read different streams"
    );
    if let Some(first) = config.phases.first() {
        assert!(first.refs < PREFIX as u64, "{name}: prefix ends in phase 1");
    }
    if config.open.is_enabled() {
        assert!(
            iterated.pid_bound > config.processes as usize,
            "{name}: prefix ends before the first arrival"
        );
    }
    (name.to_string(), hash)
}

#[test]
fn bundled_scenario_streams_match_their_pinned_digests() {
    // One thread per scenario: the streams are independent.
    let digests: Vec<(String, u64)> = std::thread::scope(|scope| {
        let runs: Vec<_> = registry()
            .iter()
            .map(|scenario| scope.spawn(move || digest(scenario)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a digest thread panicked"))
            .collect()
    });
    let pinned: Vec<(String, u64)> = DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(digests, pinned);
}
