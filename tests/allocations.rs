//! The match path's allocation budget.
//!
//! A system wider than a table kernel steps the match machines on every
//! reference. Each step returns a `RefOutcome` whose op and movement
//! lists, like each block's `SharerSet`, keep their common case inline,
//! so a run allocates for its set-up and for the rare wide fan-out, not
//! once or more per reference. This binary counts every heap allocation
//! through its own global allocator, so it holds a single test: another
//! test running beside it would allocate into the count.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{gauntlet, wide_config};
use dirsim::prelude::*;
use dirsim_mem::CacheGeometry;

/// Forwards to the system allocator and counts every allocation and
/// reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System`, and the caller's guarantees carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per lane data reference, that is per scheme per
/// data reference. Outcomes and sharer orders in `Vec`s made about 1.0
/// here, and inline lists about 0.025: set-up, sharer sets past eight
/// holders, and Tang's 96 duplicate-tag searches per directory lookup.
const BUDGET: f64 = 0.05;

#[test]
fn wide_match_steps_stay_within_the_allocation_budget() {
    // The gauntlet at 96 caches, past what a kernel tables, on one
    // worker, with 64x4 finite caches as in the benchmark's
    // `wide96-finite`. Both audits are off explicitly, so a build with
    // the `invariants` feature counts the same run.
    let refs: Vec<MemRef> = Workload::new(wide_config(96)).take(100_000).collect();
    let data_refs = refs
        .iter()
        .filter(|r| r.kind != AccessKind::InstrFetch)
        .count();
    let schemes = gauntlet();
    let sim = SimConfig {
        geometry: Some(CacheGeometry { sets: 64, ways: 4 }),
        check_oracle: false,
        check_invariants: false,
        ..SimConfig::default()
    };
    let engine = BroadcastSimulator::new(sim).workers(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let results = engine
        .run(&schemes, 96, SliceSource::new(&refs))
        .expect("the wide run completes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(results.len(), schemes.len());
    let lane_refs = (data_refs * schemes.len()) as f64;
    let per_ref = allocations as f64 / lane_refs;
    assert!(
        per_ref <= BUDGET,
        "{allocations} allocations over {lane_refs} lane data references: \
         {per_ref:.4} each, over the budget of {BUDGET}"
    );
}
