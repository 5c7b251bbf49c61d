//! # dirsim-mem
//!
//! Memory-system substrate for the directory-scheme evaluation: block
//! addressing ([`block::BlockMap`]) and per-block state tables
//! ([`block::BlockTable`]), infinite and finite cache storage
//! ([`cache`]), process- vs processor-based sharing attribution and cold-miss
//! tracking ([`sharing`]), and a protocol-independent coherence-correctness
//! oracle ([`oracle::ShadowMemory`]).
//!
//! The paper simulates infinite caches with 16-byte blocks so that all
//! remaining misses are either cold (excluded from cost) or induced by
//! coherence; this crate provides exactly those mechanics, plus the finite
//! set-associative cache the paper sketches as a first-order extension.
//!
//! ```
//! use dirsim_mem::block::BlockMap;
//! use dirsim_mem::cache::{CacheStorage, InfiniteCache};
//! use dirsim_trace::Addr;
//!
//! let blocks = BlockMap::paper(); // 16-byte blocks
//! let mut cache = InfiniteCache::new();
//! cache.insert(blocks.block_of(Addr::new(0x40)), "line state");
//! assert_eq!(cache.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod cache;
pub mod fxmap;
pub mod oracle;
pub mod sharing;

pub use block::{BlockAddr, BlockMap, BlockTable};
pub use cache::{
    CacheGeometry, CacheId, CacheStorage, FiniteCache, InfiniteCache, InvalidGeometry,
};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use oracle::{CanonicalBlock, OracleViolation, ShadowMemory};
pub use sharing::{FirstRefTracker, SharingModel};
