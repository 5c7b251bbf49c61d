//! Transition-table extraction: lift an imperative protocol into an
//! explicit declarative relation.
//!
//! Extraction is a product construction over a small configuration: from
//! the empty initial state, apply every symbol of the alphabet (all
//! `caches × blocks × {read,write}` references plus all `caches × blocks`
//! capacity evictions) to every reachable state, deduplicating states on
//! the protocol's canonical [`StateSnapshot`]. The result is a total
//! function `state × symbol → (state, event, ops, movements, fanout)` —
//! the table the static [`crate::checks`] catalogue and the golden diffs
//! operate on.
//!
//! Audited extraction routes every step through the same invariant and
//! shadow-memory-oracle checks as the simulation engine, so a table only
//! comes out of a machine the dynamic layers also accept; unaudited
//! extraction records whatever the machine does, which is what lets the
//! deliberately broken `verify::mutants` still produce tables for the
//! lint pass and golden diff to flag.

use std::collections::HashMap;
use std::fmt;

use dirsim::invariant;
use dirsim_mem::{BlockAddr, CacheId, ShadowMemory};
use dirsim_protocol::{
    BlockState, BusOp, CacheSymmetry, CoherenceProtocol, EventKind, ProtocolStyle, RefOutcome,
    StateSnapshot,
};
use dirsim_verify::{CheckConfig, Step};

/// Hard cap on discovered states; extraction aborts beyond it rather than
/// chase an unbounded (buggy) state space.
const MAX_STATES: usize = 100_000;

/// One input symbol of the extracted machine: a data reference or a
/// capacity eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// A read or write by one cache to one block.
    Ref(Step),
    /// A capacity eviction of one block from one cache.
    Evict {
        /// The evicting cache.
        cache: CacheId,
        /// The evicted block.
        block: BlockAddr,
    },
}

impl Symbol {
    /// The cache acting in this symbol.
    pub fn cache(&self) -> CacheId {
        match *self {
            Symbol::Ref(step) => step.cache,
            Symbol::Evict { cache, .. } => cache,
        }
    }

    /// The block this symbol touches.
    pub fn block(&self) -> BlockAddr {
        match *self {
            Symbol::Ref(step) => step.block,
            Symbol::Evict { block, .. } => block,
        }
    }

    /// Whether this symbol is a capacity eviction.
    pub fn is_evict(&self) -> bool {
        matches!(self, Symbol::Evict { .. })
    }

    /// The same symbol with the acting cache renamed through `perm`.
    pub fn permuted(&self, perm: &[u32]) -> Symbol {
        let rename = |c: CacheId| CacheId::new(perm[c.index()]);
        match *self {
            Symbol::Ref(step) => Symbol::Ref(Step {
                cache: rename(step.cache),
                ..step
            }),
            Symbol::Evict { cache, block } => Symbol::Evict {
                cache: rename(cache),
                block,
            },
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Symbol::Ref(step) => step.fmt(f),
            Symbol::Evict { cache, block } => write!(f, "evict {block} {cache}"),
        }
    }
}

/// The full symbol alphabet for one configuration: every reference of
/// [`CheckConfig::alphabet`] followed by every capacity eviction of
/// [`CheckConfig::eviction_alphabet`], both in their fixed enumeration
/// orders.
pub fn symbols_for(cfg: &CheckConfig) -> Vec<Symbol> {
    cfg.alphabet()
        .into_iter()
        .map(Symbol::Ref)
        .chain(
            cfg.eviction_alphabet()
                .into_iter()
                .map(|(cache, block)| Symbol::Evict { cache, block }),
        )
        .collect()
}

/// One cell of the table: what applying one symbol in one state does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Destination state id (index into [`ProtocolTable::states`]).
    pub to: usize,
    /// Table 4 event classification (`None` for evictions).
    pub event: Option<EventKind>,
    /// Bus operations the step put on the bus, in emission order.
    pub ops: Vec<BusOp>,
    /// Semantic data movements as compact [`dirsim_protocol::DataMovement::code`]
    /// labels, in emission order.
    pub movements: Vec<String>,
    /// The clean-write invalidation fan-out datum, when the event reports
    /// one.
    pub fanout: Option<u32>,
}

/// One reachable state and its complete outgoing row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableState {
    /// The canonical per-block protocol state, ordered by block address.
    pub blocks: Vec<BlockState>,
    /// Outgoing transitions, indexed identically to
    /// [`ProtocolTable::symbols`].
    pub transitions: Vec<Transition>,
}

/// A complete extracted transition relation for one scheme at one
/// configuration. State 0 is the initial (empty) state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolTable {
    /// Scheme display name (`Dir1NB`, `Dragon`, …).
    pub scheme: String,
    /// The scheme's write-propagation family.
    pub style: ProtocolStyle,
    /// Whether cache permutations are a symmetry of the machine.
    pub symmetry: CacheSymmetry,
    /// Number of caches in the extracted configuration.
    pub caches: u32,
    /// Number of blocks in the extracted configuration.
    pub blocks: u64,
    /// The symbol alphabet; every state has exactly one transition per
    /// symbol.
    pub symbols: Vec<Symbol>,
    /// All reachable states, in breadth-first discovery order.
    pub states: Vec<TableState>,
}

/// Why extraction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractError {
    /// The scheme being extracted.
    pub scheme: String,
    /// Discovery id of the state the failure occurred in.
    pub state: usize,
    /// The symbol being applied (empty for state-level failures).
    pub symbol: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: extraction failed at state {}",
            self.scheme, self.state
        )?;
        if !self.symbol.is_empty() {
            write!(f, " on '{}'", self.symbol)?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for ExtractError {}

/// Applies one symbol to a live machine, optionally running the full
/// engine-grade audit (invariants plus oracle replay).
fn apply_symbol(
    protocol: &mut dyn CoherenceProtocol,
    oracle: &mut ShadowMemory,
    symbol: &Symbol,
    audited: bool,
) -> Result<RefOutcome, String> {
    match *symbol {
        Symbol::Ref(step) => {
            let pre = protocol.probe(step.block);
            let out = protocol.on_data_ref(step.cache, step.block, step.write);
            if audited {
                invariant::check_data_ref(
                    &*protocol,
                    pre.as_ref(),
                    step.cache,
                    step.block,
                    step.write,
                    &out,
                )
                .map_err(|v| format!("invariant: {v}"))?;
                invariant::replay_movements(oracle, &out.movements, step.block)
                    .map_err(|v| format!("oracle: {v}"))?;
                oracle
                    .check_read(step.cache, step.block)
                    .map_err(|v| format!("oracle: {v}"))?;
                invariant::check_snapshot(
                    protocol.style(),
                    &protocol.snapshot(),
                    protocol.cache_count(),
                )
                .map_err(|v| format!("invariant: {v}"))?;
            }
            Ok(out)
        }
        Symbol::Evict { cache, block } => {
            let out = protocol.evict(cache, block);
            if audited {
                invariant::check_eviction(&*protocol, cache, block, &out)
                    .map_err(|v| format!("invariant: {v}"))?;
                invariant::replay_movements(oracle, &out.movements, block)
                    .map_err(|v| format!("oracle: {v}"))?;
            }
            Ok(out)
        }
    }
}

/// Cross-checks the sharer set the protocol *reports* in its canonical
/// state against the copies the shadow-memory oracle *saw* move.
fn cross_check_oracle(
    snapshot: &StateSnapshot,
    oracle: &ShadowMemory,
    blocks: u64,
) -> Result<(), String> {
    for raw in 0..blocks {
        let block = BlockAddr::new(raw);
        let mut claimed: Vec<CacheId> = snapshot
            .get(block)
            .map(|b| b.holders.clone())
            .unwrap_or_default();
        claimed.sort_by_key(|c| c.index());
        let seen = oracle.holders(block);
        if claimed != seen {
            return Err(format!(
                "oracle cross-check: {block} protocol holders {claimed:?} != oracle copies {seen:?}"
            ));
        }
    }
    Ok(())
}

struct Node {
    protocol: Box<dyn CoherenceProtocol>,
    oracle: ShadowMemory,
    /// A second concrete instance that reached the same snapshot by a
    /// different path, kept for the confluence check.
    alternate: Option<(Box<dyn CoherenceProtocol>, ShadowMemory)>,
}

/// Extracts the complete transition relation of `build()`'s protocol over
/// a `caches × blocks` configuration.
///
/// With `audited` set, every step runs the engine's invariant catalogue
/// and the shadow-memory oracle, and every discovered state is
/// cross-checked against the oracle's holder sets; extraction fails on the
/// first violation. Unaudited extraction records the machine verbatim.
///
/// After discovery, a **confluence** pass re-derives the outgoing row of
/// every state that was reached by more than one concrete path, from the
/// second instance: if the two rows differ, the canonical snapshot is not
/// a sufficient statistic of the machine's behaviour (hidden state — the
/// table would be nondeterministic) and extraction fails.
///
/// # Errors
///
/// Returns an [`ExtractError`] describing the first audit violation,
/// confluence divergence, or state-space blow-up past an internal cap.
pub fn extract<F>(
    build: F,
    caches: u32,
    blocks: u64,
    audited: bool,
) -> Result<ProtocolTable, ExtractError>
where
    F: Fn() -> Box<dyn CoherenceProtocol>,
{
    let cfg = CheckConfig {
        caches,
        blocks,
        depth: 0,
    };
    let symbols = symbols_for(&cfg);
    let initial = build();
    let scheme = initial.name();
    let style = initial.style();
    let symmetry = initial.cache_symmetry();
    let err = |state: usize, symbol: String, detail: String| ExtractError {
        scheme: scheme.clone(),
        state,
        symbol,
        detail,
    };

    let mut ids: HashMap<StateSnapshot, usize> = HashMap::new();
    let mut snaps: Vec<StateSnapshot> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut rows: Vec<Vec<Transition>> = Vec::new();

    let snap0 = initial.snapshot();
    ids.insert(snap0.clone(), 0);
    snaps.push(snap0);
    nodes.push(Node {
        protocol: initial,
        oracle: ShadowMemory::new(),
        alternate: None,
    });

    let mut cursor = 0;
    while cursor < nodes.len() {
        let mut row = Vec::with_capacity(symbols.len());
        for symbol in &symbols {
            let mut protocol = nodes[cursor].protocol.boxed_clone();
            let mut oracle = nodes[cursor].oracle.clone();
            let out = apply_symbol(protocol.as_mut(), &mut oracle, symbol, audited)
                .map_err(|detail| err(cursor, symbol.to_string(), detail))?;
            let snap = protocol.snapshot();
            if audited {
                cross_check_oracle(&snap, &oracle, blocks)
                    .map_err(|detail| err(cursor, symbol.to_string(), detail))?;
            }
            let to = match ids.get(&snap) {
                Some(&id) => {
                    if nodes[id].alternate.is_none() {
                        nodes[id].alternate = Some((protocol, oracle));
                    }
                    id
                }
                None => {
                    let id = nodes.len();
                    if id >= MAX_STATES {
                        return Err(err(
                            cursor,
                            symbol.to_string(),
                            format!("state space exceeds {MAX_STATES} states"),
                        ));
                    }
                    ids.insert(snap.clone(), id);
                    snaps.push(snap);
                    nodes.push(Node {
                        protocol,
                        oracle,
                        alternate: None,
                    });
                    id
                }
            };
            row.push(Transition {
                to,
                event: out.event,
                ops: out.ops.to_vec(),
                movements: out.movements.iter().map(|m| m.code()).collect(),
                fanout: out.clean_write_fanout,
            });
        }
        rows.push(row);
        cursor += 1;
    }

    // Confluence: every state reached by a second concrete path must
    // produce the identical row from that second instance.
    for id in 0..nodes.len() {
        let Some((alt_protocol, alt_oracle)) = nodes[id].alternate.take() else {
            continue;
        };
        for (si, symbol) in symbols.iter().enumerate() {
            let mut protocol = alt_protocol.boxed_clone();
            let mut oracle = alt_oracle.clone();
            let out = apply_symbol(protocol.as_mut(), &mut oracle, symbol, audited)
                .map_err(|detail| err(id, symbol.to_string(), detail))?;
            let snap = protocol.snapshot();
            let expected = &rows[id][si];
            let to = ids.get(&snap).copied();
            let movements: Vec<String> = out.movements.iter().map(|m| m.code()).collect();
            if to != Some(expected.to)
                || out.event != expected.event
                || out.ops != expected.ops
                || movements != expected.movements
                || out.clean_write_fanout != expected.fanout
            {
                return Err(err(
                    id,
                    symbol.to_string(),
                    "confluence violation: two instances with equal canonical snapshots \
                     diverge — the snapshot is not a sufficient statistic"
                        .to_string(),
                ));
            }
        }
    }

    let states = snaps
        .into_iter()
        .zip(rows)
        .map(|(snap, transitions)| TableState {
            blocks: snap.blocks().to_vec(),
            transitions,
        })
        .collect();
    Ok(ProtocolTable {
        scheme,
        style,
        symmetry,
        caches,
        blocks,
        symbols,
        states,
    })
}

impl ProtocolTable {
    /// Total number of transitions (states × symbols for a well-formed
    /// table).
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }

    /// The state of `block` in state `id`, if tracked there.
    pub fn block_state(&self, id: usize, block: BlockAddr) -> Option<&BlockState> {
        self.states[id].blocks.iter().find(|b| b.block == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::Scheme;

    #[test]
    fn symbol_alphabet_is_refs_then_evictions() {
        let cfg = CheckConfig {
            caches: 2,
            blocks: 1,
            depth: 0,
        };
        let symbols = symbols_for(&cfg);
        // 2 caches × 2 ops × 1 block refs, then 2 caches × 1 block evictions.
        assert_eq!(symbols.len(), 6);
        assert!(!symbols[0].is_evict());
        assert!(symbols[5].is_evict());
        assert_eq!(symbols[4].to_string(), "evict blk0x0 $#0");
    }

    #[test]
    fn symbol_permutation_renames_the_actor_only() {
        let sym = Symbol::Ref(Step {
            cache: CacheId::new(0),
            block: BlockAddr::new(0),
            write: true,
        });
        let p = sym.permuted(&[2, 1, 0]);
        assert_eq!(p.cache(), CacheId::new(2));
        assert_eq!(p.block(), BlockAddr::new(0));
    }

    #[test]
    fn extracts_full_map_directory() {
        let table = extract(|| Scheme::dir_n_nb().build(2), 2, 1, true).unwrap();
        assert_eq!(table.scheme, "DirnNB");
        assert_eq!(table.caches, 2);
        // State 0 is the empty initial state.
        assert!(table.states[0].blocks.is_empty());
        // Every state has a full row.
        for s in &table.states {
            assert_eq!(s.transitions.len(), table.symbols.len());
        }
        // A write after a remote read invalidates: some transition carries
        // an inval movement.
        assert!(table
            .states
            .iter()
            .flat_map(|s| &s.transitions)
            .any(|t| t.movements.iter().any(|m| m.starts_with("inval("))));
    }

    #[test]
    fn unaudited_extraction_accepts_a_broken_machine() {
        let table = extract(
            || Box::new(dirsim_verify::mutants::DroppedInvalidate::new(3)),
            3,
            1,
            false,
        )
        .unwrap();
        assert!(table.states.len() > 1);
    }

    #[test]
    fn audited_extraction_rejects_a_broken_machine() {
        let err = extract(
            || Box::new(dirsim_verify::mutants::DroppedInvalidate::new(3)),
            3,
            1,
            true,
        )
        .unwrap_err();
        assert!(
            err.detail.contains("invariant") || err.detail.contains("oracle"),
            "{err}"
        );
    }
}
