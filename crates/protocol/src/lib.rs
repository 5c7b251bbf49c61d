//! # dirsim-protocol
//!
//! Cache-coherence protocol state machines for the directory-scheme
//! evaluation: the generic `Dir_i{B,NB}` directory family (the paper's
//! classification, §2), the §6 coarse-vector limited-broadcast directory,
//! and the snoopy baselines (WTI, Dragon, Berkeley).
//!
//! Every protocol implements [`CoherenceProtocol`]: it consumes data
//! references and produces [`RefOutcome`]s carrying
//!
//! 1. the Table 4 *event* classification ([`event::EventKind`]),
//! 2. the *bus operations* to be priced by `dirsim-cost`
//!    ([`ops::BusOp`]), and
//! 3. the semantic *data movements* checked by the `dirsim-mem` oracle.
//!
//! ```
//! use dirsim_protocol::{Scheme, CoherenceProtocol};
//! use dirsim_mem::{BlockAddr, CacheId};
//!
//! // The paper's four headline schemes for a 4-cache system:
//! for scheme in Scheme::paper_lineup() {
//!     let mut protocol = scheme.build(4);
//!     protocol.on_data_ref(CacheId::new(0), BlockAddr::new(0), false);
//!     assert_eq!(protocol.tracked_blocks(), 1);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod directory;
pub mod event;
pub mod inline_list;
pub mod ops;
pub mod sharer_set;
pub mod snoopy;

pub use api::{
    BlockProbe, BlockState, CacheSymmetry, CoherenceProtocol, ProtocolStyle, StateSnapshot,
};
pub use directory::{CoarseVectorProtocol, DirSpec, DirUpdate, DirectoryProtocol, Tang, YenFu};
pub use event::{EventCounts, EventKind};
pub use ops::{BusOp, DataMovement, OpCounts, RefOutcome};
pub use sharer_set::SharerSet;
pub use snoopy::{Berkeley, Dragon, Illinois, Wti};

/// A buildable coherence scheme: one point in the evaluated design space.
///
/// This is the factory the experiment harness uses to instantiate protocols
/// by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// A `Dir_i{B,NB}` directory scheme.
    Directory(DirSpec),
    /// The §6 coarse-vector limited-broadcast directory.
    CoarseVector,
    /// Tang's duplicate-tag organisation of the full-map directory.
    Tang,
    /// The Yen & Fu single-bit refinement of the full-map directory.
    YenFu,
    /// Directory-driven update protocol (Dragon's model, directed updates).
    DirUpdate,
    /// Write-Through-With-Invalidate snoopy protocol.
    Wti,
    /// The Illinois (MESI) snoopy protocol (the paper's reference \[5\]).
    Illinois,
    /// Dragon update snoopy protocol.
    Dragon,
    /// Berkeley Ownership (Dir0B cost model with free directory).
    Berkeley,
}

impl Scheme {
    /// The four schemes of the paper's headline evaluation (§3), in the
    /// order of Table 4: `Dir1NB`, `WTI`, `Dir0B`, `Dragon`.
    pub fn paper_lineup() -> Vec<Scheme> {
        vec![
            Scheme::Directory(DirSpec::dir1_nb()),
            Scheme::Wti,
            Scheme::Directory(DirSpec::dir0_b()),
            Scheme::Dragon,
        ]
    }

    /// `Dir0B`: no pointers, broadcast on every write to shared data.
    pub fn dir0_b() -> Scheme {
        Scheme::Directory(DirSpec::dir0_b())
    }

    /// `Dir1B`: one pointer, broadcast on overflow.
    pub fn dir1_b() -> Scheme {
        Scheme::Directory(DirSpec::dir1_b())
    }

    /// `DiriB`: `i` pointers, broadcast on overflow (`i = 0` is
    /// [`Scheme::dir0_b`]).
    pub fn dir_i_b(i: u32) -> Scheme {
        Scheme::Directory(DirSpec::dir_i_b(i))
    }

    /// `Dir1NB`: one pointer, evict-on-overflow, no broadcast.
    pub fn dir1_nb() -> Scheme {
        Scheme::Directory(DirSpec::dir1_nb())
    }

    /// `DirnNB`: the full-map directory.
    pub fn dir_n_nb() -> Scheme {
        Scheme::Directory(DirSpec::dir_n_nb())
    }

    /// Instantiates the protocol for a system of `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub fn build(self, caches: u32) -> Box<dyn CoherenceProtocol> {
        match self {
            Scheme::Directory(spec) => Box::new(DirectoryProtocol::new(spec, caches)),
            Scheme::CoarseVector => Box::new(CoarseVectorProtocol::new(caches)),
            Scheme::Tang => Box::new(Tang::new(caches)),
            Scheme::YenFu => Box::new(YenFu::new(caches)),
            Scheme::DirUpdate => Box::new(DirUpdate::new(caches)),
            Scheme::Wti => Box::new(Wti::new(caches)),
            Scheme::Illinois => Box::new(Illinois::new(caches)),
            Scheme::Dragon => Box::new(Dragon::new(caches)),
            Scheme::Berkeley => Box::new(Berkeley::new(caches)),
        }
    }

    /// The directory specification, for the `Dir_i{B,NB}` family; `None`
    /// for every other organisation. Static analysis uses this to know
    /// which pointer-capacity and broadcast-discipline lints apply.
    pub fn dir_spec(self) -> Option<DirSpec> {
        match self {
            Scheme::Directory(spec) => Some(spec),
            _ => None,
        }
    }

    /// Whether the scheme is a snoopy protocol, i.e. depends on every
    /// cache observing every coherence transaction. Snoopy schemes need a
    /// broadcast medium; directory schemes send directed messages and run
    /// over arbitrary networks (the paper's central argument).
    pub fn is_snoopy(self) -> bool {
        matches!(
            self,
            Scheme::Wti | Scheme::Illinois | Scheme::Dragon | Scheme::Berkeley
        )
    }

    /// The scheme's display name.
    pub fn name(self) -> String {
        match self {
            Scheme::Directory(spec) => spec.to_string(),
            Scheme::CoarseVector => "CoarseVector".to_string(),
            Scheme::Tang => "Tang".to_string(),
            Scheme::YenFu => "YenFu".to_string(),
            Scheme::DirUpdate => "DirUpd".to_string(),
            Scheme::Wti => "WTI".to_string(),
            Scheme::Illinois => "Illinois".to_string(),
            Scheme::Dragon => "Dragon".to_string(),
            Scheme::Berkeley => "Berkeley".to_string(),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Error parsing a scheme name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    input: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme {:?}; expected Dir<i>B, Dir<i>NB, DirnB, DirnNB, \
             CoarseVector, Tang, YenFu, DirUpd, WTI, Illinois, Dragon or Berkeley",
            self.input
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parses the paper's notation, case-insensitively: `Dir0B`, `Dir2NB`,
    /// `DirnNB`, `WTI`, `Dragon`, `Berkeley`, `CoarseVector`, `Tang`,
    /// `YenFu`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSchemeError {
            input: s.to_string(),
        };
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "wti" => return Ok(Scheme::Wti),
            "illinois" | "mesi" => return Ok(Scheme::Illinois),
            "dragon" => return Ok(Scheme::Dragon),
            "berkeley" => return Ok(Scheme::Berkeley),
            "coarsevector" | "coarse-vector" | "coarse" => return Ok(Scheme::CoarseVector),
            "tang" => return Ok(Scheme::Tang),
            "yenfu" | "yen-fu" => return Ok(Scheme::YenFu),
            "dirupd" | "dirupdate" | "dir-update" => return Ok(Scheme::DirUpdate),
            _ => {}
        }
        let rest = lower.strip_prefix("dir").ok_or_else(err)?;
        let (count, broadcast) = if let Some(c) = rest.strip_suffix("nb") {
            (c, false)
        } else if let Some(c) = rest.strip_suffix('b') {
            (c, true)
        } else {
            return Err(err());
        };
        let capacity = if count == "n" {
            directory::PointerCapacity::Full
        } else {
            directory::PointerCapacity::Limited(count.parse().map_err(|_| err())?)
        };
        let spec = DirSpec::new(capacity, broadcast).map_err(|_| err())?;
        Ok(Scheme::Directory(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lineup_order_and_names() {
        let names: Vec<String> = Scheme::paper_lineup().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Dir1NB", "WTI", "Dir0B", "Dragon"]);
    }

    #[test]
    fn build_matches_name() {
        for scheme in [
            Scheme::Directory(DirSpec::dir0_b()),
            Scheme::CoarseVector,
            Scheme::Tang,
            Scheme::YenFu,
            Scheme::Wti,
            Scheme::Dragon,
            Scheme::Berkeley,
        ] {
            let p = scheme.build(4);
            assert_eq!(p.name(), scheme.name());
            assert_eq!(p.cache_count(), 4);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Scheme::Dragon.to_string(), "Dragon");
        assert_eq!(Scheme::Directory(DirSpec::dir1_b()).to_string(), "Dir1B");
    }

    #[test]
    fn parse_round_trips_every_scheme() {
        let mut schemes = Scheme::paper_lineup();
        schemes.extend([
            Scheme::Directory(DirSpec::dir_n_nb()),
            Scheme::Directory(DirSpec::dir1_b()),
            Scheme::Directory(DirSpec::dir_i_b(7)),
            Scheme::Directory(DirSpec::dir_i_nb(3).unwrap()),
            Scheme::CoarseVector,
            Scheme::Tang,
            Scheme::YenFu,
            Scheme::DirUpdate,
            Scheme::Illinois,
            Scheme::Berkeley,
        ]);
        for scheme in schemes {
            let parsed: Scheme = scheme.name().parse().unwrap();
            assert_eq!(parsed, scheme);
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("dir0b".parse::<Scheme>().unwrap().name(), "Dir0B");
        assert_eq!("DRAGON".parse::<Scheme>().unwrap(), Scheme::Dragon);
        assert_eq!("dirnnb".parse::<Scheme>().unwrap().name(), "DirnNB");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "Dir", "DirXB", "Dir0NB", "MOESI", "Dir-1B"] {
            let err = bad.parse::<Scheme>().unwrap_err();
            assert!(err.to_string().contains("unknown scheme"), "{bad}");
        }
    }

    #[test]
    fn dir_spec_accessor() {
        assert_eq!(
            Scheme::Directory(DirSpec::dir1_b()).dir_spec(),
            Some(DirSpec::dir1_b())
        );
        assert_eq!(Scheme::Tang.dir_spec(), None);
        assert_eq!(Scheme::Dragon.dir_spec(), None);
    }

    #[test]
    fn snoopy_classification() {
        assert!(Scheme::Wti.is_snoopy());
        assert!(Scheme::Dragon.is_snoopy());
        assert!(Scheme::Berkeley.is_snoopy());
        assert!(!Scheme::Directory(DirSpec::dir0_b()).is_snoopy());
        assert!(!Scheme::CoarseVector.is_snoopy());
        assert!(!Scheme::Tang.is_snoopy());
    }
}
