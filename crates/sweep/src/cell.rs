//! Grid cells and their stable identity.
//!
//! A [`Cell`] is one point of the evaluation grid: a scheme over a
//! workload at a geometry and CPU count, simulated for a fixed number of
//! references. Its identity is an FNV-1a 64-bit hash of the *full*
//! configuration — including the scenario's canonical spec text
//! ([`Scenario::to_spec`]), so editing a `.scn` file changes the hash and
//! the cell re-runs, while re-running an unchanged spec finds every hash
//! already in the store. Cells over external trace files
//! ([`Input::Trace`]) hash the trace path plus its byte length in place
//! of the spec text — rewriting the file re-runs its cells under the
//! same cheap-to-check rule. Everything in the identity except the
//! scheme is the cell's [`Cell::input_key`]: cells that share it simulate
//! the same reference stream, so the sweep runs them as one input group.
//!
//! A [`CellRecord`] is the stored result. It deliberately carries both
//! cost pricings (pipelined and non-pipelined cycles per reference) plus
//! the raw counts: the paper's §4 separation of event frequencies from
//! event costs means one simulation run answers every pricing question,
//! so `cost-models` in the spec only selects report columns and never
//! forces a re-run. It also deliberately omits wall-clock time, so an
//! identical cell always serialises to identical bytes — that is what
//! makes "resumed store equals from-scratch store" testable.

use dirsim::Input;
use dirsim_mem::CacheGeometry;
use dirsim_obs::{json::float, Json};
use dirsim_protocol::Scheme;
use dirsim_trace::corpus::Fnv64;
use dirsim_trace::synth::WorkloadConfig;
use dirsim_trace::Scenario;

/// Identity-format version; bump to force a whole-grid re-run.
pub const CELL_IDENTITY_VERSION: u32 = 1;

/// One point of the evaluation grid, ready to run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Coherence scheme.
    pub scheme: Scheme,
    /// Scenario display name (the trace path for trace cells).
    pub scenario: String,
    /// The reference stream to simulate: a synthetic workload
    /// regenerated from its scenario seed (CPU override already applied),
    /// or a trace file as the spec wrote its path.
    pub input: Input,
    /// Cache geometry; `None` is the paper's infinite cache.
    pub geometry: Option<CacheGeometry>,
    /// CPU-count override from the spec; `None` kept the scenario default.
    pub cpus: Option<u16>,
    /// References to simulate.
    pub refs: usize,
    /// Identity of the reference stream: everything the hash covers
    /// except the scheme. Cells sharing it form one input group, which
    /// the sweep runs as one engine pass over every pending scheme.
    pub input_key: String,
    /// Stable identity hash (16 hex digits).
    pub hash: String,
}

impl Cell {
    /// Builds a cell and computes its identity hash.
    pub fn new(
        scheme: Scheme,
        scenario: &Scenario,
        config: WorkloadConfig,
        geometry: Option<CacheGeometry>,
        cpus: Option<u16>,
        refs: usize,
    ) -> Cell {
        let input_key = format!(
            "scenario={}\nspec={}\ngeometry={}\ncpus={}\nrefs={}\n",
            scenario.name(),
            scenario.to_spec(),
            geometry_label(geometry),
            cpus_label(cpus),
            refs,
        );
        Cell {
            scheme,
            scenario: scenario.name().to_string(),
            input: Input::Synthetic(config),
            geometry,
            cpus,
            refs,
            hash: identity_hash(scheme, &input_key),
            input_key,
        }
    }

    /// Builds a cell over an external trace file and computes its
    /// identity hash. The hash covers the trace path *and* its byte
    /// length: rewriting the file re-runs its cells (the length is a
    /// cheap content heuristic — a same-length edit needs a store
    /// delete), while two axis entries naming different paths are
    /// different cells by construction.
    pub fn from_trace(
        scheme: Scheme,
        path: &str,
        len: u64,
        geometry: Option<CacheGeometry>,
        cpus: Option<u16>,
        refs: usize,
    ) -> Cell {
        let input_key = format!(
            "scenario={path}\nspec=trace:{path}?len={len}\ngeometry={}\ncpus={}\nrefs={}\n",
            geometry_label(geometry),
            cpus_label(cpus),
            refs,
        );
        Cell {
            scheme,
            scenario: path.to_string(),
            input: Input::Trace(path.into()),
            geometry,
            cpus,
            refs,
            hash: identity_hash(scheme, &input_key),
            input_key,
        }
    }

    /// The geometry as a spec label (`infinite` or `SETSxWAYS`).
    pub fn geometry_label(&self) -> String {
        geometry_label(self.geometry)
    }
}

/// The identity hash: the versioned scheme line followed by the input
/// key, so two cells differ in hash exactly when they differ in scheme or
/// input.
fn identity_hash(scheme: Scheme, input_key: &str) -> String {
    let identity = format!(
        "dirsim-sweep-cell-v{CELL_IDENTITY_VERSION}\nscheme={}\n{input_key}",
        scheme.name()
    );
    format!("{:016x}", fnv1a64(identity.as_bytes()))
}

/// Renders a geometry the way sweep specs write it.
pub fn geometry_label(geometry: Option<CacheGeometry>) -> String {
    match geometry {
        None => "infinite".to_string(),
        Some(g) => format!("{}x{}", g.sets, g.ways),
    }
}

/// Renders a CPU override the way sweep specs write it.
pub fn cpus_label(cpus: Option<u16>) -> String {
    match cpus {
        None => "default".to_string(),
        Some(n) => n.to_string(),
    }
}

/// FNV-1a, 64 bit, the same [`Fnv64`] that checksums trace corpora: tiny,
/// dependency-free, and stable across platforms — exactly what a store
/// key needs (this is an identity, not a defence against adversarial
/// collisions).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    hash.finish()
}

/// One completed cell, as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's identity hash.
    pub hash: String,
    /// Scheme name (paper notation).
    pub scheme: String,
    /// Scenario display name.
    pub scenario: String,
    /// Geometry label (`infinite` or `SETSxWAYS`).
    pub geometry: String,
    /// Resolved CPU count the cell ran with.
    pub cpus: u32,
    /// References processed.
    pub refs: u64,
    /// References that caused at least one bus operation.
    pub transactions: u64,
    /// Distinct blocks touched (= cold misses).
    pub distinct_blocks: u64,
    /// Capacity replacements (finite-geometry cells only).
    pub evictions: u64,
    /// Data-miss rate.
    pub miss_rate: f64,
    /// Bus cycles per reference under the pipelined bus (Table 5 pricing).
    pub pipelined_cpr: f64,
    /// Bus cycles per reference under the non-pipelined bus (Table 6).
    pub non_pipelined_cpr: f64,
}

impl CellRecord {
    /// Cycles per reference under the given pricing.
    pub fn cycles_per_ref(&self, model: crate::spec::CostModelKind) -> f64 {
        match model {
            crate::spec::CostModelKind::Pipelined => self.pipelined_cpr,
            crate::spec::CostModelKind::NonPipelined => self.non_pipelined_cpr,
        }
    }

    /// Serialises to the store's JSON record body.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("record".to_string(), Json::Str("cell".to_string())),
            ("hash".to_string(), Json::Str(self.hash.clone())),
            ("scheme".to_string(), Json::Str(self.scheme.clone())),
            ("scenario".to_string(), Json::Str(self.scenario.clone())),
            ("geometry".to_string(), Json::Str(self.geometry.clone())),
            ("cpus".to_string(), Json::Int(i128::from(self.cpus))),
            ("refs".to_string(), Json::Int(i128::from(self.refs))),
            (
                "transactions".to_string(),
                Json::Int(i128::from(self.transactions)),
            ),
            (
                "distinct_blocks".to_string(),
                Json::Int(i128::from(self.distinct_blocks)),
            ),
            (
                "evictions".to_string(),
                Json::Int(i128::from(self.evictions)),
            ),
            ("miss_rate".to_string(), float(self.miss_rate)),
            ("pipelined_cpr".to_string(), float(self.pipelined_cpr)),
            (
                "non_pipelined_cpr".to_string(),
                float(self.non_pipelined_cpr),
            ),
        ])
    }

    /// Parses a store record body.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<CellRecord, String> {
        let text = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell record lacks string `{key}`"))
        };
        let count = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell record lacks count `{key}`"))
        };
        let rate = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell record lacks number `{key}`"))
        };
        Ok(CellRecord {
            hash: text("hash")?,
            scheme: text("scheme")?,
            scenario: text("scenario")?,
            geometry: text("geometry")?,
            cpus: {
                let cpus = count("cpus")?;
                u32::try_from(cpus).map_err(|_| format!("cpus {cpus} out of range"))?
            },
            refs: count("refs")?,
            transactions: count("transactions")?,
            distinct_blocks: count("distinct_blocks")?,
            evictions: count("evictions")?,
            miss_rate: rate("miss_rate")?,
            pipelined_cpr: rate("pipelined_cpr")?,
            non_pipelined_cpr: rate("non_pipelined_cpr")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scheme: Scheme, cpus: Option<u16>, refs: usize) -> Cell {
        let scenario = Scenario::named("pops").unwrap();
        Cell::new(
            scheme,
            scenario,
            scenario.config().clone(),
            None,
            cpus,
            refs,
        )
    }

    #[test]
    fn identity_is_stable_and_axis_sensitive() {
        let base = cell(Scheme::dir0_b(), None, 1000);
        assert_eq!(base.hash, cell(Scheme::dir0_b(), None, 1000).hash);
        assert_eq!(base.hash.len(), 16);
        assert_ne!(base.hash, cell(Scheme::Wti, None, 1000).hash);
        assert_ne!(base.hash, cell(Scheme::dir0_b(), Some(8), 1000).hash);
        assert_ne!(base.hash, cell(Scheme::dir0_b(), None, 2000).hash);

        let scenario = Scenario::named("pops").unwrap();
        let finite = Cell::new(
            Scheme::dir0_b(),
            scenario,
            scenario.config().clone(),
            Some(CacheGeometry { sets: 64, ways: 4 }),
            None,
            1000,
        );
        assert_ne!(base.hash, finite.hash);
        assert_eq!(finite.geometry_label(), "64x4");

        let other = Scenario::named("thor").unwrap();
        let thor = Cell::new(
            Scheme::dir0_b(),
            other,
            other.config().clone(),
            None,
            None,
            1000,
        );
        assert_ne!(base.hash, thor.hash);
    }

    #[test]
    fn hashes_keep_their_full_configuration_rendering() {
        // Splitting the input key out of the identity must not move a
        // hash: existing stores stay valid.
        let scenario = Scenario::named("pops").unwrap();
        let synthetic = cell(Scheme::Wti, Some(8), 1000);
        let rendered = format!(
            "dirsim-sweep-cell-v1\nscheme=WTI\nscenario=pops\nspec={}\ngeometry=infinite\ncpus=8\nrefs=1000\n",
            scenario.to_spec()
        );
        assert_eq!(
            synthetic.hash,
            format!("{:016x}", fnv1a64(rendered.as_bytes()))
        );
        let trace = Cell::from_trace(Scheme::Wti, "a.dtr", 160, None, None, 1000);
        let rendered = "dirsim-sweep-cell-v1\nscheme=WTI\nscenario=a.dtr\nspec=trace:a.dtr?len=160\ngeometry=infinite\ncpus=default\nrefs=1000\n";
        assert_eq!(trace.hash, format!("{:016x}", fnv1a64(rendered.as_bytes())));
    }

    #[test]
    fn input_key_is_the_identity_minus_the_scheme() {
        let base = cell(Scheme::dir0_b(), None, 1000);
        assert_eq!(base.input_key, cell(Scheme::Wti, None, 1000).input_key);
        assert_ne!(
            base.input_key,
            cell(Scheme::dir0_b(), Some(8), 1000).input_key
        );
        assert_ne!(base.input_key, cell(Scheme::dir0_b(), None, 2000).input_key);
        let trace = |scheme, len| Cell::from_trace(scheme, "a.dtr", len, None, None, 1000);
        assert_eq!(
            trace(Scheme::dir0_b(), 160).input_key,
            trace(Scheme::Wti, 160).input_key
        );
        assert_ne!(
            trace(Scheme::dir0_b(), 160).input_key,
            trace(Scheme::dir0_b(), 176).input_key
        );
    }

    #[test]
    fn trace_identity_covers_path_length_and_axes() {
        let base = Cell::from_trace(Scheme::dir0_b(), "a.dtr", 160, None, None, 1000);
        assert_eq!(
            base.hash,
            Cell::from_trace(Scheme::dir0_b(), "a.dtr", 160, None, None, 1000).hash
        );
        assert_eq!(base.scenario, "a.dtr");
        assert_eq!(base.input, Input::Trace("a.dtr".into()));
        // A rewritten file (new length), a different path, and a different
        // scheme are all different cells.
        assert_ne!(
            base.hash,
            Cell::from_trace(Scheme::dir0_b(), "a.dtr", 176, None, None, 1000).hash
        );
        assert_ne!(
            base.hash,
            Cell::from_trace(Scheme::dir0_b(), "b.dtr", 160, None, None, 1000).hash
        );
        assert_ne!(
            base.hash,
            Cell::from_trace(Scheme::Wti, "a.dtr", 160, None, None, 1000).hash
        );
        // And a trace cell never collides with a synthetic one.
        assert_ne!(base.hash, cell(Scheme::dir0_b(), None, 1000).hash);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let record = CellRecord {
            hash: "00ff00ff00ff00ff".to_string(),
            scheme: "Dir1NB".to_string(),
            scenario: "pops".to_string(),
            geometry: "infinite".to_string(),
            cpus: 4,
            refs: 2000,
            transactions: 137,
            distinct_blocks: 44,
            evictions: 0,
            miss_rate: 0.0625,
            pipelined_cpr: 0.3531,
            non_pipelined_cpr: 0.7062,
        };
        let json = record.to_json();
        assert_eq!(json.get("record").and_then(Json::as_str), Some("cell"));
        let back = CellRecord::from_json(&Json::parse(&json.to_string_compact()).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn record_parse_names_the_missing_field() {
        let err =
            CellRecord::from_json(&Json::parse("{\"record\":\"cell\"}").unwrap()).unwrap_err();
        assert!(err.contains("hash"), "{err}");
    }
}
