//! # dirsim-bench
//!
//! Reproduction harness for the paper's evaluation section: the `repro`
//! binary regenerates every table and figure, the paper's sketched
//! extensions, and four design-choice ablations.
//!
//! Run the full report:
//!
//! ```text
//! cargo run -p dirsim-bench --bin repro --release
//! ```
//!
//! or one artifact:
//!
//! ```text
//! cargo run -p dirsim-bench --bin repro --release -- --only table4
//! ```

#![warn(missing_docs)]

use dirsim::paper;
use dirsim::prelude::*;
use dirsim::report;
use dirsim::SimError;
use dirsim_protocol::DirSpec;

/// Reference count per trace used by the full report.
pub const REPORT_REFS: usize = 1_000_000;

/// Reference count per trace used by `repro --quick`.
pub const QUICK_REFS: usize = 100_000;

/// Every artifact the repro binary can produce, in paper order.
/// `sec4.finite` and `sec5.sys` are the paper's sketched extensions
/// (finite caches; effective-processor bound), fully implemented here;
/// `ablations` comes last.
pub const ARTIFACTS: [&str; 23] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "sec4.finite",
    "sec5.1",
    "sec5.2",
    "sec5.sys",
    "sec6a",
    "sec6b",
    "sec6c",
    "sec7.network",
    "compare",
    "robustness",
    "sec5.timing",
    "sensitivity",
    "ablations",
];

/// Renders one artifact given pre-computed headline/extended results.
///
/// `headline` must come from [`paper::headline_experiment`] and `extended`
/// from [`paper::extended_experiment`] at the same scale.
///
/// # Panics
///
/// Panics if `name` is not in [`ARTIFACTS`] or required schemes are absent.
pub fn render_artifact(
    name: &str,
    headline: &ExperimentResults,
    extended: &ExperimentResults,
    refs: usize,
) -> String {
    let pipelined = CostModel::pipelined();
    match name {
        "table1" => report::render_table1(),
        "table2" => report::render_table2(),
        "table3" => report::render_table3(headline),
        "table4" => report::render_table4(headline),
        "table5" => report::render_table5(headline, pipelined),
        "fig1" => report::render_figure1(headline, Scheme::dir0_b()),
        "fig2" => report::render_figure2(headline),
        "fig3" => report::render_figure3(headline),
        "fig4" => report::render_figure4(headline, pipelined),
        "fig5" => report::render_figure5(headline, pipelined),
        "sec4.finite" => {
            let rows = paper::finite_cache_study(
                Scheme::Directory(DirSpec::dir0_b()),
                refs.min(200_000),
                &[256, 1024, 4096, 16384],
            )
            .expect("finite-cache simulation");
            report::render_finite_cache("Dir0B", &rows)
        }
        "sec5.sys" => {
            let system = dirsim::analysis::SystemModel::PAPER;
            let bounds = dirsim::analysis::effective_processor_bounds(headline, pipelined, system);
            let mut out = report::render_effective_processors(&bounds, system);
            // First-order contention (M/D/1): effective throughput per
            // processor as the machine grows.
            let mut table = report::TextTable::new(
                "Section 5 extension: per-processor throughput under bus contention",
            );
            table.headers(["scheme", "n=2", "n=4", "n=8", "n=12"]);
            for s in &headline.per_scheme {
                let bd = s.combined.breakdown(pipelined);
                let mut row = vec![s.scheme.name()];
                for n in [2u32, 4, 8, 12] {
                    let t = system.contended_throughput(
                        bd.cycles_per_ref(),
                        bd.cycles_per_transaction(),
                        bd.transactions_per_ref(),
                        n,
                    );
                    row.push(if t == 0.0 {
                        "sat".to_string()
                    } else {
                        format!("{:.0}%", t * 100.0)
                    });
                }
                table.row(row);
            }
            out.push('\n');
            out.push_str(&table.render());
            out
        }
        "sec5.1" => {
            let qs = [0.0, 0.5, 1.0, 2.0, 4.0];
            let lines: Vec<(String, Vec<(f64, f64)>)> = headline
                .per_scheme
                .iter()
                .map(|s| {
                    (
                        s.scheme.name(),
                        paper::q_sensitivity(&s.combined, pipelined, &qs),
                    )
                })
                .collect();
            report::render_q_sweep(&lines)
        }
        "sec5.2" => {
            let impacts = paper::lock_impact(
                refs,
                vec![
                    Scheme::Directory(DirSpec::dir1_nb()),
                    Scheme::Directory(DirSpec::dir0_b()),
                ],
            )
            .expect("lock-impact simulation");
            report::render_lock_impact(&impacts)
        }
        "sec6a" => {
            // DirnNB sequential invalidation vs Dir0B broadcast, plus the
            // Berkeley and coarse-vector placements.
            let mut table = report::TextTable::new(
                "Section 6a: broadcast vs sequential invalidation vs limited broadcast",
            );
            table.headers(["scheme", "cycles/ref (pipelined)"]);
            for scheme in [
                Scheme::dir0_b(),
                Scheme::dir_n_nb(),
                Scheme::dir1_b(),
                Scheme::CoarseVector,
                Scheme::Berkeley,
                Scheme::Illinois,
                Scheme::Dragon,
                Scheme::DirUpdate,
            ] {
                if let Some(s) = extended.get(scheme) {
                    table.row([
                        scheme.to_string(),
                        format!("{:.4}", s.combined.cycles_per_ref(pipelined)),
                    ]);
                }
            }
            table.render()
        }
        "sec6b" => {
            let dir1b = &extended[Scheme::dir1_b()];
            let points = paper::broadcast_sensitivity(&dir1b.combined, &[1, 2, 4, 8, 16, 32]);
            report::render_broadcast_sweep("Dir1B", &points)
        }
        "sec6c" => {
            let mut out = String::new();
            for n in [4u16, 16, 64] {
                let rows = paper::pointer_sweep(n, refs.min(200_000), &[1, 2, 4])
                    .expect("pointer sweep simulation");
                out.push_str(&report::render_pointer_sweep(n, &rows));
                out.push('\n');
            }
            out
        }
        "sec5.timing" => {
            let rows =
                paper::utilization_study(refs.min(60_000), &[2, 4, 8, 16], Scheme::paper_lineup());
            report::render_utilization(&rows)
        }
        "sensitivity" => {
            let rows = paper::sharing_sweep(
                refs.min(100_000),
                &[0.0, 0.01, 0.02, 0.05, 0.10, 0.20],
                Scheme::paper_lineup(),
            )
            .expect("sharing-sweep simulation");
            report::render_sharing_sweep(&rows)
        }
        "robustness" => {
            let rows =
                paper::seed_sensitivity(refs.min(100_000), 3).expect("seed-sensitivity simulation");
            report::render_seed_sensitivity(&rows)
        }
        "compare" => {
            let mut out = report::render_table4_comparison(headline);
            out.push('\n');
            out.push_str(&report::render_table5_comparison(extended));
            out
        }
        "sec7.network" => {
            let mut out = String::new();
            for nodes in [16u16, 64] {
                let rows = paper::network_scaling(
                    nodes,
                    refs.min(100_000),
                    vec![
                        Scheme::Directory(DirSpec::dir1_b()),
                        Scheme::Directory(DirSpec::dir_n_nb()),
                        Scheme::Wti,
                        Scheme::Dragon,
                    ],
                )
                .expect("network-scaling simulation");
                out.push_str(&report::render_network_scaling(&rows));
                out.push('\n');
            }
            out
        }
        "ablations" => {
            let refs = refs.min(200_000);
            let study = ablations(refs).expect("ablation simulation");
            let scale = format!("pipelined, {refs} refs");
            let mut block = report::TextTable::new(format!(
                "Ablation: block size (Dir0B on pops; fs = false-sharing config; {scale})"
            ));
            block.headers([
                "block bytes",
                "cycles/ref",
                "miss rate",
                "fs cycles/ref",
                "fs miss rate",
            ]);
            for r in &study.block_size {
                block.row([
                    r.bytes.to_string(),
                    format!("{:.4}", r.cycles_per_ref),
                    format!("{:.3}%", r.miss_rate * 100.0),
                    format!("{:.4}", r.fs_cycles_per_ref),
                    format!("{:.3}%", r.fs_miss_rate * 100.0),
                ]);
            }
            let mut organisation = report::TextTable::new(format!(
                "Ablation: full-map directory organisation (pops, 4 caches; {scale})"
            ));
            organisation.headers([
                "organisation",
                "cycles/ref",
                "dir lookups/kiloref",
                "dir updates/kiloref",
            ]);
            let per_kiloref = |ops: u64| format!("{:.3}", ops as f64 * 1000.0 / refs as f64);
            for r in &study.organisation {
                organisation.row([
                    r.scheme.name(),
                    format!("{:.4}", r.cycles_per_ref),
                    per_kiloref(r.dir_lookups),
                    per_kiloref(r.dir_updates),
                ]);
            }
            let mut out = block.render();
            out.push('\n');
            out.push_str(&organisation.render());
            for (title, column, rows) in [
                (
                    format!("Ablation: Dir2NB eviction policy (thor; {scale})"),
                    "policy",
                    &study.eviction,
                ),
                (
                    format!(
                        "Ablation: sharing attribution (Dir0B on pops, migration 0.001; {scale})"
                    ),
                    "attribution",
                    &study.attribution,
                ),
            ] {
                let mut table = report::TextTable::new(title);
                table.headers([column, "cycles/ref", "coh. miss rate"]);
                for r in rows {
                    table.row([
                        r.label.to_string(),
                        format!("{:.4}", r.cycles_per_ref),
                        format!("{:.3}%", r.coherence_miss_rate * 100.0),
                    ]);
                }
                out.push('\n');
                out.push_str(&table.render());
            }
            out
        }
        other => panic!("unknown artifact {other:?}; expected one of {ARTIFACTS:?}"),
    }
}

/// The design-choice ablations that `repro --only ablations` renders.
#[derive(Debug)]
struct Ablations {
    /// Block sizes 4, 16, 64 and 256 bytes, smallest first.
    block_size: Vec<BlockSizeRow>,
    /// The full-map organisations DirnNB (Censier–Feautrier), Tang and
    /// YenFu, in that order.
    organisation: Vec<OrganisationRow>,
    /// Dir2NB's overflow victim: oldest-sharer, then newest-sharer.
    eviction: Vec<SettingRow>,
    /// Sharing attribution: per-process, then per-processor.
    attribution: Vec<SettingRow>,
}

/// One block size of [`Ablations::block_size`]: Dir0B on pops and on a
/// config derived from pops whose only sharing is false sharing.
#[derive(Debug)]
struct BlockSizeRow {
    /// Block size in bytes.
    bytes: u32,
    /// Pipelined bus cycles per reference on pops, a block transfer priced
    /// by its word count.
    cycles_per_ref: f64,
    /// Data miss rate on pops.
    miss_rate: f64,
    /// Pipelined bus cycles per reference on the false-sharing config.
    fs_cycles_per_ref: f64,
    /// Data miss rate on the false-sharing config.
    fs_miss_rate: f64,
}

/// One organisation of [`Ablations::organisation`], on pops.
#[derive(Debug)]
struct OrganisationRow {
    /// `DirnNB`, `Tang` or `YenFu`.
    scheme: Scheme,
    /// Pipelined bus cycles per reference.
    cycles_per_ref: f64,
    /// Blocking directory lookups ([`BusOp::DirLookup`]).
    dir_lookups: u64,
    /// Directory updates ([`BusOp::DirUpdate`]).
    dir_updates: u64,
}

/// One setting of a two-way ablation: a Dir2NB eviction policy on thor, or
/// a sharing attribution for Dir0B on pops with process migration.
#[derive(Debug, Clone)]
struct SettingRow {
    /// The setting's name.
    label: &'static str,
    /// Pipelined bus cycles per reference.
    cycles_per_ref: f64,
    /// Coherence miss rate.
    coherence_miss_rate: f64,
}

/// Runs the four design-choice ablations. Each configuration simulates 4
/// caches through per-scheme [`Simulator::run`] over the first `refs`
/// references of its workload:
///
/// * block size for Dir0B, on pops and on a pops-derived config whose only
///   sharing is false sharing;
/// * full-map directory organisation on pops: DirnNB, Tang, YenFu;
/// * Dir2NB's eviction policy on thor: oldest-sharer vs newest-sharer;
/// * sharing attribution (§4.4) for Dir0B on pops with process migration
///   (`migration_prob` 0.001): per-process vs per-processor.
///
/// # Errors
///
/// Propagates simulation errors.
fn ablations(refs: usize) -> Result<Ablations, SimError> {
    use dirsim_protocol::directory::EvictionPolicy;
    use dirsim_trace::synth::SharingMix;

    let pipelined = CostModel::pipelined();
    let scenario = |name| {
        Scenario::named(name)
            .expect("bundled scenario")
            .config()
            .clone()
    };
    let trace =
        |config: WorkloadConfig| -> Vec<MemRef> { Workload::new(config).take(refs).collect() };
    let run = |scheme: Scheme, config: SimConfig, stream: &[MemRef]| {
        Simulator::new(config).run(scheme.build(4).as_mut(), stream.iter().copied())
    };
    let pops = scenario("pops");
    let pops_refs = trace(pops.clone());

    let fs_refs = trace(WorkloadConfig {
        shared_frac: 0.05,
        sharing_mix: SharingMix {
            read_mostly: 0.0,
            migratory: 0.0,
            producer_consumer: 0.0,
            false_sharing: 1.0,
        },
        seed: 0xab1a7e,
        ..pops.clone()
    });
    let mut block_size = Vec::new();
    for bytes in [4u32, 16, 64, 256] {
        let config = SimConfig {
            block_map: BlockMap::new(bytes).expect("power-of-two block size"),
            ..SimConfig::default()
        };
        let model = pipelined.with_words_per_block(bytes / 4);
        let on_pops = run(Scheme::dir0_b(), config, &pops_refs)?;
        let on_fs = run(Scheme::dir0_b(), config, &fs_refs)?;
        block_size.push(BlockSizeRow {
            bytes,
            cycles_per_ref: on_pops.cycles_per_ref(model),
            miss_rate: on_pops.events.data_miss_rate(),
            fs_cycles_per_ref: on_fs.cycles_per_ref(model),
            fs_miss_rate: on_fs.events.data_miss_rate(),
        });
    }

    let mut organisation = Vec::new();
    for scheme in [Scheme::dir_n_nb(), Scheme::Tang, Scheme::YenFu] {
        let result = run(scheme, SimConfig::default(), &pops_refs)?;
        organisation.push(OrganisationRow {
            scheme,
            cycles_per_ref: result.cycles_per_ref(pipelined),
            dir_lookups: result.ops[BusOp::DirLookup],
            dir_updates: result.ops[BusOp::DirUpdate],
        });
    }

    let setting = |label, result: SimResult| SettingRow {
        label,
        cycles_per_ref: result.cycles_per_ref(pipelined),
        coherence_miss_rate: result.events.coherence_miss_rate(),
    };
    let thor_refs = trace(scenario("thor"));
    let mut eviction = Vec::new();
    for (label, policy) in [
        ("oldest-sharer", EvictionPolicy::OldestSharer),
        ("newest-sharer", EvictionPolicy::NewestSharer),
    ] {
        let dir2nb = DirSpec::dir_i_nb(2).expect("Dir2NB").with_eviction(policy);
        let result = run(Scheme::Directory(dir2nb), SimConfig::default(), &thor_refs)?;
        eviction.push(setting(label, result));
    }

    let migrating_refs = trace(WorkloadConfig {
        migration_prob: 0.001,
        ..pops
    });
    let mut attribution = Vec::new();
    for (label, sharing) in [
        ("per-process", SharingModel::PerProcess),
        ("per-processor", SharingModel::PerProcessor),
    ] {
        let config = SimConfig {
            sharing,
            ..SimConfig::default()
        };
        let result = run(Scheme::dir0_b(), config, &migrating_refs)?;
        attribution.push(setting(label, result));
    }

    Ok(Ablations {
        block_size,
        organisation,
        eviction,
        attribution,
    })
}

/// CSV data series for external plotting: one `(file name, contents)` pair
/// per figure-like artifact.
pub fn csv_artifacts(
    headline: &ExperimentResults,
    extended: &ExperimentResults,
) -> Vec<(String, String)> {
    use std::fmt::Write as _;
    let pipelined = CostModel::pipelined();
    let non_pipelined = CostModel::non_pipelined();
    let mut out = Vec::new();

    // Figure 1: fan-out histogram.
    let mut csv = String::from("fanout,count,fraction\n");
    if let Some(s) = headline.get(Scheme::dir0_b()) {
        for (k, count) in s.combined.fanout.iter() {
            let _ = writeln!(csv, "{k},{count},{}", s.combined.fanout.fraction(k));
        }
    }
    out.push(("fig1_fanout.csv".to_string(), csv));

    // Figures 2/3: cycles per reference per scheme and trace.
    let mut csv = String::from("scheme,trace,pipelined,non_pipelined\n");
    for s in &headline.per_scheme {
        let _ = writeln!(
            csv,
            "{},ALL,{},{}",
            s.scheme.name(),
            s.combined.cycles_per_ref(pipelined),
            s.combined.cycles_per_ref(non_pipelined)
        );
        for (trace, r) in &s.per_trace {
            let _ = writeln!(
                csv,
                "{},{},{},{}",
                s.scheme.name(),
                trace,
                r.cycles_per_ref(pipelined),
                r.cycles_per_ref(non_pipelined)
            );
        }
    }
    out.push(("fig2_fig3_cycles.csv".to_string(), csv));

    // Figure 4: category fractions.
    let mut csv = String::from("scheme,category,fraction\n");
    for s in &headline.per_scheme {
        for (cat, frac) in s.combined.breakdown(pipelined).fractions() {
            let _ = writeln!(csv, "{},{},{}", s.scheme.name(), cat.name(), frac);
        }
    }
    out.push(("fig4_breakdown.csv".to_string(), csv));

    // Figure 5: cycles per transaction.
    let mut csv = String::from("scheme,cycles_per_transaction\n");
    for s in &headline.per_scheme {
        let _ = writeln!(
            csv,
            "{},{}",
            s.scheme.name(),
            s.combined.breakdown(pipelined).cycles_per_transaction()
        );
    }
    out.push(("fig5_per_transaction.csv".to_string(), csv));

    // §5.1 q sweep.
    let mut csv = String::from("scheme,q,cycles_per_ref\n");
    for s in &headline.per_scheme {
        for (q, v) in paper::q_sensitivity(&s.combined, pipelined, &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
        {
            let _ = writeln!(csv, "{},{q},{v}", s.scheme.name());
        }
    }
    out.push(("sec5_1_q_sweep.csv".to_string(), csv));

    // §6b broadcast sweep for Dir1B.
    let mut csv = String::from("b,cycles_per_ref\n");
    if let Some(dir1b) = extended.get(Scheme::dir1_b()) {
        for (b, v) in paper::broadcast_sensitivity(&dir1b.combined, &[1, 2, 4, 8, 16, 32]) {
            let _ = writeln!(csv, "{b},{v}");
        }
    }
    out.push(("sec6b_broadcast.csv".to_string(), csv));

    out
}

/// Prints an error and its full `source()` chain to stderr, one cause per
/// line — shared by the command-line binaries so trace, config and
/// simulation failures keep their context instead of being flattened to a
/// single string.
pub fn report_error(program: &str, err: &dyn std::error::Error) {
    eprintln!("{program}: {err}");
    let mut source = err.source();
    while let Some(cause) = source {
        eprintln!("  caused by: {cause}");
        source = cause.source();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_list_is_complete_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for a in ARTIFACTS {
            assert!(seen.insert(a));
        }
        assert_eq!(ARTIFACTS.len(), 23);
    }

    /// The claims EXPERIMENTS.md makes from `repro --only ablations`, read
    /// at 60,000 references.
    #[test]
    fn ablation_claims_hold() {
        let study = ablations(60_000).unwrap();

        let organisation = |scheme| {
            study
                .organisation
                .iter()
                .find(|r| r.scheme == scheme)
                .expect("organisation row")
        };
        let dirnnb = organisation(Scheme::dir_n_nb());
        // Tang searches every cache's duplicate tags where the indexed map
        // reads one entry.
        assert_eq!(
            organisation(Scheme::Tang).dir_lookups,
            4 * dirnnb.dir_lookups
        );
        // Yen & Fu's single bits save blocking lookups, not bus cycles.
        let yenfu = organisation(Scheme::YenFu);
        assert!(yenfu.dir_lookups < dirnnb.dir_lookups);
        assert!(yenfu.cycles_per_ref >= dirnnb.cycles_per_ref);

        let setting = |rows: &[SettingRow], label| {
            rows.iter()
                .find(|r| r.label == label)
                .expect("setting row")
                .clone()
        };
        let (oldest, newest) = (
            setting(&study.eviction, "oldest-sharer"),
            setting(&study.eviction, "newest-sharer"),
        );
        assert!(oldest.cycles_per_ref < newest.cycles_per_ref);
        let (process, processor) = (
            setting(&study.attribution, "per-process"),
            setting(&study.attribution, "per-processor"),
        );
        assert!(processor.coherence_miss_rate > process.coherence_miss_rate);

        // pops addresses are 16-byte aligned, so 4 B and 16 B blocks miss
        // alike, and a 4 B block holds one word, so the false-sharing config
        // has no false sharing there. From 16 B up, larger blocks miss less
        // and cost more, and false sharing costs more than pops.
        let from_16 = &study.block_size[1..];
        assert_eq!(from_16[0].bytes, 16);
        for pair in from_16.windows(2) {
            assert!(pair[1].miss_rate < pair[0].miss_rate, "{pair:?}");
            assert!(pair[1].cycles_per_ref > pair[0].cycles_per_ref, "{pair:?}");
        }
        for r in from_16 {
            assert!(r.fs_cycles_per_ref > r.cycles_per_ref, "{r:?}");
        }
    }

    /// Every `repro` command the docs give must run: each `--only` names an
    /// artifact, and no doc asks for a flag `repro` rejects or for the
    /// benches this crate no longer has.
    #[test]
    fn docs_give_only_repro_commands_that_run() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs: Vec<_> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
            .iter()
            .map(|name| root.join(name))
            .collect();
        for entry in std::fs::read_dir(root.join("docs")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "md") {
                docs.push(path);
            }
        }
        for path in docs {
            let text = std::fs::read_to_string(&path).unwrap();
            for gone in ["--table", "--figure", "--section", "cargo bench"] {
                assert!(
                    !text.contains(gone),
                    "{} says {gone:?}, which no command takes",
                    path.display()
                );
            }
            for after in text.split("--only ").skip(1) {
                let name = after
                    .split(|c: char| c.is_whitespace() || c == '`')
                    .next()
                    .unwrap_or_default();
                assert!(
                    name.starts_with('<') || ARTIFACTS.contains(&name),
                    "{} runs `repro --only {name}`, which is not an artifact",
                    path.display()
                );
            }
        }
    }

    #[test]
    fn all_artifacts_render_at_small_scale() {
        let refs = 10_000;
        let headline = paper::headline_experiment(refs).run().unwrap();
        let extended = paper::extended_experiment(refs).run().unwrap();
        for a in ARTIFACTS {
            // sec6c resimulates; keep it tiny via the refs argument.
            let text = render_artifact(a, &headline, &extended, 5_000);
            assert!(!text.is_empty(), "{a} rendered empty");
        }
    }

    #[test]
    fn csv_artifacts_are_well_formed() {
        let refs = 10_000;
        let headline = paper::headline_experiment(refs).run().unwrap();
        let extended = paper::extended_experiment(refs).run().unwrap();
        let files = csv_artifacts(&headline, &extended);
        assert_eq!(files.len(), 6);
        for (name, content) in files {
            assert!(name.ends_with(".csv"));
            let mut lines = content.lines();
            let header = lines.next().unwrap_or_else(|| panic!("{name} empty"));
            let cols = header.split(',').count();
            assert!(cols >= 2, "{name}: header {header}");
            let mut rows = 0;
            for line in lines {
                assert_eq!(line.split(',').count(), cols, "{name}: ragged row {line}");
                rows += 1;
            }
            assert!(rows > 0, "{name} has no data rows");
        }
    }
}
