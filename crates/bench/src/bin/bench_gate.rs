//! CI perf-trajectory gate: compares a fresh `throughput_smoke
//! --bench-json` record against the committed baseline snapshot
//! (`BENCH_throughput.json`) and fails when any throughput metric drops
//! below the floor ratio.
//!
//! Usage: `bench_gate <baseline.json> <current.json> [--min-ratio 0.85]`
//!
//! Every `*_steps_per_sec` and `*_refs_per_sec` key in the baseline's
//! `metrics` map must be present in the current record at ≥ `min-ratio ×`
//! its baseline value (`_steps_per_sec` counts engine steps — references
//! × schemes; `_refs_per_sec` counts raw decode throughput, used by the
//! corpus decode round). Other metrics (the paired `*_ratio` keys) are
//! ignored here — they gate themselves inside `throughput_smoke`. A key
//! missing from the current record fails: renaming a metric must refresh
//! the committed baseline in the same change.
//!
//! The comparison is deliberately per-key rather than aggregate: a 2×
//! win on one mode must not mask a 2× loss on another (each mode pins a
//! distinct engine path — the serial oracle's per-scheme passes, the
//! one-worker single pass, sharded routing).

use std::process::ExitCode;

use dirsim::obs::Json;

/// Default per-key floor: current must reach 85% of the committed
/// baseline. Wide enough for shared-runner noise on paired-round bests,
/// tight enough that a structural regression (an extra pass, a
/// per-reference allocation) cannot hide.
const DEFAULT_MIN_RATIO: f64 = 0.85;

/// One gated metric's comparison.
#[derive(Debug)]
struct Verdict {
    key: String,
    baseline: f64,
    current: f64,
    ratio: f64,
    ok: bool,
}

/// Is `key` a throughput metric this gate ratchets?
fn gated(key: &str) -> bool {
    key.ends_with("_steps_per_sec") || key.ends_with("_refs_per_sec")
}

/// Compares every `*_steps_per_sec` / `*_refs_per_sec` metric of
/// `baseline` against `current`. Returns one verdict per gated key, or a
/// description of why the records cannot be compared.
fn compare(baseline: &Json, current: &Json, min_ratio: f64) -> Result<Vec<Verdict>, String> {
    let base_metrics = baseline
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("baseline record has no `metrics` object")?;
    let cur_metrics = current
        .get("metrics")
        .ok_or("current record has no `metrics` object")?;
    let mut verdicts = Vec::new();
    for (key, value) in base_metrics {
        if !gated(key) {
            continue;
        }
        let baseline = value
            .as_f64()
            .ok_or_else(|| format!("baseline metric {key} is not a number"))?;
        let current = cur_metrics
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("current record is missing gated metric {key}"))?;
        // A non-positive baseline cannot be gated meaningfully; treat it
        // as corrupt rather than dividing by it.
        if baseline <= 0.0 {
            return Err(format!(
                "baseline metric {key} is not positive ({baseline})"
            ));
        }
        let ratio = current / baseline;
        verdicts.push(Verdict {
            key: key.clone(),
            baseline,
            current,
            ratio,
            ok: ratio >= min_ratio,
        });
    }
    if verdicts.is_empty() {
        return Err(
            "baseline record has no *_steps_per_sec or *_refs_per_sec metrics to gate".into(),
        );
    }
    Ok(verdicts)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut min_ratio = DEFAULT_MIN_RATIO;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--min-ratio" => {
                i += 1;
                min_ratio = args
                    .get(i)
                    .ok_or("--min-ratio requires a value")?
                    .parse()
                    .map_err(|_| "--min-ratio requires a number")?;
            }
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err("usage: bench_gate <baseline.json> <current.json> [--min-ratio 0.85]".into());
    };

    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let verdicts = compare(&baseline, &current, min_ratio)?;

    println!(
        "perf gate: {} vs {} (floor {min_ratio:.2}x per key)",
        current_path, baseline_path
    );
    println!(
        "{:>36} {:>14} {:>14} {:>7}",
        "metric", "baseline", "current", "ratio"
    );
    let mut ok = true;
    for v in &verdicts {
        println!(
            "{:>36} {:>14.0} {:>14.0} {:>6.2}x{}",
            v.key,
            v.baseline,
            v.current,
            v.ratio,
            if v.ok { "" } else { "  << FAIL" }
        );
        ok &= v.ok;
    }
    if !ok {
        eprintln!(
            "FAIL: at least one throughput metric fell below {min_ratio:.2}x the committed \
             baseline. If the slowdown is understood and accepted, refresh the committed \
             snapshot in this change (and apply the `perf-regression-ok` label in CI)."
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "OK: all {} gated metrics at or above the floor",
        verdicts.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(err) => {
            dirsim_bench::report_error("bench_gate", err.as_ref());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(entries: &[(&str, f64)]) -> Json {
        Json::Obj(vec![(
            "metrics".into(),
            Json::Obj(
                entries
                    .iter()
                    .map(|(k, v)| ((*k).into(), Json::Float(*v)))
                    .collect(),
            ),
        )])
    }

    #[test]
    fn equal_records_pass() {
        let base = record(&[("infinite_serial_steps_per_sec", 1e8)]);
        let verdicts = compare(&base, &base, 0.85).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].ok);
        assert!((verdicts[0].ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn injected_half_speed_fails() {
        // The gate's reason to exist: a 0.5x slowdown on any single key
        // must fail even when every other key improved.
        let base = record(&[
            ("infinite_serial_steps_per_sec", 1e8),
            ("finite_serial_steps_per_sec", 5e7),
        ]);
        let cur = record(&[
            ("infinite_serial_steps_per_sec", 2e8),
            ("finite_serial_steps_per_sec", 2.5e7),
        ]);
        let verdicts = compare(&base, &cur, 0.85).unwrap();
        assert!(verdicts.iter().any(|v| !v.ok), "0.5x key must fail");
        assert!(
            verdicts.iter().any(|v| v.ok && v.ratio > 1.9),
            "improved key still passes"
        );
    }

    #[test]
    fn floor_is_inclusive_and_ignores_ratio_keys() {
        let base = record(&[
            ("infinite_serial_steps_per_sec", 1e8),
            ("infinite_best_ratio", 1.0),
        ]);
        let cur = record(&[
            ("infinite_serial_steps_per_sec", 0.85e8),
            // The paired-ratio key regressing is throughput_smoke's
            // business, not this gate's.
            ("infinite_best_ratio", 0.1),
        ]);
        let verdicts = compare(&base, &cur, 0.85).unwrap();
        assert_eq!(verdicts.len(), 1, "only *_steps_per_sec keys gate");
        assert!(verdicts[0].ok, "exactly at the floor passes");
    }

    #[test]
    fn missing_current_key_is_an_error() {
        let base = record(&[("infinite_serial_steps_per_sec", 1e8)]);
        let cur = record(&[("finite_serial_steps_per_sec", 1e8)]);
        let err = compare(&base, &cur, 0.85).unwrap_err();
        assert!(err.contains("missing"), "got: {err}");
    }

    #[test]
    fn gateless_baseline_is_an_error() {
        let base = record(&[("infinite_best_ratio", 1.0)]);
        let err = compare(&base, &base, 0.85).unwrap_err();
        assert!(err.contains("no *_steps_per_sec"), "got: {err}");
    }

    #[test]
    fn decode_refs_per_sec_keys_gate_too() {
        // The corpus decode round exports *_refs_per_sec; a decode-path
        // regression must trip the gate exactly like an engine one.
        let base = record(&[
            ("mmap_decode_refs_per_sec", 4e8),
            ("buffered_decode_refs_per_sec", 2e8),
            ("mmap_over_buffered_decode_ratio", 2.0),
        ]);
        let cur = record(&[
            ("mmap_decode_refs_per_sec", 1e8),
            ("buffered_decode_refs_per_sec", 2e8),
            ("mmap_over_buffered_decode_ratio", 0.5),
        ]);
        let verdicts = compare(&base, &cur, 0.85).unwrap();
        assert_eq!(verdicts.len(), 2, "ratio keys stay ungated");
        assert!(
            verdicts
                .iter()
                .any(|v| v.key == "mmap_decode_refs_per_sec" && !v.ok),
            "regressed decode key must fail"
        );
    }

    #[test]
    fn parses_the_real_bench_json_shape() {
        // The exact record shape `throughput_smoke --bench-json` writes.
        let text = r#"{"bench":"throughput","commit":"abc123","date":"2026-08-08",
            "refs_per_trace":60000,"workers":1,
            "metrics":{"infinite_serial_steps_per_sec":4.5e7,
                       "infinite_best_ratio":1.4}}"#;
        let base = Json::parse(text).unwrap();
        let verdicts = compare(&base, &base, 0.85).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].key, "infinite_serial_steps_per_sec");
    }
}
