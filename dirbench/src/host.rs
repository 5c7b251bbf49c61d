//! Order statistics over timings, plus what the benchmark records about
//! the host and the code it measured (provenance).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use dirsim_sweep::cell::fnv1a64;

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile of `xs` that still has at least ten samples
/// above it, as `(percentile, value)`; `None` with fewer than eleven
/// samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let v = sorted(xs);
    let k = n - 11;
    Some(((100 * (k + 1) / n) as u32, v[k]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports one.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Engine workers the benchmark uses: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Who measured what: the fields every result record carries.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git:<sha>` when the checkout is a git work tree, else
    /// `tree:<fnv>` over the source files the benchmark builds from.
    pub commit: String,
    /// Available CPUs.
    pub nproc: usize,
    /// CPU model string from the kernel.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
}

impl Provenance {
    /// Collects provenance for a checkout rooted at `root`.
    pub fn collect(root: &Path) -> Provenance {
        Provenance {
            commit: git_head(root).unwrap_or_else(|| format!("tree:{:016x}", tree_hash(root))),
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: env!("DIRBENCH_RUSTC").to_string(),
        }
    }
}

/// `HEAD` of the git work tree at `root`, ignoring any repository above
/// it, with `+dirty` when tracked files differ from it.
fn git_head(root: &Path) -> Option<String> {
    let ceiling = root.canonicalize().ok()?.parent()?.to_path_buf();
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
    };
    let head = git(&["rev-parse", "HEAD"])?;
    let sha = String::from_utf8_lossy(&head.stdout).trim().to_string();
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|out| !out.stdout.is_empty());
    Some(format!("git:{sha}{}", if dirty { "+dirty" } else { "" }))
}

/// FNV-1a over the paths and bytes of every file the benchmark builds
/// from: the workspace manifest and lock file, `crates/`, and this
/// package's sources.
fn tree_hash(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "dirbench/src", "dirbench/scenarios"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("dirbench/Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        if let Ok(content) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    fnv1a64(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90, 90.0)));
    }
}
