//! The append-only result store: one JSON line per completed cell.
//!
//! The store is the sweep's only durable state, so it is built for exactly
//! one failure mode: the process dies mid-write. Three properties make
//! that safe:
//!
//! * **Append-only, flushed per record** ([`dirsim_obs::JsonlAppender`]) —
//!   a completed cell is on disk before the next one starts, so a kill
//!   loses at most the record being written.
//! * **Repair on open** — a torn final line (the killed write) cannot be
//!   valid JSON, so [`Store::open`] detects it, truncates the file back to
//!   the last intact record, and carries on. Anything malformed *before*
//!   the final line is real corruption and is reported, not repaired.
//! * **Identity keys** — records are keyed by the cell's configuration
//!   hash ([`crate::cell::Cell::hash`]), so "is this cell done?" is a set
//!   lookup and re-running a spec appends only the missing cells.
//!
//! The first record is a header naming the store schema version; a store
//! written by an incompatible future version is refused rather than
//! half-read.

use std::collections::BTreeSet;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use dirsim_obs::{Json, JsonlAppender};

use crate::cell::CellRecord;

/// Store format version, written in the header record.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// A store failure: I/O, or corruption that repair must not paper over.
#[derive(Debug)]
pub enum StoreError {
    /// Reading, truncating, or appending to the store file failed.
    Io {
        /// Store path.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// A line before the final one is malformed — not a torn write.
    Corrupt {
        /// Store path.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store {}: {source}", path.display())
            }
            StoreError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "store {} line {line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // Displayed above, so only its own source is chained.
            StoreError::Io { source, .. } => source.source(),
            StoreError::Corrupt { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// An open result store: the parsed records plus an append handle.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    appender: Option<JsonlAppender>,
    records: Vec<CellRecord>,
    hashes: BTreeSet<String>,
    has_header: bool,
    needs_newline: bool,
}

impl Store {
    /// Opens (or prepares to create) the store at `path`, repairing a torn
    /// final line by truncating it away.
    ///
    /// A missing file is an empty store; the file and its header appear on
    /// the first [`Store::append`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for filesystem failures and
    /// [`StoreError::Corrupt`] for malformed content other than a torn
    /// final line.
    pub fn open(path: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let path = path.into();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&path, e)),
        };
        let text = String::from_utf8_lossy(&bytes);

        let mut records = Vec::new();
        let mut hashes = BTreeSet::new();
        let mut has_header = false;
        // Byte length of the longest valid prefix; everything past it is
        // the torn tail to truncate.
        let mut valid_len = 0usize;
        let mut offset = 0usize;
        for (idx, chunk) in text.split_inclusive('\n').enumerate() {
            let line_no = idx + 1;
            let end = offset + chunk.len();
            let is_last = end == text.len();
            let line = chunk.trim();
            if line.is_empty() {
                valid_len = end;
                offset = end;
                continue;
            }
            let json = match Json::parse(line) {
                Ok(json) => json,
                Err(_) if is_last => break, // torn final write; truncate below
                Err(e) => {
                    return Err(StoreError::Corrupt {
                        path: path.clone(),
                        line: line_no,
                        message: format!("unparseable JSON: {e}"),
                    })
                }
            };
            let kind = json.get("record").and_then(Json::as_str).unwrap_or("");
            if !has_header {
                let schema = json.get("schema").and_then(Json::as_u64);
                if kind != "sweep" || schema != Some(u64::from(STORE_SCHEMA_VERSION)) {
                    return Err(StoreError::Corrupt {
                        path: path.clone(),
                        line: line_no,
                        message: format!(
                            "expected header {{\"record\":\"sweep\",\"schema\":{STORE_SCHEMA_VERSION}}}, got `{line}`"
                        ),
                    });
                }
                has_header = true;
            } else if kind == "cell" {
                let record =
                    CellRecord::from_json(&json).map_err(|message| StoreError::Corrupt {
                        path: path.clone(),
                        line: line_no,
                        message,
                    })?;
                if hashes.insert(record.hash.clone()) {
                    records.push(record);
                }
            } else {
                return Err(StoreError::Corrupt {
                    path: path.clone(),
                    line: line_no,
                    message: format!("unknown record kind `{kind}`"),
                });
            }
            valid_len = end;
            offset = end;
        }

        if valid_len < bytes.len() {
            // Torn tail: cut the file back to the last intact record so the
            // fragment can never masquerade as mid-file corruption once we
            // append after it.
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            file.set_len(valid_len as u64)
                .map_err(|e| io_err(&path, e))?;
        }
        let needs_newline = valid_len > 0 && !text.as_bytes()[..valid_len].ends_with(b"\n");

        Ok(Store {
            path,
            appender: None,
            records,
            hashes,
            has_header,
            needs_newline,
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a cell with this identity hash is already stored.
    pub fn contains(&self, hash: &str) -> bool {
        self.hashes.contains(hash)
    }

    /// All stored cells, in file order.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// Appends one completed cell, flushing it to disk before returning.
    /// Appending a hash that is already stored is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the write fails.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), StoreError> {
        if self.hashes.contains(&record.hash) {
            return Ok(());
        }
        let path = self.path.clone();
        let path = path.as_path();
        if self.appender.is_none() {
            self.appender = Some(JsonlAppender::open(path).map_err(|e| io_err(path, e))?);
        }
        let appender = self.appender.as_mut().expect("appender just opened");
        if self.needs_newline {
            // The valid prefix ends without a newline (a write was cut
            // after the JSON but before the terminator); complete that
            // line before starting ours.
            appender.append_line("").map_err(|e| io_err(path, e))?;
            self.needs_newline = false;
        }
        if !self.has_header {
            let header = Json::Obj(vec![
                ("record".to_string(), Json::Str("sweep".to_string())),
                (
                    "schema".to_string(),
                    Json::Int(i128::from(STORE_SCHEMA_VERSION)),
                ),
            ]);
            appender.append(&header).map_err(|e| io_err(path, e))?;
            self.has_header = true;
        }
        appender
            .append(&record.to_json())
            .map_err(|e| io_err(path, e))?;
        self.hashes.insert(record.hash.clone());
        self.records.push(record.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dirsim-sweep-store-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn record(hash: &str, cpr: f64) -> CellRecord {
        CellRecord {
            hash: hash.to_string(),
            scheme: "Dir1NB".to_string(),
            scenario: "pops".to_string(),
            geometry: "infinite".to_string(),
            cpus: 4,
            refs: 1000,
            transactions: 31,
            distinct_blocks: 12,
            evictions: 0,
            miss_rate: 0.031,
            pipelined_cpr: cpr,
            non_pipelined_cpr: cpr * 2.0,
        }
    }

    #[test]
    fn roundtrips_and_skips_duplicate_hashes() {
        let path = temp_path("roundtrip");
        let mut store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        store.append(&record("aa", 0.3)).unwrap();
        store.append(&record("bb", 0.4)).unwrap();
        store.append(&record("aa", 0.9)).unwrap(); // duplicate: no-op
        drop(store);

        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.contains("aa"));
        assert!(store.contains("bb"));
        assert_eq!(store.records()[0], record("aa", 0.3));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_truncated_and_append_resumes() {
        let path = temp_path("torn");
        let mut store = Store::open(&path).unwrap();
        store.append(&record("aa", 0.3)).unwrap();
        drop(store);
        let intact = fs::read(&path).unwrap();

        // Simulate a kill mid-write: half a record, no newline.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"record\":\"cell\",\"hash\":\"b")
            .unwrap();
        drop(file);

        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1, "torn line must not become a record");
        assert_eq!(
            fs::read(&path).unwrap(),
            intact,
            "repair truncates the tail"
        );
        store.append(&record("bb", 0.4)).unwrap();
        drop(store);

        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        let bytes = fs::read(&path).unwrap();
        assert!(
            bytes.starts_with(&intact),
            "repair must preserve the prefix"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_the_newline_boundary_keeps_the_record() {
        let path = temp_path("boundary");
        let mut store = Store::open(&path).unwrap();
        store.append(&record("aa", 0.3)).unwrap();
        store.append(&record("bb", 0.4)).unwrap();
        drop(store);

        // Cut exactly the trailing newline: the last record is intact JSON.
        let bytes = fs::read(&path).unwrap();
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(bytes.len() as u64 - 1).unwrap();
        drop(file);

        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2, "intact JSON without newline still counts");
        store.append(&record("cc", 0.5)).unwrap();
        drop(store);

        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_repair() {
        let path = temp_path("midfile");
        let mut store = Store::open(&path).unwrap();
        store.append(&record("aa", 0.3)).unwrap();
        drop(store);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"not json\n");
        let json = record("bb", 0.4).to_json().to_string_compact();
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(b'\n');
        fs::write(&path, &bytes).unwrap();

        let err = Store::open(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { line: 3, .. }),
            "unexpected: {err}"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_header_is_refused() {
        let path = temp_path("header");
        fs::write(&path, "{\"record\":\"sweep\",\"schema\":999}\n").unwrap();
        let err = Store::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { line: 1, .. }), "{err}");
        fs::remove_file(&path).unwrap();
    }
}
