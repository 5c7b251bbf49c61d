//! Command-line trace tooling: generate, convert, inspect, filter, and
//! cold-store multiprocessor address traces in every format
//! `open_trace` reads (`DTR1` binary, `DTR2` compressed, `DTR3` corpus,
//! text, CSV).
//!
//! ```text
//! trace_tool gen <scenario|spec.scn> <refs> <out>       generate a scenario trace
//! trace_tool convert <in> <out>                          any format -> any written format
//! trace_tool stats <in>                                  Table 3-style statistics
//! trace_tool stat <in>                                   alias for stats
//! trace_tool strip-locks <in> <out>                      drop spin-lock test reads
//! trace_tool head <n> <in>                               print first n records as text
//! trace_tool pack <in> <out.dtrz>                        pack into a DTR3 corpus
//! trace_tool unpack <in.dtrz> <out.dtr>                  corpus -> DTR1 binary
//! trace_tool verify <in.dtrz>                            magic + count + checksum
//! ```
//!
//! Inputs are sniffed by magic bytes first, then extension (see
//! `dirsim_trace::frontend::TraceFormat`), so a `DTR1` file works under
//! any name. Output format is chosen by extension: `.txt` text, `.csv`
//! CSV, `.dtrz` corpus, anything else fixed-record binary. `DTR2` is
//! read-only: a `.dtr2` output path is rejected in favour of `.dtrz`,
//! which is the same compressed stream plus a checksum footer. `gen`,
//! `stats`/`stat`, `head`, `pack`, `unpack`, and `verify` stream —
//! constant memory no matter how many references the file holds.
//! `convert` and `strip-locks` materialise the trace.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

use dirsim_trace::codec::BinaryWriter;
use dirsim_trace::corpus::{verify_corpus, write_corpus, CorpusReader};
use dirsim_trace::filter::without_lock_tests;
use dirsim_trace::frontend::{write_csv, TraceFormat};
use dirsim_trace::io::{write_binary, write_text};
use dirsim_trace::source::collect_all;
use dirsim_trace::{open_trace, IterSource, MemRef, Scenario, TakeSource, TraceSource, TraceStats};

/// Chunk size (in references) for the streaming subcommands.
const STREAM_CHUNK: usize = 65_536;

/// Streams `refs` to `path` in the format its extension names. Every
/// sink writes as it goes, so `gen` at 10^8 references never holds the
/// trace in memory.
fn write_stream(
    path: &str,
    refs: impl Iterator<Item = MemRef>,
) -> Result<u64, Box<dyn std::error::Error>> {
    let format = TraceFormat::from_extension(path);
    if format == Some(TraceFormat::Compressed) {
        return Err(format!(
            "{path}: DTR2 is read-only; write a .dtrz corpus (the same stream plus a checksum)"
        )
        .into());
    }
    let mut out = BufWriter::new(File::create(path)?);
    let n = match format {
        Some(TraceFormat::Text) => write_text(&mut out, refs)?,
        Some(TraceFormat::Csv) => write_csv(&mut out, refs)?,
        Some(TraceFormat::Corpus) => write_corpus(&mut out, IterSource::new(refs))?,
        _ => write_binary(&mut out, refs)?,
    };
    out.flush()?;
    Ok(n)
}

fn write_refs(path: &str, refs: &[MemRef]) -> Result<u64, Box<dyn std::error::Error>> {
    write_stream(path, refs.iter().copied())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: trace_tool \
                 <gen|convert|stats|stat|strip-locks|head|pack|unpack|verify> \
                 ... (see --help)";
    match args.first().map(String::as_str) {
        Some("gen") => {
            let [_, preset, refs, out] = &args[..] else {
                return Err("usage: trace_tool gen <scenario|spec.scn> <refs> <out>".into());
            };
            let trace = Scenario::resolve(preset)?;
            let n: usize = refs.parse().map_err(|_| "refs must be a number")?;
            let written = write_stream(out, trace.workload().take(n))?;
            eprintln!("wrote {written} references to {out}");
            Ok(())
        }
        Some("convert") => {
            let [_, input, output] = &args[..] else {
                return Err("usage: trace_tool convert <in> <out>".into());
            };
            let refs = collect_all(open_trace(input)?)?;
            let written = write_refs(output, &refs)?;
            eprintln!("converted {written} references {input} -> {output}");
            Ok(())
        }
        Some("stats" | "stat") => {
            let [_, input] = &args[..] else {
                return Err("usage: trace_tool stats <in>".into());
            };
            let stats = TraceStats::scan(open_trace(input)?)?;
            println!("{stats}");
            println!(
                "lock-read fraction: {:.3}; read/write ratio: {:.2}",
                stats.lock_read_fraction(),
                stats.read_write_ratio()
            );
            Ok(())
        }
        Some("strip-locks") => {
            let [_, input, output] = &args[..] else {
                return Err("usage: trace_tool strip-locks <in> <out>".into());
            };
            let refs = collect_all(open_trace(input)?)?;
            let before = refs.len();
            let filtered: Vec<MemRef> = without_lock_tests(refs).collect();
            write_refs(output, &filtered)?;
            eprintln!(
                "dropped {} lock-test reads ({} -> {})",
                before - filtered.len(),
                before,
                filtered.len()
            );
            Ok(())
        }
        Some("head") => {
            let [_, n, input] = &args[..] else {
                return Err("usage: trace_tool head <n> <in>".into());
            };
            let n: usize = n.parse().map_err(|_| "n must be a number")?;
            let refs = collect_all(TakeSource::new(open_trace(input)?, n as u64))?;
            let mut stdout = std::io::stdout().lock();
            write_text(&mut stdout, refs)?;
            Ok(())
        }
        Some("pack") => {
            let [_, input, output] = &args[..] else {
                return Err("usage: trace_tool pack <in> <out.dtrz>".into());
            };
            let src = open_trace(input)?;
            let mut out = BufWriter::new(File::create(output)?);
            let written = write_corpus(&mut out, src)?;
            out.flush()?;
            eprintln!("packed {written} references {input} -> {output}");
            Ok(())
        }
        Some("unpack") => {
            let [_, input, output] = &args[..] else {
                return Err("usage: trace_tool unpack <in.dtrz> <out.dtr>".into());
            };
            let mut src = CorpusReader::open(input)?;
            let mut writer = BinaryWriter::new(BufWriter::new(File::create(output)?))?;
            let mut chunk = Vec::new();
            while src.read_chunk(&mut chunk, STREAM_CHUNK)? > 0 {
                for r in &chunk {
                    writer.push(r)?;
                }
            }
            let (mut out, written) = writer.finish()?;
            out.flush()?;
            eprintln!("unpacked {written} references {input} -> {output}");
            Ok(())
        }
        Some("verify") => {
            let [_, input] = &args[..] else {
                return Err("usage: trace_tool verify <in.dtrz>".into());
            };
            let file = File::open(input)?;
            let summary = verify_corpus(BufReader::new(file))?;
            println!(
                "{input}: OK — {} references, {} payload bytes, checksum {:#018x}",
                summary.records, summary.payload_bytes, summary.checksum
            );
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            dirsim_bench::report_error("trace_tool", err.as_ref());
            ExitCode::FAILURE
        }
    }
}
