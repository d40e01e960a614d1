//! Real-format trace loading for [`crate::session`].
//!
//! DLRM access traces in the wild come in two shapes: the Criteo
//! click-log TSV (one sample per line — a label, 13 dense integer
//! features, 26 categorical features as hex tokens) and Meta-style
//! per-table index streams (one line per table lookup: a table id and
//! its comma-separated row indices, as produced by the DLRM benchmark's
//! `--arch-embedding-size`/indices dumps). Both map onto the workspace's
//! [`VectorKey`] access model: each categorical column is an embedding
//! table, each token a row.
//!
//! Everything here is **streamed, not slurped**: parsers take any
//! [`BufRead`] and pull one line at a time, so a multi-gigabyte day of
//! Criteo never has to fit in memory. Two consumption paths share the
//! parsers:
//!
//! - [`FileTraceSource`] is a [`RequestSource`] that feeds a
//!   [`crate::ServingSession`] straight from the reader, grouping
//!   `queries_per_request` lines per request and pacing arrivals with an
//!   [`ArrivalProcess`] (external traces rarely carry timestamps).
//! - [`read_trace`] materializes a bounded prefix into a
//!   [`Trace`] for the replay/training paths that need random access
//!   ([`crate::TraceReplaySource`], [`crate::train_recmg`]).
//!
//! [`profile_trace`] makes a calibration pass over a prefix and
//! recommends a [`SketchConfig`] sized to the observed footprint, so the
//! working-set sketches ([`crate::sketch`]) get epoch/window defaults
//! matched to the trace instead of the synthetic-workload defaults.

use std::io::BufRead;

use crate::config::SketchConfig;
use crate::session::{ArrivalProcess, KeyStream, PacedSource};
use recmg_trace::{RowId, TableId, Trace, VectorKey};

/// Number of categorical (embedding-table) columns in the Criteo format.
pub const CRITEO_TABLES: usize = 26;
/// Number of dense columns preceding the categorical block.
const CRITEO_DENSE: usize = 13;
/// What a [`VectorKey`] can pack: 16-bit table ids, 48-bit row ids.
/// Trace files are outside input, so ids are range-checked here rather
/// than left to [`VectorKey::new`]'s asserts.
const MAX_TABLES: u32 = 1 << 16;
const MAX_ROWS: u64 = 1 << 48;

/// On-disk layout of a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Criteo click-log TSV: `label \t d1..d13 \t c1..c26`, categorical
    /// features as hex tokens, empty fields allowed. Each line is one
    /// query touching up to [`CRITEO_TABLES`] tables; hex tokens hash
    /// into `rows_per_table` rows per table.
    Criteo {
        /// Embedding rows per categorical table; hex tokens are hashed
        /// modulo this. Must be positive and at most 2^48.
        rows_per_table: u64,
    },
    /// Per-table index stream: each line is `table<TAB>row[,row...]`
    /// (a Meta/DLRM-benchmark-style indices dump); consecutive lines up
    /// to a blank line form one query. Row ids are taken verbatim; ids
    /// that do not fit a [`VectorKey`] are dropped.
    PerTableIndices,
}

impl TraceFormat {
    fn validate(&self) {
        if let TraceFormat::Criteo { rows_per_table } = self {
            assert!(*rows_per_table > 0, "rows_per_table must be positive");
            assert!(
                *rows_per_table <= MAX_ROWS,
                "rows_per_table must fit 48-bit row ids"
            );
        }
    }
}

/// FNV-1a over a categorical token. Criteo's hex tokens are already
/// hashes, but re-hashing keeps the mapping uniform for any token
/// alphabet (and for non-Criteo TSVs with plain-string categories).
fn fnv1a(token: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in token.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parses one Criteo TSV line into its embedding accesses: one
/// [`VectorKey`] per non-empty categorical column, in column order.
/// Returns `None` for lines with no categorical block at all (blank or
/// truncated lines), which callers should skip.
pub fn parse_criteo_line(line: &str, rows_per_table: u64) -> Option<Vec<VectorKey>> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return None;
    }
    let mut keys = Vec::with_capacity(CRITEO_TABLES);
    // Columns: 1 label + 13 dense + 26 categorical. Truncated tails are
    // tolerated (some public dumps drop trailing empty fields).
    for (col, field) in line.split('\t').enumerate().skip(1 + CRITEO_DENSE) {
        let table = col - 1 - CRITEO_DENSE;
        if table >= CRITEO_TABLES {
            break;
        }
        if field.is_empty() {
            continue;
        }
        keys.push(VectorKey::new(
            TableId(table as u32),
            RowId(fnv1a(field) % rows_per_table),
        ));
    }
    if keys.is_empty() {
        None
    } else {
        Some(keys)
    }
}

/// Parses one per-table index line (`table<TAB>row[,row...]`, spaces
/// tolerated) into its accesses. Returns `None` for blank lines (query
/// separators) and lines that do not parse; a table id beyond 16 bits
/// drops the line, a row id beyond 48 bits drops that row.
pub fn parse_indices_line(line: &str) -> Option<Vec<VectorKey>> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let (table, rows) = line.split_once(['\t', ' '])?;
    let table: u32 = table.trim().parse().ok().filter(|&t| t < MAX_TABLES)?;
    let keys: Vec<VectorKey> = rows
        .split(',')
        .filter_map(|r| r.trim().parse::<u64>().ok().filter(|&row| row < MAX_ROWS))
        .map(|row| VectorKey::new(TableId(table), RowId(row)))
        .collect();
    if keys.is_empty() {
        None
    } else {
        Some(keys)
    }
}

/// Line buffer of a trace reader plus its tally of dirty lines: lines
/// that are not UTF-8, and non-blank lines no key could be parsed from.
#[derive(Debug, Default)]
struct Lines {
    buf: Vec<u8>,
    skipped: usize,
}

/// Pulls the next query off `reader`: for Criteo, one parseable line;
/// for per-table indices, all lines up to the next blank line (one line
/// per table). Returns `None` at end of stream (or on a read error).
fn next_query<R: BufRead>(
    reader: &mut R,
    format: TraceFormat,
    lines: &mut Lines,
) -> Option<Vec<VectorKey>> {
    let mut keys: Vec<VectorKey> = Vec::new();
    loop {
        // Lines are read as bytes: one bad byte must not end a
        // multi-gigabyte stream the way `read_line`'s UTF-8 error would.
        lines.buf.clear();
        if reader.read_until(b'\n', &mut lines.buf).ok()? == 0 {
            // EOF flushes a trailing unterminated query.
            return (!keys.is_empty()).then_some(keys);
        }
        let Ok(line) = std::str::from_utf8(&lines.buf) else {
            lines.skipped += 1;
            continue;
        };
        let parsed = match format {
            TraceFormat::Criteo { rows_per_table } => parse_criteo_line(line, rows_per_table),
            TraceFormat::PerTableIndices => parse_indices_line(line),
        };
        let dirty = parsed.is_none() && !line.trim().is_empty();
        lines.skipped += usize::from(dirty);
        match (format, parsed) {
            // One Criteo line is one query.
            (TraceFormat::Criteo { .. }, Some(parsed)) => return Some(parsed),
            (TraceFormat::PerTableIndices, Some(mut parsed)) => keys.append(&mut parsed),
            // Blank (or unparseable) line: a query boundary for the
            // index format once keys are pending, skipped otherwise.
            (_, None) if keys.is_empty() => continue,
            (_, None) => return Some(keys),
        }
    }
}

/// Streams a real-format trace file as a request source: each request is
/// `queries_per_request` consecutive queries pulled lazily off the
/// reader, paced by an [`ArrivalProcess`]. Memory use is one request's
/// keys plus the reader's buffer, independent of file size.
pub type FileTraceSource<R> = PacedSource<FileQueries<R>>;

/// Key stream of [`FileTraceSource`]: the reader and its parse state.
#[doc(hidden)]
#[derive(Debug)]
pub struct FileQueries<R> {
    reader: R,
    format: TraceFormat,
    queries_per_request: usize,
    lines: Lines,
    done: bool,
}

impl<R: BufRead> FileTraceSource<R> {
    /// Builds the streaming source.
    ///
    /// # Panics
    ///
    /// Panics if `queries_per_request` is zero, the format is invalid,
    /// or the arrival process is invalid.
    pub fn new(
        reader: R,
        format: TraceFormat,
        queries_per_request: usize,
        arrivals: ArrivalProcess,
        seed: u64,
    ) -> Self {
        assert!(
            queries_per_request > 0,
            "queries_per_request must be positive"
        );
        format.validate();
        let queries = FileQueries {
            reader,
            format,
            queries_per_request,
            lines: Lines::default(),
            done: false,
        };
        Self::paced(queries, arrivals, seed)
    }
}

impl<R: BufRead> KeyStream for FileQueries<R> {
    fn next_keys(&mut self, _id: u64) -> Option<Vec<VectorKey>> {
        if self.done {
            return None;
        }
        let mut keys: Vec<VectorKey> = Vec::new();
        for _ in 0..self.queries_per_request {
            match next_query(&mut self.reader, self.format, &mut self.lines) {
                Some(mut q) => keys.append(&mut q),
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        (!keys.is_empty()).then_some(keys)
    }
}

/// Materializes up to `max_queries` queries from a real-format stream
/// into a [`Trace`] for the random-access paths
/// ([`crate::TraceReplaySource`], training). `num_tables` is inferred as
/// the highest table id seen plus one (26 for well-formed Criteo).
///
/// # Panics
///
/// Panics if the format is invalid.
pub fn read_trace<R: BufRead>(reader: &mut R, format: TraceFormat, max_queries: usize) -> Trace {
    format.validate();
    let mut accesses: Vec<VectorKey> = Vec::new();
    let mut query_ends: Vec<usize> = Vec::new();
    let mut num_tables = 0u32;
    let mut lines = Lines::default();
    while query_ends.len() < max_queries {
        let Some(keys) = next_query(reader, format, &mut lines) else {
            break;
        };
        for k in &keys {
            num_tables = num_tables.max(k.table().0 + 1);
        }
        accesses.extend_from_slice(&keys);
        query_ends.push(accesses.len());
    }
    Trace::from_parts(accesses, query_ends, num_tables)
}

/// Footprint statistics of a trace prefix, used to calibrate sketch
/// defaults ([`TraceProfile::sketch_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceProfile {
    /// Queries profiled.
    pub queries: usize,
    /// Total embedding accesses across those queries.
    pub accesses: usize,
    /// Exact distinct-key count over the profiled prefix.
    pub unique_keys: usize,
    /// Distinct tables touched.
    pub tables: usize,
    /// Lines the loader had to skip to get this far: not UTF-8, or
    /// non-blank yet yielding no key (truncated, malformed, table id out
    /// of range). Non-zero means the file is dirty.
    pub skipped_lines: usize,
}

impl TraceProfile {
    /// A [`SketchConfig`] calibrated to the observed footprint:
    ///
    /// - `epoch_len` is set to ~4 accesses per observed unique key
    ///   (clamped to `[256, 65536]`) so one epoch re-observes most of
    ///   the working set — a skew flip then dominates the sketch window
    ///   within a handful of epochs instead of hundreds.
    /// - traces whose footprint exceeds the default exact-mode regime
    ///   get the [`SketchConfig::high_cardinality`] register shape
    ///   (unique-row estimates stay within ~1.6% instead of ~6.5%).
    pub fn sketch_config(&self) -> SketchConfig {
        let base = if self.unique_keys > 2048 {
            SketchConfig::high_cardinality()
        } else {
            SketchConfig::default()
        };
        SketchConfig {
            epoch_len: ((self.unique_keys as u64).saturating_mul(4)).clamp(256, 65536),
            ..base
        }
    }
}

/// Profiles up to `max_queries` queries from a real-format stream (one
/// streaming pass; memory is the distinct-key set, not the trace).
///
/// # Panics
///
/// Panics if the format is invalid.
pub fn profile_trace<R: BufRead>(
    reader: &mut R,
    format: TraceFormat,
    max_queries: usize,
) -> TraceProfile {
    format.validate();
    let mut unique = std::collections::HashSet::new();
    let mut tables = std::collections::HashSet::new();
    let mut queries = 0usize;
    let mut accesses = 0usize;
    let mut lines = Lines::default();
    while queries < max_queries {
        let Some(keys) = next_query(reader, format, &mut lines) else {
            break;
        };
        queries += 1;
        accesses += keys.len();
        for k in keys {
            unique.insert(k);
            tables.insert(k.table());
        }
    }
    TraceProfile {
        queries,
        accesses,
        unique_keys: unique.len(),
        tables: tables.len(),
        skipped_lines: lines.skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RequestSource;
    use std::io::Cursor;
    use std::time::Duration;

    /// A tiny two-line Criteo-format sample (tab-separated; categorical
    /// block starts at column 14).
    fn criteo_sample() -> String {
        let mut lines = String::new();
        for i in 0..4u64 {
            let mut fields: Vec<String> = vec!["1".to_string()];
            fields.extend((0..13).map(|d| (d + i).to_string()));
            fields.extend((0..26).map(|c| format!("{:08x}", c * 17 + i)));
            lines.push_str(&fields.join("\t"));
            lines.push('\n');
        }
        lines
    }

    #[test]
    fn criteo_line_maps_each_categorical_column_to_its_table() {
        let sample = criteo_sample();
        let line = sample.lines().next().unwrap();
        let keys = parse_criteo_line(line, 1000).unwrap();
        assert_eq!(keys.len(), CRITEO_TABLES);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k.table(), TableId(i as u32));
            assert!(k.row().0 < 1000);
        }
    }

    #[test]
    fn criteo_empty_fields_are_skipped_and_blank_lines_rejected() {
        let mut fields: Vec<String> = vec!["0".to_string()];
        fields.extend((0..13).map(|_| String::new()));
        fields.extend((0..26).map(|c| {
            if c % 2 == 0 {
                String::new()
            } else {
                format!("{c:x}")
            }
        }));
        let keys = parse_criteo_line(&fields.join("\t"), 50).unwrap();
        assert_eq!(keys.len(), 13);
        assert!(keys.iter().all(|k| k.table().0 % 2 == 1));
        assert!(parse_criteo_line("", 50).is_none());
        assert!(parse_criteo_line("1\t2\t3", 50).is_none());
    }

    #[test]
    fn criteo_hashing_is_deterministic_and_bounded() {
        let sample = criteo_sample();
        let line = sample.lines().next().unwrap();
        let a = parse_criteo_line(line, 7).unwrap();
        let b = parse_criteo_line(line, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|k| k.row().0 < 7));
    }

    #[test]
    fn indices_lines_group_into_queries_at_blank_lines() {
        let text = "0\t1,2,3\n1\t9\n\n0\t4\n2\t5,6\n";
        let trace = read_trace(
            &mut Cursor::new(text),
            TraceFormat::PerTableIndices,
            usize::MAX,
        );
        assert_eq!(trace.num_queries(), 2);
        assert_eq!(trace.num_tables(), 3);
        assert_eq!(trace.accesses().len(), 7);
        assert_eq!(trace.accesses()[0], VectorKey::new(TableId(0), RowId(1)));
        assert_eq!(trace.accesses()[4], VectorKey::new(TableId(0), RowId(4)));
    }

    #[test]
    fn read_trace_bounds_queries_and_feeds_replay() {
        let sample = criteo_sample();
        let trace = read_trace(
            &mut Cursor::new(&sample),
            TraceFormat::Criteo {
                rows_per_table: 100,
            },
            2,
        );
        assert_eq!(trace.num_queries(), 2);
        assert_eq!(trace.num_tables(), CRITEO_TABLES as u32);
        let mut src = crate::TraceReplaySource::new(&trace, 1, ArrivalProcess::Immediate, 7);
        let first = src.next_request().unwrap();
        assert_eq!(first.keys.len(), CRITEO_TABLES);
    }

    #[test]
    fn file_source_streams_requests_with_monotone_arrivals() {
        let sample = criteo_sample();
        let mut src = FileTraceSource::new(
            Cursor::new(&sample),
            TraceFormat::Criteo {
                rows_per_table: 100,
            },
            2,
            ArrivalProcess::Uniform {
                interval: Duration::from_micros(10),
            },
            1,
        )
        .with_deadline(Duration::from_millis(5))
        .for_tenant(0);
        let a = src.next_request().unwrap();
        let b = src.next_request().unwrap();
        assert!(src.next_request().is_none());
        assert_eq!(a.keys.len(), 2 * CRITEO_TABLES);
        assert!(b.arrival > a.arrival);
        assert_eq!(a.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn profile_calibrates_sketch_to_footprint() {
        let sample = criteo_sample();
        let profile = profile_trace(
            &mut Cursor::new(&sample),
            TraceFormat::Criteo {
                rows_per_table: 1_000_000,
            },
            usize::MAX,
        );
        assert_eq!(profile.queries, 4);
        assert_eq!(profile.accesses, 4 * CRITEO_TABLES);
        assert_eq!(profile.tables, CRITEO_TABLES);
        assert!(profile.unique_keys > CRITEO_TABLES);
        let cfg = profile.sketch_config();
        cfg.validate();
        // Small footprint: default registers, floor-clamped epoch.
        assert_eq!(cfg.registers, SketchConfig::default().registers);
        assert!(cfg.epoch_len >= 256);

        // A synthetic huge-footprint profile flips to the
        // high-cardinality shape and the epoch ceiling.
        let big = TraceProfile {
            queries: 1,
            accesses: 1,
            unique_keys: 1 << 20,
            tables: 26,
            skipped_lines: 0,
        };
        let cfg = big.sketch_config();
        assert_eq!(cfg.registers, SketchConfig::high_cardinality().registers);
        assert_eq!(cfg.epoch_len, 65536);
    }

    #[test]
    fn out_of_range_ids_are_dropped_not_asserted_on() {
        // A 17-bit table id drops the line; a 49-bit row id drops the row.
        assert_eq!(parse_indices_line("70000\t1"), None);
        assert_eq!(parse_indices_line("0\t281474976710656"), None);
        assert_eq!(
            parse_indices_line("65535\t281474976710655,281474976710656,7"),
            Some(vec![
                VectorKey::new(TableId(65535), RowId((1 << 48) - 1)),
                VectorKey::new(TableId(65535), RowId(7)),
            ])
        );
    }

    #[test]
    #[should_panic(expected = "48-bit")]
    fn criteo_rows_per_table_beyond_48_bits_is_rejected() {
        let format = TraceFormat::Criteo {
            rows_per_table: (1 << 48) + 1,
        };
        let _ = read_trace(&mut Cursor::new(""), format, 1);
    }

    #[test]
    fn a_non_utf8_line_is_skipped_not_end_of_stream() {
        let bytes: &[u8] = b"0\t1,2\n\xff\xfe\n0\t3\n";
        let trace = read_trace(
            &mut Cursor::new(bytes),
            TraceFormat::PerTableIndices,
            usize::MAX,
        );
        let rows: Vec<u64> = trace.accesses().iter().map(|k| k.row().0).collect();
        assert_eq!(rows, [1, 2, 3], "the third line's keys must come through");
        let profile = profile_trace(
            &mut Cursor::new(bytes),
            TraceFormat::PerTableIndices,
            usize::MAX,
        );
        assert_eq!(profile.accesses, 3);
        assert_eq!(profile.skipped_lines, 1);
        // Unparseable text lines count as dirty too; blank lines do not.
        let profile = profile_trace(
            &mut Cursor::new("0\t1\n\n70000\t1\nnot a line\n0\t2\n"),
            TraceFormat::PerTableIndices,
            usize::MAX,
        );
        assert_eq!((profile.accesses, profile.skipped_lines), (2, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Outside input never panics the loader: arbitrary bytes (three
        /// picks in four are a token a trace could hold — ids at and
        /// beyond the 16/48/64-bit edges, separators, newlines — so lines
        /// often *almost* parse; the rest are raw bytes) through every
        /// consumer, in both formats.
        #[test]
        fn arbitrary_bytes_never_panic_the_loader(
            picks in proptest::collection::vec((0usize..24, 0u32..256), 0..300),
            rows_exp in 0u32..49,
        ) {
            const TOKENS: [&str; 18] = [
                "0", "7", "65535", "65536", "70000", "281474976710655", "281474976710656",
                "18446744073709551615", "99999999999999999999", "\t", "\t", ",", " ", "\n",
                "\n", "\r\n", "-", "1f",
            ];
            let mut bytes: Vec<u8> = Vec::new();
            for &(i, raw) in &picks {
                match TOKENS.get(i) {
                    Some(token) => bytes.extend_from_slice(token.as_bytes()),
                    None => bytes.push(raw as u8),
                }
            }
            let formats = [
                TraceFormat::PerTableIndices,
                TraceFormat::Criteo { rows_per_table: 1 << rows_exp },
            ];
            for format in formats {
                let trace = read_trace(&mut Cursor::new(&bytes), format, usize::MAX);
                let profile = profile_trace(&mut Cursor::new(&bytes), format, usize::MAX);
                proptest::prop_assert_eq!(profile.accesses, trace.len());
                proptest::prop_assert_eq!(profile.queries, trace.num_queries());
                let arrivals = ArrivalProcess::Immediate;
                let mut source = FileTraceSource::new(Cursor::new(&bytes), format, 2, arrivals, 0);
                let mut streamed = 0usize;
                while let Some(request) = source.next_request() {
                    streamed += request.keys.len();
                }
                proptest::prop_assert_eq!(streamed, trace.len());
            }
        }
    }
}
