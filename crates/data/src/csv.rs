//! Minimal CSV reader/writer for datasets.
//!
//! The format is deliberately simple (no quoting or embedded separators):
//! one header line with attribute names followed by the class column name,
//! then one record per line. Schema types are either supplied by the caller
//! or inferred (a column is numeric when every field parses as `f64`).

use crate::dataset::{Column, Dataset};
use crate::dict::Dictionary;
use crate::error::DataError;
use crate::parallel::{worker_count, PARALLEL_MIN_CELLS};
use crate::schema::{AttrType, Attribute, Schema};
// lint:allow(nondet-iter) — block-local lookup tables only; never iterated
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// What to do with a malformed data row (wrong field count, unparsable
/// numeric field, or a row the dataset builder rejects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowPolicy {
    /// Any malformed row aborts the load with an error (the default).
    Fail,
    /// Quarantine malformed rows instead of failing, up to `max` of them;
    /// one more malformed row past the cap aborts the load. Skipped rows
    /// are listed in the [`LoadReport`].
    Skip {
        /// Maximum number of rows that may be quarantined.
        max: usize,
    },
}

/// What a [`RowPolicy::Skip`] load quarantined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// `(1-based line number, why)` for each quarantined row, in file
    /// order. Empty when every row loaded.
    pub skipped: Vec<(usize, String)>,
}

impl LoadReport {
    /// Number of quarantined rows.
    pub fn n_skipped(&self) -> usize {
        self.skipped.len()
    }
}

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Explicit attribute types; when `None`, types are inferred from the
    /// data (numeric iff every field parses as a finite `f64`).
    pub types: Option<Vec<AttrType>>,
    /// Malformed-row handling (default [`RowPolicy::Fail`]).
    pub on_error: RowPolicy,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            types: None,
            on_error: RowPolicy::Fail,
        }
    }
}

/// Records one malformed row: under [`RowPolicy::Fail`] (or past the skip
/// cap) this is the load's error; otherwise the row is quarantined into
/// the report and parsing goes on.
fn quarantine(
    policy: &RowPolicy,
    report: &mut LoadReport,
    line: usize,
    message: String,
) -> Result<(), DataError> {
    match policy {
        RowPolicy::Fail => Err(DataError::Csv { line, message }),
        RowPolicy::Skip { max } => {
            if report.skipped.len() >= *max {
                Err(DataError::Csv {
                    line,
                    message: format!("{message} (skip limit of {max} malformed rows exceeded)"),
                })
            } else {
                report.skipped.push((line, message));
                Ok(())
            }
        }
    }
}

/// Lines per block for the whole-file readers, which have no caller-chosen
/// chunk size; blocks are the unit the block parser spreads over workers.
const WHOLE_FILE_BLOCK_ROWS: usize = 65_536;

/// Reads a dataset from a CSV file. See [`read_csv_str`].
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Dataset, DataError> {
    read_csv_with_report(path, opts).map(|(d, _)| d)
}

/// Reads a dataset plus its [`LoadReport`] from a CSV file. See
/// [`read_csv_str_with_report`]; a data row that is not valid UTF-8 is a
/// malformed row like any other, while an invalid header is a hard error.
pub fn read_csv_with_report(
    path: impl AsRef<Path>,
    opts: &CsvOptions,
) -> Result<(Dataset, LoadReport), DataError> {
    read_csv_bytes(&std::fs::read(path)?, opts)
}

/// Parses a dataset from CSV text. The last column is the class label; all
/// rows get weight 1.0. Convenience wrapper over
/// [`read_csv_str_with_report`] that drops the report.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Dataset, DataError> {
    read_csv_str_with_report(text, opts).map(|(d, _)| d)
}

/// Parses a dataset from CSV text, returning the dataset together with a
/// [`LoadReport`] of quarantined rows. Header problems (missing header,
/// duplicate or too-few columns, wrong type count) are always hard errors;
/// [`CsvOptions::on_error`] only governs malformed *data* rows, which are
/// charged in file order. With inferred types, a non-numeric field makes
/// its column categorical rather than its row malformed — numeric parse
/// quarantine applies to explicitly typed columns.
pub fn read_csv_str_with_report(
    text: &str,
    opts: &CsvOptions,
) -> Result<(Dataset, LoadReport), DataError> {
    read_csv_bytes(text.as_bytes(), opts)
}

/// The whole-file loader: infers the types if none were given, then runs
/// the same block parser as [`read_csv_chunked`].
fn read_csv_bytes(bytes: &[u8], opts: &CsvOptions) -> Result<(Dataset, LoadReport), DataError> {
    let types = match &opts.types {
        Some(types) => types.clone(),
        None => infer_types(bytes, opts.separator)?,
    };
    let reader = ChunkedCsvReader::open(bytes, opts, types, WHOLE_FILE_BLOCK_ROWS)?;
    reader.drain()
}

/// Type inference over every well-formed row (right field count, valid
/// UTF-8): a column is numeric iff every such field parses as a finite
/// `f64` and there is at least one such row.
fn infer_types(mut bytes: &[u8], sep: char) -> Result<Vec<AttrType>, DataError> {
    let (names, _) = read_header(&mut bytes, sep)?;
    let n_attrs = names.len() - 1;
    let mut numeric = vec![true; n_attrs];
    let mut any_row = false;
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(line_text(raw)) else {
            continue;
        };
        if line.trim().is_empty() || line.split(sep).count() != names.len() {
            continue;
        }
        any_row = true;
        for (a, field) in line.split(sep).take(n_attrs).enumerate() {
            numeric[a] &= field.trim().parse::<f64>().is_ok_and(f64::is_finite);
        }
    }
    Ok(numeric
        .into_iter()
        .map(|num| {
            if num && any_row {
                AttrType::Numeric
            } else {
                AttrType::Categorical
            }
        })
        .collect())
}

/// A line's content: its bytes without the `\n` terminator and, when there
/// was one, a `\r` before it — the split `str::lines` makes.
fn line_text(raw: &[u8]) -> &[u8] {
    match raw.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => raw,
    }
}

/// Reads the header — the first non-blank line — and validates it,
/// returning the column names (class column last) and the number of lines
/// consumed. Header problems are hard errors whatever the row policy.
fn read_header<R: BufRead>(reader: &mut R, sep: char) -> Result<(Vec<String>, usize), DataError> {
    let mut raw = Vec::new();
    let mut lineno = 0;
    let header = loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Err(DataError::Csv {
                line: 1,
                message: "missing header".into(),
            });
        }
        lineno += 1;
        let line = std::str::from_utf8(line_text(&raw)).map_err(|_| DataError::Csv {
            line: lineno,
            message: "header is not valid UTF-8".into(),
        })?;
        if !line.trim().is_empty() {
            break line;
        }
    };
    let names: Vec<String> = header.split(sep).map(|s| s.trim().to_string()).collect();
    if names.len() < 2 {
        return Err(DataError::Csv {
            line: 1,
            message: "header needs at least one attribute and a class column".into(),
        });
    }
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            return Err(DataError::DuplicateAttribute { name: name.clone() });
        }
    }
    Ok((names, lineno))
}

/// Up to one block's worth of consecutive raw lines, as read.
#[derive(Debug)]
struct RawBlock {
    /// 1-based line number of the first line.
    first_line: usize,
    /// The lines' bytes, terminators included.
    bytes: Vec<u8>,
    /// End offset of each line in `bytes`.
    ends: Vec<usize>,
}

/// One block parsed into columns. Categorical columns and labels hold
/// **block-local** codes into `dicts`/`classes`, assigned in first-seen
/// order among the block's well-formed rows; merging re-interns them into
/// the stream's dictionaries.
#[derive(Debug)]
struct ParsedBlock {
    columns: Vec<Column>,
    dicts: Vec<Vec<String>>,
    labels: Vec<u32>,
    classes: Vec<String>,
    /// `(line, why)` for each malformed row, in file order.
    errors: Vec<(usize, String)>,
}

/// A block-local dictionary over strings borrowed from the block's bytes.
#[derive(Default)]
struct LocalDict<'a> {
    // lint:allow(nondet-iter) — lookup table only; `values` keeps code order
    codes: HashMap<&'a str, u32>,
    values: Vec<&'a str>,
}

impl<'a> LocalDict<'a> {
    fn intern(&mut self, s: &'a str) -> u32 {
        let values = &mut self.values;
        *self.codes.entry(s).or_insert_with(|| {
            values.push(s);
            crate::index::to_u32(values.len() - 1, "dictionary code")
        })
    }

    fn into_owned(self) -> Vec<String> {
        self.values.into_iter().map(str::to_owned).collect()
    }
}

/// Parses one block against the typed layout. A row is committed — its
/// categorical values interned, its numbers pushed — only once every field
/// is known good, so a malformed row leaves no trace but its error.
fn parse_block(block: &RawBlock, sep: char, types: &[AttrType]) -> ParsedBlock {
    let n_attrs = types.len();
    let n_rows = block.ends.len();
    let mut columns: Vec<Column> = types
        .iter()
        .map(|ty| match ty {
            AttrType::Numeric => Column::Num(Vec::with_capacity(n_rows)),
            AttrType::Categorical => Column::Cat(Vec::with_capacity(n_rows)),
        })
        .collect();
    let mut dicts: Vec<LocalDict<'_>> = (0..n_attrs).map(|_| LocalDict::default()).collect();
    let mut classes = LocalDict::default();
    let mut labels = Vec::with_capacity(n_rows);
    let mut errors = Vec::new();
    let mut fields: Vec<&str> = Vec::with_capacity(n_attrs + 1);
    let mut nums: Vec<f64> = Vec::with_capacity(n_attrs);
    // One validation pass for the whole block; only a block holding an
    // invalid byte validates line by line to find the offending rows.
    let text = std::str::from_utf8(&block.bytes).ok();
    let mut start = 0;
    for (i, &end) in block.ends.iter().enumerate() {
        let line_no = block.first_line + i;
        let raw = line_text(&block.bytes[start..end]);
        let line = match text {
            // `\n`-split bytes of valid text are char-boundary slices.
            Some(text) => Ok(&text[start..start + raw.len()]),
            None => std::str::from_utf8(raw),
        };
        start = end;
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                errors.push((
                    line_no,
                    format!("invalid UTF-8 at byte {}", e.valid_up_to() + 1),
                ));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        split_fields(line, sep, &mut fields);
        if fields.len() != n_attrs + 1 {
            errors.push((
                line_no,
                format!("expected {} fields, got {}", n_attrs + 1, fields.len()),
            ));
            continue;
        }
        if let Err(message) = parse_numbers(&fields, types, &mut nums) {
            errors.push((line_no, message));
            continue;
        }
        let mut nums = nums.iter();
        for ((column, dict), field) in columns.iter_mut().zip(&mut dicts).zip(&fields) {
            match column {
                Column::Num(col) => col.extend(nums.next()),
                Column::Cat(col) => col.push(dict.intern(field)),
            }
        }
        labels.push(classes.intern(fields[n_attrs]));
    }
    ParsedBlock {
        columns,
        dicts: dicts.into_iter().map(LocalDict::into_owned).collect(),
        labels,
        classes: classes.into_owned(),
        errors,
    }
}

/// Splits `line` at `sep` into `fields`, each trimmed as `str::trim`
/// trims. An ASCII separator is found byte by byte, and a field whose
/// first and last bytes are printable ASCII needs no trimming.
fn split_fields<'a>(line: &'a str, sep: char, fields: &mut Vec<&'a str>) {
    fields.clear();
    let sep = match u8::try_from(sep) {
        Ok(byte) if byte.is_ascii() => byte,
        _ => {
            fields.extend(line.split(sep).map(str::trim));
            return;
        }
    };
    let trim = |field: &'a str| match field.as_bytes() {
        [first, .., last] | [first @ last]
            if first.is_ascii_graphic() && last.is_ascii_graphic() =>
        {
            field
        }
        _ => field.trim(),
    };
    let mut start = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == sep {
            fields.push(trim(&line[start..i]));
            start = i + 1;
        }
    }
    fields.push(trim(&line[start..]));
}

/// Parses a row's numeric fields into `nums`, failing the row with the
/// first unparsable field, then with the first non-finite value (the order
/// and wording `DatasetBuilder::push_row` uses).
fn parse_numbers(fields: &[&str], types: &[AttrType], nums: &mut Vec<f64>) -> Result<(), String> {
    nums.clear();
    for (a, (field, ty)) in fields.iter().zip(types).enumerate() {
        if *ty == AttrType::Numeric {
            match field.parse::<f64>() {
                Ok(x) => nums.push(x),
                Err(_) => return Err(format!("field {a} ({field:?}) is not numeric")),
            }
        }
    }
    let numeric_attrs = types
        .iter()
        .enumerate()
        .filter(|(_, ty)| **ty == AttrType::Numeric);
    match numeric_attrs.zip(nums.iter()).find(|(_, x)| !x.is_finite()) {
        Some(((attr, _), _)) => Err(DataError::NonFiniteValue { attr }.to_string()),
        None => Ok(()),
    }
}

/// Streams a CSV source as a sequence of bounded columnar chunks, so a
/// dataset far larger than RAM never has to be materialised as one text
/// buffer or one `Dataset`.
///
/// The source is read in blocks of `chunk_rows` lines. Each block is split
/// into lines and fields at the byte level and parsed into columns with
/// **block-local dictionaries**; a round of blocks (one per hardware
/// thread) parses on worker threads when it is large enough, by the same
/// [`worker_count`] rule the condition search uses, while this thread reads
/// the next round. Blocks then merge **in block order**: each block's local
/// values are interned into the stream's dictionaries in local-code order,
/// so codes come out in exactly the global first-seen order, and its
/// malformed rows are charged against the one skip budget in file order.
/// At most two rounds are in flight, so transient memory is bounded by
/// `chunk_rows`, not the file.
///
/// [`next_chunk`](Self::next_chunk) returns one block's rows as an ordinary
/// [`Dataset`] sharing the stream's schema so far. Blank and malformed lines
/// count towards a block's `chunk_rows` lines, so a chunk can hold fewer
/// rows.
///
/// Attribute types must be supplied explicitly ([`CsvOptions::types`]) —
/// inference needs a full pass, which is exactly what streaming avoids.
/// With the same typed options, the rows, codes and quarantine report (line
/// numbers, order, and the first error in file order) are identical to the
/// whole-file loaders'.
#[derive(Debug)]
pub struct ChunkedCsvReader<R: BufRead> {
    reader: R,
    sep: char,
    policy: RowPolicy,
    names: Vec<String>,
    types: Vec<AttrType>,
    /// Names and types, with every dictionary grown so far.
    schema: Schema,
    chunk_rows: usize,
    /// Minimum cells per round before the round parses on worker threads.
    min_cells: usize,
    report: LoadReport,
    /// 1-based number of the next line to read.
    next_line: usize,
    /// Parsed blocks waiting to merge, in file order.
    parsed: VecDeque<ParsedBlock>,
    /// The next round, read while the current one parsed.
    prefetched: Option<Result<Round, DataError>>,
    /// True once the round holding the end of the source has parsed.
    done: bool,
}

impl<R: BufRead> ChunkedCsvReader<R> {
    /// Reads and validates the header, returning a reader positioned at
    /// the first data row. `chunk_rows` is the line budget per block
    /// (minimum 1). Header problems are hard errors, exactly as in
    /// [`read_csv_str_with_report`].
    pub fn new(reader: R, opts: &CsvOptions, chunk_rows: usize) -> Result<Self, DataError> {
        let Some(types) = opts.types.clone() else {
            return Err(DataError::Csv {
                line: 1,
                message: "chunked reading requires explicit attribute types \
                          (inference needs a full pass over the data)"
                    .into(),
            });
        };
        Self::open(reader, opts, types, chunk_rows)
    }

    fn open(
        mut reader: R,
        opts: &CsvOptions,
        types: Vec<AttrType>,
        chunk_rows: usize,
    ) -> Result<Self, DataError> {
        let (names, header_lines) = read_header(&mut reader, opts.separator)?;
        let n_attrs = names.len() - 1;
        if types.len() != n_attrs {
            return Err(DataError::Csv {
                line: 1,
                message: format!("{} types supplied for {} attributes", types.len(), n_attrs),
            });
        }
        let mut schema = Schema::new();
        for (name, ty) in names.iter().zip(&types) {
            schema.attributes.push(Attribute::new(name.as_str(), *ty));
        }
        Ok(ChunkedCsvReader {
            reader,
            sep: opts.separator,
            policy: opts.on_error.clone(),
            names: names[..n_attrs].to_vec(),
            types,
            schema,
            chunk_rows: chunk_rows.max(1),
            min_cells: PARALLEL_MIN_CELLS,
            report: LoadReport::default(),
            next_line: header_lines + 1,
            parsed: VecDeque::new(),
            prefetched: None,
            done: false,
        })
    }

    /// Attribute names (the class column name excluded).
    pub fn attr_names(&self) -> &[String] {
        &self.names
    }

    /// Attribute types, in column order.
    pub fn types(&self) -> &[AttrType] {
        &self.types
    }

    /// The cumulative quarantine report over every chunk read so far.
    pub fn report(&self) -> &LoadReport {
        &self.report
    }

    /// Consumes the reader, yielding the final cumulative report.
    pub fn into_report(self) -> LoadReport {
        self.report
    }

    /// Parses the next chunk — the well-formed rows of the next block of
    /// at most `chunk_rows` lines — or `None` once the source is
    /// exhausted. Every returned dataset carries the stream's schema so
    /// far (every dictionary code seen up to and including this chunk),
    /// all rows weighted 1.0.
    pub fn next_chunk(&mut self) -> Result<Option<Dataset>, DataError> {
        while let Some((columns, labels)) = self.next_block()? {
            if !labels.is_empty() {
                let weights = vec![1.0; labels.len()];
                let schema = self.schema.clone();
                return Ok(Some(Dataset::from_parts(schema, columns, labels, weights)));
            }
        }
        Ok(None)
    }

    /// Drains the stream into one dataset: each merged block's columns are
    /// appended straight onto the result's.
    fn drain(mut self) -> Result<(Dataset, LoadReport), DataError> {
        let mut columns: Vec<Column> = self
            .types
            .iter()
            .map(|ty| match ty {
                AttrType::Numeric => Column::Num(Vec::new()),
                AttrType::Categorical => Column::Cat(Vec::new()),
            })
            .collect();
        let mut labels = Vec::new();
        while let Some((block_columns, block_labels)) = self.next_block()? {
            for (column, block) in columns.iter_mut().zip(block_columns) {
                match (column, block) {
                    (Column::Num(all), Column::Num(part)) => all.extend_from_slice(&part),
                    (Column::Cat(all), Column::Cat(part)) => all.extend_from_slice(&part),
                    _ => unreachable!("blocks are parsed against the stream's types"),
                }
            }
            labels.extend_from_slice(&block_labels);
        }
        let weights = vec![1.0; labels.len()];
        let data = Dataset::from_parts(self.schema, columns, labels, weights);
        Ok((data, self.report))
    }

    /// The next block merged into the stream: its rows' columns and labels
    /// in stream codes, or `None` at the end of the source.
    fn next_block(&mut self) -> Result<Option<BlockRows>, DataError> {
        if self.parsed.is_empty() && !self.done {
            self.parse_round()?;
        }
        let Some(block) = self.parsed.pop_front() else {
            return Ok(None);
        };
        for (line, message) in block.errors {
            quarantine(&self.policy, &mut self.report, line, message)?;
        }
        let mut columns = block.columns;
        for ((column, local), attr) in columns
            .iter_mut()
            .zip(&block.dicts)
            .zip(&mut self.schema.attributes)
        {
            if let Column::Cat(codes) = column {
                remap(codes, local, &mut attr.dict);
            }
        }
        let mut labels = block.labels;
        remap(&mut labels, &block.classes, &mut self.schema.classes);
        Ok(Some((columns, labels)))
    }

    /// Parses one round of blocks — one per hardware thread — on worker
    /// threads when the round is large enough, while this thread reads the
    /// next round.
    fn parse_round(&mut self) -> Result<(), DataError> {
        let available = std::thread::available_parallelism().map_or(1, |p| p.get());
        // A zero threshold forces worker threads, with the two-worker floor
        // `worker_count` applies, so a round then holds at least two blocks.
        let n_blocks = if self.min_cells == 0 {
            available.max(2)
        } else {
            available
        };
        let round = match self.prefetched.take() {
            Some(round) => round?,
            None => read_round(
                &mut self.reader,
                &mut self.next_line,
                self.chunk_rows,
                n_blocks,
            )?,
        };
        let (sep, types) = (self.sep, &self.types[..]);
        let cells = round.blocks.iter().map(|b| b.ends.len()).sum::<usize>() * (types.len() + 1);
        let workers = worker_count(
            true,
            None,
            self.min_cells,
            cells,
            round.blocks.len(),
            available,
        );
        let parsed: Vec<ParsedBlock> = if workers <= 1 {
            round
                .blocks
                .iter()
                .map(|b| parse_block(b, sep, types))
                .collect()
        } else {
            let slots: Vec<Mutex<Option<ParsedBlock>>> =
                round.blocks.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let (reader, next_line) = (&mut self.reader, &mut self.next_line);
            let mut prefetched = None;
            // Workers race only over which block they parse; each result
            // lands in its block's slot, and blocks merge in block order.
            // det:merge(block-order)
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(block) = round.blocks.get(i) else {
                            break;
                        };
                        let parsed = parse_block(block, sep, types);
                        // Poison recovery is sound: each slot is written by
                        // one worker, and a panicked worker re-panics at join.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(parsed);
                    });
                }
                if !round.last {
                    prefetched = Some(read_round(reader, next_line, self.chunk_rows, n_blocks));
                }
            });
            self.prefetched = prefetched;
            slots
                .into_iter()
                .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect()
        };
        self.done = round.last;
        self.parsed.extend(parsed);
        Ok(())
    }
}

/// A merged block's columns and labels, in stream codes.
type BlockRows = (Vec<Column>, Vec<u32>);

/// Consecutive raw blocks read for one parse round.
#[derive(Debug)]
struct Round {
    blocks: Vec<RawBlock>,
    /// True when the source ended within this round.
    last: bool,
}

/// Reads up to `n_blocks` blocks of `chunk_rows` lines; a shorter block
/// means the source is exhausted.
fn read_round<R: BufRead>(
    reader: &mut R,
    next_line: &mut usize,
    chunk_rows: usize,
    n_blocks: usize,
) -> Result<Round, DataError> {
    let mut round = Round {
        blocks: Vec::with_capacity(n_blocks),
        last: false,
    };
    while round.blocks.len() < n_blocks && !round.last {
        let mut block = RawBlock {
            first_line: *next_line,
            bytes: Vec::new(),
            ends: Vec::with_capacity(chunk_rows.min(WHOLE_FILE_BLOCK_ROWS)),
        };
        while block.ends.len() < chunk_rows {
            if reader.read_until(b'\n', &mut block.bytes)? == 0 {
                break;
            }
            block.ends.push(block.bytes.len());
        }
        *next_line += block.ends.len();
        round.last = block.ends.len() < chunk_rows;
        if !block.ends.is_empty() {
            round.blocks.push(block);
        }
    }
    Ok(round)
}

/// Re-interns a block's local dictionary into the stream's, in local-code
/// order, and rewrites the block's codes to stream codes.
fn remap(codes: &mut [u32], local: &[String], global: &mut Dictionary) {
    let to_global: Vec<u32> = local.iter().map(|value| global.intern(value)).collect();
    for code in codes {
        *code = to_global[*code as usize];
    }
}

/// Loads a CSV file through [`ChunkedCsvReader`], appending every block's
/// columns onto one dataset. The result (schema, dictionary codes, row
/// order, values) and the quarantine report are identical to
/// [`read_csv_with_report`] with the same explicitly typed options. Peak
/// transient memory for text and parse state is bounded by `chunk_rows`
/// rather than the file size; the columnar store being assembled is, of
/// course, still resident.
pub fn read_csv_chunked(
    path: impl AsRef<Path>,
    opts: &CsvOptions,
    chunk_rows: usize,
) -> Result<(Dataset, LoadReport), DataError> {
    let file = BufReader::with_capacity(1 << 16, File::open(path)?);
    ChunkedCsvReader::new(file, opts, chunk_rows)?.drain()
}

/// Writes a dataset to a CSV file. See [`write_csv_string`].
pub fn write_csv(data: &Dataset, path: impl AsRef<Path>, sep: char) -> Result<(), DataError> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(write_csv_string(data, sep).as_bytes())?;
    out.flush()?;
    Ok(())
}

/// Renders a dataset as CSV text (weights are not serialised; CSV is a data
/// interchange format, weights are a training-time construct).
pub fn write_csv_string(data: &Dataset, sep: char) -> String {
    let mut s = write_csv_header_string(data, sep);
    s.push_str(&write_csv_rows_string(data, sep));
    s
}

/// Renders only the header line (attribute names + class column), with its
/// trailing newline. Streaming writers emit this once, then
/// [`write_csv_rows_string`] per generated batch — `header + rows + rows +
/// …` is byte-identical to one [`write_csv_string`] of the concatenated
/// data (`f64` `Display` round-trips exactly, so a write/read cycle loses
/// nothing).
pub fn write_csv_header_string(data: &Dataset, sep: char) -> String {
    let mut s = String::new();
    for a in 0..data.n_attrs() {
        let _ = write!(s, "{}{}", data.schema().attr(a).name, sep);
    }
    s.push_str("class\n");
    s
}

/// Renders only the data rows (no header), one line per row. See
/// [`write_csv_header_string`].
pub fn write_csv_rows_string(data: &Dataset, sep: char) -> String {
    let mut s = String::new();
    for row in 0..data.n_rows() {
        for a in 0..data.n_attrs() {
            match data.column(a) {
                Column::Num(_) => {
                    let _ = write!(s, "{}{}", data.num(a, row), sep);
                }
                Column::Cat(_) => {
                    let _ = write!(s, "{}{}", data.cat_name(a, row), sep);
                }
            }
        }
        s.push_str(data.class_name(data.label(row)));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_type_inference() {
        let text = "x,proto,class\n1.5,tcp,normal\n2.5,udp,attack\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.schema().attr(0).ty, AttrType::Numeric);
        assert_eq!(d.schema().attr(1).ty, AttrType::Categorical);
        assert_eq!(d.num(0, 1), 2.5);
        assert_eq!(d.cat_name(1, 0), "tcp");
        assert_eq!(d.class_name(d.label(1)), "attack");
    }

    #[test]
    fn numeric_looking_column_can_be_forced_categorical() {
        let text = "code,class\n1,a\n2,b\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Categorical]),
            ..Default::default()
        };
        let d = read_csv_str(text, &opts).unwrap();
        assert_eq!(d.schema().attr(0).ty, AttrType::Categorical);
        assert_eq!(d.cat_name(0, 1), "2");
    }

    #[test]
    fn round_trip_preserves_values() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n3,a,c0\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        let rendered = write_csv_string(&d, ',');
        let d2 = read_csv_str(&rendered, &CsvOptions::default()).unwrap();
        assert_eq!(d2.n_rows(), d.n_rows());
        for row in 0..d.n_rows() {
            assert_eq!(d2.num(0, row), d.num(0, row));
            assert_eq!(d2.cat_name(1, row), d.cat_name(1, row));
            assert_eq!(d2.class_name(d2.label(row)), d.class_name(d.label(row)));
        }
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let text = "x,class\n1,a\n2\n";
        let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn duplicate_column_name_is_error() {
        let text = "x,x,class\n1,2,a\n";
        let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::DuplicateAttribute { .. }), "{err}");
    }

    #[test]
    fn missing_header_is_error() {
        let err = read_csv_str("", &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn wrong_type_count_is_error() {
        let opts = CsvOptions {
            types: Some(vec![]),
            ..Default::default()
        };
        let err = read_csv_str("x,class\n1,a\n", &opts).unwrap_err();
        assert!(err.to_string().contains("types"));
    }

    #[test]
    fn alternative_separator() {
        let text = "x;class\n4;a\n";
        let opts = CsvOptions {
            separator: ';',
            ..Default::default()
        };
        let d = read_csv_str(text, &opts).unwrap();
        assert_eq!(d.num(0, 0), 4.0);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "x,class\n\n1,a\n\n2,b\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn skip_policy_quarantines_bad_rows_and_reports_lines() {
        // line 3 has a missing field, line 5 a non-numeric value in an
        // explicitly numeric column
        let text = "x,class\n1,a\n2\n3,b\nfour,c\n5,a\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 10 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report(text, &opts).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(report.n_skipped(), 2);
        assert_eq!(report.skipped[0].0, 3);
        assert_eq!(report.skipped[1].0, 5);
        assert!(report.skipped[1].1.contains("not numeric"), "{report:?}");
    }

    #[test]
    fn skip_cap_is_enforced() {
        let text = "x,class\n1\n2\n3,a\n";
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 1 },
            ..Default::default()
        };
        let err = read_csv_str_with_report(text, &opts).unwrap_err();
        assert!(err.to_string().contains("skip limit"), "{err}");
        // with a big enough cap the same text loads
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 2 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report(text, &opts).unwrap();
        assert_eq!(d.n_rows(), 1);
        assert_eq!(report.n_skipped(), 2);
    }

    #[test]
    fn fail_policy_stays_default_and_reports_first_error() {
        assert_eq!(CsvOptions::default().on_error, RowPolicy::Fail);
        let text = "x,class\n1,a\n2\n";
        let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn clean_load_has_empty_report() {
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 5 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report("x,class\n1,a\n2,b\n", &opts).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert!(report.skipped.is_empty());
    }

    /// Asserts that a chunked load of `text` (at the given chunk size)
    /// matches the whole-file load exactly: row values, dictionary codes,
    /// labels, and quarantine counts + line sets (order may differ — the
    /// whole-file loader quarantines in two passes, the stream in one).
    fn assert_chunked_matches_whole(text: &str, opts: &CsvOptions, chunk_rows: usize) {
        let (whole, whole_report) = read_csv_str_with_report(text, opts).unwrap();
        let dir = std::env::temp_dir().join("pnr_data_chunked_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("c{chunk_rows}_{}.csv", text.len()));
        std::fs::write(&path, text).unwrap();
        let (chunked, chunk_report) = read_csv_chunked(&path, opts, chunk_rows).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(chunked.n_rows(), whole.n_rows(), "row count");
        assert_eq!(chunked.n_attrs(), whole.n_attrs());
        for a in 0..whole.n_attrs() {
            let (wd, cd) = (&whole.schema().attr(a).dict, &chunked.schema().attr(a).dict);
            assert_eq!(
                wd.iter().collect::<Vec<_>>(),
                cd.iter().collect::<Vec<_>>(),
                "dict codes attr {a}"
            );
            for row in 0..whole.n_rows() {
                match whole.column(a) {
                    Column::Num(_) => assert_eq!(
                        chunked.num(a, row).to_bits(),
                        whole.num(a, row).to_bits(),
                        "attr {a} row {row}"
                    ),
                    Column::Cat(_) => {
                        assert_eq!(chunked.cat(a, row), whole.cat(a, row), "attr {a} row {row}")
                    }
                }
            }
        }
        assert_eq!(chunked.labels(), whole.labels(), "label codes");
        assert_eq!(
            chunk_report.n_skipped(),
            whole_report.n_skipped(),
            "skip count"
        );
        let lines = |r: &LoadReport| {
            let mut l: Vec<usize> = r.skipped.iter().map(|(n, _)| *n).collect();
            l.sort_unstable();
            l
        };
        assert_eq!(lines(&chunk_report), lines(&whole_report), "skip lines");
    }

    #[test]
    fn chunked_load_matches_whole_file_across_chunk_sizes() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n3,c,c0\n4,a,c1\n5,d,c0\n6,b,c1\n7,e,c0\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric, AttrType::Categorical]),
            ..Default::default()
        };
        for chunk_rows in [1, 2, 3, 7, 100] {
            assert_chunked_matches_whole(text, &opts, chunk_rows);
        }
    }

    #[test]
    fn chunked_final_line_without_trailing_newline_is_kept() {
        // The last record has no trailing newline: both paths must load it
        // (satellite regression — `BufRead::read_line` still yields it).
        let text = "x,class\n1,a\n2,b\n3,c";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 4 },
            ..Default::default()
        };
        for chunk_rows in [1, 2, 3, 50] {
            assert_chunked_matches_whole(text, &opts, chunk_rows);
        }
        // And a final line that is both last and malformed.
        let bad_tail = "x,class\n1,a\n2,b\nbroken";
        for chunk_rows in [1, 2, 50] {
            assert_chunked_matches_whole(bad_tail, &opts, chunk_rows);
        }
    }

    #[test]
    fn chunked_malformed_row_on_chunk_boundary_counts_once() {
        // Data line 4 (physical line 4) is malformed. With chunk_rows = 2
        // it is the first row the second chunk sees; with chunk_rows = 3
        // it lands exactly on the boundary after a full chunk. The skip
        // count and line set must match the whole-file path in every
        // geometry (satellite regression).
        let text = "x,class\n1,a\n2,b\n3\n4,c\n5,d\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 4 },
            ..Default::default()
        };
        for chunk_rows in [1, 2, 3, 4, 100] {
            assert_chunked_matches_whole(text, &opts, chunk_rows);
        }
        // Mixed failure modes (bad field count + non-numeric) around
        // boundaries, blank lines interleaved.
        let messy = "x,class\n\n1,a\nnope,b\n\n2\n3,c\n4,d\nbad,e\n5,f";
        for chunk_rows in [1, 2, 3, 100] {
            assert_chunked_matches_whole(messy, &opts, chunk_rows);
        }
    }

    #[test]
    fn chunked_skip_cap_spans_chunk_boundaries() {
        // Two malformed rows in different chunks; a budget of 1 must abort
        // on the second even though each chunk alone sees only one.
        let text = "x,class\n1\n2,a\n3\n4,b\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 1 },
            ..Default::default()
        };
        let dir = std::env::temp_dir().join("pnr_data_chunked_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cap.csv");
        std::fs::write(&path, text).unwrap();
        let err = read_csv_chunked(&path, &opts, 2).unwrap_err();
        assert!(err.to_string().contains("skip limit"), "{err}");
        // With budget 2 the same stream loads.
        let opts2 = CsvOptions {
            on_error: RowPolicy::Skip { max: 2 },
            ..opts
        };
        let (d, report) = read_csv_chunked(&path, &opts2, 2).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(report.n_skipped(), 2);
    }

    #[test]
    fn chunked_reader_yields_bounded_chunks_with_stable_dicts() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n3,a,c0\n4,c,c1\n5,b,c0\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric, AttrType::Categorical]),
            ..Default::default()
        };
        let mut r =
            ChunkedCsvReader::new(std::io::BufReader::new(text.as_bytes()), &opts, 2).unwrap();
        assert_eq!(r.attr_names(), ["x".to_string(), "k".to_string()]);
        let mut sizes = Vec::new();
        let mut code_of_b = None;
        while let Some(chunk) = r.next_chunk().unwrap() {
            sizes.push(chunk.n_rows());
            // "b" first appears in chunk 0 (code fixed there); every later
            // chunk's schema must agree.
            if let Some(code) = chunk.schema().attr(1).dict.code("b") {
                match code_of_b {
                    None => code_of_b = Some(code),
                    Some(prev) => assert_eq!(code, prev, "dict code drifted across chunks"),
                }
            }
        }
        assert_eq!(sizes, [2, 2, 1], "fixed row budget per chunk");
        assert!(r.report().skipped.is_empty());
    }

    #[test]
    fn chunked_reader_requires_explicit_types() {
        let err = ChunkedCsvReader::new(
            std::io::BufReader::new("x,class\n1,a\n".as_bytes()),
            &CsvOptions::default(),
            8,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("explicit attribute types"),
            "{err}"
        );
    }

    #[test]
    fn header_rows_split_composes_to_whole_render() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        let composed = format!(
            "{}{}",
            write_csv_header_string(&d, ','),
            write_csv_rows_string(&d, ',')
        );
        assert_eq!(composed, write_csv_string(&d, ','));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pnr_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let text = "x,class\n1,a\n2,b\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        write_csv(&d, &path, ',').unwrap();
        let d2 = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(d2.n_rows(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `bytes` to a fresh temp file named after `tag`.
    fn temp_csv(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pnr_data_csv_bytes_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.csv"));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn invalid_utf8_data_row_is_a_line_numbered_row_error() {
        let bytes = b"x,k,class\n1,a,c0\n2,b\xff,c1\n3,c,c0\n";
        let path = temp_csv("utf8_row", bytes);
        let typed = |on_error| CsvOptions {
            types: Some(vec![AttrType::Numeric, AttrType::Categorical]),
            on_error,
            ..Default::default()
        };
        // Fail: a typed error naming line 3, from both entry points.
        for err in [
            read_csv_with_report(&path, &typed(RowPolicy::Fail)).unwrap_err(),
            read_csv_chunked(&path, &typed(RowPolicy::Fail), 1).unwrap_err(),
            read_csv_with_report(&path, &CsvOptions::default()).unwrap_err(),
        ] {
            assert!(
                matches!(&err, DataError::Csv { line: 3, message } if message.contains("UTF-8")),
                "{err:?}"
            );
        }
        // Skip: the row is quarantined and the rest loads.
        let skip = typed(RowPolicy::Skip { max: 1 });
        for (d, report) in [
            read_csv_with_report(&path, &skip).unwrap(),
            read_csv_chunked(&path, &skip, 2).unwrap(),
        ] {
            assert_eq!(d.n_rows(), 2);
            assert_eq!(d.num(0, 1), 3.0);
            assert_eq!(report.skipped.len(), 1);
            assert_eq!(report.skipped[0].0, 3);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_header_stays_a_hard_error() {
        let path = temp_csv("utf8_header", b"\n x\xff,class\n1,a\n");
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 10 },
            ..Default::default()
        };
        for err in [
            read_csv_with_report(&path, &opts).unwrap_err(),
            read_csv_chunked(&path, &opts, 4).unwrap_err(),
        ] {
            assert!(
                matches!(&err, DataError::Csv { line: 2, message } if message.contains("header")),
                "{err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn whole_file_load_reports_the_first_error_in_file_order() {
        // Line 2 has an unparsable number, line 3 the wrong field count:
        // the first malformed row in the file is the error, on both paths.
        let text = "x,class\nabc,a\n1\n2,b\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            ..Default::default()
        };
        let err = read_csv_str(text, &opts).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 2, .. }), "{err:?}");
        let path = temp_csv("first_error", text.as_bytes());
        let err = read_csv_chunked(&path, &opts, 1).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, DataError::Csv { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn threaded_block_parse_matches_sequential_parse() {
        // Forced worker threads on a Miri-sized input: blocks of two lines
        // (blank and malformed ones among them) parse on workers and merge
        // in block order into the same columns, codes and report.
        let text = "x,k,class\n1,b,c1\n\n2,a,c0\nzz,q,c2\n3,b,c1\n4,c,c0\n5\n6,d,c3\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric, AttrType::Categorical]),
            on_error: RowPolicy::Skip { max: 5 },
            ..Default::default()
        };
        let load = |min_cells| {
            let mut reader = ChunkedCsvReader::new(text.as_bytes(), &opts, 2).unwrap();
            reader.min_cells = min_cells;
            reader.drain().unwrap()
        };
        let (seq, seq_report) = load(usize::MAX);
        let (par, par_report) = load(0);
        assert_eq!(par.n_rows(), 5);
        assert_eq!(par_report, seq_report);
        assert_eq!(
            par_report
                .skipped
                .iter()
                .map(|(l, _)| *l)
                .collect::<Vec<_>>(),
            [5, 8]
        );
        assert_eq!(par.labels(), seq.labels());
        for a in 0..2 {
            let dict = |d: &Dataset| {
                d.schema()
                    .attr(a)
                    .dict
                    .iter()
                    .map(|(_, v)| v.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(dict(&par), dict(&seq));
            match (par.column(a), seq.column(a)) {
                (Column::Num(p), Column::Num(s)) => assert_eq!(p, s),
                (Column::Cat(p), Column::Cat(s)) => assert_eq!(p, s),
                _ => panic!("column types differ"),
            }
        }
        assert_eq!(par.cat_name(1, 0), "b");
        assert_eq!(par.cat(1, 0), 0, "codes follow first-seen order");
    }

    #[test]
    fn chunks_skip_blocks_without_rows() {
        // The second two-line block holds only a blank and a malformed line;
        // `next_chunk` moves past it instead of ending the stream.
        let text = "x,class\n1,a\n2,b\n\nbad\n3,c\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 1 },
            ..Default::default()
        };
        let mut r = ChunkedCsvReader::new(text.as_bytes(), &opts, 2).unwrap();
        let mut sizes = Vec::new();
        while let Some(chunk) = r.next_chunk().unwrap() {
            sizes.push(chunk.n_rows());
        }
        assert_eq!(sizes, [2, 1]);
        assert_eq!(r.into_report().skipped[0].0, 5);
    }

    #[test]
    fn fields_trim_like_str_trim() {
        let mut fields = Vec::new();
        for line in [
            " a ,b,\tc\u{a0}",
            "\u{3000}x\u{3000},,y",
            "é,\u{85}ü\u{85}, z",
            "",
            ",",
        ] {
            split_fields(line, ',', &mut fields);
            let want: Vec<&str> = line.split(',').map(str::trim).collect();
            assert_eq!(fields, want, "{line:?}");
            split_fields(line, '¦', &mut fields);
            assert_eq!(fields, line.split('¦').map(str::trim).collect::<Vec<_>>());
        }
    }
}
