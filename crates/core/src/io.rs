//! A plain-text instance format, for saving experiment inputs and feeding
//! the `dsq` command-line tool without pulling in a serialization
//! dependency.
//!
//! # Format
//!
//! Line-oriented, whitespace-separated, `#` starts a comment:
//!
//! ```text
//! dsq-instance v1
//! name credit-screening
//! n 3
//! service 0 0.4 0.55 region-filter      # idx cost selectivity [name…]
//! service 1 2.5 2.4 card-lookup
//! service 2 1.8 0.35
//! row 0 0.0 0.6 1.2                     # transfer costs t[0][j]
//! row 1 0.6 0.0 0.5
//! row 2 1.2 0.5 0.0
//! sink 0.0 0.0 0.0                      # optional; defaults to zeros
//! edge 0 2                              # optional precedence: 0 before 2
//! ```
//!
//! Fields are separated by whatever [`char::is_whitespace`] accepts: on
//! an ASCII line that is space and `\t \n \x0B \x0C \r` (note `\x0B`,
//! which [`u8::is_ascii_whitespace`] leaves out); a line with any byte
//! ≥ 0x80 also splits on Unicode whitespace such as U+00A0 or U+3000.
//!
//! # Reading
//!
//! [`parse_instance`] reads a document in one pass over its bytes,
//! eight at a time where it can (finding line ends, comments and field
//! breaks), and allocates nothing per line or per row: the `row` values
//! go straight onto one buffer that becomes the matrix's row-major
//! storage. It is the only reader of the format: the daemon and the CLI
//! both call it. Values are not bucketed here; that is
//! [`CanonicalKey`](crate::CanonicalKey)'s job.

use crate::comm::CommMatrix;
use crate::error::ModelError;
use crate::instance::QueryInstance;
use crate::precedence::PrecedenceDag;
use crate::service::Service;
use std::error::Error;
use std::fmt::{self, Write};

/// Error raised by [`parse_instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseInstanceError {
    /// The header line is missing or names an unknown version.
    BadHeader,
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A required section is missing.
    MissingSection(&'static str),
    /// The parsed pieces fail model validation.
    Invalid(ModelError),
}

impl fmt::Display for ParseInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseInstanceError::BadHeader => {
                write!(f, "expected header line `dsq-instance v1`")
            }
            ParseInstanceError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseInstanceError::MissingSection(s) => write!(f, "missing section: {s}"),
            ParseInstanceError::Invalid(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl Error for ParseInstanceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseInstanceError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ParseInstanceError {
    fn from(e: ModelError) -> Self {
        ParseInstanceError::Invalid(e)
    }
}

/// Renders an instance in the text format (see module docs).
///
/// The output round-trips through [`parse_instance`]; names containing
/// whitespace are preserved (the name is everything after the third
/// field).
pub fn format_instance(instance: &QueryInstance) -> String {
    let n = instance.len();
    // About 20 bytes per value covers the shortest round-trip decimals,
    // so one allocation usually holds the whole document.
    let mut out = String::with_capacity(64 + 20 * n * (n + 4));
    // `fmt::Write` for `String` never fails.
    let _ = write_instance(&mut out, instance);
    out
}

fn write_instance(out: &mut String, instance: &QueryInstance) -> fmt::Result {
    let n = instance.len();
    writeln!(out, "dsq-instance v1")?;
    writeln!(out, "name {}", instance.name())?;
    writeln!(out, "n {n}")?;
    for (i, s) in instance.services().iter().enumerate() {
        write!(out, "service {i} {} {}", s.cost(), s.selectivity())?;
        match s.name() {
            Some(name) => writeln!(out, " {name}")?,
            None => writeln!(out)?,
        }
    }
    for i in 0..n {
        write!(out, "row {i}")?;
        for j in 0..n {
            write!(out, " {}", instance.transfer(i, j))?;
        }
        writeln!(out)?;
    }
    if (0..n).any(|i| instance.sink_cost(i) != 0.0) {
        write!(out, "sink")?;
        for i in 0..n {
            write!(out, " {}", instance.sink_cost(i))?;
        }
        writeln!(out)?;
    }
    if let Some(dag) = instance.precedence() {
        for &(a, b) in dag.edges() {
            writeln!(out, "edge {a} {b}")?;
        }
    }
    Ok(())
}

/// Whitespace as [`char::is_whitespace`] has it below 0x80: space and
/// `\t \n \x0B \x0C \r`. ([`u8::is_ascii_whitespace`] leaves out `\x0B`.)
fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t'..=b'\r')
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Marks (with its high bit) each byte of `word` equal to `byte`. The
/// lowest mark is exact, which is the only one [`scan`] reads.
fn equal_to(word: u64, byte: u8) -> u64 {
    let v = word ^ (ONES * u64::from(byte));
    v.wrapping_sub(ONES) & !v & HIGHS
}

/// Marks each byte of `word` below 0x21: space and the control bytes,
/// whitespace among them. The lowest mark is exact.
fn below_bang(word: u64) -> u64 {
    word.wrapping_sub(ONES * 0x21) & !word & HIGHS
}

/// The first index at or after `i` whose byte is a `hit`, or
/// `bytes.len()`. Eight bytes at a time: `marks` flags every hit in a
/// word (and possibly other bytes, which `hit` then passes over).
fn scan(bytes: &[u8], mut i: usize, marks: fn(u64) -> u64, hit: fn(u8) -> bool) -> usize {
    while let Some(word) = bytes.get(i..i + 8) {
        let marked = marks(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        if marked == 0 {
            i += 8;
            continue;
        }
        let j = i + (marked.trailing_zeros() / 8) as usize;
        if hit(bytes[j]) {
            return j;
        }
        i = j + 1;
    }
    bytes[i..].iter().position(|&b| hit(b)).map_or(bytes.len(), |k| i + k)
}

/// The document's content lines: each `\n` ends a line, a `#` cuts the
/// rest of its line, and lines that are blank once trimmed are skipped.
/// Yields 1-based line numbers.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() {
            let start = self.pos;
            let stop = scan(
                bytes,
                start,
                |word| equal_to(word, b'\n') | equal_to(word, b'#'),
                |b| b == b'\n' || b == b'#',
            );
            let end = match bytes.get(stop) {
                Some(b'#') => scan(bytes, stop, |word| equal_to(word, b'\n'), |b| b == b'\n'),
                _ => stop,
            };
            self.pos = end + 1;
            self.lineno += 1;
            let content = self.text[start..stop].trim();
            if !content.is_empty() {
                return Some((self.lineno, content));
            }
        }
        None
    }
}

/// The whitespace-separated fields of one trimmed content line. An ASCII
/// line is split on its bytes with [`is_space`]; a line holding any byte
/// ≥ 0x80 goes through [`str::split_whitespace`], so both split where
/// [`char::is_whitespace`] does.
enum Fields<'a> {
    Ascii(&'a str),
    Unicode(std::str::SplitWhitespace<'a>),
}

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Self {
        if line.is_ascii() {
            Fields::Ascii(line)
        } else {
            Fields::Unicode(line.split_whitespace())
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Fields::Ascii(rest) => {
                let bytes = rest.as_bytes();
                let start = bytes.iter().position(|&b| !is_space(b))?;
                let end = scan(bytes, start, below_bang, is_space);
                let field = &rest[start..end];
                *rest = &rest[end..];
                Some(field)
            }
            Fields::Unicode(fields) => fields.next(),
        }
    }
}

/// Parses every remaining field as an `f64` onto `values`; `Err` at the
/// first field that is not a number.
fn push_values(fields: Fields<'_>, values: &mut Vec<f64>) -> Result<(), ()> {
    for field in fields {
        values.push(field.parse().map_err(|_| ())?);
    }
    Ok(())
}

/// Parses the text format (see module docs).
///
/// One pass over the text's bytes: every `row` line's values go straight
/// onto one buffer, which is the matrix's row-major storage when the rows
/// arrive once each and in index order, as [`format_instance`] writes
/// them. Fields split where [`char::is_whitespace`] does (so `\x0B` and,
/// on a non-ASCII line, U+00A0 or U+3000 separate fields too), and
/// numbers parse with [`str::parse`].
///
/// # Errors
///
/// Returns [`ParseInstanceError`] describing the offending line or the
/// model-validation failure. A line is reported at its first bad field,
/// before its width is checked. After the last line come, in order: a
/// missing `n`, the first undeclared service, the first undeclared row,
/// and the matrix's checks in row-major order.
pub fn parse_instance(text: &str) -> Result<QueryInstance, ParseInstanceError> {
    let mut lines = Lines { text, pos: 0, lineno: 0 };
    match lines.next() {
        Some((_, "dsq-instance v1")) => {}
        _ => return Err(ParseInstanceError::BadHeader),
    }

    let mut name: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut services: Vec<Option<Service>> = Vec::new();
    // Every accepted `row` line's values in arrival order, and each row
    // index's `(offset, width)` in it; a repeated `row` appends and
    // repoints its index.
    let mut values: Vec<f64> = Vec::new();
    let mut rows: Vec<Option<(usize, usize)>> = Vec::new();
    let mut sink: Option<Vec<f64>> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();

    let malformed = |line: usize, reason: &str| ParseInstanceError::Malformed {
        line,
        reason: reason.to_string(),
    };
    // A `service` line takes at least 13 bytes (`service 0 0 0`), so a
    // text this long declares fewer than `declarable` services, and under
    // a larger `n` its first undeclared index lies below `declarable`.
    // Slots stop there: the tables are bounded by the text, not by the
    // `n` it declares.
    let declarable = text.len() / 8 + 1;

    for (lineno, line) in lines {
        let mut fields = Fields::new(line);
        let keyword = fields.next().expect("non-empty line has a first field");
        match keyword {
            "name" => {
                let rest = line["name".len()..].trim();
                if rest.is_empty() {
                    return Err(malformed(lineno, "name requires a value"));
                }
                name = Some(rest.to_string());
            }
            "n" => {
                let v: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| malformed(lineno, "n requires a positive integer"))?;
                n = Some(v);
                services.resize(v.min(declarable), None);
                rows.resize(v.min(declarable), None);
            }
            "service" => {
                let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `service`"))?;
                let idx: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .filter(|&i| i < count)
                    .ok_or_else(|| malformed(lineno, "service index out of range"))?;
                let cost: f64 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .filter(|c: &f64| c.is_finite() && *c >= 0.0)
                    .ok_or_else(|| malformed(lineno, "bad service cost"))?;
                let sel: f64 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| malformed(lineno, "bad service selectivity"))?;
                let mut service = Service::new(cost, sel);
                if let Some(first) = fields.next() {
                    let mut label = first.to_string();
                    for word in fields {
                        label.push(' ');
                        label.push_str(word);
                    }
                    service = service.with_name(label);
                }
                if let Some(slot) = services.get_mut(idx) {
                    *slot = Some(service);
                }
            }
            "row" => {
                let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `row`"))?;
                let idx: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .filter(|&i| i < count)
                    .ok_or_else(|| malformed(lineno, "row index out of range"))?;
                if values.is_empty() {
                    // Sized for the whole matrix, but never past what
                    // the text could hold (each value takes two bytes).
                    values.reserve(count.saturating_mul(count).min(text.len() / 2));
                }
                let offset = values.len();
                push_values(fields, &mut values)
                    .map_err(|()| malformed(lineno, "bad transfer cost"))?;
                if values.len() - offset != count {
                    return Err(malformed(lineno, "row width must equal n"));
                }
                if let Some(slot) = rows.get_mut(idx) {
                    *slot = Some((offset, count));
                }
            }
            "sink" => {
                let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `sink`"))?;
                let mut values = Vec::with_capacity(count.min(text.len() / 2));
                push_values(fields, &mut values)
                    .map_err(|()| malformed(lineno, "bad sink cost"))?;
                if values.len() != count {
                    return Err(malformed(lineno, "sink width must equal n"));
                }
                sink = Some(values);
            }
            "edge" => {
                let a: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| malformed(lineno, "bad edge endpoint"))?;
                let b: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| malformed(lineno, "bad edge endpoint"))?;
                edges.push((a, b));
            }
            other => {
                return Err(malformed(lineno, &format!("unknown keyword `{other}`")));
            }
        }
    }

    let count = n.ok_or(ParseInstanceError::MissingSection("n"))?;
    // The first undeclared index is the first empty slot, or else the
    // first index past the slots.
    let undeclared = |what: &str, i: usize| ParseInstanceError::Malformed {
        line: 0,
        reason: format!("{what} {i} was never declared"),
    };
    let services: Vec<Service> = services
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| undeclared("service", i)))
        .collect::<Result<_, _>>()?;
    if services.len() < count {
        return Err(undeclared("service", services.len()));
    }
    let rows: Vec<(usize, usize)> = rows
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| undeclared("row", i)))
        .collect::<Result<_, _>>()?;
    if rows.len() < count {
        return Err(undeclared("row", rows.len()));
    }
    // Rows that arrived once each, in index order, at the final width
    // already are the row-major matrix. Any other arrangement (shuffled,
    // repeated, or declared before `n` changed, which may also leave
    // values of rows an `n` cut off) is gathered row by row and meets
    // the same checks through `from_rows`.
    let in_place = values.len() == count * count
        && rows.iter().enumerate().all(|(i, &row)| row == (i * count, count));
    let comm = if in_place {
        CommMatrix::from_row_major(count, values)
    } else {
        CommMatrix::from_rows(
            rows.iter().map(|&(offset, width)| values[offset..offset + width].to_vec()).collect(),
        )
    };

    let mut builder = QueryInstance::builder()
        .name(name.unwrap_or_else(|| "query".into()))
        .services(services)
        .comm(comm.map_err(ParseInstanceError::Invalid)?);
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    if !edges.is_empty() {
        let mut dag = PrecedenceDag::new(count)?;
        for (a, b) in edges {
            dag.add_edge(a, b)?;
        }
        builder = builder.precedence(dag);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryInstance {
        let mut dag = PrecedenceDag::new(3).expect("n > 0");
        dag.add_edge(0, 2).expect("valid edge");
        QueryInstance::builder()
            .name("sample query")
            .service(Service::new(0.5, 0.8).with_name("region filter"))
            .service(Service::new(1.25, 2.0))
            .service(Service::new(0.0, 1.0).with_name("sinkish"))
            .comm(CommMatrix::from_fn(3, |i, j| (i * 3 + j) as f64 * 0.5))
            .sink(vec![0.0, 0.25, 0.0])
            .precedence(dag)
            .build()
            .expect("valid")
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let text = format_instance(&original);
        let parsed = parse_instance(&text).expect("round trip parses");
        assert_eq!(parsed, original);
    }

    #[test]
    fn round_trip_without_optional_sections() {
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 0.5), Service::new(2.0, 1.5)],
            CommMatrix::uniform(2, 0.25),
        )
        .expect("valid");
        let text = format_instance(&inst);
        assert!(!text.contains("sink"), "zero sinks are omitted");
        assert!(!text.contains("edge"));
        assert_eq!(parse_instance(&text).expect("parses"), inst);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "dsq-instance v1\n\n# a comment\nname t\nn 1\nservice 0 1.0 0.5 # trailing\nrow 0 0.0\n";
        let inst = parse_instance(text).expect("parses");
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.cost(0), 1.0);
    }

    #[test]
    fn header_is_required() {
        assert_eq!(parse_instance("name x\n"), Err(ParseInstanceError::BadHeader));
        assert_eq!(parse_instance(""), Err(ParseInstanceError::BadHeader));
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let text =
            "dsq-instance v1\nn 2\nservice 0 1.0 0.5\nservice 1 -3 0.5\nrow 0 0 0\nrow 1 0 0\n";
        match parse_instance(text) {
            Err(ParseInstanceError::Malformed { line, reason }) => {
                assert_eq!(line, 4);
                assert!(reason.contains("cost"));
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn missing_pieces_are_reported() {
        let text = "dsq-instance v1\nn 2\nservice 0 1.0 0.5\nservice 1 1.0 0.5\nrow 0 0 0\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Malformed { reason, .. }) if reason.contains("row 1")
        ));
        let text = "dsq-instance v1\nname x\n";
        assert_eq!(parse_instance(text), Err(ParseInstanceError::MissingSection("n")));
    }

    /// A declared `n` sizes nothing past what the text could declare:
    /// a billion services cost a 26-byte text no more than two do, and
    /// the errors are the ones a small `n` gives.
    #[test]
    fn a_huge_n_fails_like_a_small_one() {
        let undeclared =
            |reason: &str| ParseInstanceError::Malformed { line: 0, reason: reason.into() };
        let huge = "dsq-instance v1\nn 1000000000\n";
        assert_eq!(parse_instance(huge), Err(undeclared("service 0 was never declared")));
        let sparse = format!("{huge}service 0 1 1\nservice 999999999 1 1\n");
        assert_eq!(parse_instance(&sparse), Err(undeclared("service 1 was never declared")));
        assert!(matches!(
            parse_instance(&format!("{huge}sink 0\n")),
            Err(ParseInstanceError::Malformed { line: 3, reason }) if reason.contains("sink width")
        ));
    }

    #[test]
    fn unknown_keywords_are_rejected() {
        let text = "dsq-instance v1\nn 1\nservice 0 1 1\nrow 0 0\nbogus 3\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Malformed { reason, .. }) if reason.contains("bogus")
        ));
    }

    #[test]
    fn cyclic_edges_fail_validation() {
        let text = "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1\nrow 1 1 0\nedge 0 1\nedge 1 0\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Invalid(ModelError::PrecedenceCycle))
        ));
    }

    #[test]
    fn row_width_is_checked() {
        let text = "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1 2\nrow 1 1 0\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Malformed { reason, .. }) if reason.contains("width")
        ));
    }

    #[test]
    fn error_display_and_source() {
        let e = ParseInstanceError::Invalid(ModelError::EmptyInstance);
        assert!(e.to_string().contains("invalid instance"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ParseInstanceError::BadHeader.to_string().contains("dsq-instance"));
    }
}
