//! The single-pass text reader against a frozen copy of the parser it
//! replaced (the `lines()` / `split('#')` / `split_whitespace` reader
//! that filled a `Vec<Option<Vec<f64>>>`), and `CanonicalKey` against a
//! frozen copy of its `with_phase`, so a faster key must hash the same
//! words in the same order (`oracle` below holds both).
//!
//! * A property sweep over generated documents: comments, blank lines,
//!   CRLF, tabs, `\x0B`, U+00A0 and U+3000 between fields, multi-word
//!   names, shuffled lines, repeated `n` / `row`, NaN, infinite and
//!   negative values, and truncated rows. Both readers must return the
//!   same instance with equal f64 bits, or the same error with the same
//!   text and line number.
//! * A corpus sweep over every workload family, a hot-drift stream and
//!   precedence DAGs: equal parses, and under both grid phases equal
//!   fingerprints and equal `plan_to_canonical` / `plan_from_canonical`
//!   maps.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use service_ordering::core::{
    format_instance, parse_instance, CanonicalKey, ParseInstanceError, Plan, Quantization,
    QueryInstance,
};
use service_ordering::workloads::{generate, random_dag, DriftConfig, DriftStream, Family};

/// The parser as it was replaced and the key as it is, verbatim but for
/// the names.
mod oracle {
    use service_ordering::core::{
        CommMatrix, Fnv1a, ParseInstanceError, PrecedenceDag, Quantization, QueryInstance, Service,
    };

    pub fn parse_instance(text: &str) -> Result<QueryInstance, ParseInstanceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());

        match lines.next() {
            Some((_, "dsq-instance v1")) => {}
            _ => return Err(ParseInstanceError::BadHeader),
        }

        let mut name: Option<String> = None;
        let mut n: Option<usize> = None;
        let mut services: Vec<Option<Service>> = Vec::new();
        let mut rows: Vec<Option<Vec<f64>>> = Vec::new();
        let mut sink: Option<Vec<f64>> = None;
        let mut edges: Vec<(usize, usize)> = Vec::new();

        let malformed = |line: usize, reason: &str| ParseInstanceError::Malformed {
            line,
            reason: reason.to_string(),
        };

        for (lineno, line) in lines {
            let mut fields = line.split_whitespace();
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
                    services.resize(v, None);
                    rows.resize(v, None);
                }
                "service" => {
                    let count =
                        n.ok_or_else(|| malformed(lineno, "`n` must come before `service`"))?;
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
                    let rest: Vec<&str> = fields.collect();
                    let mut service = Service::new(cost, sel);
                    if !rest.is_empty() {
                        service = service.with_name(rest.join(" "));
                    }
                    services[idx] = Some(service);
                }
                "row" => {
                    let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `row`"))?;
                    let idx: usize = fields
                        .next()
                        .and_then(|f| f.parse().ok())
                        .filter(|&i| i < count)
                        .ok_or_else(|| malformed(lineno, "row index out of range"))?;
                    let values: Vec<f64> = fields
                        .map(|f| f.parse::<f64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| malformed(lineno, "bad transfer cost"))?;
                    if values.len() != count {
                        return Err(malformed(lineno, "row width must equal n"));
                    }
                    rows[idx] = Some(values);
                }
                "sink" => {
                    let count =
                        n.ok_or_else(|| malformed(lineno, "`n` must come before `sink`"))?;
                    let values: Vec<f64> = fields
                        .map(|f| f.parse::<f64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| malformed(lineno, "bad sink cost"))?;
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
        let services: Vec<Service> = services
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or(ParseInstanceError::MissingSection("service")).map_err(|_| {
                    ParseInstanceError::Malformed {
                        line: 0,
                        reason: format!("service {i} was never declared"),
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or(ParseInstanceError::Malformed {
                    line: 0,
                    reason: format!("row {i} was never declared"),
                })
            })
            .collect::<Result<_, _>>()?;

        let mut builder = QueryInstance::builder()
            .name(name.unwrap_or_else(|| "query".into()))
            .services(services)
            .comm(CommMatrix::from_rows(rows).map_err(ParseInstanceError::Invalid)?);
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

    /// `CanonicalKey::with_phase`'s fingerprint and permutations.
    pub struct Key {
        pub fingerprint: u64,
        pub from_canonical: Vec<u32>,
        pub to_canonical: Vec<u32>,
    }

    pub fn key(instance: &QueryInstance, quantization: &Quantization, phase: f64) -> Key {
        let n = instance.len();
        let inv_ln_step = 1.0 / (1.0 + quantization.resolution).ln();
        let bucket = |value: f64| -> i64 {
            if value == 0.0 {
                i64::MIN
            } else {
                (value.ln() * inv_ln_step - phase).round() as i64
            }
        };
        let scalars: Vec<i64> = (0..n)
            .flat_map(|i| {
                [
                    bucket(instance.cost(i)),
                    bucket(instance.selectivity(i)),
                    bucket(instance.sink_cost(i)),
                ]
            })
            .collect();
        let mut transfers = vec![0i64; n * n];
        for i in 0..n {
            for (j, slot) in transfers[i * n..(i + 1) * n].iter_mut().enumerate() {
                if i != j {
                    *slot = bucket(instance.transfer(i, j));
                }
            }
        }

        let mut keys: Vec<(Vec<i64>, usize)> = (0..n)
            .map(|i| {
                let mut key = Vec::with_capacity(3 + 2 * n.saturating_sub(1));
                key.extend_from_slice(&scalars[3 * i..3 * i + 3]);
                let row_start = key.len();
                key.extend((0..n).filter(|&j| j != i).map(|j| transfers[i * n + j]));
                key[row_start..].sort_unstable();
                let col_start = key.len();
                key.extend((0..n).filter(|&j| j != i).map(|j| transfers[j * n + i]));
                key[col_start..].sort_unstable();
                (key, i)
            })
            .collect();
        keys.sort();

        let from_canonical: Vec<u32> = keys.iter().map(|(_, i)| *i as u32).collect();
        let mut to_canonical = vec![0u32; n];
        for (c, &o) in from_canonical.iter().enumerate() {
            to_canonical[o as usize] = c as u32;
        }

        let mut h = Fnv1a::new();
        h.write_u64(n as u64);
        h.write_u64(quantization.resolution.to_bits());
        h.write_u64(phase.to_bits());
        for &o in &from_canonical {
            let o = o as usize;
            h.write_i64(scalars[3 * o]);
            h.write_i64(scalars[3 * o + 1]);
            h.write_i64(scalars[3 * o + 2]);
        }
        for &a in &from_canonical {
            for &b in &from_canonical {
                if a != b {
                    h.write_i64(transfers[a as usize * n + b as usize]);
                }
            }
        }
        if let Some(dag) = instance.precedence() {
            let mut edges: Vec<(u32, u32)> =
                dag.edges().iter().map(|&(a, b)| (to_canonical[a], to_canonical[b])).collect();
            edges.sort_unstable();
            for (a, b) in edges {
                h.write_u64(((u64::from(a)) << 32) | u64::from(b));
            }
        }

        Key { fingerprint: h.finish(), from_canonical, to_canonical }
    }
}

/// Everything an instance holds, floats as bits (so `-0` and `0` differ).
type Bits =
    (String, Vec<(u64, u64, Option<String>)>, Vec<u64>, Vec<u64>, Option<Vec<(usize, usize)>>);

fn bits(instance: &QueryInstance) -> Bits {
    let n = instance.len();
    (
        instance.name().to_string(),
        instance
            .services()
            .iter()
            .map(|s| (s.cost().to_bits(), s.selectivity().to_bits(), s.name().map(str::to_string)))
            .collect(),
        (0..n * n).map(|k| instance.transfer(k / n, k % n).to_bits()).collect(),
        (0..n).map(|i| instance.sink_cost(i).to_bits()).collect(),
        instance.precedence().map(|dag| dag.edges().to_vec()),
    )
}

/// The reader and the oracle agree on `text`: the same instance bit for
/// bit, or the same error (its `Debug` form carries the variant, line
/// number, reason and offending value, NaN included).
fn assert_same_parse(text: &str) -> Result<(), TestCaseError> {
    let outcome = |parsed: Result<QueryInstance, ParseInstanceError>| match parsed {
        Ok(instance) => Ok(bits(&instance)),
        Err(e) => Err((format!("{e:?}"), e.to_string())),
    };
    let (got, want) = (outcome(parse_instance(text)), outcome(oracle::parse_instance(text)));
    prop_assert!(got == want, "reader {got:?}\noracle {want:?}\non {text:?}");
    Ok(())
}

/// The key and the oracle agree on `instance` under `phase`.
fn assert_same_key(instance: &QueryInstance, phase: f64) {
    let quantization = Quantization::default();
    let got = CanonicalKey::with_phase(instance, &quantization, phase);
    let want = oracle::key(instance, &quantization, phase);
    let n = instance.len();
    assert_eq!(got.fingerprint(), want.fingerprint, "{} phase {phase}", instance.name());
    assert_eq!(got.plan_to_canonical(&Plan::identity(n)), want.to_canonical);
    let identity: Vec<u32> = (0..n as u32).collect();
    let from: Vec<u32> = got
        .plan_from_canonical(&identity)
        .expect("a permutation")
        .indices()
        .into_iter()
        .map(|i| i as u32)
        .collect();
    assert_eq!(from, want.from_canonical);
}

/// Separators between fields: ASCII whitespace (`\x0B` included, which
/// `u8::is_ascii_whitespace` leaves out), and U+00A0 / U+3000, which send
/// a line down the non-ASCII branch.
const SEPARATORS: [&str; 9] = [" ", " ", "  ", "\t", "\x0B", "\x0C", " \r ", "\u{A0}", "\u{3000}"];

/// Number fields: plain, signed, exponent, `-0`, NaN, infinities, values
/// that overflow to infinity, and tokens `str::parse` refuses (a control
/// byte is not whitespace).
const NUMBERS: [&str; 25] = [
    "0",
    "1",
    "0.5",
    "2.25",
    "-0",
    "-1",
    "-0.5",
    "+3",
    ".5",
    "5.",
    "1e3",
    "2.5e-3",
    "1e400",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "0x10",
    "1_0",
    "x1",
    "1,5",
    "0.1\u{200B}",
    "é",
    "",
    "1\x02",
];

/// Name words, ASCII and not (U+200B and control bytes are not
/// whitespace).
const WORDS: [&str; 8] = [
    "filter",
    "card-lookup",
    "région",
    "a\u{200B}b",
    "#x",
    "v1",
    "ctl\x01byte",
    "long-service-name-x",
];

fn number(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.97) {
        // A shortest round-trip decimal, as `format_instance` writes.
        format!("{}", rng.gen_range(0.0..50.0f64) * if rng.gen_bool(0.1) { 1e-7 } else { 1.0 })
    } else {
        NUMBERS.choose(rng).expect("non-empty").to_string()
    }
}

fn line(rng: &mut StdRng, fields: &[String]) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.1) {
        out.push_str(SEPARATORS.choose(rng).expect("non-empty"));
    }
    for (k, field) in fields.iter().enumerate() {
        if k > 0 {
            out.push_str(SEPARATORS.choose(rng).expect("non-empty"));
        }
        out.push_str(field);
    }
    if rng.gen_bool(0.1) {
        out.push_str(SEPARATORS.choose(rng).expect("non-empty"));
    }
    if rng.gen_bool(0.1) {
        out.push_str(" # a trailing comment: row 9 9");
    }
    out
}

/// A document drawn from `seed`: mostly well formed, with every kind of
/// damage the reader must report exactly as before.
fn document(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    let n = rng.gen_range(1..=5usize);
    let mut lines: Vec<String> = Vec::new();
    if rng.gen_bool(0.3) {
        let words: Vec<String> = (0..rng.gen_range(0..4).max(usize::from(rng.gen_bool(0.9))))
            .map(|_| WORDS.choose(rng).expect("words").to_string())
            .collect();
        let mut fields = vec!["name".to_string()];
        fields.extend(words);
        lines.push(line(rng, &fields));
    }
    let n_line = |rng: &mut StdRng, v: usize| {
        let value = if rng.gen_bool(0.05) { "-1".to_string() } else { v.to_string() };
        line(rng, &["n".to_string(), value])
    };
    lines.push(n_line(rng, n));
    for i in 0..n {
        if rng.gen_bool(0.03) {
            continue;
        }
        let index = if rng.gen_bool(0.03) { n } else { i };
        let mut fields = vec!["service".to_string(), index.to_string(), number(rng), number(rng)];
        for _ in 0..rng.gen_range(0..3) {
            fields.push(WORDS.choose(rng).expect("words").to_string());
        }
        if rng.gen_bool(0.05) {
            fields.truncate(rng.gen_range(1..fields.len()));
        }
        lines.push(line(rng, &fields));
    }
    let row = |rng: &mut StdRng, i: usize| {
        let mut width = n;
        if rng.gen_bool(0.04) {
            width = if rng.gen_bool(0.5) { n + 1 } else { n - 1 };
        }
        let mut fields = vec!["row".to_string(), i.to_string()];
        for j in 0..width {
            fields.push(if i == j || rng.gen_bool(0.05) { "0".to_string() } else { number(rng) });
        }
        line(rng, &fields)
    };
    for i in 0..n {
        if rng.gen_bool(0.03) {
            continue;
        }
        lines.push(row(rng, i));
    }
    if rng.gen_bool(0.15) {
        let i = rng.gen_range(0..n);
        lines.push(row(rng, i));
    }
    if rng.gen_bool(0.05) {
        let other = rng.gen_range(1..=5usize);
        lines.push(n_line(rng, other));
    }
    if rng.gen_bool(0.3) {
        let mut fields = vec!["sink".to_string()];
        let width = if rng.gen_bool(0.05) { n + 1 } else { n };
        fields.extend((0..width).map(|_| number(rng)));
        lines.push(line(rng, &fields));
    }
    for _ in 0..rng.gen_range(0..3) {
        let (a, b) = if n > 1 && rng.gen_bool(0.8) {
            let a = rng.gen_range(0..n - 1);
            (a, rng.gen_range(a + 1..n))
        } else {
            (rng.gen_range(0..=n), rng.gen_range(0..n))
        };
        let b = if rng.gen_bool(0.05) { "z".to_string() } else { b.to_string() };
        lines.push(line(rng, &["edge".to_string(), a.to_string(), b]));
    }
    if rng.gen_bool(0.03) {
        lines.push(line(rng, &["bogus".to_string(), "3".to_string()]));
    }
    if rng.gen_bool(0.15) {
        lines.shuffle(rng);
    }
    let header = match rng.gen_range(0..40) {
        0 => "dsq-instance v2",
        1 => "dsq-instance\tv1",
        2 => "\u{3000}dsq-instance v1\u{A0}",
        _ => "dsq-instance v1",
    };
    lines.insert(0, header.to_string());
    let mut text = String::new();
    for (k, l) in lines.iter().enumerate() {
        if rng.gen_bool(0.05) {
            text.push_str(if rng.gen_bool(0.5) { "# comment line\n" } else { "   \n" });
        }
        text.push_str(l);
        let last = k + 1 == lines.len();
        if !(last && rng.gen_bool(0.2)) {
            text.push_str(if rng.gen_bool(0.2) { "\r\n" } else { "\n" });
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// Generated documents parse exactly as the replaced reader parsed
    /// them, errors included.
    #[test]
    fn reader_matches_the_replaced_parser(seed in 0u64..u64::MAX) {
        assert_same_parse(&document(seed))?;
    }
}

/// Hand-picked cases the generator reaches only rarely.
#[test]
fn edge_documents_match_the_replaced_parser() {
    let cases = [
        "",
        "\n\n# only comments\n",
        "dsq-instance v1",
        "dsq-instance v1\nname\n",
        "dsq-instance v1\nname\u{3000}\u{A0}x  y\u{A0}\nn 1\nservice 0 1 1\nrow 0 0\n",
        "dsq-instance v1\nn 1\nservice 0 1 1\x0Bsvc\x0Bname\nrow\x0B0\x0B0\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 NaN\nrow 1 -1 0\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 1 -1 0\nrow 0 0 NaN\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 x\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1 x\n",
        "dsq-instance v1\nn 2\nrow 0 0 1\nn 3\nservice 0 1 1\nservice 1 1 1\nservice 2 1 1\nrow 1 0 0 0\nrow 2 0 0 0\n",
        "dsq-instance v1\nn 3\nrow 0 0 1 1\nn 2\nn 3\nservice 0 1 1\nservice 1 1 1\nservice 2 1 1\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nrow 0 0 1\nrow 1 1 0\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1\nrow 1 1 0\nn 3\nrow 2 0 0 0\nn 2\n",
        "dsq-instance v1\nn 2\nrow 0 0 -0\nrow 0 0 1\nrow 1 1 0\nservice 1 1 1\nservice 0 1 1\n",
        "dsq-instance v1\nn 0\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1\nrow 1 1 0\nsink 1 NaN\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1\nrow 1 1 0\nedge 0 0\n",
        "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1\nrow 1 1 0\nedge 0 2\n",
        "dsq-instance v1\r\nn 1\r\nservice 0 1e400 1\r\nrow 0 0\r\n",
        "dsq-instance v1\nn 1\nservice 0 1 1\nrow 0 0\r",
    ];
    for text in cases {
        assert_same_parse(text).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// Every family (with and without a precedence DAG) and a hot-drift
/// stream: equal parses of the formatted text, and equal keys under both
/// grid phases.
#[test]
fn corpus_parses_and_keys_match_the_replaced_code() {
    let mut corpus: Vec<QueryInstance> = Vec::new();
    for family in Family::ALL {
        for (n, seed) in [(1, 0), (2, 1), (5, 2), (12, 3), (16, 4)] {
            let base = generate(family, n, seed);
            let with_dag = QueryInstance::builder()
                .name(format!("{} with precedence", family.name()))
                .services(base.services().to_vec())
                .comm(base.comm().clone())
                .sink((0..n).map(|i| base.sink_cost(i)).collect())
                .precedence(random_dag(n, 0.3, seed))
                .build()
                .expect("valid");
            corpus.push(base);
            corpus.push(with_dag);
        }
    }
    corpus.extend(DriftStream::new(DriftConfig::new(Family::Clustered, 12, 1, 400)));
    for instance in &corpus {
        let text = format_instance(instance);
        assert_same_parse(&text).unwrap_or_else(|e| panic!("{e:?}"));
        let parsed = parse_instance(&text).expect("formatted instances parse");
        for phase in [0.0, 0.5] {
            assert_same_key(&parsed, phase);
        }
    }
}
