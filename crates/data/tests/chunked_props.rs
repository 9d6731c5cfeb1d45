//! Property suite for the chunked CSV loader: on generated CSV text — CRLF
//! and LF endings, blank lines, a missing final newline, multibyte values,
//! `inf`/`NaN`/`1e999` numerics, malformed rows anywhere, including on
//! block boundaries — after random byte flips, inserts, deletes and
//! truncations, `read_csv_chunked` at any `chunk_rows` never panics and
//! agrees exactly with the whole-file `read_csv_with_report` under the
//! same typed options: the same dataset (schema, dictionary codes, f64
//! bits, labels, weights) and the same quarantine report, or the same
//! error.

use pnr_data::{
    read_csv_chunked, read_csv_with_report, AttrType, Column, CsvOptions, DataError, Dataset,
    LoadReport, RowPolicy,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// SplitMix64: a tiny deterministic generator driven by the case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "-0",
    "2.5",
    " 3.25 ",
    "-17",
    "+7",
    ".5",
    "5.",
    "1e3",
    "6.02e23",
    "1e-300",
    "4.905488625074676",
    "1982.6345297828298",
];
/// Numeric fields that quarantine their row.
const BAD_NUMBERS: &[&str] = &["inf", "-inf", "NaN", "1e999", "abc", ""];
const VALUES: &[&str] = &[
    "tcp",
    "udp",
    "icmp",
    "é",
    "日本",
    " padded ",
    "",
    "\u{a0}nbsp\u{a0}",
    "ü-x",
    "1",
    "a b",
];
const CLASSES: &[&str] = &["normal", "r2l", "dos", "ünï", "c\u{3000}"];

/// Generates CSV bytes for `types`, then corrupts them.
fn generate(rng: &mut Rng, types: &[AttrType]) -> Vec<u8> {
    let mut text = String::new();
    for a in 0..types.len() {
        text.push_str(&format!("a{a},"));
    }
    text.push_str("class\n");
    let n_lines = rng.below(if types.len() > 8 { 600 } else { 400 });
    for _ in 0..n_lines {
        match rng.below(40) {
            0..=2 => text.push_str(["", "  ", "\t"][rng.below(3)]),
            3 => {
                // wrong field count
                let n = rng.below(types.len() + 3);
                let fields: Vec<&str> = (0..n).map(|_| rng.pick(VALUES)).collect();
                text.push_str(&fields.join(","));
            }
            _ => {
                for ty in types {
                    text.push_str(match ty {
                        AttrType::Numeric if rng.below(200) == 0 => rng.pick(BAD_NUMBERS),
                        AttrType::Numeric => rng.pick(NUMBERS),
                        AttrType::Categorical => rng.pick(VALUES),
                    });
                    text.push(',');
                }
                text.push_str(rng.pick(CLASSES));
            }
        }
        text.push_str(if rng.below(4) == 0 { "\r\n" } else { "\n" });
    }
    if rng.below(3) == 0 {
        text.pop();
    }
    let mut bytes = text.into_bytes();
    let header_end = bytes.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
    for _ in 0..rng.below(6) {
        if bytes.len() <= header_end {
            break;
        }
        // Mutate only past the header most of the time; a broken header
        // must still fail identically on both paths.
        let lo = if rng.below(10) == 0 { 0 } else { header_end };
        let at = lo + rng.below(bytes.len() - lo);
        let byte = [0xff, 0x80, 0xc3, b'\n', b',', b'\r', b' ', b'x', b'9'][rng.below(9)];
        match rng.below(4) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

fn temp_path(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("pnr_data_chunked_props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{seed:016x}-{}.csv", std::process::id()))
}

/// Everything observable about a load, for exact comparison.
fn fingerprint(d: &Dataset) -> Vec<String> {
    let schema = d.schema();
    let mut out = Vec::new();
    for a in 0..d.n_attrs() {
        let attr = schema.attr(a);
        let dict: Vec<&str> = attr.dict.iter().map(|(_, v)| v).collect();
        out.push(format!("{} {:?} {dict:?}", attr.name, attr.ty));
        out.push(match d.column(a) {
            Column::Num(v) => format!("{:?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
            Column::Cat(v) => format!("{v:?}"),
        });
    }
    let classes: Vec<&str> = schema.classes.iter().map(|(_, v)| v).collect();
    out.push(format!("{classes:?} {:?}", d.labels()));
    out.push(format!(
        "{:?}",
        d.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>()
    ));
    out
}

fn outcome(
    r: Result<(Dataset, LoadReport), DataError>,
) -> Result<(Vec<String>, LoadReport), String> {
    r.map(|(d, report)| (fingerprint(&d), report))
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunked_load_agrees_with_whole_file_load(
        seed in any::<u64>(),
        chunk_rows in 1usize..=300,
        skip_max in 0usize..40,
    ) {
        let mut rng = Rng(seed);
        // One case in four is wide enough for a round of blocks to parse
        // on worker threads.
        let n_attrs = if rng.below(4) == 0 { 33 } else { 1 + rng.below(4) };
        let types: Vec<AttrType> = (0..n_attrs)
            .map(|_| if rng.below(2) == 0 { AttrType::Numeric } else { AttrType::Categorical })
            .collect();
        let bytes = generate(&mut rng, &types);
        let path = temp_path(seed);
        std::fs::write(&path, &bytes).unwrap();
        for on_error in [RowPolicy::Fail, RowPolicy::Skip { max: skip_max }] {
            let opts = CsvOptions { types: Some(types.clone()), on_error, ..Default::default() };
            let whole = outcome(read_csv_with_report(&path, &opts));
            let chunked = outcome(read_csv_chunked(&path, &opts, chunk_rows));
            prop_assert_eq!(&chunked, &whole, "policy {:?} chunk_rows {}", opts.on_error, chunk_rows);
        }
        std::fs::remove_file(&path).ok();
    }
}
