//! Corpus manifest: one line per input file, written by `perfbench gen` and
//! read back by `perfbench run`.
//!
//! The format is tab-separated text. Header lines start with `#` and carry
//! `key<TAB>value` pairs (workload, seed, parameter fingerprint); every
//! other line is one [`Entry`].

use std::fmt::Write as _;

/// Format tag on the first header line.
pub const FORMAT: &str = "vermem-perfbench-manifest/v1";

/// One corpus input file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Input id, dense from 0 in corpus order.
    pub id: usize,
    /// File name, relative to the corpus directory.
    pub file: String,
    /// Trace operations in the file.
    pub ops: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// The expected verdict (workload-specific spelling; see
    /// [`crate::corpus`]).
    pub expected: String,
    /// Where the expectation comes from: `construction`, `injection`,
    /// `batch`, `sat` or `none`.
    pub source: String,
}

/// A parsed manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// Corpus seed.
    pub seed: u64,
    /// Fingerprint of the generator parameters.
    pub params: String,
    /// The inputs, in corpus order.
    pub entries: Vec<Entry>,
}

fn clean(field: &str) -> &str {
    assert!(
        !field.contains(['\t', '\n']),
        "manifest field {field:?} contains a tab or newline"
    );
    field
}

impl Manifest {
    /// Render as manifest text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "#format\t{FORMAT}");
        let _ = writeln!(out, "#workload\t{}", clean(&self.workload));
        let _ = writeln!(out, "#seed\t{}", self.seed);
        let _ = writeln!(out, "#params\t{}", clean(&self.params));
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                e.id,
                clean(&e.file),
                e.ops,
                e.bytes,
                clean(&e.expected),
                clean(&e.source)
            );
        }
        out
    }

    /// Parse manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut format = None;
        let mut workload = None;
        let mut seed = None;
        let mut params = None;
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let at = |msg: &str| format!("manifest line {}: {msg}", lineno + 1);
            if let Some(header) = line.strip_prefix('#') {
                let (key, value) = header
                    .split_once('\t')
                    .ok_or_else(|| at("header without a value"))?;
                match key {
                    "format" => format = Some(value.to_string()),
                    "workload" => workload = Some(value.to_string()),
                    "seed" => seed = Some(value.parse::<u64>().map_err(|e| at(&e.to_string()))?),
                    "params" => params = Some(value.to_string()),
                    other => return Err(at(&format!("unknown header {other:?}"))),
                }
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 6 {
                return Err(at(&format!("expected 6 fields, found {}", f.len())));
            }
            let num = |s: &str| s.parse::<u64>().map_err(|e| at(&e.to_string()));
            let id = num(f[0])? as usize;
            if id != entries.len() {
                return Err(at(&format!("id {id} out of order")));
            }
            entries.push(Entry {
                id,
                file: f[1].to_string(),
                ops: num(f[2])?,
                bytes: num(f[3])?,
                expected: f[4].to_string(),
                source: f[5].to_string(),
            });
        }
        if format.as_deref() != Some(FORMAT) {
            return Err(format!("manifest format is not {FORMAT}"));
        }
        Ok(Manifest {
            workload: workload.ok_or("manifest has no workload")?,
            seed: seed.ok_or("manifest has no seed")?,
            params: params.ok_or("manifest has no params")?,
            entries,
        })
    }

    /// Total operations over all entries.
    pub fn total_ops(&self) -> u64 {
        self.entries.iter().map(|e| e.ops).sum()
    }

    /// Total bytes over all entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }
}
