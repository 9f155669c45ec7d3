//! RUM baseline regression gate.
//!
//! Re-measures the standard suite's smoke-scale RO/UO/MO and compares
//! against the committed baseline (`results/baseline_rum.json`). The
//! amplifications are pure counted-byte ratios, fully deterministic given
//! the workload seed — independent of thread count, wall clock, and host —
//! so the gate's tolerance can be *tight*: any drift means an access
//! method's physical traffic changed, which is exactly what must never
//! happen silently.
//!
//! The baseline file is serde-free JSON written by [`Baseline::to_json`]
//! and parsed by [`Baseline::from_json`] (a minimal recursive-descent
//! parser for the flat `{spec, tolerance, methods: {name: {ro,uo,mo}}}`
//! shape). Floats are rendered in Rust's shortest-roundtrip `Display`
//! form, so write → parse is exact.
//!
//! Regenerate with `UPDATE_BASELINE=1 cargo run --release -p rum-bench
//! --bin baseline_gate` after an intentional cost-model change.

use std::collections::BTreeMap;

use rum::prelude::*;

/// Relative drift above which the gate fails. The measurement is
/// deterministic, so this only needs to absorb float-formatting round
/// trips — which are exact — hence effectively "any change fails".
pub const DRIFT_TOLERANCE: f64 = 1e-9;

/// The workload every baseline measurement runs: small enough for CI,
/// large enough that every suite method flushes/compacts/splits.
pub fn smoke_spec() -> WorkloadSpec {
    WorkloadSpec {
        initial_records: 2_000,
        operations: 6_000,
        mix: OpMix::BALANCED,
        seed: 0xBA5E_11FE,
        ..Default::default()
    }
}

/// Measured (RO, UO, MO) per suite method.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RumTriple {
    pub ro: f64,
    pub uo: f64,
    pub mo: f64,
}

/// The committed baseline: a description of the spec it was measured
/// under, plus the per-method triples.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    pub spec: String,
    pub methods: BTreeMap<String, RumTriple>,
}

/// Describe a workload spec compactly (stored in the baseline for humans;
/// the measurement always uses [`smoke_spec`]).
pub fn spec_label(spec: &WorkloadSpec) -> String {
    format!(
        "balanced mix, n={}, ops={}, seed={:#x}",
        spec.initial_records, spec.operations, spec.seed
    )
}

/// Measure the current tree's baseline triples.
pub fn measure(threads: usize) -> Baseline {
    let spec = smoke_spec();
    let reports = run_suite(&mut rum::standard_suite(), &spec, threads)
        .unwrap_or_else(|e| panic!("baseline suite run failed: {e}"));
    let methods = reports
        .into_iter()
        .map(|r| {
            (
                r.method,
                RumTriple {
                    ro: r.ro,
                    uo: r.uo,
                    mo: r.mo,
                },
            )
        })
        .collect();
    Baseline {
        spec: spec_label(&spec),
        methods,
    }
}

/// One drift finding from [`compare`].
#[derive(Clone, Debug)]
pub struct Drift {
    pub method: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub measured: f64,
    pub rel: f64,
}

/// Compare a fresh measurement against the committed baseline. Returns
/// every drift beyond `tol` (relative), plus methods added/removed — an
/// empty vec means the gate passes.
pub fn compare(baseline: &Baseline, current: &Baseline, tol: f64) -> Vec<Drift> {
    let mut drifts = Vec::new();
    let rel = |old: f64, new: f64| (new - old).abs() / old.abs().max(1e-12);
    for (method, b) in &baseline.methods {
        match current.methods.get(method) {
            None => drifts.push(Drift {
                method: method.clone(),
                metric: "missing",
                baseline: 0.0,
                measured: 0.0,
                rel: f64::INFINITY,
            }),
            Some(c) => {
                for (metric, old, new) in
                    [("RO", b.ro, c.ro), ("UO", b.uo, c.uo), ("MO", b.mo, c.mo)]
                {
                    let r = rel(old, new);
                    if r > tol {
                        drifts.push(Drift {
                            method: method.clone(),
                            metric,
                            baseline: old,
                            measured: new,
                            rel: r,
                        });
                    }
                }
            }
        }
    }
    for method in current.methods.keys() {
        if !baseline.methods.contains_key(method) {
            drifts.push(Drift {
                method: method.clone(),
                metric: "unbaselined",
                baseline: 0.0,
                measured: 0.0,
                rel: f64::INFINITY,
            });
        }
    }
    drifts
}

impl Baseline {
    /// Render as JSON (stable key order, shortest-roundtrip floats).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"spec\": {},\n", json_string(&self.spec)));
        out.push_str(&format!("  \"tolerance\": {},\n", DRIFT_TOLERANCE));
        out.push_str("  \"methods\": {\n");
        let last = self.methods.len().saturating_sub(1);
        for (i, (method, t)) in self.methods.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {{ \"ro\": {}, \"uo\": {}, \"mo\": {} }}{}\n",
                json_string(method),
                t.ro,
                t.uo,
                t.mo,
                if i == last { "" } else { "," }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse [`Baseline::to_json`] output (or any JSON of that shape).
    pub fn from_json(text: &str) -> Result<Baseline> {
        let value = json::parse(text)?;
        let root = value.as_object("top level")?;
        let spec = root
            .get("spec")
            .ok_or_else(|| RumError::Corrupt("baseline JSON missing \"spec\"".into()))?
            .as_string("spec")?
            .to_string();
        let methods_obj = root
            .get("methods")
            .ok_or_else(|| RumError::Corrupt("baseline JSON missing \"methods\"".into()))?
            .as_object("methods")?;
        let mut methods = BTreeMap::new();
        for (name, entry) in methods_obj {
            let entry = entry.as_object(name)?;
            let num = |key: &str| -> Result<f64> {
                entry
                    .get(key)
                    .ok_or_else(|| {
                        RumError::Corrupt(format!("baseline method {name:?} missing {key:?}"))
                    })?
                    .as_number(key)
            };
            methods.insert(
                name.clone(),
                RumTriple {
                    ro: num("ro")?,
                    uo: num("uo")?,
                    mo: num("mo")?,
                },
            );
        }
        Ok(Baseline { spec, methods })
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value model + recursive-descent parser — just enough for
/// the baseline file, in-tree because the workspace builds offline with no
/// serde.
pub mod json {
    use rum::prelude::{Result, RumError};
    use std::collections::BTreeMap;

    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Value>> {
            match self {
                Value::Object(map) => Ok(map),
                other => Err(RumError::Corrupt(format!(
                    "JSON: expected {what} to be an object, got {other:?}"
                ))),
            }
        }

        pub fn as_string(&self, what: &str) -> Result<&str> {
            match self {
                Value::String(s) => Ok(s),
                other => Err(RumError::Corrupt(format!(
                    "JSON: expected {what} to be a string, got {other:?}"
                ))),
            }
        }

        pub fn as_number(&self, what: &str) -> Result<f64> {
            match self {
                Value::Number(n) => Ok(*n),
                other => Err(RumError::Corrupt(format!(
                    "JSON: expected {what} to be a number, got {other:?}"
                ))),
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing garbage after JSON document"));
        }
        Ok(value)
    }

    fn err(pos: usize, msg: &str) -> RumError {
        RumError::Corrupt(format!("JSON parse error at byte {pos}: {msg}"))
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<()> {
        if *pos < bytes.len() && bytes[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(err(*pos, &format!("expected {:?}", c as char)))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(err(*pos, "unexpected end of input")),
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_lit(bytes, pos, b"true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, b"false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, b"null", Value::Null),
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Result<Value> {
        if bytes[*pos..].starts_with(lit) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(err(*pos, "invalid literal"))
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value> {
        expect(bytes, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            map.insert(key, value);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(err(*pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(err(*pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(*pos, "unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| err(*pos, "non-utf8 \\u escape"))?,
                                16,
                            )
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err(*pos, "invalid codepoint"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(err(*pos, "invalid escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (bytes are valid UTF-8: the
                    // input came from &str).
                    let s = &bytes[*pos..];
                    let text = std::str::from_utf8(s).map_err(|_| err(*pos, "invalid utf8"))?;
                    let c = text.chars().next().expect("non-empty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| err(start, &format!("invalid number {text:?}")))
    }
}

/// Render the gate's outcome for humans.
pub fn render(baseline: &Baseline, current: &Baseline, drifts: &[Drift]) -> String {
    let mut out = String::from("=== RUM baseline gate ===\n");
    out.push_str(&format!("baseline spec: {}\n", baseline.spec));
    out.push_str(&format!(
        "{:<28} {:>14} {:>14} {:>14}\n",
        "method", "RO", "UO", "MO"
    ));
    for (method, t) in &current.methods {
        out.push_str(&format!(
            "{:<28} {:>14.6} {:>14.6} {:>14.6}\n",
            method, t.ro, t.uo, t.mo
        ));
    }
    if drifts.is_empty() {
        out.push_str(&format!(
            "\nall {} methods within {:.0e} of the committed baseline\n",
            current.methods.len(),
            DRIFT_TOLERANCE
        ));
    } else {
        out.push_str("\nDRIFT DETECTED:\n");
        for d in drifts {
            match d.metric {
                "missing" => out.push_str(&format!(
                    "  {}: in the baseline but not measured\n",
                    d.method
                )),
                "unbaselined" => out.push_str(&format!(
                    "  {}: measured but missing from the baseline (run UPDATE_BASELINE=1)\n",
                    d.method
                )),
                _ => out.push_str(&format!(
                    "  {} {}: baseline {} -> measured {} (rel {:.3e})\n",
                    d.method, d.metric, d.baseline, d.measured, d.rel
                )),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut methods = BTreeMap::new();
        methods.insert(
            "b+tree".to_string(),
            RumTriple {
                ro: 40.64,
                uo: 257.676,
                mo: 1.0 / 3.0,
            },
        );
        methods.insert(
            "weird \"name\"\n".to_string(),
            RumTriple {
                ro: 1e-17,
                uo: f64::MAX,
                mo: std::f64::consts::E,
            },
        );
        Baseline {
            spec: "balanced mix, n=2000".to_string(),
            methods,
        }
    }

    #[test]
    fn json_roundtrips_exactly() {
        let b = sample();
        let text = b.to_json();
        let parsed = Baseline::from_json(&text).unwrap();
        assert_eq!(b, parsed);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"spec\": }",
            "{\"spec\": \"x\"} trailing",
            "{\"spec\": \"x\", \"methods\": [1,2,]}",
            "{\"spec\": \"unterminated",
            "nope",
        ] {
            assert!(Baseline::from_json(bad).is_err(), "accepted {bad:?}");
        }
        // Structurally valid JSON of the wrong shape is also rejected.
        assert!(Baseline::from_json("{\"methods\": {}}").is_err());
        assert!(
            Baseline::from_json("{\"spec\": \"x\", \"methods\": {\"m\": {\"ro\": 1}}}").is_err()
        );
    }

    #[test]
    fn compare_flags_drift_and_membership_changes() {
        let b = sample();
        assert!(compare(&b, &b, DRIFT_TOLERANCE).is_empty());
        let mut drifted = b.clone();
        drifted.methods.get_mut("b+tree").unwrap().uo *= 1.001;
        let drifts = compare(&b, &drifted, DRIFT_TOLERANCE);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "UO");
        assert!(drifts[0].rel > 1e-4);
        // Below-tolerance jitter passes.
        let mut tiny = b.clone();
        tiny.methods.get_mut("b+tree").unwrap().ro *= 1.0 + 1e-13;
        assert!(compare(&b, &tiny, DRIFT_TOLERANCE).is_empty());
        // Added / removed methods fail in both directions.
        let mut extra = b.clone();
        extra.methods.insert(
            "new-method".into(),
            RumTriple {
                ro: 1.0,
                uo: 1.0,
                mo: 1.0,
            },
        );
        assert_eq!(compare(&b, &extra, DRIFT_TOLERANCE).len(), 1);
        assert_eq!(compare(&extra, &b, DRIFT_TOLERANCE).len(), 1);
    }

    #[test]
    fn measurement_is_deterministic_across_thread_counts() {
        let a = measure(1);
        let b = measure(2);
        assert_eq!(a, b, "RO/UO/MO must not depend on worker threads");
        assert!(
            a.methods.len() >= 19,
            "suite has {} methods",
            a.methods.len()
        );
        for (method, t) in &a.methods {
            assert!(
                t.ro.is_finite() && t.uo.is_finite() && t.mo >= 1.0,
                "{method}"
            );
        }
    }
}
