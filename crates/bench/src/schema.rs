//! Schema validation for the committed `BENCH_kernels.json` artifact.
//!
//! The artifact is this repository's perf-trajectory record: every perf PR
//! regenerates it and compares against the committed numbers. A PR that
//! adds a bench section but forgets to regenerate the file would silently
//! ship a stale artifact — so the required-section list lives here, a unit
//! test validates the committed file on every `cargo test`, and CI runs the
//! same check as an explicit step.
//!
//! The parser is a deliberately minimal recursive-descent JSON reader
//! (objects, arrays, strings, numbers, literals) — enough to traverse the
//! artifact's structure without an external dependency; it rejects
//! malformed input with a byte offset rather than silently accepting it.

use std::collections::BTreeMap;

/// Parsed JSON value (subset: everything the bench artifact uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`, `true`, `false` collapse to their text.
    Lit(String),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order irrelevant for validation).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Sections (and per-section fields) the committed artifact must carry.
/// Extending the bench emitter means extending this list, which forces the
/// artifact to be regenerated in the same PR.
pub const REQUIRED_SECTIONS: &[(&str, &[&str])] = &[
    ("kernels", &["dot", "sq_dist4", "sq_dist4_i8"]),
    ("backends", &["scalar"]),
    (
        "small_m",
        &["m6", "m7", "m8", "m10", "dot4_i8", "dot_col_i8"],
    ),
    ("project", &["single", "dataset_2000"]),
    ("scan", &["arena_ns_per_record"]),
    ("quantized_scan", &["dense", "selective"]),
    ("pager_contention", &["striped_ns_per_read", "page_hit"]),
    ("search", &["sequential_ns_per_query"]),
    ("verified_rescore", &["configs", "verified_reduction"]),
    (
        "deadline_degradation",
        &[
            "unbudgeted_p50_ns",
            "budgets",
            "annulus_path",
            "shed_rate_at_2x_limit",
        ],
    ),
];

/// Parses a JSON document, returning the root value.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

/// Validates the artifact text against [`REQUIRED_SECTIONS`]; `Err` lists
/// every missing section/field plus any schema-string mismatch.
pub fn check_bench_schema(text: &str) -> Result<(), String> {
    let root = parse(text)?;
    let mut missing = Vec::new();
    match root.get("schema") {
        Some(Value::Str(s)) if s == "promips-bench-kernels-v2" => {}
        Some(Value::Str(s)) => {
            missing.push(format!("schema string {s:?} != promips-bench-kernels-v2"))
        }
        _ => missing.push("schema string absent".to_string()),
    }
    for &(section, fields) in REQUIRED_SECTIONS {
        match root.get(section) {
            None => missing.push(format!("section {section:?} absent")),
            Some(sec) => {
                for &f in fields {
                    if sec.get(f).is_none() {
                        missing.push(format!("section {section:?} lacks field {f:?}"));
                    }
                }
            }
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing.join("; "))
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_str(b, pos)?)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(_) => parse_lit(b, pos),
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", ch as char, *pos))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    // \uXXXX: the artifact never emits these; accept and
                    // keep the raw digits rather than decoding surrogates.
                    b'u' => {
                        for _ in 0..4 {
                            out.push(*b.get(*pos).ok_or("truncated \\u escape")?);
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_lit(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    for lit in ["null", "true", "false"] {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            return Ok(Value::Lit(lit.to_string()));
        }
    }
    Err(format!("unexpected token at offset {}", *pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let v = parse(r#"{"a": {"b": [1, -2.5, "x", null]}, "c": true}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap();
        assert_eq!(
            arr,
            &Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-2.5),
                Value::Str("x".into()),
                Value::Lit("null".into()),
            ])
        );
        assert_eq!(v.get("c"), Some(&Value::Lit("true".into())));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{}extra").is_err());
    }

    #[test]
    fn check_reports_missing_sections() {
        let err = check_bench_schema(r#"{"schema": "promips-bench-kernels-v2", "kernels": {}}"#)
            .unwrap_err();
        assert!(err.contains("\"quantized_scan\" absent"), "{err}");
        assert!(err.contains("lacks field \"dot\""), "{err}");
        let err = check_bench_schema(r#"{"schema": "promips-bench-kernels-v1"}"#).unwrap_err();
        assert!(err.contains("promips-bench-kernels-v2"), "{err}");
    }

    /// The committed artifact at the workspace root must satisfy the
    /// current schema — a perf PR that extends the bench emitter without
    /// regenerating `BENCH_kernels.json` fails here (and in CI).
    #[test]
    fn committed_bench_artifact_matches_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read committed {path}: {e}"));
        check_bench_schema(&text).unwrap_or_else(|e| panic!("stale {path}: {e}"));
    }
}
