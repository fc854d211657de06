//! A small in-repo Prometheus text-exposition checker, used by CI (via
//! `examples/observe.rs`) and by the render test to keep the exposition
//! valid as metrics are added.
//!
//! Checked invariants, per the text-format spec:
//!
//! - every line is a comment (`# HELP` / `# TYPE`), blank, or a sample
//!   `name{labels} value` with a parseable float value;
//! - every `# TYPE` declaration is followed by at least one sample of
//!   that family, and every sample belongs to a declared family whose
//!   type admits its shape (`_bucket`+`le`, `_sum` and `_count` only
//!   for histograms, bare series for counters/gauges);
//! - label values are properly quoted with only `\\`, `\"` and `\n`
//!   escapes;
//! - every histogram's `_bucket` series has non-decreasing cumulative
//!   counts over increasing `le` bounds, ends with `le="+Inf"`, and the
//!   `+Inf` count equals the family's `_count`.
//!
//! This is a *checker*, not a full parser: it validates what this
//! crate's renderers emit (and what a scrape endpoint must uphold), and
//! returns every violation rather than stopping at the first.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
struct Family {
    kind: Option<String>,
    samples: usize,
    /// Histogram bookkeeping: (le, cumulative count) in emission order.
    buckets: Vec<(f64, f64)>,
    saw_inf_last: bool,
    count_value: Option<f64>,
}

/// Validate `text` as Prometheus text exposition. `Ok(())` or every
/// violation found, each as one human-readable string.
pub fn check_exposition(text: &str) -> Result<(), Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut families: BTreeMap<String, Family> = BTreeMap::new();

    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("").to_string();
            let kind = it.next().unwrap_or("").trim().to_string();
            if name.is_empty() || kind.is_empty() {
                errors.push(format!("line {ln}: malformed TYPE line: {line:?}"));
                continue;
            }
            if !matches!(kind.as_str(), "counter" | "gauge" | "histogram") {
                errors.push(format!("line {ln}: unknown metric type {kind:?}"));
            }
            let fam = families.entry(name.clone()).or_default();
            if fam.kind.is_some() {
                errors.push(format!("line {ln}: duplicate TYPE for {name}"));
            }
            fam.kind = Some(kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        match parse_sample(line) {
            Err(e) => errors.push(format!("line {ln}: {e}")),
            Ok(sample) => record_sample(&mut families, &mut errors, ln, sample),
        }
    }

    for (name, fam) in &families {
        let Some(kind) = fam.kind.as_deref() else {
            errors.push(format!("series {name} has samples but no # TYPE line"));
            continue;
        };
        if fam.samples == 0 {
            errors.push(format!("# TYPE {name} {kind} has no samples"));
        }
        if kind == "histogram" {
            check_histogram(name, fam, &mut errors);
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// `name{k="v",...} value` or `name value`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (series, value_str) = split_series_value(line)?;
    let (name, labels_str) = match series.find('{') {
        None => (series, None),
        Some(b) => {
            if !series.ends_with('}') {
                return Err(format!("unterminated label set in {series:?}"));
            }
            (&series[..b], Some(&series[b + 1..series.len() - 1]))
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    let labels = match labels_str {
        None => Vec::new(),
        Some(s) => parse_labels(s)?,
    };
    let value = parse_value(value_str)?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Split a sample line into the series part and the value part at the
/// last space outside any quoted label value.
fn split_series_value(line: &str) -> Result<(&str, &str), String> {
    let mut in_quotes = false;
    let mut escaped = false;
    let mut last_space = None;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ' ' if !in_quotes => last_space = Some(i),
            _ => {}
        }
    }
    if in_quotes {
        return Err(format!("unterminated quoted label value in {line:?}"));
    }
    let sp = last_space.ok_or_else(|| format!("no value on sample line {line:?}"))?;
    Ok((line[..sp].trim_end(), line[sp + 1..].trim()))
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {s:?}"))?;
        let key = rest[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value after {key}"));
        }
        // Walk the quoted value honouring escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices().skip(1) {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("invalid escape '\\{c}' in label {key}"));
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                '\n' => return Err(format!("raw newline in label {key}")),
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label {key}"))?;
        labels.push((key.to_string(), rest[1..end].to_string()));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s
            .parse::<f64>()
            .map_err(|_| format!("unparseable sample value {s:?}")),
    }
}

/// The family a sample belongs to, given the histogram series suffixes.
fn family_of(name: &str) -> (&str, &str) {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return (base, suffix);
        }
    }
    (name, "")
}

fn record_sample(
    families: &mut BTreeMap<String, Family>,
    errors: &mut Vec<String>,
    ln: usize,
    sample: Sample,
) {
    let (base, suffix) = family_of(&sample.name);
    // A `_sum`/`_count`/`_bucket` suffix only binds to a declared
    // histogram family; otherwise the full name is the family (a counter
    // legitimately named `x_count` stays series `x_count`).
    let (family_name, suffix) = match families.get(base).and_then(|f| f.kind.as_deref()) {
        Some("histogram") if !suffix.is_empty() => (base.to_string(), suffix),
        _ => (sample.name.clone(), ""),
    };
    let fam = families.entry(family_name.clone()).or_default();
    fam.samples += 1;
    let kind = fam.kind.as_deref().unwrap_or("");
    match kind {
        "counter" | "gauge" => {
            if !suffix.is_empty() {
                errors.push(format!(
                    "line {ln}: {kind} {family_name} cannot have a {suffix} series"
                ));
            }
            if kind == "counter" && sample.value < 0.0 {
                errors.push(format!("line {ln}: counter {family_name} is negative"));
            }
        }
        "histogram" => match suffix {
            "_bucket" => {
                let le = sample.labels.iter().find(|(k, _)| k == "le");
                match le {
                    None => errors.push(format!(
                        "line {ln}: histogram bucket of {family_name} without le label"
                    )),
                    Some((_, v)) => match parse_value(v) {
                        Ok(bound) => {
                            fam.saw_inf_last = bound.is_infinite() && bound > 0.0;
                            fam.buckets.push((bound, sample.value));
                        }
                        Err(_) => errors.push(format!(
                            "line {ln}: unparseable le bound {v:?} on {family_name}"
                        )),
                    },
                }
            }
            "_count" => fam.count_value = Some(sample.value),
            "_sum" => {}
            _ => errors.push(format!(
                "line {ln}: histogram {family_name} must use _bucket/_sum/_count series"
            )),
        },
        _ => {} // undeclared family: reported once at the end
    }
}

fn check_histogram(name: &str, fam: &Family, errors: &mut Vec<String>) {
    if fam.buckets.is_empty() {
        errors.push(format!("histogram {name} has no _bucket series"));
        return;
    }
    if !fam.saw_inf_last {
        errors.push(format!(
            "histogram {name}: _bucket series must end with le=\"+Inf\""
        ));
    }
    for pair in fam.buckets.windows(2) {
        let ((le_a, count_a), (le_b, count_b)) = (pair[0], pair[1]);
        if le_b <= le_a {
            errors.push(format!(
                "histogram {name}: le bounds not increasing ({le_a} then {le_b})"
            ));
        }
        if count_b < count_a {
            errors.push(format!(
                "histogram {name}: cumulative counts decrease at le={le_b} ({count_a} -> {count_b})"
            ));
        }
    }
    let inf_count = fam.buckets.last().map(|&(_, c)| c);
    if let (Some(inf), Some(total)) = (inf_count, fam.count_value) {
        if inf != total {
            errors.push(format!(
                "histogram {name}: +Inf bucket {inf} != _count {total}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errs(text: &str) -> Vec<String> {
        check_exposition(text).err().unwrap_or_default()
    }

    #[test]
    fn accepts_a_well_formed_exposition() {
        let text = "\
# HELP promips_queries_total Queries served\n\
# TYPE promips_queries_total counter\n\
promips_queries_total 42\n\
# TYPE promips_delta_rows gauge\n\
promips_delta_rows -3\n\
# TYPE promips_lat histogram\n\
promips_lat_bucket{le=\"0\"} 1\n\
promips_lat_bucket{le=\"1\"} 2\n\
promips_lat_bucket{le=\"+Inf\"} 4\n\
promips_lat_sum 37\n\
promips_lat_count 4\n";
        assert_eq!(errs(text), Vec::<String>::new());
    }

    #[test]
    fn rejects_type_without_samples_and_samples_without_type() {
        let text = "# TYPE promips_a counter\n\npromips_b 1\n";
        let errors = errs(text);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("promips_a") && e.contains("no samples")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("promips_b") && e.contains("no # TYPE")),
            "{errors:?}"
        );
    }

    #[test]
    fn rejects_bad_labels_and_values() {
        assert!(
            !errs("# TYPE a counter\na{l=\"x} 1\n").is_empty(),
            "unterminated quote"
        );
        assert!(
            !errs("# TYPE a counter\na{l=\"x\\q\"} 1\n").is_empty(),
            "bad escape"
        );
        assert!(
            !errs("# TYPE a counter\na{l=x} 1\n").is_empty(),
            "unquoted value"
        );
        assert!(
            !errs("# TYPE a counter\na notanumber\n").is_empty(),
            "bad value"
        );
        assert!(!errs("# TYPE a counter\na\n").is_empty(), "no value");
    }

    #[test]
    fn rejects_broken_histograms() {
        // Missing +Inf terminator.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(errs(text).iter().any(|e| e.contains("+Inf")));
        // Non-cumulative counts.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(errs(text).iter().any(|e| e.contains("decrease")));
        // le bounds out of order.
        let text = "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n";
        assert!(errs(text).iter().any(|e| e.contains("not increasing")));
        // +Inf disagrees with _count.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        assert!(errs(text).iter().any(|e| e.contains("!= _count")));
    }

    #[test]
    fn counter_shape_violations_are_reported() {
        let text = "# TYPE a counter\na -1\n";
        assert!(errs(text).iter().any(|e| e.contains("negative")));
    }
}
