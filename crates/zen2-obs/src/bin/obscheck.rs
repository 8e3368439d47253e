//! Validates a JSONL telemetry trace written by
//! [`zen2_obs::JsonlSink`]: every line must parse as one JSON object
//! carrying `"e"` (a known record kind) and `"t"`, plus the per-kind
//! required fields, and every `span_close` must reference an earlier
//! `span_open`. CI runs this over a real sweep's trace so the schema in
//! `docs/OBSERVABILITY.md` cannot rot silently.
//!
//! ```text
//! usage: obscheck <trace.jsonl>
//! ```
//!
//! Exits 0 with a per-kind line count on success, 1 with the offending
//! line on the first violation, 2 on usage errors.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use zen2_sim::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: obscheck <trace.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obscheck: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match check(&text) {
        Ok(counts) => {
            let total: usize = counts.values().sum();
            println!("obscheck: {total} lines ok ({path})");
            for (kind, n) in &counts {
                println!("  {kind:<12}{n:>9}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("obscheck: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Validates the whole trace; returns per-kind line counts.
fn check(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut opened: BTreeSet<u64> = BTreeSet::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let doc = Json::parse(line).map_err(|e| format!("line {lineno}: not JSON: {e}"))?;
        let kind = field_str(&doc, "e", lineno)?;
        field_u64(&doc, "t", lineno)?;
        match kind.as_str() {
            "span_open" => {
                let id = field_u64(&doc, "id", lineno)?;
                field_str(&doc, "name", lineno)?;
                let parent = doc.get("parent").map_err(|e| format!("line {lineno}: {e}"))?;
                if !matches!(parent, Json::Null | Json::Num(_)) {
                    return Err(format!("line {lineno}: parent must be null or a span id"));
                }
                if let Json::Num(_) = parent {
                    let pid = parent.as_u64().map_err(|e| format!("line {lineno}: {e}"))?;
                    if !opened.contains(&pid) {
                        return Err(format!("line {lineno}: parent span {pid} never opened"));
                    }
                }
                opened.insert(id);
            }
            "span_close" => {
                let id = field_u64(&doc, "id", lineno)?;
                field_str(&doc, "name", lineno)?;
                field_u64(&doc, "dur_ns", lineno)?;
                if !opened.contains(&id) {
                    return Err(format!("line {lineno}: close of span {id} that never opened"));
                }
            }
            "counter" => {
                field_str(&doc, "name", lineno)?;
                let delta = field_u64(&doc, "delta", lineno)?;
                if delta == 0 {
                    return Err(format!("line {lineno}: counter delta must be non-zero"));
                }
            }
            "gauge" | "observe" => {
                field_str(&doc, "name", lineno)?;
                doc.get("value")
                    .and_then(Json::as_f64)
                    .map_err(|e| format!("line {lineno}: {e}"))?;
            }
            "event" => {
                field_str(&doc, "name", lineno)?;
                if !matches!(doc.get("attrs"), Ok(Json::Obj(_))) {
                    return Err(format!("line {lineno}: event attrs must be an object"));
                }
            }
            other => return Err(format!("line {lineno}: unknown record kind {other:?}")),
        }
        *counts.entry(kind).or_insert(0) += 1;
    }
    if counts.is_empty() {
        return Err("empty trace (no lines)".to_string());
    }
    Ok(counts)
}

fn field_str(doc: &Json, key: &str, lineno: usize) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .map_err(|e| format!("line {lineno}: {e}"))
}

fn field_u64(doc: &Json, key: &str, lineno: usize) -> Result<u64, String> {
    doc.get(key).and_then(Json::as_u64).map_err(|e| format!("line {lineno}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_valid_trace() {
        let trace = concat!(
            r#"{"e":"span_open","t":1,"id":1,"parent":null,"name":"sweep","attrs":{}}"#,
            "\n",
            r#"{"e":"counter","t":2,"name":"cases.done","delta":1}"#,
            "\n",
            r#"{"e":"gauge","t":3,"name":"queue.len","value":2.5}"#,
            "\n",
            r#"{"e":"observe","t":4,"name":"shard.cases","value":64}"#,
            "\n",
            r#"{"e":"event","t":5,"name":"sweep.total","attrs":{"total":10}}"#,
            "\n",
            r#"{"e":"span_close","t":6,"id":1,"name":"sweep","dur_ns":5}"#,
            "\n",
        );
        let counts = check(trace).unwrap();
        assert_eq!(counts["span_open"], 1);
        assert_eq!(counts["span_close"], 1);
        assert_eq!(counts.values().sum::<usize>(), 6);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check("not json\n").is_err());
        assert!(check(r#"{"t":1}"#).is_err(), "missing kind");
        assert!(check(r#"{"e":"counter","t":1,"name":"x","delta":0}"#).is_err(), "zero delta");
        assert!(check(r#"{"e":"mystery","t":1}"#).is_err(), "unknown kind");
        assert!(
            check(r#"{"e":"span_close","t":1,"id":9,"name":"x","dur_ns":1}"#).is_err(),
            "close without open"
        );
        assert!(check("").is_err(), "empty trace");
    }
}
