//! The JSONL file sink: one self-describing JSON object per line,
//! rendered with the exact hand-rolled [`Json`] tree the snapshot layer
//! already uses (the vendored serde shim has no serializer).
//!
//! Every line carries `"e"` (the record kind) and `"t"` (nanoseconds
//! from [`crate::clock`]); the per-kind fields are documented in
//! `docs/OBSERVABILITY.md` and validated by the `obscheck` bin, which
//! CI runs over a real sweep's trace.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use zen2_sim::obs::{Attr, AttrValue, Recorder, SpanId};
use zen2_sim::Json;

use crate::clock;

/// Writes one JSON object per telemetry call to a buffered file.
///
/// Spans are written as separate `span_open` / `span_close` lines (a
/// crashed run leaves opens with no close, and the trace survives up to
/// the buffer); the close line repeats the span's name and total
/// duration so most consumers never need to join against the open.
///
/// I/O errors cannot be surfaced through the fire-and-forget
/// [`Recorder`] methods, so the first one is held and returned by
/// [`JsonlSink::finish`].
pub struct JsonlSink {
    inner: Mutex<Inner>,
}

struct Inner {
    out: BufWriter<File>,
    /// Open spans: id → (name, open timestamp), for the close line.
    open: BTreeMap<u64, (&'static str, u64)>,
    err: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    /// Errors when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let out = BufWriter::new(File::create(path)?);
        Ok(JsonlSink { inner: Mutex::new(Inner { out, open: BTreeMap::new(), err: None }) })
    }

    /// Flushes the buffer and reports the first write error, if any.
    ///
    /// # Errors
    /// Errors when any line failed to write, or the final flush fails.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        if let Some(err) = inner.err.take() {
            return Err(err);
        }
        inner.out.flush()
    }

    fn emit(&self, line: Json, on_open: Option<(u64, &'static str, u64)>, on_close: Option<u64>) {
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        if let Some((id, name, t)) = on_open {
            inner.open.insert(id, (name, t));
        }
        if let Some(id) = on_close {
            inner.open.remove(&id);
        }
        if inner.err.is_none() {
            let text = line.render();
            if let Err(e) =
                inner.out.write_all(text.as_bytes()).and_then(|()| inner.out.write_all(b"\n"))
            {
                inner.err = Some(e);
            }
        }
    }
}

/// Attribute lists as a JSON object (insertion order preserved).
fn attrs_json(attrs: &[Attr<'_>]) -> Json {
    Json::Obj(attrs.iter().map(|(k, v)| ((*k).to_string(), attr_json(*v))).collect())
}

fn attr_json(v: AttrValue<'_>) -> Json {
    match v {
        AttrValue::U64(n) => Json::u64(n),
        AttrValue::F64(x) => Json::f64(x),
        AttrValue::Str(s) => Json::str(s),
    }
}

impl Recorder for JsonlSink {
    fn span_open(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        attrs: &[Attr<'_>],
    ) {
        let t = clock::now_ns();
        let line = Json::obj([
            ("e", Json::str("span_open")),
            ("t", Json::u64(t)),
            ("id", Json::u64(id.0)),
            ("parent", parent.map_or(Json::Null, |p| Json::u64(p.0))),
            ("name", Json::str(name)),
            ("attrs", attrs_json(attrs)),
        ]);
        self.emit(line, Some((id.0, name, t)), None);
    }

    fn span_close(&self, id: SpanId) {
        let t = clock::now_ns();
        let (name, opened) = {
            let inner = self.inner.lock().expect("jsonl sink poisoned");
            inner.open.get(&id.0).copied().unwrap_or(("?", t))
        };
        let line = Json::obj([
            ("e", Json::str("span_close")),
            ("t", Json::u64(t)),
            ("id", Json::u64(id.0)),
            ("name", Json::str(name)),
            ("dur_ns", Json::u64(t.saturating_sub(opened))),
        ]);
        self.emit(line, None, Some(id.0));
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let line = Json::obj([
            ("e", Json::str("counter")),
            ("t", Json::u64(clock::now_ns())),
            ("name", Json::str(name)),
            ("delta", Json::u64(delta)),
        ]);
        self.emit(line, None, None);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let line = Json::obj([
            ("e", Json::str("gauge")),
            ("t", Json::u64(clock::now_ns())),
            ("name", Json::str(name)),
            ("value", Json::f64(value)),
        ]);
        self.emit(line, None, None);
    }

    fn observe(&self, name: &'static str, value: f64) {
        let line = Json::obj([
            ("e", Json::str("observe")),
            ("t", Json::u64(clock::now_ns())),
            ("name", Json::str(name)),
            ("value", Json::f64(value)),
        ]);
        self.emit(line, None, None);
    }

    fn event(&self, name: &'static str, attrs: &[Attr<'_>]) {
        let line = Json::obj([
            ("e", Json::str("event")),
            ("t", Json::u64(clock::now_ns())),
            ("name", Json::str(name)),
            ("attrs", attrs_json(attrs)),
        ]);
        self.emit(line, None, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_is_json_with_kind_and_time() {
        let dir = std::env::temp_dir().join("zen2-obs-jsonl-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.span_open(SpanId(1), None, "sweep", &[("workers", AttrValue::U64(4))]);
        sink.span_open(SpanId(2), Some(SpanId(1)), "case", &[("label", AttrValue::Str("a\"b"))]);
        sink.counter("cases.done", 1);
        sink.gauge("queue.len", 2.0);
        sink.observe("shard.cases", 64.0);
        sink.event("sweep.total", &[("total", AttrValue::U64(10))]);
        sink.span_close(SpanId(2));
        sink.span_close(SpanId(1));
        sink.finish().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        for line in &lines {
            let doc = Json::parse(line).unwrap();
            doc.get("e").unwrap().as_str().unwrap();
            doc.get("t").unwrap().as_u64().unwrap();
        }
        // The close line names the span it closes and carries a duration.
        let close = Json::parse(lines[6]).unwrap();
        assert_eq!(close.get("e").unwrap().as_str().unwrap(), "span_close");
        assert_eq!(close.get("name").unwrap().as_str().unwrap(), "case");
        close.get("dur_ns").unwrap().as_u64().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
