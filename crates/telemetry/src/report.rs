//! Machine-readable run reports: a single stable JSON document per run.
//!
//! Schema `saco-telemetry/v1`:
//!
//! ```json
//! {
//!   "schema": "saco-telemetry/v1",
//!   "meta":     { "<key>": "<string>", ... },
//!   "counters": { "<name>": <u64>, ... },
//!   "gauges":   { "<name>": <f64>, ... },
//!   "histograms": {
//!     "<name>": { "bounds": [..], "counts": [..], "total": <u64>, "sum": <f64> }
//!   },
//!   "ranks": [
//!     { "rank": <usize>,
//!       "phases": { "<phase>": { "time": <f64>, "events": <u64>,
//!                                "words": <u64>, "flops": <u64> }, ... } }
//!   ],
//!   "totals": { "comm_time": <f64>, "comp_time": <f64>,
//!               "idle_time": <f64>, "total_time": <f64> },
//!   "critical_rank": <usize> | null
//! }
//! ```
//!
//! Keys in every object are sorted; phases appear in [`Phase::ALL`]
//! order with zero-valued phases omitted; wall-clock spans are never
//! included. For a fixed registry state the document is byte-identical
//! across runs, so committed baselines diff cleanly.
//!
//! [`Phase::ALL`]: crate::Phase::ALL

use crate::json;
use crate::registry::Registry;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "saco-telemetry/v1";

/// Render the registry as one `saco-telemetry/v1` JSON document.
pub fn run_report_json(reg: &Registry) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":");
    json::push_str(&mut out, SCHEMA);

    out.push_str(",\"meta\":{");
    for (i, (k, v)) in reg.meta().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, k);
        out.push(':');
        json::push_str(&mut out, v);
    }
    out.push('}');

    out.push_str(",\"counters\":{");
    for (i, (k, v)) in reg.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, k);
        out.push_str(&format!(":{v}"));
    }
    out.push('}');

    out.push_str(",\"gauges\":{");
    for (i, (k, v)) in reg.gauges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, k);
        out.push(':');
        json::push_f64(&mut out, *v);
    }
    out.push('}');

    out.push_str(",\"histograms\":{");
    for (i, (k, h)) in reg.histograms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, k);
        out.push_str(":{\"bounds\":");
        json::push_f64_array(&mut out, h.bounds());
        out.push_str(",\"counts\":");
        json::push_u64_array(&mut out, h.counts());
        out.push_str(&format!(",\"total\":{},\"sum\":", h.total()));
        json::push_f64(&mut out, h.sum());
        out.push('}');
    }
    out.push('}');

    out.push_str(",\"ranks\":[");
    for (i, (&rank, table)) in reg.rank_tables().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"rank\":{rank},\"phases\":{{"));
        let mut first = true;
        for (phase, stat) in table.iter() {
            if stat.events == 0 && stat.time == 0.0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{{\"time\":", phase.name()));
            json::push_f64(&mut out, stat.time);
            out.push_str(&format!(
                ",\"events\":{},\"words\":{},\"flops\":{}}}",
                stat.events, stat.words, stat.flops
            ));
        }
        out.push_str("}}");
    }
    out.push(']');

    let totals = reg.phase_totals();
    out.push_str(",\"totals\":{\"comm_time\":");
    json::push_f64(&mut out, totals.comm_time());
    out.push_str(",\"comp_time\":");
    json::push_f64(&mut out, totals.comp_time());
    out.push_str(",\"idle_time\":");
    json::push_f64(&mut out, totals.idle_time());
    out.push_str(",\"total_time\":");
    json::push_f64(&mut out, totals.total_time());
    out.push('}');

    match reg.critical_rank() {
        Some(rank) => out.push_str(&format!(",\"critical_rank\":{rank}")),
        None => out.push_str(",\"critical_rank\":null"),
    }
    out.push('}');
    out
}

/// Write the run report to a file, creating parent directories.
pub fn write_run_report(reg: &Registry, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut doc = run_report_json(reg);
    doc.push('\n');
    std::fs::write(path, doc)
}

/// The flat sections of a run report — what comparison tooling and the
/// bench baseline need to read back. Per-rank tables and histograms are
/// not round-tripped; regenerate those from a live [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Run metadata (`meta` section).
    pub meta: std::collections::BTreeMap<String, String>,
    /// Monotonic counters (`counters` section).
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Point-in-time gauges (`gauges` section).
    pub gauges: std::collections::BTreeMap<String, f64>,
}

impl Summary {
    /// Load the summary back into a registry (meta + counters + gauges).
    pub fn apply_to(&self, reg: &mut Registry) {
        for (k, v) in &self.meta {
            reg.set_meta(k, v);
        }
        for (k, v) in &self.counters {
            reg.counter_add(k, *v);
        }
        for (k, v) in &self.gauges {
            reg.gauge_set(k, *v);
        }
    }
}

/// Parse the `meta`, `counters` and `gauges` sections out of a
/// `saco-telemetry/v1` document. Returns `None` on malformed input or a
/// wrong/missing schema tag. This is a minimal reader for the format
/// [`run_report_json`] emits (it tolerates whitespace and reordered
/// keys), not a general JSON parser.
pub fn parse_summary(doc: &str) -> Option<Summary> {
    let root = match parse::value(&mut parse::Cursor::new(doc))? {
        parse::Val::Obj(fields) => fields,
        _ => return None,
    };
    let mut summary = Summary::default();
    let mut schema_ok = false;
    for (key, val) in root {
        match (key.as_str(), val) {
            ("schema", parse::Val::Str(s)) => schema_ok = s == SCHEMA,
            ("meta", parse::Val::Obj(fields)) => {
                for (k, v) in fields {
                    if let parse::Val::Str(s) = v {
                        summary.meta.insert(k, s);
                    }
                }
            }
            ("counters", parse::Val::Obj(fields)) => {
                for (k, v) in fields {
                    if let parse::Val::Num(x) = v {
                        summary.counters.insert(k, x as u64);
                    }
                }
            }
            ("gauges", parse::Val::Obj(fields)) => {
                for (k, v) in fields {
                    if let parse::Val::Num(x) = v {
                        summary.gauges.insert(k, x);
                    }
                }
            }
            _ => {}
        }
    }
    schema_ok.then_some(summary)
}

/// A tiny recursive-descent JSON reader: enough for [`parse_summary`] and
/// for tools that read the other JSON documents this workspace writes
/// (`ledger_check` reads the benchmark's trace files). Not a general JSON
/// parser: numbers are `f64`, and objects keep their fields in document
/// order, duplicates included.
pub mod parse {
    /// One JSON value.
    pub enum Val {
        /// `null`.
        Null,
        /// `true` or `false`.
        Bool(bool),
        /// A number.
        Num(f64),
        /// A string, escapes resolved.
        Str(String),
        /// An array.
        Arr(Vec<Val>),
        /// An object's fields, in document order.
        Obj(Vec<(String, Val)>),
    }

    /// A read position in a document.
    pub struct Cursor<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl<'a> Cursor<'a> {
        /// A cursor at the start of `s`.
        pub fn new(s: &'a str) -> Self {
            Cursor {
                b: s.as_bytes(),
                i: 0,
            }
        }

        fn skip_ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.b.get(self.i).copied()
        }

        fn eat(&mut self, c: u8) -> Option<()> {
            (self.peek()? == c).then(|| self.i += 1)
        }

        fn eat_lit(&mut self, lit: &str) -> Option<()> {
            self.skip_ws();
            let end = self.i + lit.len();
            (self.b.get(self.i..end)? == lit.as_bytes()).then(|| self.i = end)
        }
    }

    /// Read one value at the cursor, leading whitespace skipped; `None` on
    /// malformed input.
    pub fn value(c: &mut Cursor) -> Option<Val> {
        match c.peek()? {
            b'{' => {
                c.eat(b'{')?;
                let mut fields = Vec::new();
                if c.peek()? == b'}' {
                    c.eat(b'}')?;
                    return Some(Val::Obj(fields));
                }
                loop {
                    let key = string(c)?;
                    c.eat(b':')?;
                    fields.push((key, value(c)?));
                    match c.peek()? {
                        b',' => c.eat(b',')?,
                        b'}' => break c.eat(b'}')?,
                        _ => return None,
                    }
                }
                Some(Val::Obj(fields))
            }
            b'[' => {
                c.eat(b'[')?;
                let mut items = Vec::new();
                if c.peek()? == b']' {
                    c.eat(b']')?;
                    return Some(Val::Arr(items));
                }
                loop {
                    items.push(value(c)?);
                    match c.peek()? {
                        b',' => c.eat(b',')?,
                        b']' => break c.eat(b']')?,
                        _ => return None,
                    }
                }
                Some(Val::Arr(items))
            }
            b'"' => string(c).map(Val::Str),
            b't' => c.eat_lit("true").map(|_| Val::Bool(true)),
            b'f' => c.eat_lit("false").map(|_| Val::Bool(false)),
            b'n' => c.eat_lit("null").map(|_| Val::Null),
            _ => number(c).map(Val::Num),
        }
    }

    fn string(c: &mut Cursor) -> Option<String> {
        c.eat(b'"')?;
        let mut out = String::new();
        loop {
            match *c.b.get(c.i)? {
                b'"' => {
                    c.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    c.i += 1;
                    match *c.b.get(c.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(c.b.get(c.i + 1..c.i + 5)?).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            c.i += 4;
                        }
                        _ => return None,
                    }
                    c.i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let start = c.i;
                    c.i += 1;
                    while c.i < c.b.len() && (c.b[c.i] & 0xc0) == 0x80 {
                        c.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&c.b[start..c.i]).ok()?);
                }
            }
        }
    }

    fn number(c: &mut Cursor) -> Option<f64> {
        c.skip_ws();
        let start = c.i;
        while c
            .b
            .get(c.i)
            .is_some_and(|&ch| ch.is_ascii_digit() || b"+-.eE".contains(&ch))
        {
            c.i += 1;
        }
        std::str::from_utf8(&c.b[start..c.i]).ok()?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.set_meta("solver", "sa-bcd");
        r.set_meta("p", "4");
        r.counter_add("allreduces", 8);
        r.gauge_set("objective", 1.5);
        r.register_histogram("lat", &[1e-6]);
        r.observe("lat", 5e-7);
        r.record_phase(0, Phase::Comm, 0.5, 128, 0);
        r.record_phase(0, Phase::Comp, 2.0, 0, 500);
        r.record_phase(1, Phase::Comp, 3.0, 0, 700);
        r
    }

    #[test]
    fn report_is_byte_stable() {
        let r = sample();
        assert_eq!(run_report_json(&r), run_report_json(&r));
    }

    #[test]
    fn report_has_schema_and_sections() {
        let doc = run_report_json(&sample());
        assert!(doc.starts_with("{\"schema\":\"saco-telemetry/v1\""));
        for needle in [
            "\"meta\":{\"p\":\"4\",\"solver\":\"sa-bcd\"}",
            "\"counters\":{\"allreduces\":8}",
            "\"gauges\":{\"objective\":1.5}",
            "\"bounds\":[0.000001]",
            "\"ranks\":[{\"rank\":0,",
            "\"critical_rank\":1",
        ] {
            assert!(doc.contains(needle), "missing {needle:?} in:\n{doc}");
        }
    }

    #[test]
    fn totals_reconcile_with_phase_tables() {
        let r = sample();
        let doc = run_report_json(&r);
        assert!(doc.contains("\"comm_time\":0.5"));
        assert!(doc.contains("\"comp_time\":5"));
        assert!(doc.contains("\"total_time\":5.5"));
    }

    #[test]
    fn empty_registry_is_valid() {
        let doc = run_report_json(&Registry::new());
        assert!(doc.contains("\"ranks\":[]"));
        assert!(doc.contains("\"critical_rank\":null"));
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("saco-telemetry-test-report");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/report.json");
        write_run_report(&sample(), &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.ends_with("}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_round_trips_through_the_report() {
        let r = sample();
        let doc = run_report_json(&r);
        let s = parse_summary(&doc).expect("own output must parse");
        assert_eq!(s.meta, *r.meta());
        assert_eq!(s.counters.get("allreduces"), Some(&8));
        assert_eq!(s.gauges.get("objective"), Some(&1.5));

        // Applying the summary to a fresh registry reproduces the flat
        // sections verbatim.
        let mut fresh = Registry::new();
        s.apply_to(&mut fresh);
        let s2 = parse_summary(&run_report_json(&fresh)).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn parse_survives_escapes_and_whitespace() {
        let doc = concat!(
            "{ \"schema\" : \"saco-telemetry/v1\",\n",
            "  \"meta\": { \"label\": \"s=8 \\\"quick\\\" \\u03bb\" },\n",
            "  \"counters\": { \"n\": 3 },\n",
            "  \"gauges\": { \"t\": -1.5e-3 },\n",
            "  \"extra\": [ 1, [true, null], {\"x\": false} ] }"
        );
        let s = parse_summary(doc).unwrap();
        assert_eq!(s.meta["label"], "s=8 \"quick\" \u{3bb}");
        assert_eq!(s.counters["n"], 3);
        assert_eq!(s.gauges["t"], -1.5e-3);
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schema() {
        assert!(parse_summary("").is_none());
        assert!(
            parse_summary("{\"meta\":{}}").is_none(),
            "missing schema tag"
        );
        assert!(parse_summary("{\"schema\":\"other/v2\",\"meta\":{}}").is_none());
        assert!(parse_summary("{\"schema\":\"saco-telemetry/v1\",").is_none());
        assert!(parse_summary("[1,2,3]").is_none());
    }
}
