//! Spans recorded by the benchmark itself, around its calls into each
//! layer (spans *inside* the solver driver are a later change). Kept in
//! memory; written as JSON lines only when the run ends.

use crate::json::Json;
use std::io::Write;
use std::time::Instant;

/// One closed interval on the recorder's clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Counts taken at the same boundary (calls, words, flops, …).
    pub counts: Vec<(String, u64)>,
}

/// Append-only span store with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.push(name, now, now, self.current());
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record an interval measured elsewhere (another thread's clock
    /// readings, converted with [`Recorder::now_ns`] arithmetic).
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        (out, self.secs(id))
    }

    pub fn count(&mut self, id: usize, key: &str, value: u64) {
        self.spans[id].counts.push((key.to_string(), value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// A span's duration minus the part of its interval that its child
    /// spans cover (children may overlap each other: the union counts).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (me.end_ns - me.start_ns) - covered
    }

    /// One JSON object per line: `name, workload, start_ns, end_ns,
    /// parent` plus the span's count fields.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let mut fields = vec![
                ("name".to_string(), Json::Str(s.name.clone())),
                ("workload".to_string(), Json::Str(workload.to_string())),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
            ];
            for (k, v) in &s.counts {
                fields.push((k.clone(), Json::Num(*v as f64)));
            }
            writeln!(out, "{}", Json::Obj(fields))?;
        }
        Ok(())
    }
}
