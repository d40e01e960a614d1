//! In-memory spans around the calls the harness makes into the program.
//!
//! A span is `name, start, end, parent, pass`; spans of one pass over the
//! stream (or one open-loop step) share the pass id. They are kept in
//! memory and written as JSON lines when the traced run ends. Spans
//! *inside* `serve_request`/`Shard` need hooks in the program and are a
//! later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Pass over the stream / open-loop step the span belongs to.
    pub pass: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one run. Disabled (the end-to-end run) it records
/// nothing and `enter`/`exit` cost one branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, pass: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, pass: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name, pass);
        let out = f(self);
        self.exit();
        out
    }

    /// Records an already-timed leaf span (the measured loop times each
    /// call itself, so the span costs no second clock read).
    pub fn leaf(&mut self, name: &'static str, pass: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: self.open.last().copied(),
            pass,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}, \"self_ns\": {own}}}",
                span.name, span.start_ns, span.end_ns, span.pass
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += own;
                entry.2 += 1;
            }
            None => out.push((span.name, own, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("setup.build", 0, 100, None),
            span("setup.calibrate", 10, 30, Some(0)),
            // Overlaps the first child: [20, 50) adds only [30, 50).
            span("setup.files", 20, 50, Some(0)),
            span("probe", 12, 18, Some(1)),
            // Sticks out of the parent: clipped to [90, 100).
            span("late", 90, 140, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 6, 50]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("setup.build", 50, 1));
        assert_eq!(by_name.len(), 5);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.scope("outer", 3, |rec| {
            rec.scope("inner", 3, |_| ());
            let t = Instant::now();
            rec.leaf("leaf", 4, t, t);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].pass, spans[2].pass), (3, 4));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Recorder::new(false);
        off.scope("outer", 0, |rec| rec.enter("dangling", 0));
        assert!(off.spans().is_empty());
    }
}
