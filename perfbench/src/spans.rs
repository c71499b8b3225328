//! In-memory spans around the benchmark's calls into each layer, written
//! out when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call (or loop of `calls` calls) into a layer.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    query: Option<u64>,
    calls: u64,
}

/// A single-threaded span recorder. Spans nest: a span opened while
/// another is open becomes its child.
pub(crate) struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub(crate) fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub(crate) fn enter(&mut self, name: &'static str, query: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed();
        self.spans.push(Span { name, start, end: start, parent, query, calls: 1 });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, `id`, covering `calls` calls, and
    /// returns its duration.
    pub(crate) fn exit(&mut self, id: usize, calls: u64) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.calls = calls;
        span.end - span.start
    }

    /// Runs `f` inside a span of one call.
    pub(crate) fn time<T>(
        &mut self,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.enter(name, query);
        let out = f();
        (out, self.exit(id, 1))
    }

    /// Per span name: spans, calls, total time and self time (span time
    /// minus the time its child spans cover).
    pub(crate) fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, Duration, Duration)> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(children) {
            let total = s.end - s.start;
            let e = by_name.entry(s.name).or_insert((0, 0, Duration::ZERO, Duration::ZERO));
            e.0 += 1;
            e.1 += s.calls;
            e.2 += total;
            e.3 += total.saturating_sub(child);
        }
        by_name
    }

    /// Writes every span as one JSON line to `path`.
    pub(crate) fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"query\": {}, \"calls\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                opt(s.parent.map(|p| p as u64)),
                opt(s.query),
                s.calls
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let root = spans.enter("root", None);
        let ((), child) =
            spans.time("child", Some(3), || std::thread::sleep(Duration::from_millis(5)));
        let total = spans.exit(root, 1);
        let times = spans.self_times();
        let (n, calls, t, own) = times["root"];
        assert_eq!((n, calls, t), (1, 1, total));
        assert_eq!(own, total - child);
        assert_eq!(times["child"].2, child);
        assert!(child >= Duration::from_millis(5));
    }
}
