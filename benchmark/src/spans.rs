//! The harness's own trace: one span per call across a layer boundary,
//! kept in a pre-sized buffer and written out after the run. Spans
//! inside the program are a later issue; these wrap calls *into* it.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its buffer; [`NO_SPAN`] for "none" (a root's
/// parent, or a span the full buffer dropped).
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shared by every span of one request.
    pub request_id: u64,
}

/// The one clock every span and latency of a run is read from.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    #[must_use]
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

/// Per span name: how many, and their summed self time.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

impl SpanBuf {
    /// A buffer that never reallocates: spans past `capacity` are
    /// counted in [`dropped`](SpanBuf::dropped) instead of recorded.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request_id: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened with a provisional end (a request's root is
    /// pushed before its children so they can name it).
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A span's self time is its duration minus the part of that
    /// interval its direct children cover (overlapping children count
    /// once; a child is clipped to its parent).
    #[must_use]
    pub fn self_times(&self) -> SelfTimes {
        let mut covered = vec![0u64; self.spans.len()];
        let mut children: Vec<&Span> = self.spans.iter().filter(|s| s.parent != NO_SPAN).collect();
        children.sort_by_key(|s| (s.parent, s.start_ns));
        let mut reach = 0; // how far the current parent is covered
        let mut current = NO_SPAN;
        for child in children {
            let parent = &self.spans[child.parent as usize];
            if child.parent != current {
                current = child.parent;
                reach = parent.start_ns;
            }
            let start = child.start_ns.max(reach);
            let end = child.end_ns.min(parent.end_ns);
            if end > start {
                covered[current as usize] += end - start;
                reach = end;
            }
        }
        let mut out = SelfTimes::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
        }
        out
    }

    /// Writes the first `limit` spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any failure to create or write the file.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().take(limit).enumerate() {
            let parent = match span.parent {
                NO_SPAN => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )?;
        }
        out.flush()
    }
}

/// Mean self time per span of `name`, in ns (0 when there are none).
#[must_use]
pub fn mean_self_ns(times: &SelfTimes, name: &str) -> f64 {
    match times.get(name) {
        Some(&(count, total)) if count > 0 => total as f64 / count as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut buf = SpanBuf::with_capacity(16);
        // request 7: [0, 100] with send [0, 10], recv [60, 100] -> self 50
        let root = buf.push("request", 0, 0, NO_SPAN, 7);
        buf.push("net.send", 0, 10, root, 7);
        buf.push("net.recv", 60, 100, root, 7);
        buf.set_end(root, 100);
        // request 8: children overlap each other ([10, 30] and [20, 50])
        // and one overhangs the parent ([90, 130] clipped to [90, 120]):
        // cover = 40 + 30 = 70 of [0, 120] -> self 50
        let root = buf.push("request", 0, 120, NO_SPAN, 8);
        buf.push("net.send", 10, 30, root, 8);
        buf.push("net.send", 20, 50, root, 8);
        buf.push("net.recv", 90, 130, root, 8);
        // a grandchild reduces its own parent only
        let send = buf.push("net.send", 200, 260, NO_SPAN, 9);
        buf.push("net.codec", 210, 230, send, 9);

        let times = buf.self_times();
        assert_eq!(times["request"], (2, 100));
        assert_eq!(times["net.recv"], (2, 40 + 40));
        // 10 + 20 + 30 from the two requests, 60 - 20 from the third
        assert_eq!(times["net.send"], (4, 100));
        assert_eq!(times["net.codec"], (1, 20));
        assert_eq!(mean_self_ns(&times, "request"), 50.0);
        assert_eq!(mean_self_ns(&times, "absent"), 0.0);
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut buf = SpanBuf::with_capacity(2);
        assert_eq!(buf.push("a", 0, 1, NO_SPAN, 0), 0);
        assert_eq!(buf.push("a", 1, 2, NO_SPAN, 1), 1);
        assert_eq!(buf.push("a", 2, 3, NO_SPAN, 2), NO_SPAN);
        buf.set_end(NO_SPAN, 9); // a dropped span is safe to close
        assert_eq!((buf.spans().len(), buf.dropped()), (2, 1));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = SpanBuf::with_capacity(4);
        let root = buf.push("request", 5, 50, NO_SPAN, 3);
        buf.push("serve.submit", 5, 9, root, 3);
        let path = std::env::temp_dir().join(format!("spans-{}.jsonl", std::process::id()));
        buf.write_jsonl(&path, 10).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            lines[1].get("name").and_then(|n| n.as_str()),
            Some("serve.submit")
        );
    }
}
