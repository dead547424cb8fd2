//! The benchmark's own spans: recorded around each call it makes into a
//! library layer, kept in memory, and written out when the run ends.
//!
//! Parents are passed explicitly rather than kept in a thread-local stack:
//! the library fans work out to short-lived worker threads, and a span
//! recorded on one of them still belongs to the call that started it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request index, shard index or repetition; 0 when not applicable.
    pub tag: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub thread: String,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// An in-memory span recorder. A disabled recorder records nothing and
/// hands out id 0.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

/// An open span; recorded when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    tag: u64,
    start: Instant,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            let (r, end) = (self.recorder, Instant::now());
            r.push(self.id, self.parent, self.name, self.tag, self.start, end);
        }
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn span(&self, name: &'static str, parent: Option<u64>, tag: u64) -> Guard<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            recorder: self,
            id,
            parent,
            name,
            tag,
            start: Instant::now(),
        }
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        tag: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, tag, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        tag: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            tag,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
            thread: format!("{:?}", std::thread::current().id()),
        };
        // A poisoned lock means another push panicked; losing spans beats
        // panicking again, possibly inside a guard's Drop.
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.snapshot();
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"thread\":\"{}\"}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.tag,
                s.start_us,
                s.end_us,
                s.thread
            ));
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// Sum of the durations of spans named `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by the union of its direct children. Children recorded on
/// parallel threads may overlap each other; the union counts shared time
/// once.
pub fn self_seconds(spans: &[Span], id: u64) -> f64 {
    let Some(me) = spans.iter().find(|s| s.id == id) else {
        return 0.0;
    };
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in children {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    ((me.end_us - me.start_us) - covered).max(0.0) * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            tag: 0,
            start_us,
            end_us,
            thread: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            // Two children on parallel threads overlapping on 20..30, plus
            // a disjoint one: covered = 10..40 and 60..70 = 40 us.
            span(2, Some(1), 10.0, 30.0),
            span(3, Some(1), 20.0, 40.0),
            span(4, Some(1), 60.0, 70.0),
            // A grandchild counts against its parent, not the root.
            span(5, Some(2), 12.0, 17.0),
        ];
        assert!((self_seconds(&spans, 1) - 60e-6).abs() < 1e-12);
        assert!((self_seconds(&spans, 2) - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span(1, None, 0.0, 50.0), span(2, Some(1), 40.0, 80.0)];
        assert!((self_seconds(&spans, 1) - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn nested_children_inside_one_another_count_once() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 90.0),
            span(3, Some(1), 20.0, 30.0),
        ];
        assert!((self_seconds(&spans, 1) - 20e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_keeps_parent_links_and_disabled_records_nothing() {
        let r = Recorder::new(true);
        let parent_id = {
            let p = r.span("parent", None, 0);
            let _c = r.span("child", Some(p.id()), 7);
            p.id()
        };
        let spans = r.snapshot();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(parent_id));
        assert_eq!(child.tag, 7);

        let off = Recorder::new(false);
        drop(off.span("x", None, 0));
        assert!(off.snapshot().is_empty());
    }
}
