//! In-memory spans for the traced run: name, start, end and parent, kept
//! in a process-wide list (cells run on the runner's worker threads) and
//! written out once the run ends.

use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    let mut guard = RECORDER.lock().expect("span recorder poisoned");
    let rec = guard.get_or_insert_with(|| Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    });
    f(rec)
}

/// Open a span; returns its id for [`end`] and for children's `parent`.
pub fn begin(name: &str, parent: Option<usize>) -> usize {
    with(|r| {
        let now = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        r.spans.len() - 1
    })
}

/// Close span `id`.
pub fn end(id: usize) {
    with(|r| r.spans[id].end_ns = r.origin.elapsed().as_nanos() as u64);
}

/// Run `f` inside a span and return its result with the span's duration.
pub fn timed<R>(name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> (R, f64) {
    let id = begin(name, parent);
    let out = f();
    end(id);
    (out, seconds(id))
}

/// Duration of span `id` in seconds.
pub fn seconds(id: usize) -> f64 {
    with(|r| (r.spans[id].end_ns - r.spans[id].start_ns) as f64 / 1e9)
}

/// Sum of the durations of the direct children of `parent`.
pub fn children_seconds(parent: usize) -> f64 {
    with(|r| {
        r.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    })
}

/// Total duration of the spans named `name`.
pub fn named_seconds(name: &str) -> f64 {
    with(|r| {
        r.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    })
}

/// Every span recorded so far, as a JSON array.
pub fn to_json() -> String {
    with(|r| {
        let rows: Vec<String> = r
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    })
}
