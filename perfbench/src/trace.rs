//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans stay in memory during the run and are
//! written out once, at exit.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it (0 for a root)
/// and `req` groups the spans of one request (a round or a sampled
/// native acquire).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder sharing one clock origin.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids carry `thread` in their top bits, so
    /// ids from different client threads never collide.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: (thread << 48) | 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared origin.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve an id for a span whose children are recorded before it
    /// closes.
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record span `id` (from [`Tracer::open`]).
    pub fn close(&mut self, id: u64, parent: u64, req: u64, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// Self time per span name: `(total self ns, span count)`, where a
/// span's self time is its duration minus its children's durations
/// (children of one span run sequentially on its thread, so they do not
/// overlap).
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (f64, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: HashMap<&'static str, (f64, u64)> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += own as f64;
        e.1 += 1;
    }
    out
}

/// Write spans as CSV (`id,parent,req,name,start_ns,end_ns`).
pub fn write(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,req,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
