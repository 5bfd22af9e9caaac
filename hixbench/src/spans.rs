//! Host-clock spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and end (host nanoseconds since the
//! tracer was made), its parent, and the request it belongs to as
//! `(tenant, round)`. Spans stay in memory and are written out once,
//! when the run ends. Only whole requests are recorded, so a parent's
//! children are always complete and self time is exact.

use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub tenant: u64,
    pub round: u64,
}

/// Spans recorded per run at most (bounds the file and the memory).
const MAX_SPANS: usize = 100_000;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Whether the current pass records spans.
    pub enabled: bool,
    /// Whether the current request is being recorded.
    active: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: (u64, u64),
}

/// Handle from [`Tracer::enter`]; `None` when nothing was recorded.
pub type SpanId = Option<u32>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            active: false,
            spans: Vec::new(),
            open: Vec::new(),
            req: (0, 0),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of request `(tenant, round)`.
    pub fn begin_request(&mut self, tenant: u64, round: u64) -> SpanId {
        self.active = self.enabled && self.spans.len() < MAX_SPANS;
        self.req = (tenant, round);
        self.enter("request")
    }

    pub fn end_request(&mut self, id: SpanId) {
        self.exit(id);
        self.active = false;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.active {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            tenant: self.req.0,
            round: self.req.1,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Number of recorded request roots.
    pub fn requests(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).count() as u64
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration less the part its children cover, summed.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, ns)) => *ns += own,
                None => out.push((layer, own)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tenant\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.tenant, s.round
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_disabled_passes() {
        let mut t = Tracer::new();
        let r = t.begin_request(1, 0);
        assert!(r.is_none(), "disabled tracer records nothing");
        t.end_request(r);
        t.enabled = true;
        let r = t.begin_request(2, 5);
        let c = t.enter("runtime.flush");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(c);
        t.end_request(r);
        assert_eq!(t.requests(), 1);
        let times = t.self_times();
        let get = |l| {
            times
                .iter()
                .find(|(n, _)| *n == l)
                .map(|(_, ns)| *ns)
                .unwrap()
        };
        assert!(get("runtime") >= 2_000_000);
        let root = &t.spans[0];
        assert_eq!(get("request") + get("runtime"), root.end_ns - root.start_ns);
        assert_eq!(
            (t.spans[1].tenant, t.spans[1].round, t.spans[1].parent),
            (2, 5, Some(0))
        );
    }
}
