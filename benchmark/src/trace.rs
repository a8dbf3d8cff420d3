//! Spans of the traced run, recorded by the benchmark around its calls
//! into the system and written out as JSON lines when the run ends.
//!
//! Schema, one object per line: `{"id", "name", "start_ns", "end_ns",
//! "parent", "op"}`. `id` is unique in the file, `parent` is the id of the
//! enclosing span (0 = none), `op` is the operation number every span of
//! one operation shares. Names: `generator.op` ⊃ `orm.find` / `orm.write` /
//! `mvc.dispatch`, and `subscriber.visible` (from the end of the
//! operation's last write to the moment its last replica applied it).

use crate::probe::Probe;
use std::io::Write;
use std::path::Path;

pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// In-memory span buffer. Disabled, every call is one branch.
pub struct Tracer {
    pub enabled: bool,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// `cap` bounds the spans kept (the file stays a few MB).
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            enabled: false,
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Records a finished span; returns its id (0 when not recorded).
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        if !self.enabled || self.spans.len() >= self.cap {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        id
    }

    /// Opens a span that closes after its children; returns its id (0
    /// when not recorded).
    pub fn open(&mut self, name: &'static str, start_ns: u64, op: u64) -> u32 {
        self.span(name, start_ns, 0, 0, op)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Adds one `subscriber.visible` span per traced `generator.op` from
    /// the probe's record of the operation, then writes the file.
    pub fn write(&mut self, probe: &Probe, path: &Path) -> std::io::Result<()> {
        let ops: Vec<(u32, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == "generator.op")
            .map(|s| (s.id, s.op, s.end_ns))
            .collect();
        let mut next = self.spans.len() as u32 + 1;
        for (parent, op, end_ns) in ops {
            let t = probe.times(op);
            if t.fanout == 0 {
                continue;
            }
            self.spans.push(Span {
                id: next,
                name: "subscriber.visible",
                start_ns: end_ns.min(t.visible_ns),
                end_ns: t.visible_ns,
                parent,
                op,
            });
            next += 1;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op
            )?;
        }
        out.flush()
    }
}
