//! In-memory spans for the traced run.
//!
//! Every span has a layer name, a start, an end and the span that was
//! open when it started (its parent). Spans are aggregated per layer as
//! they close — count, total time and self time (total minus the time
//! covered by child spans) — and the first spans of a run are also kept
//! raw and written out as JSON when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Raw spans kept at most, whatever the workload asks for: the churn
/// workload opens ~70 spans per step, and a trace file is for reading.
pub const RAW_LIMIT: usize = 100_000;

/// Per-layer totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Spans closed.
    pub count: u64,
    /// Wall time inside the spans, in nanoseconds.
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

impl Layer {
    /// Mean nanoseconds per span (0 when none closed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self nanoseconds per span (0 when none closed).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    id: u64,
    layer: usize,
    start: u64,
    child_ns: u64,
}

struct Raw {
    id: u64,
    layer: usize,
    start: u64,
    end: u64,
    parent: Option<u64>,
}

/// The span recorder. Shared between the benchmark loop and the
/// delegating wrappers it hands to the program as [`SharedSpans`].
pub struct Spans {
    epoch: Instant,
    names: Vec<&'static str>,
    layers: Vec<Layer>,
    stack: Vec<Open>,
    raw: Vec<Raw>,
    keep_raw: bool,
    next_id: u64,
}

/// A span recorder shared by reference counting (single-threaded).
pub type SharedSpans = Rc<RefCell<Spans>>;

impl Spans {
    /// A recorder that keeps raw spans until [`Spans::stop_raw`].
    pub fn shared() -> SharedSpans {
        Rc::new(RefCell::new(Spans {
            epoch: Instant::now(),
            names: Vec::new(),
            layers: Vec::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            keep_raw: true,
            next_id: 1,
        }))
    }

    /// The index of layer `name`, registering it on first use.
    pub fn layer_id(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return i;
        }
        self.names.push(name);
        self.layers.push(Layer::default());
        self.names.len() - 1
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span of layer `layer` (from [`Spans::layer_id`]).
    #[inline]
    pub fn enter(&mut self, layer: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.stack.push(Open {
            id,
            layer,
            start,
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    #[inline]
    pub fn exit(&mut self) {
        let end = self.now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end - open.start;
        let layer = &mut self.layers[open.layer];
        layer.count += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.keep_raw && self.raw.len() < RAW_LIMIT {
            self.raw.push(Raw {
                id: open.id,
                layer: open.layer,
                start: open.start,
                end,
                parent,
            });
        }
    }

    /// Stop keeping raw spans (aggregation continues).
    pub fn stop_raw(&mut self) {
        self.keep_raw = false;
    }

    /// Totals of layer `name` (all zero when it never opened).
    pub fn layer(&self, name: &str) -> Layer {
        self.names
            .iter()
            .position(|&n| n == name)
            .map_or_else(Layer::default, |i| self.layers[i])
    }

    /// Write the raw spans and the per-layer totals as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or file cannot be written.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 * self.raw.len() + 256);
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"layers\":{{");
        for (i, (name, l)) in self.names.iter().zip(&self.layers).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                l.count, l.total_ns, l.self_ns
            );
        }
        s.push_str("},\"spans\":[");
        for (i, r) in self.raw.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                r.id, self.names[r.layer], r.start, r.end
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_linked() {
        let spans = Spans::shared();
        let mut s = spans.borrow_mut();
        let outer = s.layer_id("outer");
        let inner = s.layer_id("inner");
        assert_eq!(s.layer_id("outer"), outer);
        s.enter(outer);
        s.enter(inner);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.exit();
        let (o, i) = (s.layer("outer"), s.layer("inner"));
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(s.raw.len(), 2);
        assert_eq!(s.raw[0].parent, Some(s.raw[1].id), "inner closes first");
        assert_eq!(s.raw[1].parent, None);
        s.stop_raw();
        s.enter(inner);
        s.exit();
        assert_eq!(s.raw.len(), 2);
        assert_eq!(s.layer("inner").count, 2);
        assert_eq!(s.layer("missing").count, 0);
    }
}
