//! In-memory span recorder for the traced replay.
//!
//! The traced event loop (`crate::traced`) opens a span around every call
//! it makes into a layer of the program. A span records its layer, its
//! parent span, and start and end instants; the recorder folds each
//! closed span into per-layer self time (duration minus the time its
//! child spans cover) and call counts as it goes, and keeps the raw spans
//! in memory until [`Tracer::write_spans`] writes them out.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers the traced loop attributes time to. `Run` is the root span
/// of one replay; its self time is the loop glue no layer span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Run,
    Init,
    Pretrain,
    Ingest,
    Select,
    Advance,
    Registry,
    Observe,
    Estimate,
    Snapshot,
    Ldms,
    Record,
    Queue,
    Load,
    Elision,
    Pass,
    Start,
}

impl Layer {
    /// Every layer below the root, in report order.
    pub const TIMED: [Layer; 16] = [
        Layer::Init,
        Layer::Pretrain,
        Layer::Ingest,
        Layer::Select,
        Layer::Advance,
        Layer::Registry,
        Layer::Observe,
        Layer::Estimate,
        Layer::Snapshot,
        Layer::Ldms,
        Layer::Record,
        Layer::Queue,
        Layer::Load,
        Layer::Elision,
        Layer::Pass,
        Layer::Start,
    ];
    const COUNT: usize = 17;

    /// Metric-name prefix of the layer: `<crate>.<layer>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "experiments.run",
            Layer::Init => "experiments.init",
            Layer::Pretrain => "analytics.pretrain",
            Layer::Ingest => "workloads.ingest",
            Layer::Select => "experiments.select",
            Layer::Advance => "cluster.advance",
            Layer::Registry => "slurm.registry",
            Layer::Observe => "analytics.observe",
            Layer::Estimate => "analytics.estimate",
            Layer::Snapshot => "lustre.snapshot",
            Layer::Ldms => "ldms.sample",
            Layer::Record => "experiments.record",
            Layer::Queue => "slurm.queue",
            Layer::Load => "analytics.load",
            Layer::Elision => "sched.elision",
            Layer::Pass => "sched.pass",
            Layer::Start => "cluster.start",
        }
    }
}

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    /// Index of the parent span, `u32::MAX` for a root.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder plus the per-layer totals folded from closed spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans: (index into `spans`, nanoseconds covered by children).
    open: Vec<(u32, u64)>,
    self_ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
    /// Duration of every `sched.pass` span, for its percentiles.
    pass_ns: Vec<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            self_ns: [0; Layer::COUNT],
            calls: [0; Layer::COUNT],
            pass_ns: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Drop the raw spans of the previous replays (the totals stay).
    pub fn clear_spans(&mut self) {
        assert!(self.open.is_empty(), "clear_spans inside an open span");
        self.spans.clear();
    }

    /// Open a span of `layer` as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.open.last().map_or(u32::MAX, |&(i, _)| i);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per replay");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.open.push((idx, 0));
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let (idx, child_ns) = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        let layer = span.layer as usize;
        self.self_ns[layer] += dur.saturating_sub(child_ns);
        self.calls[layer] += 1;
        if span.layer == Layer::Pass {
            self.pass_ns.push(dur);
        }
        if let Some(top) = self.open.last_mut() {
            top.1 += dur;
        }
    }

    /// End every open span now without adding it to the totals: a
    /// replay that panicked left them open.
    pub fn abandon_open(&mut self) {
        let end_ns = self.now_ns();
        for (idx, _) in self.open.drain(..) {
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }

    /// Total self time of `layer` so far, seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Total time inside root spans so far (every layer's self time,
    /// the root's included), seconds.
    pub fn total_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Closed spans of `layer` so far.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Spans currently held in memory.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The `q`-quantile (nearest rank) of `sched.pass` span durations, µs.
    pub fn pass_quantile_us(&mut self, q: f64) -> f64 {
        if self.pass_ns.is_empty() {
            return 0.0;
        }
        self.pass_ns.sort_unstable();
        let rank = ((q * self.pass_ns.len() as f64).ceil() as usize).clamp(1, self.pass_ns.len());
        self.pass_ns[rank - 1] as f64 * 1e-3
    }

    /// Write the spans held in memory as tab-separated
    /// `id parent layer start_ns end_ns` lines (`parent` is `-` for a
    /// root).
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tlayer\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                u32::MAX => "-".to_string(),
                p => p.to_string(),
            };
            let (name, start, end) = (s.layer.name(), s.start_ns, s.end_ns);
            writeln!(w, "{i}\t{parent}\t{name}\t{start}\t{end}")?;
        }
        w.flush()
    }
}
