//! In-memory span tracing at the program's public boundaries.
//!
//! A traced repeat records one [`Span`] per call the benchmark wraps —
//! `Simulation::drive`, each stream pull, each policy call, each served
//! wave — with its layer, start, end and parent. Spans stay in a
//! per-thread log until the repeat ends; [`self_times`] then turns them
//! into per-layer self time (a span's duration minus its direct
//! children's durations), so nested layers are never counted twice.
//!
//! When no log is open on the thread, [`traced`] only checks a
//! thread-local and reads no clock.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide clock origin every span and pull stamp counts from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A public boundary the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Simulation::drive`: the `mano::sim` engine with `edgenet`,
    /// `sfc`, `timeline` and `telemetry` inside it.
    Drive,
    /// One pull of the `workload` arrival iterator.
    Pull,
    /// `PlacementPolicy::decide` (the `nn` forward for a DQN).
    Decide,
    /// `PlacementPolicy::greedy_batch` (one batched forward).
    GreedyBatch,
    /// `PlacementPolicy::observe` (`rl` replay and learn while training).
    Observe,
    /// One `serve` round trip: ring send, server tick, reply.
    ServeWave,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Drive,
        Layer::Pull,
        Layer::Decide,
        Layer::GreedyBatch,
        Layer::Observe,
        Layer::ServeWave,
    ];

    /// The layer's row label in the self-time table.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Drive => "sim.self (drive minus children)",
            Layer::Pull => "workload.pull",
            Layer::Decide => "policy.decide",
            Layer::GreedyBatch => "policy.greedy_batch",
            Layer::Observe => "policy.observe (rl learn)",
            Layer::ServeWave => "serve.wave (round trip)",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded call: `[start_ns, end_ns)` relative to the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The boundary that was crossed.
    pub layer: Layer,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<u32>,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread's spans plus the stack of spans still open.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

thread_local! {
    static LOG: RefCell<Option<SpanLog>> = const { RefCell::new(None) };
}

/// Opens a span log on this thread with room for `capacity` spans.
pub fn start(capacity: usize) {
    LOG.with(|log| {
        *log.borrow_mut() = Some(SpanLog {
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        });
    });
}

/// Closes this thread's span log and hands it back.
pub fn finish() -> Option<SpanLog> {
    LOG.with(|log| log.borrow_mut().take())
}

/// Runs `f` inside a `layer` span when a log is open on this thread.
pub fn traced<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = LOG.with(|log| {
        log.borrow_mut().as_mut().map(|log| {
            let id = log.spans.len() as u32;
            let start_ns = now_ns();
            log.spans.push(Span {
                layer,
                parent: log.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            log.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                let end_ns = now_ns();
                log.spans[id as usize].end_ns = end_ns;
                log.open.pop();
            }
        });
    }
    out
}

/// Per-layer totals of a span set, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Summed span durations per layer (nested calls of one layer count
    /// once per span).
    pub total_ns: [u64; 6],
    /// Summed self time per layer: each span minus its direct children.
    pub self_ns: [u64; 6],
    /// Spans per layer.
    pub count: [u64; 6],
}

impl LayerTimes {
    /// Summed duration of `layer`'s spans, in seconds.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.total_ns[layer.index()] as f64 * 1e-9
    }

    /// Summed self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 * 1e-9
    }

    /// Number of `layer` spans.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }

    /// Adds another span set's totals (another thread or repeat).
    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..6 {
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
            self.count[i] += other.count[i];
        }
    }
}

/// Self time per layer: every span's duration minus the durations of
/// its direct children. A grandchild is subtracted from its own parent
/// only, so the self times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> LayerTimes {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut out = LayerTimes::default();
    for (span, child) in spans.iter().zip(&children_ns) {
        let i = span.layer.index();
        out.total_ns[i] += span.duration_ns();
        out.self_ns[i] += span.duration_ns().saturating_sub(*child);
        out.count[i] += 1;
    }
    out
}

/// The spans as CSV (`thread,id,parent,layer,start_ns,end_ns`), one
/// line per span, for the trace file written at exit.
pub fn spans_csv(out: &mut String, thread: usize, spans: &[Span]) {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
        let _ = writeln!(
            out,
            "{thread},{id},{parent},{:?},{},{}",
            s.layer, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_are_subtracted_once() {
        // drive [0,100) holds a pull [10,20) and a decide [30,60).
        let spans = [
            span(Layer::Drive, None, 0, 100),
            span(Layer::Pull, Some(0), 10, 20),
            span(Layer::Decide, Some(0), 30, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t.self_ns[Layer::Drive.index()], 60);
        assert_eq!(t.self_ns[Layer::Pull.index()], 10);
        assert_eq!(t.self_ns[Layer::Decide.index()], 30);
        assert_eq!(t.self_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn nested_spans_are_not_double_counted() {
        // drive [0,100) > greedy_batch [10,90) > serve wave [20,80).
        let spans = [
            span(Layer::Drive, None, 0, 100),
            span(Layer::GreedyBatch, Some(0), 10, 90),
            span(Layer::ServeWave, Some(1), 20, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t.self_ns[Layer::Drive.index()], 20);
        assert_eq!(t.self_ns[Layer::GreedyBatch.index()], 20);
        assert_eq!(t.self_ns[Layer::ServeWave.index()], 60);
        // The grandchild is not subtracted from drive a second time.
        assert_eq!(t.self_ns.iter().sum::<u64>(), 100);
        assert_eq!(t.total_ns[Layer::GreedyBatch.index()], 80);
    }

    #[test]
    fn traced_records_parents_and_stays_off_without_a_log() {
        assert_eq!(traced(Layer::Pull, || 7), 7);
        assert!(finish().is_none(), "no log, no spans");
        start(8);
        traced(Layer::Drive, || {
            traced(Layer::Decide, || {});
            traced(Layer::Observe, || {});
        });
        let spans = finish().expect("log was open").into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let t = self_times(&spans);
        assert_eq!(t.self_ns.iter().sum::<u64>(), spans[0].duration_ns());
        assert!(finish().is_none());
    }
}
