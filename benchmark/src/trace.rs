//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is wrapped
//! in a span: layer, start, end and the enclosing span. Spans stay in memory
//! while the workload runs and are written out once at exit. Per-layer self
//! time is a span's duration minus the part of it its direct children cover.
//!
//! The recorder is thread-local because one span site sits inside the
//! serving stack: the hostile workload wraps the server the `EventDriver`
//! owns, so its spans open while the driver's close span is still open. All
//! spans are opened and closed on the benchmark's main thread.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// A traced layer boundary. `Round` is the root span of one sounding round;
/// it is not a layer, and its self time is the benchmark's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Round,
    StationHead,
    StationEncode,
    ApIngest,
    ApMicroClose,
    ApClose,
    ApGroup,
    PhyPrecoder,
    FleetHandoff,
    FleetOffer,
    FleetClose,
    EventIngest,
    EventClose,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Round,
        Layer::StationHead,
        Layer::StationEncode,
        Layer::ApIngest,
        Layer::ApMicroClose,
        Layer::ApClose,
        Layer::ApGroup,
        Layer::PhyPrecoder,
        Layer::FleetHandoff,
        Layer::FleetOffer,
        Layer::FleetClose,
        Layer::EventIngest,
        Layer::EventClose,
    ];

    /// Metric stem: `<name>_us` is the per-call self time, `<name>_share`
    /// the share of traced wall time.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::StationHead => "station.head",
            Layer::StationEncode => "station.encode",
            Layer::ApIngest => "ap.ingest",
            Layer::ApMicroClose => "ap.micro_close",
            Layer::ApClose => "ap.close",
            Layer::ApGroup => "ap.group",
            Layer::PhyPrecoder => "phy.precoder",
            Layer::FleetHandoff => "fleet.handoff",
            Layer::FleetOffer => "fleet.offer",
            Layer::FleetClose => "fleet.close",
            Layer::EventIngest => "event.ingest",
            Layer::EventClose => "event.close",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Handle of an open span; `None` while tracing is off.
#[must_use]
pub struct Token(Option<u32>);

/// Turns span recording on or off (between rounds only: spans must close in
/// the mode they opened in).
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Opens a span of `layer` under the innermost open span.
#[inline]
pub fn begin(layer: Layer) -> Token {
    if !ON.with(Cell::get) {
        return Token(None);
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let id = r.spans.len() as u32;
        r.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Token(Some(id))
    })
}

/// Closes the span `token` opened.
#[inline]
pub fn end(token: Token) {
    let Some(id) = token.0 else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans[id as usize].end_ns = end_ns;
        let top = r.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    });
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let token = begin(layer);
    let out = f();
    end(token);
    out
}

/// Per-layer aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

/// What the spans add up to.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Indexed like [`Layer::ALL`].
    pub layers: Vec<LayerTotals>,
    /// Sum of every layer span's self time (excluding `Round`).
    pub layer_self_ns: u64,
    /// Wall time covered by at least one layer span (union of intervals).
    pub covered_ns: u64,
    /// Wall time of the root spans: the traced rounds.
    pub root_ns: u64,
    pub spans: usize,
}

/// Derives per-layer self time and the covered wall time from the spans.
pub fn breakdown() -> Breakdown {
    RECORDER.with(|r| {
        let r = r.borrow();
        assert!(r.open.is_empty(), "breakdown with spans still open");
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut layers = vec![LayerTotals::default(); Layer::ALL.len()];
        let mut intervals = Vec::new();
        let mut layer_self_ns = 0u64;
        let mut root_ns = 0u64;
        for (s, &children) in r.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            if s.parent == NO_PARENT {
                root_ns += dur;
            }
            // A child longer than its parent would make self time negative:
            // the span tree is broken, and the breakdown must say so.
            let self_ns = dur
                .checked_sub(children)
                .expect("child spans cover more than their parent");
            let slot = &mut layers[s.layer as usize];
            slot.calls += 1;
            slot.self_ns += self_ns;
            if s.layer != Layer::Round {
                layer_self_ns += self_ns;
                intervals.push((s.start_ns, s.end_ns));
            }
        }
        intervals.sort_unstable();
        let mut covered_ns = 0u64;
        let mut reach = 0u64;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered_ns += end - start;
                reach = end;
            }
        }
        Breakdown {
            layers,
            layer_self_ns,
            covered_ns,
            root_ns,
            spans: r.spans.len(),
        }
    })
}

/// Writes every span as one tab-separated line (`id parent layer start_ns
/// end_ns`, parent `-` for roots) under a header naming the layers.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<&str> = Layer::ALL.iter().map(|l| l.name()).collect();
    writeln!(out, "# layers: {}", names.join(" "))?;
    writeln!(out, "# id\tparent\tlayer\tstart_ns\tend_ns")?;
    RECORDER.with(|r| -> std::io::Result<()> {
        for (id, s) in r.borrow().spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(
                    out,
                    "{id}\t-\t{}\t{}\t{}",
                    s.layer as u8, s.start_ns, s.end_ns
                )?;
            } else {
                writeln!(
                    out,
                    "{id}\t{}\t{}\t{}\t{}",
                    s.parent, s.layer as u8, s.start_ns, s.end_ns
                )?;
            }
        }
        Ok(())
    })?;
    out.flush()
}
