//! Span recording and per-module attribution, from the benchmark's side of
//! each call.
//!
//! A span is recorded around every call the benchmark makes into a layer
//! (`datagen`, `core`, `query`, `server`, `net`); spans of one operation
//! share an op id. The executor's own `StageTimings` are turned into child
//! spans of the call that returned them: their durations are exact, their
//! positions inside the call are laid end to end. Spans stay in memory and
//! are written out when the run ends.

use pgso_query::StageTimings;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The module that owns a public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    Query,
    Server,
    Net,
}

/// What one operation spent where: the wall time of the call into `module`
/// and, when the call returns a `QueryResult`, the executor's reported time
/// and stage split.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    pub wall: Duration,
    pub module: Module,
    pub exec: Option<(Duration, StageTimings)>,
}

pub const STAGES: [&str; 5] = ["root_selection", "expansion", "optional", "aggregate", "windowing"];

/// Sums of per-op attributions, in seconds.
///
/// * `query` — the executor's five stages;
/// * `unstaged` — executor time outside any stage (`elapsed` minus stages);
/// * `server` — time inside `KgServer` calls outside the executor
///   (plan-cache lookup, bind, rewrite, bookkeeping; for writes the whole
///   `ingest` call, WAL included);
/// * `net` — a whole `KgClient` round trip, opaque from outside;
/// * `unattributed` — op wall time no stage or layer share covers.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    pub ops: u64,
    pub wall: f64,
    pub stages: [f64; 5],
    pub unstaged: f64,
    pub server: f64,
    pub net: f64,
    pub unattributed: f64,
}

impl Breakdown {
    pub fn add(&mut self, t: &OpTiming) {
        let (elapsed, stages) = match &t.exec {
            Some((elapsed, st)) => (
                elapsed.as_secs_f64(),
                [st.root_selection, st.expansion, st.optional, st.aggregate, st.windowing]
                    .map(|d| d.as_secs_f64()),
            ),
            None => (0.0, [0.0; 5]),
        };
        let staged: f64 = stages.iter().sum();
        let wall = t.wall.as_secs_f64();
        let (server, net) = match t.module {
            Module::Query => (0.0, 0.0),
            Module::Server => ((wall - elapsed).max(0.0), 0.0),
            Module::Net => (0.0, wall),
        };
        self.ops += 1;
        self.wall += wall;
        for (sum, s) in self.stages.iter_mut().zip(stages) {
            *sum += s;
        }
        self.unstaged += (elapsed - staged).max(0.0);
        self.server += server;
        self.net += net;
        self.unattributed += (wall - staged - server - net).max(0.0);
    }

    pub fn merge(&mut self, other: &Breakdown) {
        self.ops += other.ops;
        self.wall += other.wall;
        for (a, b) in self.stages.iter_mut().zip(other.stages) {
            *a += b;
        }
        self.unstaged += other.unstaged;
        self.server += other.server;
        self.net += other.net;
        self.unattributed += other.unattributed;
    }

    /// Mean per op, in µs.
    pub fn per_op_us(&self, seconds: f64) -> f64 {
        seconds * 1e6 / self.ops.max(1) as f64
    }

    pub fn query(&self) -> f64 {
        self.stages.iter().sum()
    }

    pub fn unattributed_frac(&self) -> f64 {
        if self.wall > 0.0 {
            self.unattributed / self.wall
        } else {
            0.0
        }
    }

    /// The self-time line printed for one op kind of a workload.
    pub fn line(&self, kind: &str) -> String {
        format!(
            "self time per {kind} op (us, n={}): query {:.3} [unstaged {:.3}] | server {:.3} | \
             net {:.3} | unattributed {:.3} ({:.2}% of {:.3})",
            self.ops,
            self.per_op_us(self.query()),
            self.per_op_us(self.unstaged),
            self.per_op_us(self.server),
            self.per_op_us(self.net),
            self.per_op_us(self.unattributed),
            100.0 * self.unattributed_frac(),
            self.per_op_us(self.wall),
        )
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Disabled recorders record nothing and cost a
/// branch per call.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans kept per recorder; later ones are counted, not stored, so a long
/// traced run keeps a bounded footprint. Attribution sums cover every op.
const SPAN_CAP: usize = 200_000;

impl Recorder {
    /// `thread` keeps span ids unique across the recorders of one run.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        Self { on, origin, next_id: (thread << 40) + 1, spans: Vec::new(), dropped: 0 }
    }

    /// A recorder for another thread of the same run: same switch, same
    /// time origin, its own id range.
    pub fn fork(&self, thread: u64) -> Self {
        Self::new(self.on, self.origin, thread)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id (0 when disabled or full).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.span_with_id(id, name, parent, op, start, end);
        id
    }

    /// An id for a span recorded later, once its end is known, so that
    /// its children can name it as their parent.
    pub fn reserve(&mut self) -> u64 {
        if !self.on || self.spans.len() >= SPAN_CAP {
            return 0;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn span_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        if id == 0 || self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
    }

    /// Records one operation: the span of the call into a layer and, when
    /// the call returned executor timings, an `exec` span with one child per
    /// stage.
    pub fn op(
        &mut self,
        op: u64,
        call: &'static str,
        start: Instant,
        end: Instant,
        exec: Option<(Duration, &StageTimings)>,
    ) {
        if !self.on {
            return;
        }
        let call_id = self.span(call, 0, op, start, end);
        if let Some((elapsed, stages)) = exec {
            let exec_id = self.span("query.exec", call_id, op, start, start + elapsed);
            let mut at = start;
            for (name, d) in STAGE_SPANS.iter().zip(
                [stages.root_selection, stages.expansion, stages.optional, stages.aggregate]
                    .into_iter()
                    .chain([stages.windowing]),
            ) {
                self.span(name, exec_id, op, at, at + d);
                at += d;
            }
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every kept span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# spans kept {} dropped {}", spans.len(), self.dropped)?;
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

const STAGE_SPANS: [&str; 5] = [
    "query.stage.root_selection",
    "query.stage.expansion",
    "query.stage.optional",
    "query.stage.aggregate",
    "query.stage.windowing",
];

/// Self time of each span name over the kept spans: the span's duration
/// minus the part its direct children cover, summed per name. Setup phases
/// are reported this way.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child_time: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own =
            (s.end_ns - s.start_ns).saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
        *by_name.entry(s.name).or_default() += own as f64 / 1e9;
    }
    by_name.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_adds_up_to_wall_time() {
        let stages = StageTimings {
            root_selection: Duration::from_micros(2),
            expansion: Duration::from_micros(5),
            ..StageTimings::default()
        };
        let mut b = Breakdown::default();
        b.add(&OpTiming {
            wall: Duration::from_micros(12),
            module: Module::Server,
            exec: Some((Duration::from_micros(8), stages)),
        });
        let total = b.query() + b.server + b.net + b.unattributed;
        assert!((total - b.wall).abs() < 1e-12);
        assert!((b.per_op_us(b.server) - 4.0).abs() < 1e-6);
        assert!((b.per_op_us(b.unstaged) - 1.0).abs() < 1e-6);
        assert!((b.per_op_us(b.unattributed) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut r = Recorder::new(true, origin, 0);
        let t = |us: u64| origin + Duration::from_micros(us);
        let stages = StageTimings { expansion: Duration::from_micros(4), ..Default::default() };
        r.op(1, "server.execute", t(1), t(9), Some((Duration::from_micros(6), &stages)));
        let times: std::collections::HashMap<_, _> = self_times(r.spans()).into_iter().collect();
        assert!((times["server.execute"] - 2e-6).abs() < 1e-9);
        assert!((times["query.exec"] - 2e-6).abs() < 1e-9);
        assert!((times["query.stage.expansion"] - 4e-6).abs() < 1e-9);
        assert!(r.spans().iter().all(|s| s.op == 1));
        assert!(Recorder::new(false, origin, 0).span("x", 0, 0, t(0), t(1)) == 0);
    }
}
