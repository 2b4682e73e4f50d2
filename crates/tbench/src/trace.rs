//! The benchmark's own tracing: spans recorded from this crate's files
//! around every call into a layer, kept in memory and written out when
//! the run ends. Nothing here is linked into an untraced run.
//!
//! A span is `(name, start, end, parent, trace)`. Spans of one probe
//! share its trace id; the probe's root span (due → reflected) is the
//! parent of its hop spans. A layer's self time is its span minus the
//! part of it that child spans cover.

use crate::stats::now_ns;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tencentrec::topology::ReplayableSpout;
use tstorm::prelude::*;

/// User and item ids at or above this are probe ids: the wrappers pick a
/// probe's tuples out of a batch by value, with nothing to register and
/// no race with the spout.
pub const PROBE_BASE: u64 = 1 << 40;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which call or hop this is (`core.cf_pair`, `tdaccess.produce`, …).
    pub name: &'static str,
    /// Start, nanoseconds on [`now_ns`].
    pub start_ns: u64,
    /// End, nanoseconds on [`now_ns`].
    pub end_ns: u64,
    /// Index + 1 of the parent span in the written file; 0 = none.
    pub parent: u32,
    /// Probe id + 1 for spans of a probe; 0 for plain call spans.
    pub trace: u64,
    /// Tuples the call handled (0 where that has no meaning).
    pub tuples: u32,
}

impl Span {
    /// A plain span over `[start_ns, end_ns]`.
    pub fn between(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            trace: 0,
            tuples: 0,
        }
    }

    /// A plain call span ending now.
    pub fn call(name: &'static str, start_ns: u64) -> Span {
        Span::between(name, start_ns, now_ns())
    }

    /// Length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where every thread's spans end up.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty, shareable tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Adds one span.
    pub fn push(&self, span: Span) {
        self.lock().push(span);
    }

    /// Adds a thread's locally buffered spans.
    pub fn extend(&self, spans: &mut Vec<Span>) {
        self.lock().append(spans);
    }

    /// Everything recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Only `Vec::push/append` run under this lock; a panicking
        // holder cannot leave the vector half-updated.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// `parent` minus the part of it covered by `children` (overlapping
/// children are not counted twice; parts outside the parent are ignored).
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    if p1 <= p0 {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = p0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (p1 - p0) - covered
}

/// Links every probe's hop spans to its root span and returns the spans
/// in file order: `parent` is the 1-based index of the root.
pub fn link_probe_spans(mut spans: Vec<Span>, root_name: &str) -> Vec<Span> {
    // Roots first, so a parent index is known before its children.
    spans.sort_by_key(|s| (s.name != root_name, s.start_ns));
    let mut root_of: HashMap<u64, u32> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == root_name {
            root_of.insert(s.trace, i as u32 + 1);
        }
    }
    for s in &mut spans {
        if s.trace != 0 && s.name != root_name {
            s.parent = root_of.get(&s.trace).copied().unwrap_or(0);
        }
    }
    spans
}

/// Serialises spans as `{"names": [...], "spans": [[name, start, end,
/// parent, trace, tuples], ...]}`. Probe spans are all kept; plain call spans
/// beyond `max_calls` are dropped from the file (they are already folded
/// into the per-layer numbers) so a long run does not write hundreds of
/// megabytes.
pub fn spans_to_json(spans: &[Span], max_calls: usize) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::from("\"spans\": [");
    let mut calls = 0usize;
    let mut first = true;
    for s in spans {
        if s.trace == 0 {
            calls += 1;
            if calls > max_calls {
                continue;
            }
        }
        let idx = match names.iter().position(|n| *n == s.name) {
            Some(i) => i,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "[{idx},{},{},{},{},{}]",
            s.start_ns, s.end_ns, s.parent, s.trace, s.tuples
        ));
    }
    out.push(']');
    let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"names\": [{}], \"dropped_call_spans\": {}, {out}}}\n",
        names.join(","),
        calls.saturating_sub(max_calls)
    )
}

/// A [`ReplayableSpout`] with every `next_tuple` and `ack` timed. It
/// drives the spout through its public `poll_next`/`on_ack`/`on_fail`
/// and emits the same five values the spout itself would.
pub struct TimedSpout {
    inner: ReplayableSpout,
    tracer: Arc<Tracer>,
    local: Vec<Span>,
    /// Emit time per in-flight message id, for the ack round trip.
    emitted_at: HashMap<u64, u64>,
}

impl TimedSpout {
    /// Wraps `inner`, reporting into `tracer`.
    pub fn new(inner: ReplayableSpout, tracer: Arc<Tracer>) -> Self {
        TimedSpout {
            inner,
            tracer,
            local: Vec::new(),
            emitted_at: HashMap::new(),
        }
    }

    fn flush(&mut self) {
        self.tracer.extend(&mut self.local);
    }
}

impl Spout for TimedSpout {
    fn open(&mut self, _ctx: &TaskContext) {
        self.inner.connect();
    }

    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        let start = now_ns();
        let Some((src, action)) = self.inner.poll_next() else {
            // Empty polls are not spans (an idle spout makes thousands),
            // but the buffered ones must not wait for shutdown forever.
            if self.local.len() >= 4096 {
                self.flush();
            }
            return false;
        };
        collector.emit(
            vec![
                Value::U64(action.user),
                Value::U64(action.item),
                Value::U64(action.action.code() as u64),
                Value::U64(action.timestamp),
                Value::U64(src),
            ],
            Some(src),
        );
        let mut span = Span::call("tstorm.spout", start);
        span.tuples = 1;
        if action.user >= PROBE_BASE {
            self.local.push(Span {
                trace: action.user - PROBE_BASE + 1,
                ..span
            });
        }
        self.emitted_at.insert(src, span.end_ns);
        self.local.push(span);
        true
    }

    fn ack(&mut self, msg_id: u64) {
        let start = now_ns();
        self.inner.on_ack(msg_id);
        if let Some(at) = self.emitted_at.remove(&msg_id) {
            self.local.push(Span::between("tstorm.ack_rtt", at, start));
        }
        self.local.push(Span::call("tstorm.spout_ack", start));
    }

    fn fail(&mut self, msg_id: u64) {
        self.emitted_at.remove(&msg_id);
        self.inner.on_fail(msg_id);
    }

    fn close(&mut self) {
        self.flush();
        self.inner.close();
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        self.inner.declare_outputs()
    }
}

/// How a wrapper finds the probe id (if any) a tuple belongs to.
#[derive(Debug, Clone, Copy)]
pub enum ProbeKey {
    /// The `user` field carries it (pretreatment, user_history).
    User,
    /// The `item` field carries it (item_count).
    Item,
    /// Either end of the pair carries it (cf_pair).
    Pair,
}

impl ProbeKey {
    fn probe_of(self, tuple: &Tuple) -> Option<u64> {
        let field = |name: &str| tuple.get_by_name(name).and_then(Value::as_u64);
        let id = match self {
            ProbeKey::User => field("user"),
            ProbeKey::Item => field("item"),
            ProbeKey::Pair => match (field("a"), field("b")) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }?;
        (id >= PROBE_BASE).then(|| id - PROBE_BASE)
    }
}

/// A bolt with every `execute`/`execute_batch` timed: one call span per
/// invocation and one hop span per probe tuple it carried.
pub struct TimedBolt {
    inner: Box<dyn Bolt>,
    name: &'static str,
    key: ProbeKey,
    tracer: Arc<Tracer>,
    local: Vec<Span>,
}

impl TimedBolt {
    /// Wraps `inner` as layer `name`.
    pub fn new(
        inner: impl Bolt + 'static,
        name: &'static str,
        key: ProbeKey,
        tracer: Arc<Tracer>,
    ) -> Self {
        TimedBolt {
            inner: Box::new(inner),
            name,
            key,
            tracer,
            local: Vec::new(),
        }
    }

    fn record(&mut self, start: u64, tuples: &[Tuple]) {
        let mut call = Span::call(self.name, start);
        call.tuples = tuples.len() as u32;
        for t in tuples {
            if let Some(probe) = self.key.probe_of(t) {
                self.local.push(Span {
                    trace: probe + 1,
                    ..call
                });
            }
        }
        self.local.push(call);
        if self.local.len() >= 4096 {
            self.tracer.extend(&mut self.local);
        }
    }
}

impl Bolt for TimedBolt {
    fn prepare(&mut self, ctx: &TaskContext) {
        self.inner.prepare(ctx);
    }

    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let start = now_ns();
        let out = self.inner.execute(tuple, collector);
        self.record(start, std::slice::from_ref(tuple));
        out
    }

    fn supports_batch(&self) -> bool {
        self.inner.supports_batch()
    }

    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        collector: &mut BoltCollector,
    ) -> Result<(), String> {
        let start = now_ns();
        let out = self.inner.execute_batch(tuples, collector);
        self.record(start, tuples);
        out
    }

    fn tick(&mut self, collector: &mut BoltCollector) {
        self.inner.tick(collector);
    }

    fn cleanup(&mut self) {
        self.tracer.extend(&mut self.local);
        self.inner.cleanup();
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        self.inner.declare_outputs()
    }
}

impl Drop for TimedBolt {
    fn drop(&mut self) {
        self.tracer.extend(&mut self.local);
    }
}

/// Busy time, calls, tuples and per-tuple execute times of one layer's
/// call spans.
#[derive(Debug, Default, Clone)]
pub struct LayerCalls {
    /// Sum of call durations.
    pub busy_ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// Tuples handled (1 per call where the span carries no count).
    pub tuples: u64,
    /// Per call: duration ÷ tuples in the call, nanoseconds.
    pub per_tuple_ns: Vec<u64>,
}

/// Folds the plain call spans named `name` in `[from_ns, to_ns)`.
pub fn layer_calls(spans: &[Span], name: &str, from_ns: u64, to_ns: u64) -> LayerCalls {
    let mut out = LayerCalls::default();
    for s in spans {
        if s.trace != 0 || s.name != name || s.start_ns < from_ns || s.start_ns >= to_ns {
            continue;
        }
        let tuples = (s.tuples as u64).max(1);
        out.busy_ns += s.duration_ns();
        out.calls += 1;
        out.tuples += tuples;
        out.per_tuple_ns.push(s.duration_ns() / tuples);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 170)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 160)]), 50);
        // Nested child adds nothing.
        assert_eq!(self_time_ns((100, 200), &[(110, 160), (120, 130)]), 50);
        // Children are clipped to the parent; ones outside are ignored.
        assert_eq!(
            self_time_ns((100, 200), &[(50, 120), (190, 400), (0, 10)]),
            70
        );
        // Fully covered, and degenerate parents.
        assert_eq!(self_time_ns((100, 200), &[(0, 1_000)]), 0);
        assert_eq!(self_time_ns((200, 100), &[(0, 1_000)]), 0);
    }

    #[test]
    fn probe_spans_are_linked_to_their_root() {
        let hop = |name, start, trace| Span {
            name,
            start_ns: start,
            end_ns: start + 5,
            parent: 0,
            trace,
            tuples: 1,
        };
        let spans = vec![
            hop("core.cf_pair", 40, 2),
            hop("probe", 10, 1),
            hop("tstorm.spout", 12, 1),
            hop("probe", 30, 2),
            hop("core.cf_pair", 99, 0),
        ];
        let linked = link_probe_spans(spans, "probe");
        assert_eq!(linked[0].name, "probe");
        assert_eq!(linked[1].name, "probe");
        for s in &linked[2..] {
            match s.trace {
                0 => assert_eq!(s.parent, 0),
                t => {
                    let root = linked[s.parent as usize - 1];
                    assert_eq!((root.name, root.trace), ("probe", t));
                }
            }
        }
        let text = spans_to_json(&linked, 0);
        let doc = crate::json::Json::parse(&text).expect("trace file parses");
        // The one plain call span is over the cap of 0 and dropped.
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(doc.get("dropped_call_spans").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn layer_calls_fold_counts_and_window() {
        let call = |start, len, tuples| Span {
            name: "core.item_count",
            start_ns: start,
            end_ns: start + len,
            parent: 0,
            trace: 0,
            tuples,
        };
        let spans = vec![call(0, 100, 4), call(200, 60, 0), call(900, 50, 1)];
        let l = layer_calls(&spans, "core.item_count", 0, 500);
        assert_eq!((l.calls, l.tuples, l.busy_ns), (2, 5, 160));
        assert_eq!(l.per_tuple_ns, vec![25, 60]);
        assert_eq!(layer_calls(&spans, "other", 0, 500).calls, 0);
    }
}
