//! The benchmark's own spans: recorded in memory around calls into each
//! layer's public functions, written out when the run ends.
//!
//! A client span opens around each request a connection sends; the
//! server-side [`Spanned`] wrapper opens a child span around the handler's
//! `dispatch_request` for that request. Both carry the same request id.
//! The wrapper learns which connection its thread serves from the `hello`
//! each connection sends first (connections are opened one at a time).

use prj_api::Request;
use prj_engine::{Dispatch, RequestHandler};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.dispatch_topk`.
    pub name: &'static str,
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The request every span of one operation shares (the root's id).
    pub request: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// The connections a workload opens.
pub const CONNECTIONS: usize = 2;

/// In-memory span store shared by client threads and the server wrapper.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicUsize,
    /// Per connection: the open request's `(request id, client span id)`.
    current: [Mutex<Option<(u64, u64)>>; CONNECTIONS],
    /// The connection whose `hello` the server will see next.
    pending_conn: AtomicUsize,
}

thread_local! {
    /// The connection the current server thread serves.
    static CONN: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicUsize::new(1),
            current: [Mutex::new(None), Mutex::new(None)],
            pending_conn: AtomicUsize::new(0),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) as u64
    }

    /// Stores one finished span; returns its id.
    pub fn record(&self, name: &'static str, parent: u64, request: u64, start: u64) -> u64 {
        let end = self.now();
        let id = self.fresh_id();
        self.spans.lock().expect("span store").push(Span {
            name,
            id,
            parent,
            request,
            start,
            end,
        });
        id
    }

    /// Announces that connection `conn` is about to send its `hello`.
    pub fn expect_hello(&self, conn: usize) {
        self.pending_conn.store(conn, Ordering::SeqCst);
    }

    /// Opens a client request on `conn`: returns the request id, which is
    /// also the id of the client span closed by [`Tracer::close`].
    pub fn open(&self, conn: usize) -> (u64, u64) {
        let id = self.fresh_id();
        *self.current[conn].lock().expect("request slot") = Some((id, id));
        (id, self.now())
    }

    /// Closes the client span opened by [`Tracer::open`].
    pub fn close(&self, conn: usize, name: &'static str, request: u64, start: u64) {
        *self.current[conn].lock().expect("request slot") = None;
        let end = self.now();
        self.spans.lock().expect("span store").push(Span {
            name,
            id: request,
            parent: 0,
            request,
            start,
            end,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }

    /// Writes the spans as tab-separated lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\trequest\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Span names per request verb, as the server wrapper records them.
fn dispatch_name(request: &Request) -> &'static str {
    match request {
        Request::TopK(_) => "engine.dispatch_topk",
        Request::AppendTuples { .. } => "engine.dispatch_append",
        Request::RegisterRelation { .. } => "engine.dispatch_register",
        Request::Subscribe(_) => "engine.dispatch_subscribe",
        _ => "engine.dispatch_other",
    }
}

/// A [`RequestHandler`] that records a span around every dispatch whose
/// connection has an open client request.
pub struct Spanned<H> {
    inner: Arc<H>,
    tracer: Arc<Tracer>,
}

impl<H> Spanned<H> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<H>, tracer: Arc<Tracer>) -> Spanned<H> {
        Spanned { inner, tracer }
    }
}

impl<H: RequestHandler> RequestHandler for Spanned<H> {
    fn dispatch_request(&self, request: Request) -> Dispatch {
        if matches!(request, Request::Hello { .. }) {
            CONN.set(Some(self.tracer.pending_conn.load(Ordering::SeqCst)));
        }
        let open = CONN
            .get()
            .and_then(|conn| *self.tracer.current[conn].lock().expect("request slot"));
        let Some((request_id, parent)) = open else {
            return self.inner.dispatch_request(request);
        };
        let name = dispatch_name(&request);
        let start = self.tracer.now();
        let dispatch = self.inner.dispatch_request(request);
        self.tracer.record(name, parent, request_id, start);
        dispatch
    }
}

/// Per span name: how many, total time, and self time (the span minus the
/// part of it its children cover).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerRow {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Aggregates `spans` into one [`LayerRow`] per name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let duration = s.end.saturating_sub(s.start);
        let covered = children
            .get(&s.id)
            .map(|c| covered_ns(s.start, s.end, c))
            .unwrap_or(0);
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += duration;
        row.self_ns += duration - covered.min(duration);
    }
    table
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("client", 1, 0, 0, 100),
            span("server", 2, 1, 10, 40),
            span("server", 3, 1, 30, 60),
            span("other", 4, 0, 0, 5),
        ];
        let table = layer_table(&spans);
        assert_eq!(table["client"].self_ns, 50);
        assert_eq!(table["server"].count, 2);
        assert_eq!(table["server"].self_ns, 60);
        assert_eq!(table["other"].total_ns, 5);
    }
}
