//! End-to-end serving benchmark for the ProxRJ stack.
//!
//! A single-process, closed-loop load generator: two `prj_api::ApiClient`
//! connections (a `prj/2` connection carries one request at a time), each
//! on its own client thread except in `ingest-notify`, drive the serving
//! stack over loopback. The
//! stack is wired the way `prj-serve` wires it (see `stack.rs`). A run is
//! set up several times (the median is `setup_s`), then makes a fixed
//! count pass that yields the exact counters, then measures for the
//! requested time, then checks every answer (see `check.rs`).
//!
//! With tracing on, the window alternates untraced and traced quarters:
//! traced requests carry client spans, server dispatch spans and codec
//! timings (see `trace.rs`), and the two halves give the tracing overhead.

mod check;
mod gen;
mod stack;
mod trace;

use check::{fingerprint, same_rows, Reference};
use gen::{PointStream, Rng, Zipf, RELATIONS};
use prj_api::{apply_events, wire, Notification, Request, Response, ResultRow, TupleData};
use prj_engine::Session;
use stack::{Stack, Wiring};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{LayerRow, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold distinct reads against a 4-shard standalone server.
    ReadSharded,
    /// Zipf reads over 64 cached hot points, unsharded.
    ReadHot,
    /// Targeted appends with 100 standing queries, plus cold reads.
    IngestNotify,
    /// `ReadSharded`'s stream through a coordinator and 2 workers.
    ReadCluster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadSharded,
        Workload::ReadHot,
        Workload::IngestNotify,
        Workload::ReadCluster,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSharded => "read-sharded",
            Workload::ReadHot => "read-hot",
            Workload::IngestNotify => "ingest-notify",
            Workload::ReadCluster => "read-cluster",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shards(self) -> usize {
        match self {
            Workload::ReadSharded | Workload::ReadCluster => 4,
            Workload::ReadHot | Workload::IngestNotify => 1,
        }
    }
}

/// Input sizes of one run.
#[derive(Debug, Clone)]
pub struct Size {
    /// Tuples per relation.
    pub tuples: usize,
    /// Cold queries of the count pass.
    pub count_queries: usize,
    /// Hot points (`read-hot`).
    pub hot_points: usize,
    /// Standing queries (`ingest-notify`).
    pub subscriptions: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Reference answers checked against the naive join.
    pub spot_checks: usize,
}

impl Size {
    /// The measured size.
    pub fn full(workload: Workload) -> Size {
        let ingest = workload == Workload::IngestNotify;
        Size {
            tuples: if ingest { 1000 } else { 2000 },
            count_queries: 256,
            hot_points: 64,
            subscriptions: 100,
            setups: 9,
            spot_checks: 1,
        }
    }

    /// A size small enough for the benchmark's own tests.
    pub fn quick() -> Size {
        Size {
            tuples: 150,
            count_queries: 24,
            hot_points: 16,
            subscriptions: 10,
            setups: 2,
            spot_checks: 2,
        }
    }
}

/// How long the measured window lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Wall-clock seconds.
    Seconds(f64),
    /// Operations per connection (fixed work, for tests).
    Ops(usize),
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// The measured window.
    pub budget: Budget,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// The `prj-serve` executable `read-cluster` spawns workers from.
    pub worker_exe: PathBuf,
    /// Where a traced run writes its spans.
    pub span_file: Option<PathBuf>,
    /// Flip one bit of one answer before it is checked: proves the
    /// checker catches a wrong answer.
    pub corrupt_one_answer: bool,
}

/// End-to-end metrics, as `BENCHMARK.json` names them; every workload
/// reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("query_p50_us", "us"),
    ("query_qps", "1/s"),
    ("sum_depths_per_query", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, as `BENCHMARK.json` names them.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("api.encode_us", "us"),
    ("api.decode_us", "us"),
    ("api.wire_bytes_per_op", "bytes"),
    ("api.net_us", "us"),
    ("engine.dispatch_topk_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.depth_amplification", "ratio"),
    ("core.operator_us", "us"),
    ("core.depth_per_query", "count"),
    ("core.bound_updates_per_query", "count"),
    ("engine.dispatch_append_us", "us"),
    ("engine.dispatch_register_ms", "ms"),
    ("engine.compactions", "count"),
    ("engine.delta_tuples_max", "count"),
    ("sub.reevals_per_mutation", "count"),
    ("sub.useful_ratio", "ratio"),
    ("sub.suppressed_per_mutation", "count"),
    ("sub.server_delay_us", "us"),
    ("cluster.remote_units_per_query", "count"),
    ("cluster.unit_overhead_us", "us"),
    ("cluster.failovers", "count"),
    ("bench.tracing_overhead", "ratio"),
    ("mutations_per_s", "1/s"),
    ("notify_p50_us", "us"),
    ("notify_p90_us", "us"),
    ("append_p50_us", "us"),
    ("append_p90_us", "us"),
    ("failed_ratio", "ratio"),
    ("query_p90_us", "us"),
    ("query_p99_us", "us"),
];

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// No answer was wrong.
    pub correct: bool,
    /// Operations attempted, over all verbs.
    pub attempted: u64,
    /// Failed operations: typed errors, timeouts, missing targeted
    /// notifications and wrong answers.
    pub failed: u64,
    /// Every metric the run computed, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The base of every ratio, and sample counts, for the printed report.
    pub notes: Vec<String>,
    /// Traced runs: spans aggregated per name.
    pub layers: BTreeMap<&'static str, LayerRow>,
}

impl Report {
    /// The value of `name`; panics on a metric the run did not compute.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not computed"))
    }
}

/// Failure counts of one part of a run.
#[derive(Debug, Default, Clone)]
struct Tally {
    attempted: u64,
    errors: u64,
    missing: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.missing += other.missing;
        self.wrong += other.wrong;
    }

    fn failed(&self) -> u64 {
        self.errors + self.missing + self.wrong
    }
}

/// A cold read whose answer is checked after the run, against the
/// reference holding the first `state` appends.
#[derive(Debug, Clone)]
struct Read {
    point: [f64; 2],
    digest: u64,
    state: usize,
}

/// One client connection and, in a traced run, its tracer.
struct Conn {
    client: prj_api::ApiClient,
    index: usize,
    tracer: Option<Arc<Tracer>>,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Conn {
    /// Sends one request; returns the answer and the round trip. A traced
    /// request gets a client span (the server wrapper adds its child) and
    /// codec timings on the same messages.
    fn call(
        &mut self,
        span: &'static str,
        request: &Request,
        traced: bool,
    ) -> (Result<Response, prj_api::ApiError>, Duration) {
        let tracer = if traced { self.tracer.clone() } else { None };
        let open = tracer.as_ref().map(|t| t.open(self.index));
        let started = Instant::now();
        let result = self.client.call(request);
        let round_trip = started.elapsed();
        if let (Some(tracer), Some((id, start))) = (&tracer, open) {
            tracer.close(self.index, span, id, start);
            if let Ok(response) = &result {
                codec_spans(tracer, id, request, response);
            }
        }
        (result, round_trip)
    }

    /// One `TopK` at `point`: its rows and round trip, or `None` after
    /// counting the failure.
    fn top_k(
        &mut self,
        point: [f64; 2],
        traced: bool,
        tally: &mut Tally,
    ) -> Option<(Vec<ResultRow>, Duration)> {
        tally.attempted += 1;
        match self.call("client.topk", &Request::TopK(gen::query(point)), traced) {
            (Ok(Response::Results { rows, .. }), round_trip) => Some((rows, round_trip)),
            _ => {
                tally.errors += 1;
                None
            }
        }
    }
}

/// Times the wire codec on one exchanged request/response pair.
fn codec_spans(tracer: &Tracer, id: u64, request: &Request, response: &Response) {
    let version = prj_api::PROTOCOL_VERSION;
    let start = tracer.now();
    let line = wire::encode_request_at(request, version).expect("encodable request");
    tracer.record("api.encode", 0, id, start);
    let start = tracer.now();
    let _ = black_box(wire::decode_request(black_box(&line)));
    tracer.record("api.decode", 0, id, start);
    let start = tracer.now();
    let line = wire::encode_response_at(response, version);
    tracer.record("api.encode", 0, id, start);
    let start = tracer.now();
    let _ = black_box(wire::decode_response(black_box(&line)));
    tracer.record("api.decode", 0, id, start);
}

/// Bytes one exchange puts on the wire, newlines included.
fn wire_bytes(request: &Request, response: &Response) -> usize {
    let version = prj_api::PROTOCOL_VERSION;
    wire::encode_request_at(request, version)
        .expect("encodable request")
        .len()
        + wire::encode_response_at(response, version).len()
        + 2
}

/// The measured window's clock.
struct Clock {
    started: Instant,
    budget: Budget,
}

impl Clock {
    fn running(&self, done: usize) -> bool {
        match self.budget {
            Budget::Seconds(s) => self.started.elapsed().as_secs_f64() < s,
            Budget::Ops(n) => done < n,
        }
    }

    /// The window runs in quarters; the second and fourth are traced.
    fn traced_quarter(&self, done: usize) -> bool {
        let quarter = match self.budget {
            Budget::Seconds(s) => (self.started.elapsed().as_secs_f64() * 4.0 / s) as usize,
            Budget::Ops(n) => done * 4 / n.max(1),
        };
        quarter % 2 == 1
    }

    fn seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// `TopK` answers per throughput slice of a connection: a slice is this
/// many consecutive reads, timed from the first's send to the last's
/// answer.
const SLICE_READS: u32 = 16;

/// A standing query as the client sees it.
struct Sub {
    id: u64,
    point: [f64; 2],
    view: Vec<ResultRow>,
    seq: u64,
}

/// Subscription id → index into `subs`.
fn sub_index(subs: &[Sub]) -> HashMap<u64, usize> {
    subs.iter().enumerate().map(|(i, s)| (s.id, i)).collect()
}

/// Replays one notification over its subscription's view. Returns the
/// subscription's index, or why the feed is inconsistent.
fn apply(subs: &mut [Sub], index: &HashMap<u64, usize>, n: &Notification) -> Result<usize, String> {
    let &i = index
        .get(&n.id)
        .ok_or_else(|| format!("notification for unknown subscription {}", n.id))?;
    let sub = &mut subs[i];
    if n.seq != sub.seq + 1 || n.fin.is_some() {
        return Err(format!(
            "subscription {} got seq {} fin {:?} after seq {}",
            n.id, n.seq, n.fin, sub.seq
        ));
    }
    sub.view = apply_events(&sub.view, &n.events, n.total).map_err(|e| e.to_string())?;
    sub.seq = n.seq;
    Ok(i)
}

/// A set-up stack, ready for the window.
struct Live {
    stack: Stack,
    conns: Vec<Conn>,
    subs: Vec<Sub>,
    /// `read-hot`: the warm-up answer per hot point.
    hot_first: Vec<Option<u64>>,
}

impl Live {
    fn tear_down(self) {
        drop(self.conns);
        self.stack.stop();
    }
}

/// Launch → ready: start the stack, connect, register the relations over
/// the wire, subscribe, warm the cache.
fn set_up(
    config: &Config,
    data: &[Vec<TupleData>],
    hot: &[[f64; 2]],
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> Result<Live, String> {
    let wiring = match config.workload {
        Workload::ReadCluster => Wiring::Cluster {
            shards: config.workload.shards(),
            workers: 2,
            exe: config.worker_exe.clone(),
        },
        w => Wiring::Standalone { shards: w.shards() },
    };
    let stack = Stack::start(&wiring, tracer)?;
    let mut conns = Vec::new();
    for index in 0..trace::CONNECTIONS {
        conns.push(Conn {
            client: stack.connect(index, tracer)?,
            index,
            tracer: tracer.cloned(),
        });
    }
    let traced = tracer.is_some();
    for (i, (name, tuples)) in RELATIONS.iter().zip(data).enumerate() {
        let request = Request::RegisterRelation {
            name: name.to_string(),
            tuples: tuples.clone(),
        };
        match conns[0].call("client.register", &request, traced).0 {
            Ok(Response::Registered { id, .. }) if id == i => {}
            other => return Err(format!("register {name}: {other:?}")),
        }
    }
    let mut subs = Vec::new();
    if config.workload == Workload::IngestNotify {
        for point in gen::points(config.seed, gen::SUBSCRIPTIONS, config.size.subscriptions) {
            let (id, view, _) = conns[0]
                .client
                .subscribe(gen::query(point))
                .map_err(|e| format!("subscribe: {e}"))?;
            subs.push(Sub {
                id,
                point,
                view,
                seq: 0,
            });
        }
    }
    let mut hot_first = vec![None; hot.len()];
    for (first, &point) in hot_first.iter_mut().zip(hot) {
        if let Some((rows, _)) = conns[0].top_k(point, false, tally) {
            *first = Some(fingerprint(&rows));
        }
    }
    Ok(Live {
        stack,
        conns,
        subs,
        hot_first,
    })
}

/// What the count pass measured: fixed queries, so the counts are exact.
#[derive(Default)]
struct Counts {
    reads: Vec<Read>,
    sum_depths_per_query: f64,
    bound_updates_per_query: f64,
    wire_bytes_per_op: f64,
    core_depth_per_query: f64,
    executed: u64,
}

/// Runs the count pass: `count_queries` cold reads at fixed points, split
/// over both connections. A traced run also times the planner
/// (`Engine::explain(spec, false)`, which executes nothing) and the chosen
/// algorithm run directly through `prj-core`.
fn count_pass(
    config: &Config,
    live: &mut Live,
    data: &[Vec<TupleData>],
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> Counts {
    let before = live.stack.stats();
    let bound_updates = live.stack.metric("prj_bound_updates_total");
    let points = gen::points(config.seed, gen::COUNT_PASS, config.size.count_queries);
    let corrupt = config.corrupt_one_answer;
    let lanes: Vec<(Vec<Read>, usize, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                let points = &points;
                scope.spawn(move || {
                    let (mut reads, mut bytes, mut tally) = (Vec::new(), 0, Tally::default());
                    for (q, &point) in points.iter().enumerate().skip(lane).step_by(2) {
                        let request = Request::TopK(gen::query(point));
                        tally.attempted += 1;
                        let Ok(response @ Response::Results { .. }) =
                            conn.call("client.topk", &request, false).0
                        else {
                            tally.errors += 1;
                            continue;
                        };
                        bytes += wire_bytes(&request, &response);
                        let Response::Results { mut rows, .. } = response else {
                            unreachable!()
                        };
                        if corrupt && q == 0 && !rows.is_empty() {
                            rows[0].score = f64::from_bits(rows[0].score.to_bits() ^ 1);
                        }
                        reads.push(Read {
                            point,
                            digest: fingerprint(&rows),
                            state: 0,
                        });
                    }
                    (reads, bytes, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("count-pass thread"))
            .collect()
    });
    let mut counts = Counts::default();
    let mut bytes = 0;
    for (reads, lane_bytes, lane_tally) in lanes {
        counts.reads.extend(reads);
        bytes += lane_bytes;
        tally.add(&lane_tally);
    }
    let stack = &live.stack;
    let after = stack.stats();
    counts.executed = after.executed - before.executed;
    let per_query = |total: f64| total / counts.executed.max(1) as f64;
    counts.sum_depths_per_query =
        per_query((after.total_sum_depths - before.total_sum_depths) as f64);
    counts.bound_updates_per_query =
        per_query(stack.metric("prj_bound_updates_total") - bound_updates);
    counts.wire_bytes_per_op = bytes as f64 / counts.reads.len().max(1) as f64;
    if let Some(tracer) = tracer {
        let session = Session::new(Arc::clone(&stack.engine));
        let mut depth = 0u64;
        for read in &counts.reads {
            let spec = session
                .build_query_spec(gen::query(read.point))
                .expect("count-pass query spec");
            let start = tracer.now();
            let plan = stack.engine.explain(spec, false).expect("explain").plan;
            let id = tracer.record("engine.plan", 0, 0, start);
            let run = check::core_run(data, read.point, &plan);
            let end = tracer.now();
            tracer.record("core.operator", 0, id, end - run.elapsed.as_nanos() as u64);
            depth += run.depth;
        }
        counts.core_depth_per_query = depth as f64 / counts.reads.len().max(1) as f64;
    }
    counts
}

/// What one client thread measured in the window.
#[derive(Default)]
struct Lane {
    tally: Tally,
    /// `TopK` requests sent, failed ones too.
    sent: usize,
    /// Untraced and traced `TopK` round trips, µs. Four bytes a sample
    /// keep the in-process server's peak memory from following the count.
    untraced_us: Vec<f32>,
    traced_us: Vec<f32>,
    /// Completed reads and seconds of reading per slice of
    /// [`SLICE_READS`] consecutive reads (one read phase of
    /// `ingest-notify`).
    slices: Vec<(u32, f64)>,
    /// The open slice: when it started (window seconds) and its reads.
    slice_start: f64,
    slice_reads: u32,
    checked: Vec<Read>,
    hot_first: Vec<Option<u64>>,
    appends: Vec<f64>,
    notifies: Vec<f64>,
    log: Vec<(usize, TupleData)>,
    delta_tuples_max: usize,
}

/// Cold reads at never-repeating points.
fn stream_reads(conn: &mut Conn, clock: &Clock, trace: bool, mut points: PointStream) -> Lane {
    let mut lane = Lane::default();
    while clock.running(lane.sent) {
        let traced = trace && clock.traced_quarter(lane.sent);
        if cold_read(conn, points.next_point(), traced, 0, &mut lane) {
            lane.completed_at(clock.seconds());
        }
    }
    lane.end_slices(clock.seconds());
    lane
}

impl Lane {
    /// Counts one sent `TopK`'s round trip.
    fn record(&mut self, round_trip: Duration, traced: bool) {
        self.sent += 1;
        let us = micros(round_trip) as f32;
        if traced {
            self.traced_us.push(us);
        } else {
            self.untraced_us.push(us);
        }
    }

    /// Counts one `TopK` completed at `now` (window seconds) in the open
    /// throughput slice, and closes the slice once it is full.
    fn completed_at(&mut self, now: f64) {
        self.slice_reads += 1;
        if self.slice_reads == SLICE_READS {
            self.close_slice(now);
        }
    }

    fn close_slice(&mut self, now: f64) {
        self.slices.push((self.slice_reads, now - self.slice_start));
        self.slice_start = now;
        self.slice_reads = 0;
    }

    /// At the end of the window: drops the open slice, unless the window
    /// was too short to close one.
    fn end_slices(&mut self, now: f64) {
        if self.slices.is_empty() {
            self.close_slice(now);
        }
    }
}

/// One cold read, kept for the answer check; `state` is how many appends
/// the server had applied. Returns whether an answer came back.
fn cold_read(
    conn: &mut Conn,
    point: [f64; 2],
    traced: bool,
    state: usize,
    lane: &mut Lane,
) -> bool {
    let Some((rows, round_trip)) = conn.top_k(point, traced, &mut lane.tally) else {
        lane.sent += 1;
        return false;
    };
    lane.record(round_trip, traced);
    lane.checked.push(Read {
        point,
        digest: fingerprint(&rows),
        state,
    });
    true
}

/// Zipf-like reads over the hot points; each answer must equal the first
/// one seen for its point.
fn hot_reads(conn: &mut Conn, clock: &Clock, trace: bool, hot: &[[f64; 2]], mut rng: Rng) -> Lane {
    let zipf = Zipf::new(hot.len());
    let mut lane = Lane {
        hot_first: vec![None; hot.len()],
        ..Lane::default()
    };
    while clock.running(lane.sent) {
        let traced = trace && clock.traced_quarter(lane.sent);
        let i = zipf.draw(&mut rng);
        let Some((rows, round_trip)) = conn.top_k(hot[i], traced, &mut lane.tally) else {
            lane.sent += 1;
            continue;
        };
        lane.record(round_trip, traced);
        lane.completed_at(clock.seconds());
        let digest = fingerprint(&rows);
        match lane.hot_first[i] {
            None => lane.hot_first[i] = Some(digest),
            Some(first) if first != digest => lane.tally.wrong += 1,
            Some(_) => {}
        }
    }
    lane.end_slices(clock.seconds());
    lane
}

/// Cold reads connection B sends after each ingest cycle: one throughput
/// slice.
const READS_PER_CYCLE: u32 = SLICE_READS;

/// How long a targeted notification may take before it counts as missing.
const NOTIFY_TIMEOUT: Duration = Duration::from_secs(10);

/// The ingest cycle. Connection A sends one targeted single-tuple append,
/// built to enter one subscription's top-K (a score of 1.0 right by its
/// query point), waits for that subscription's notification and for the
/// notifier to finish the mutation; then connection B sends
/// [`READS_PER_CYCLE`] cold reads. Reads run between mutations rather than
/// during them: reads racing the notifier swung their median by up to 26%
/// from run to run, as the share of reads that met a busy notifier moved.
fn ingest(
    conn: &mut Conn,
    reader: &mut Conn,
    clock: &Clock,
    trace: bool,
    subs: &mut [Sub],
    stack: &Stack,
    mut points: PointStream,
) -> Lane {
    let index = sub_index(subs);
    let mut lane = Lane::default();
    let mut m = 0usize;
    while clock.running(m) {
        let traced = trace && clock.traced_quarter(m);
        let target = m % subs.len();
        let relation = m % RELATIONS.len();
        let round = (m / subs.len()) as f64 + 1.0;
        let point = subs[target].point;
        let tuple = TupleData::new([point[0] + round * 1e-3, point[1]], 1.0);
        m += 1;
        let started = Instant::now();
        let request = Request::AppendTuples {
            relation: RELATIONS[relation].into(),
            tuples: vec![tuple.clone()],
        };
        lane.tally.attempted += 1;
        let (result, round_trip) = conn.call("client.append", &request, traced);
        let Ok(Response::Appended {
            id, cardinality, ..
        }) = result
        else {
            // The server's state is no longer known exactly: stop writing.
            lane.tally.errors += 1;
            break;
        };
        lane.appends.push(micros(round_trip));
        lane.log.push((relation, tuple));
        lane.delta_tuples_max = lane
            .delta_tuples_max
            .max(stack.engine.catalog().delta_tuples_total());
        let entered = (id, cardinality - 1);
        lane.tally.attempted += 1;
        let wait_start = conn.tracer.as_ref().filter(|_| traced).map(|t| t.now());
        let deadline = started + NOTIFY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match conn.client.wait_notification(left) {
                Ok(Some(n)) => match apply(subs, &index, &n) {
                    Ok(i)
                        if i == target
                            && subs[i].view.iter().any(|r| r.tuples.contains(&entered)) =>
                    {
                        lane.notifies.push(micros(started.elapsed()));
                        break;
                    }
                    Ok(_) => {}
                    Err(_) => lane.tally.wrong += 1,
                },
                Ok(None) => {
                    lane.tally.missing += 1;
                    break;
                }
                Err(_) => {
                    lane.tally.errors += 1;
                    break;
                }
            }
        }
        if let (Some(tracer), Some(start)) = (&conn.tracer, wait_start) {
            tracer.record("client.notify_wait", 0, 0, start);
        }
        // Each mutation re-evaluates every standing query, and a pass can
        // outlast the cycle (the targeted one may come early in it): let the
        // pass finish, or the notifier's queue grows for as long as the
        // window lasts and the workload never settles.
        stack.manager.quiesce();
        let reading = Instant::now();
        let mut completed = 0;
        for _ in 0..READS_PER_CYCLE {
            let point = points.next_point();
            completed += cold_read(reader, point, traced, lane.log.len(), &mut lane) as u32;
        }
        lane.slices
            .push((completed, reading.elapsed().as_secs_f64()));
    }
    lane
}

/// After the window: deliver every pending notification, then check each
/// replayed feed equals a fresh `TopK`. Returns the fresh answers'
/// reads for the reference check.
fn check_feeds(live: &mut Live, appends: usize, tally: &mut Tally) -> Vec<Read> {
    live.stack.manager.quiesce();
    let index = sub_index(&live.subs);
    let conn = &mut live.conns[0];
    loop {
        match conn.client.wait_notification(Duration::from_millis(200)) {
            Ok(Some(n)) => {
                if apply(&mut live.subs, &index, &n).is_err() {
                    tally.wrong += 1;
                }
            }
            Ok(None) => break,
            Err(_) => {
                tally.errors += 1;
                break;
            }
        }
    }
    let mut reads = Vec::new();
    for sub in &live.subs {
        let Some((fresh, _)) = conn.top_k(sub.point, false, tally) else {
            continue;
        };
        if !same_rows(&sub.view, &fresh) {
            tally.wrong += 1;
        }
        reads.push(Read {
            point: sub.point,
            digest: fingerprint(&fresh),
            state: appends,
        });
    }
    reads
}

/// Checks `reads` against the reference, replaying the `log` of appends
/// so each read meets the state it was answered in. Returns the number of
/// wrong answers.
fn check_reads(reference: &Reference, mut reads: Vec<Read>, log: &[(usize, TupleData)]) -> u64 {
    reads.sort_by_key(|r| r.state);
    let mut rest = &reads[..];
    let mut wrong = 0;
    for state in 0..=log.len() {
        let (now, later) = rest.split_at(rest.partition_point(|r| r.state <= state));
        if !now.is_empty() {
            let points: Vec<[f64; 2]> = now.iter().map(|r| r.point).collect();
            let answers = reference.answers(&points);
            wrong += now
                .iter()
                .zip(answers)
                .filter(|(read, rows)| fingerprint(rows) != read.digest)
                .count() as u64;
        }
        rest = later;
        if let Some((relation, tuple)) = log.get(state) {
            reference.append(*relation, tuple.clone());
        }
    }
    wrong + rest.len() as u64
}

fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Counter readings bracketing the window.
struct Snapshot {
    stats: prj_api::StatsReport,
    metrics: HashMap<&'static str, f64>,
}

const COUNTERS: [&str; 8] = [
    "prj_subscription_reexecuted_units_total",
    "prj_subscription_notifications_total",
    "prj_subscription_suppressed_total",
    "prj_sub_notify_delay_us_sum",
    "prj_sub_notify_delay_us_count",
    "prj_compactions_total",
    "prj_remote_units_total",
    "prj_failovers_total",
];

impl Snapshot {
    fn take(stack: &Stack) -> Snapshot {
        Snapshot {
            stats: stack.stats(),
            metrics: COUNTERS.iter().map(|&c| (c, stack.metric(c))).collect(),
        }
    }

    fn delta(&self, later: &Snapshot, name: &str) -> f64 {
        later.metrics[name] - self.metrics[name]
    }
}

/// Runs one workload end to end: set-ups, count pass, window, checks.
pub fn run(config: &Config) -> Result<Report, String> {
    let size = &config.size;
    let data = gen::relations(config.seed, size.tuples);
    let hot = match config.workload {
        Workload::ReadHot => gen::points(config.seed, gen::HOT, size.hot_points),
        _ => Vec::new(),
    };
    let tracer = config.trace.then(|| Arc::new(Tracer::default()));
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let started = Instant::now();
    let mut live = set_up(config, &data, &hot, tracer.as_ref(), &mut tally)?;
    let mut setup_secs = vec![started.elapsed().as_secs_f64()];
    let phase = Instant::now();
    let counts = count_pass(config, &mut live, &data, tracer.as_ref(), &mut tally);
    let count_secs = phase.elapsed().as_secs_f64();

    let before = Snapshot::take(&live.stack);
    let clock = Clock {
        started: Instant::now(),
        budget: config.budget,
    };
    let trace_on = config.trace;
    let lanes: Vec<Lane> = {
        let Live {
            stack, conns, subs, ..
        } = &mut live;
        let (first, second) = conns.split_at_mut(1);
        let (a, b) = (&mut first[0], &mut second[0]);
        let (clock, hot, seed) = (&clock, &hot, config.seed);
        let lane_points = |lane| PointStream::new(seed, gen::STREAM, lane);
        match config.workload {
            Workload::IngestNotify => {
                vec![ingest(a, b, clock, trace_on, subs, stack, lane_points(1))]
            }
            Workload::ReadHot => std::thread::scope(|scope| {
                let lane_b = scope.spawn(move || {
                    hot_reads(b, clock, trace_on, hot, Rng::new(seed, gen::HOT + 101))
                });
                let lane_a = hot_reads(a, clock, trace_on, hot, Rng::new(seed, gen::HOT + 100));
                vec![lane_a, lane_b.join().expect("client thread")]
            }),
            _ => std::thread::scope(|scope| {
                let lane_b = scope.spawn(move || stream_reads(b, clock, trace_on, lane_points(1)));
                let lane_a = stream_reads(a, clock, trace_on, lane_points(0));
                vec![lane_a, lane_b.join().expect("client thread")]
            }),
        }
    };
    let window_secs = clock.seconds();
    let after = Snapshot::take(&live.stack);
    let peak_rss_mb = live.stack.peak_rss_mb();

    // Checks, outside the timed window.
    let log: Vec<(usize, TupleData)> = lanes.iter().flat_map(|l| l.log.clone()).collect();
    let mut reads = counts.reads.clone();
    for lane in &lanes {
        tally.add(&lane.tally);
        reads.extend(lane.checked.iter().cloned());
    }
    if config.workload == Workload::IngestNotify {
        reads.extend(check_feeds(&mut live, log.len(), &mut tally));
    }
    let mut warm_firsts = vec![std::mem::take(&mut live.hot_first)];
    live.tear_down();
    // The further set-ups that make `setup_s` a median run after the
    // window, so the memory they leave behind stays out of `peak_rss_mb`.
    for _ in 1..size.setups {
        let started = Instant::now();
        let mut extra = set_up(config, &data, &hot, tracer.as_ref(), &mut tally)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        warm_firsts.push(std::mem::take(&mut extra.hot_first));
        extra.tear_down();
    }

    let phase = Instant::now();
    let reference = Reference::new(&data);
    for point in gen::points(config.seed, gen::SPOT_CHECK, size.spot_checks) {
        if !same_rows(&reference.answers(&[point])[0], &check::naive(&data, point)) {
            return Err(format!(
                "reference engine disagrees with the naive join at {point:?}"
            ));
        }
    }
    let spot_secs = phase.elapsed().as_secs_f64();
    let phase = Instant::now();
    if !hot.is_empty() {
        for (i, rows) in reference.answers(&hot).iter().enumerate() {
            let expected = fingerprint(rows);
            let seen = lanes
                .iter()
                .map(|l| &l.hot_first)
                .chain(&warm_firsts)
                .map(|firsts| firsts[i]);
            tally.wrong += seen.flatten().filter(|&d| d != expected).count() as u64;
        }
    }
    tally.wrong += check_reads(&reference, reads, &log);
    notes.push(format!(
        "phases: count pass {count_secs:.1} s, window {window_secs:.1} s, naive spot check {spot_secs:.1} s, answer check {:.1} s",
        phase.elapsed().as_secs_f64()
    ));

    // Metrics.
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let untraced = sorted(
        lanes
            .iter()
            .flat_map(|l| &l.untraced_us)
            .map(|&us| us as f64),
    );
    let traced = sorted(lanes.iter().flat_map(|l| &l.traced_us).map(|&us| us as f64));
    // Each connection's reads per second of reading, per slice of 16
    // consecutive reads (for `ingest-notify`, per read phase). The median
    // slice is the connection's throughput and the connections' sum is
    // `query_qps`. CPU stalls of a few milliseconds, which a shared host
    // hands out more or less often from one minute to the next, land in
    // few slices and move it little; they show in `query_p99_us` and in
    // the "stalls" note.
    let lane_rates: Vec<Vec<f64>> = lanes
        .iter()
        .map(|l| {
            sorted(
                l.slices
                    .iter()
                    .map(|&(reads, secs)| ratio(reads as f64, secs)),
            )
        })
        .collect();
    let qps: f64 = lane_rates.iter().map(|r| quantile(r, 0.5)).sum();
    m.insert("query_p50_us", quantile(&untraced, 0.50));
    m.insert("query_p90_us", quantile(&untraced, 0.90));
    m.insert("query_p99_us", quantile(&untraced, 0.99));
    m.insert("query_qps", qps);
    m.insert("sum_depths_per_query", counts.sum_depths_per_query);
    m.insert(
        "setup_s",
        quantile(&sorted(setup_secs.iter().copied()), 0.5),
    );
    m.insert("peak_rss_mb", peak_rss_mb);
    notes.push(format!(
        "query latency: {} untraced samples ({} traced); p99 has {} samples beyond it",
        untraced.len(),
        traced.len(),
        untraced.len() - (0.99 * untraced.len() as f64).ceil() as usize
    ));
    let p50 = quantile(&untraced, 0.5);
    let stalled: Vec<f64> = untraced
        .iter()
        .copied()
        .filter(|&us| us > 10.0 * p50)
        .collect();
    notes.push(format!(
        "stalls: {} untraced reads over 10x the median took {:.1}% of the untraced reading time",
        stalled.len(),
        100.0 * ratio(stalled.iter().sum(), untraced.iter().sum())
    ));
    for (lane, rates) in lane_rates.iter().enumerate() {
        notes.push(format!(
            "query_qps: connection {lane}: median of {} slices, {:.1} to {:.1} 1/s",
            rates.len(),
            rates.first().copied().unwrap_or(0.0),
            rates.last().copied().unwrap_or(0.0)
        ));
    }
    notes.push(format!(
        "sum_depths_per_query: count pass of {} queries, {} executed",
        counts.reads.len(),
        counts.executed
    ));
    notes.push(format!("setup_s: median of {setup_secs:?}"));

    let appends = sorted(lanes.iter().flat_map(|l| l.appends.iter().copied()));
    let notifies = sorted(lanes.iter().flat_map(|l| l.notifies.iter().copied()));
    m.insert("append_p50_us", quantile(&appends, 0.5));
    m.insert("append_p90_us", quantile(&appends, 0.9));
    m.insert("mutations_per_s", notifies.len() as f64 / window_secs);
    m.insert("notify_p50_us", quantile(&notifies, 0.5));
    m.insert("notify_p90_us", quantile(&notifies, 0.9));
    if !appends.is_empty() {
        notes.push(format!(
            "ingest: {} appends acked, {} targeted notifications received",
            appends.len(),
            notifies.len()
        ));
    }
    let failed = tally.failed();
    m.insert("failed_ratio", ratio(failed as f64, tally.attempted as f64));
    notes.push(format!(
        "failed_ratio: {failed} failed / {} attempted ({} typed errors or timeouts, {} missing notifications, {} wrong answers)",
        tally.attempted, tally.errors, tally.missing, tally.wrong
    ));

    let mut layers = BTreeMap::new();
    if let Some(tracer) = &tracer {
        layers = trace::layer_table(&tracer.spans());
        let mean_us = |name: &str| {
            layers.get(name).map_or(0.0, |r: &LayerRow| {
                ratio(r.total_ns as f64, r.count as f64) / 1e3
            })
        };
        m.insert("api.encode_us", mean_us("api.encode"));
        m.insert("api.decode_us", mean_us("api.decode"));
        m.insert("api.wire_bytes_per_op", counts.wire_bytes_per_op);
        m.insert(
            "api.net_us",
            layers
                .get("client.topk")
                .map_or(0.0, |r| ratio(r.self_ns as f64, r.count as f64) / 1e3),
        );
        m.insert("engine.dispatch_topk_us", mean_us("engine.dispatch_topk"));
        m.insert("engine.plan_us", mean_us("engine.plan"));
        let queries = (after.stats.queries - before.stats.queries) as f64;
        let hits = (after.stats.cache_hits - before.stats.cache_hits) as f64;
        m.insert("engine.cache_hit_ratio", ratio(hits, queries));
        notes.push(format!(
            "engine.cache_hit_ratio: {hits} hits / {queries} queries in the window"
        ));
        m.insert(
            "engine.depth_amplification",
            ratio(counts.sum_depths_per_query, counts.core_depth_per_query),
        );
        notes.push(format!(
            "engine.depth_amplification: {:.2} served / {:.2} direct sorted accesses per query",
            counts.sum_depths_per_query, counts.core_depth_per_query
        ));
        m.insert("core.operator_us", mean_us("core.operator"));
        m.insert("core.depth_per_query", counts.core_depth_per_query);
        m.insert(
            "core.bound_updates_per_query",
            counts.bound_updates_per_query,
        );
        m.insert(
            "engine.dispatch_append_us",
            mean_us("engine.dispatch_append"),
        );
        m.insert(
            "engine.dispatch_register_ms",
            mean_us("engine.dispatch_register") / 1e3,
        );
        m.insert(
            "engine.compactions",
            before.delta(&after, "prj_compactions_total"),
        );
        m.insert(
            "engine.delta_tuples_max",
            lanes.iter().map(|l| l.delta_tuples_max).max().unwrap_or(0) as f64,
        );
        let mutations = appends.len() as f64;
        let reevals = before.delta(&after, "prj_subscription_reexecuted_units_total");
        let notified = before.delta(&after, "prj_subscription_notifications_total");
        let suppressed = before.delta(&after, "prj_subscription_suppressed_total");
        m.insert("sub.reevals_per_mutation", ratio(reevals, mutations));
        m.insert("sub.useful_ratio", ratio(notified, reevals));
        m.insert("sub.suppressed_per_mutation", ratio(suppressed, mutations));
        m.insert(
            "sub.server_delay_us",
            1e6 * ratio(
                before.delta(&after, "prj_sub_notify_delay_us_sum"),
                before.delta(&after, "prj_sub_notify_delay_us_count"),
            ),
        );
        notes.push(format!(
            "sub: {reevals} re-executed units, {notified} notifications, {suppressed} suppressed, over {mutations} mutations"
        ));
        let executed = (after.stats.executed - before.stats.executed) as f64;
        let remote = before.delta(&after, "prj_remote_units_total");
        let lane_micros = |s: &prj_api::StatsReport| {
            (
                s.shard_micros.iter().sum::<u64>() as f64,
                s.worker_shard_micros.iter().sum::<u64>() as f64,
            )
        };
        let (shard0, worker0) = lane_micros(&before.stats);
        let (shard1, worker1) = lane_micros(&after.stats);
        m.insert("cluster.remote_units_per_query", ratio(remote, executed));
        m.insert(
            "cluster.unit_overhead_us",
            ratio((shard1 - shard0) - (worker1 - worker0), remote),
        );
        m.insert(
            "cluster.failovers",
            before.delta(&after, "prj_failovers_total"),
        );
        notes.push(format!(
            "cluster: {remote} remote units over {executed} executed queries; coordinator lane {:.0} us, worker lane {:.0} us",
            shard1 - shard0,
            worker1 - worker0
        ));
        m.insert(
            "bench.tracing_overhead",
            ratio(quantile(&traced, 0.5), quantile(&untraced, 0.5)),
        );
        notes.push(format!(
            "bench.tracing_overhead: traced p50 {:.1} us / untraced p50 {:.1} us",
            quantile(&traced, 0.5),
            quantile(&untraced, 0.5)
        ));
        if let Some(path) = &config.span_file {
            tracer
                .write(path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            notes.push(format!("spans written to {}", path.display()));
        }
    }

    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed,
        metrics: m,
        notes,
        layers,
    })
}
