//! `serve-inproc` and `serve-wire`: the four value-varying `$param`
//! statements of the serving benchmark, executed through `KgServer::execute`
//! from two client threads, or through one `KgClient` connection to a `KgListener`
//! on loopback at pipeline depth 1. Both are closed loops: each client
//! sends its next request when the previous reply is in.
//!
//! Data: MED with the small statistics (fixed at seed 42), instance scale
//! 0.05 drawn from `--seed`, uniform access frequencies, memory tier,
//! automatic re-optimization off.

use crate::measure::{fast_each, ms, peak_rss_mib, process_cpu, us, Samples, Timeline};
use crate::oracle::{RowSet, Tally};
use crate::paper::query_and_trace_metrics;
use crate::trace::{Breakdown, Module, OpTiming, Recorder};
use crate::{Opts, Outcome};
use pgso_datagen::{load_into, InstanceKg};
use pgso_graphstore::{AccessStats, GraphBackend, MemoryGraph};
use pgso_net::{KgClient, KgListener, NetConfig, NetPrepared};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, Ontology, StatisticsConfig};
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::{execute_statement, parse, Params, Statement};
use pgso_server::{KgServer, PreparedStatement, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DATASET_SEED: u64 = 42;

/// Parts of the timed window, each with fresh client threads.
const WINDOWS: usize = 10;

/// Latencies kept per request.
const REQUEST_CAP: usize = 512;

/// Client threads: [`Opts::clients`] in process, one connection over the
/// wire. With two connections on two cores, the two clients, the listener's
/// spinning loops and its workers outnumber the cores, and replies switched
/// between about 70 and 165 µs for seconds at a time.
fn clients(opts: &Opts, wire: bool) -> usize {
    if wire {
        1
    } else {
        opts.clients()
    }
}

/// The four `$param` statements of the serving benchmark's value-varying
/// mix, prepared once; every request binds its own values.
pub const PREPARED_TEXTS: [&str; 4] = [
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle \
     RETURN d.name ORDER BY d.name LIMIT $n",
    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name CONTAINS $needle \
     RETURN DISTINCT i.desc ORDER BY i.desc DESC LIMIT $n",
    "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
     WHERE p.mrn CONTAINS $needle RETURN p.mrn, e.encounterId SKIP $offset LIMIT $n",
    "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) WHERE d.name CONTAINS $needle \
     RETURN size(collect(dr.drugRouteId)) LIMIT $n",
];

/// The value set of request `i`: statement `i % 4` with needles, offsets
/// and limits that vary per request.
fn varying_params(i: usize) -> Params {
    match i % 4 {
        0 => Params::new()
            .set("needle", format!("Drug_name_{}", i / 4))
            .set("n", (1 + i % 16) as i64),
        1 => Params::new().set("needle", format!("_{}", i % 10)).set("n", (2 + i % 8) as i64),
        2 => Params::new()
            .set("needle", format!("{}", i % 7))
            .set("offset", (i % 3) as i64)
            .set("n", (4 + i % 12) as i64),
        _ => Params::new().set("needle", "Drug_name").set("n", (1 + i % 4) as i64),
    }
}

/// Distinct (statement, parameters) requests the clients cycle through.
pub const PAIRS: usize = 512;

/// A request: statement index into [`PREPARED_TEXTS`] and its values.
pub struct Request {
    pub stmt: usize,
    pub params: Params,
}

pub fn requests(count: usize) -> Vec<Request> {
    (0..count).map(|i| Request { stmt: i % 4, params: varying_params(i) }).collect()
}

/// Where client `t` starts in the request cycle: seeded, and far apart for
/// different clients.
pub fn start_offset(seed: u64, client: usize, cycle: usize) -> usize {
    ((seed as usize).wrapping_mul(7919) + client * cycle / 2) % cycle
}

/// Untimed per-request references and the DIR-vs-OPT comparison.
pub struct References {
    /// DIR rows of the bound statement on the direct graph.
    pub dir: Vec<RowSet>,
    /// Rows the server returns in process.
    pub served: Vec<RowSet>,
    pub dir_mismatches: usize,
    /// Σ median DIR executor time ÷ Σ median served executor time.
    pub speedup: f64,
    /// Storage counters of one served execution of each request.
    pub stats: AccessStats,
}

/// Runs every request on the DIR graph and through the server, `repeats`
/// times each, single-threaded.
pub fn build_references(
    server: &KgServer,
    handles: &[PreparedStatement],
    direct: &dyn GraphBackend,
    reqs: &[Request],
    repeats: usize,
) -> References {
    let parsed: Vec<Statement> =
        PREPARED_TEXTS.iter().map(|t| parse(t).expect("benchmark statement parses")).collect();
    let mut refs = References {
        dir: Vec::new(),
        served: Vec::new(),
        dir_mismatches: 0,
        speedup: 0.0,
        stats: AccessStats::default(),
    };
    let (mut dir_total, mut opt_total) = (0.0, 0.0);
    for req in reqs {
        let bound = parsed[req.stmt].bind(&req.params).expect("benchmark parameters bind");
        let mut dir_t = Samples::default();
        let mut opt_t = Samples::default();
        let mut dir_rows = None;
        let mut served_rows = None;
        for _ in 0..repeats {
            let d = execute_statement(&bound, direct);
            dir_t.push(d.elapsed.as_secs_f64());
            dir_rows.get_or_insert_with(|| RowSet::of(&d.rows));
            let o =
                server.execute(&handles[req.stmt], &req.params).expect("benchmark request binds");
            opt_t.push(o.elapsed.as_secs_f64());
            if served_rows.is_none() {
                refs.stats = refs.stats.merged(&o.stats);
                served_rows = Some(RowSet::of(&o.rows));
            }
        }
        dir_total += dir_t.median();
        opt_total += opt_t.median();
        let (d, s) = (dir_rows.expect("repeats >= 1"), served_rows.expect("repeats >= 1"));
        refs.dir_mismatches += usize::from(d != s);
        refs.dir.push(d);
        refs.served.push(s);
    }
    refs.speedup = dir_total / opt_total;
    refs
}

struct Client {
    client: KgClient,
    stmts: Vec<NetPrepared>,
}

struct Built {
    server: Arc<KgServer>,
    handles: Vec<PreparedStatement>,
    ontology: Ontology,
    instance: InstanceKg,
    listener: Option<KgListener>,
    clients: Vec<Client>,
    generate_s: f64,
    build_s: f64,
    connect_ms: Vec<f64>,
}

fn build(opts: &Opts, wire: bool, rec: &mut Recorder) -> Built {
    let scale = if opts.tiny { 0.005 } else { 0.05 };
    let t0 = Instant::now();
    let ontology = catalog::medical();
    let statistics =
        DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), DATASET_SEED);
    let instance = InstanceKg::generate(&ontology, &statistics, scale, opts.seed);
    let t1 = Instant::now();
    rec.span("datagen.generate", 0, 0, t0, t1);
    // The copy kept for the DIR reference graph is not set-up work.
    let kept = instance.clone();
    let t2 = Instant::now();
    let config = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let server =
        Arc::new(KgServer::new(ontology.clone(), statistics, instance, frequencies, config));
    let handles: Vec<PreparedStatement> = PREPARED_TEXTS
        .iter()
        .map(|t| server.prepare_text(t).expect("benchmark statement prepares"))
        .collect();
    let t3 = Instant::now();
    rec.span("server.build", 0, 0, t2, t3);
    let mut built = Built {
        server,
        handles,
        ontology,
        instance: kept,
        listener: None,
        clients: Vec::new(),
        generate_s: (t1 - t0).as_secs_f64(),
        build_s: (t3 - t2).as_secs_f64(),
        connect_ms: Vec::new(),
    };
    if wire {
        let t4 = Instant::now();
        let mut listener =
            KgListener::bind(built.server.clone(), "127.0.0.1:0", NetConfig::default())
                .expect("bind loopback listener");
        listener.serve().expect("start listener");
        let t5 = Instant::now();
        rec.span("net.listen", 0, 0, t4, t5);
        built.build_s += (t5 - t4).as_secs_f64();
        for _ in 0..clients(opts, wire) {
            let c0 = Instant::now();
            let mut client = KgClient::connect(listener.local_addr()).expect("connect to listener");
            let stmts = PREPARED_TEXTS
                .iter()
                .map(|t| client.prepare(t).expect("prepare over the wire"))
                .collect();
            let c1 = Instant::now();
            rec.span("net.connect", 0, 0, c0, c1);
            built.connect_ms.push(ms(c1 - c0));
            built.clients.push(Client { client, stmts });
        }
        built.listener = Some(listener);
    }
    built
}

impl Built {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.connect_ms.iter().sum::<f64>() / 1e3
    }

    fn close(self) {
        for c in self.clients {
            let _ = c.client.goodbye();
        }
        if let Some(listener) = self.listener {
            listener.shutdown();
        }
    }
}

/// What a client does on one op. An untraced run has only `Plain` ops. A
/// traced run interleaves traced ops with untraced ones, and on
/// `serve-wire` also in-process ones, so that tracing overhead and the
/// network hop are measured under the same conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain = 0,
    Traced = 1,
    InProcess = 2,
}

/// Kinds change every four ops, so each kind runs all four statements.
fn kind_of(trace: bool, wire: bool, n: usize) -> Kind {
    let block = n / PREPARED_TEXTS.len();
    match (trace, wire) {
        (false, _) => Kind::Plain,
        (true, false) => [Kind::Plain, Kind::Traced][block % 2],
        (true, true) => [Kind::Plain, Kind::Traced, Kind::InProcess][block % 3],
    }
}

struct Phase {
    ops: u64,
    cpu: Duration,
    /// Per [`Kind`].
    latency: [Timeline; 3],
    /// Untraced latencies of each request, in µs.
    per_request: Vec<Samples>,
    breakdown: [Breakdown; 3],
    cache_hit_ratio: f64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The closed loop: every client runs until the deadline. The window is cut
/// into equal parts with fresh client threads in each, so conditions a
/// thread keeps for its lifetime (core placement, memory layout) vary
/// within a run rather than between runs.
fn measure(
    built: &mut Built,
    reqs: &[Request],
    reference: &[RowSet],
    wire: bool,
    opts: &Opts,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Phase {
    let rec_ref = &*rec;
    let cache0 = built.server.cache_stats();
    let net0 = net_bytes(built.listener.as_ref());
    let cpu0 = process_cpu();
    let start = Instant::now();
    let timelines = || [0; 3].map(|_| Timeline::new(start, opts.seconds));
    let server = &built.server;
    let handles = &built.handles;
    let mut done = vec![0usize; clients(opts, wire)];
    let mut results = Vec::new();
    let per_request_samples = || vec![Samples::bounded(REQUEST_CAP); reqs.len()];
    let mut per_request = per_request_samples();
    for window in 1..=WINDOWS {
        let deadline =
            start + Duration::from_secs_f64(opts.seconds * window as f64 / WINDOWS as f64);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            let mut clients = built.clients.iter_mut();
            for (t, &n0) in done.iter().enumerate() {
                let mut client = if wire { clients.next() } else { None };
                joins.push(scope.spawn(move || {
                    let mut latency = timelines();
                    let mut mine = per_request_samples();
                    let mut breakdown: [Breakdown; 3] = Default::default();
                    let mut tally = Tally::default();
                    let mut spans = rec_ref.fork(t as u64 + 1);
                    let first = start_offset(opts.seed, t, reqs.len());
                    let mut n = n0;
                    loop {
                        let k = (first + n) % reqs.len();
                        let req = &reqs[k];
                        let kind = kind_of(opts.trace, wire, n);
                        let t0 = Instant::now();
                        let (rows, exec, module) = match client.as_deref_mut() {
                            Some(c) if kind != Kind::InProcess => (
                                c.client
                                    .execute(&c.stmts[req.stmt], &req.params)
                                    .map(|res| RowSet::of(&res.rows))
                                    .ok(),
                                None,
                                Module::Net,
                            ),
                            _ => match server.execute(&handles[req.stmt], &req.params) {
                                Ok(res) => (
                                    Some(RowSet::of(&res.rows)),
                                    Some((res.elapsed, res.stage_timings)),
                                    Module::Server,
                                ),
                                Err(_) => (None, None, Module::Server),
                            },
                        };
                        let t1 = Instant::now();
                        let wall = t1 - t0;
                        latency[kind as usize].record(t1, wall);
                        if kind == Kind::Plain {
                            mine[k].push(us(wall));
                        }
                        breakdown[kind as usize].add(&OpTiming { wall, module, exec });
                        if kind == Kind::Traced {
                            let call = if wire { "net.execute" } else { "server.execute" };
                            let exec = exec.as_ref().map(|(e, st)| (*e, st));
                            spans.op(n as u64, call, t0, t1, exec);
                        }
                        let ok = rows.as_ref() == Some(&reference[k]);
                        let path = if module == Module::Net { "wire" } else { "inproc" };
                        tally.check(ok, || format!("{path}.s{}", req.stmt));
                        n += 1;
                        if t1 >= deadline {
                            break;
                        }
                    }
                    (n, latency, mine, breakdown, tally, spans)
                }));
            }
            joins.into_iter().map(|j| j.join().expect("client thread panicked")).collect()
        });
        for (t, (n, latency, mine, breakdown, tally, spans)) in joined.into_iter().enumerate() {
            done[t] = n;
            per_request.iter_mut().zip(&mine).for_each(|(all, m)| all.merge_bounded(m));
            results.push((latency, breakdown, tally, spans));
        }
    }
    let cpu = process_cpu().saturating_sub(cpu0);
    let cache1 = built.server.cache_stats();
    let net1 = net_bytes(built.listener.as_ref());
    let hits = cache1.hits - cache0.hits;
    let mut phase = Phase {
        ops: 0,
        cpu,
        latency: timelines(),
        per_request,
        breakdown: Default::default(),
        cache_hit_ratio: hits as f64 / (hits + cache1.misses - cache0.misses).max(1) as f64,
        bytes_in: net1.0 - net0.0,
        bytes_out: net1.1 - net0.1,
    };
    for (latency, breakdown, tally, spans) in results {
        for kind in 0..3 {
            phase.latency[kind].merge(&latency[kind]);
            phase.breakdown[kind].merge(&breakdown[kind]);
        }
        out.tally.merge(tally);
        rec.merge(spans);
    }
    phase.ops = phase.latency.iter().map(Timeline::ops).sum();
    phase
}

fn net_bytes(listener: Option<&KgListener>) -> (u64, u64) {
    listener.map_or((0, 0), |l| {
        let r = l.run_report();
        (r.bytes_in, r.bytes_out)
    })
}

pub fn run(opts: &Opts, wire: bool) -> Outcome {
    let common =
        ["paper.", "core.", "datagen.load_opt_s", "server.publish_ms.", "server.epochs_published"];
    let mut out = Outcome::new(&common);
    out.idle.extend(["persist.", "write_", "visible_"]);
    if !wire {
        out.idle.push("net.");
    }
    let mut rec = Recorder::new(opts.trace, Instant::now(), 0);
    let mut setup_s = Samples::default();
    let mut generate_s = Samples::default();
    let mut build_s = Samples::default();
    let mut connect_ms = Samples::default();
    let mut built = None;
    while opts.more_setups(setup_s.len(), Duration::from_secs_f64(setup_s.sum())) {
        if let Some(previous) = built.take() {
            Built::close(previous);
        }
        let b = build(opts, wire, &mut rec);
        setup_s.push(b.setup_s());
        generate_s.push(b.generate_s);
        build_s.push(b.build_s);
        b.connect_ms.iter().for_each(|c| connect_ms.push(*c));
        built = Some(b);
    }
    let mut built = built.expect("at least one set-up");

    // Untimed references on a DIR graph of the same instance.
    let l0 = Instant::now();
    let mut direct = MemoryGraph::new();
    let direct_schema = PropertyGraphSchema::direct_from_ontology(&built.ontology);
    load_into(&mut direct, &built.ontology, &direct_schema, &built.instance);
    let load_dir_s = l0.elapsed().as_secs_f64();
    let reqs = requests(if opts.tiny { 64 } else { PAIRS });
    let refs = build_references(&built.server, &built.handles, &direct, &reqs, 3);
    out.lines.push(format!(
        "reference: {} of {} requests differ between DIR and the served schema",
        refs.dir_mismatches,
        reqs.len()
    ));
    // serve-inproc checks against DIR rows; serve-wire against the rows
    // the same server returns in process.
    let mut reference = if wire { refs.served.clone() } else { refs.dir.clone() };
    if opts.corrupt_reference {
        reference[0].corrupt();
    }

    let phase = measure(&mut built, &reqs, &reference, wire, opts, &mut out, &mut rec);
    // Every request's latency is the fast quantile of its own repeats,
    // which the host disturbed least (see `measure::FAST_SHARE`). The
    // clients cycle through the requests, so p50 and p90 are quantiles over
    // requests, and the rate is that of the clients' loops at those
    // latencies; p99 is over every untraced op.
    let fast = fast_each(&phase.per_request);
    let plain = &phase.latency[Kind::Plain as usize];
    let fast_qps = clients(opts, wire) as f64 * fast.len() as f64 / (fast.sum() * 1e-6);
    out.set("setup_s", setup_s.median(), "s", setup_s.len());
    out.set("read_p50_us", fast.quantile(0.5), "us", plain.samples());
    out.set("read_p90_us", fast.quantile(0.9), "us", plain.samples());
    out.set("read_p99_us", plain.quantile(0.99), "us", plain.samples());
    out.set("read_qps", fast_qps, "ops/s", plain.ops() as usize);
    out.lines.push(format!(
        "reads at each request's fast latency: {fast_qps:.0} ops/s; over the whole window: {:.0} ops/s",
        plain.ops() as f64 / opts.seconds
    ));
    out.lines.push(format!("reads {}", plain.describe()));
    out.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    out.set("speedup_min", refs.speedup, "ratio", reqs.len());

    if opts.trace {
        let traced = &phase.breakdown[Kind::Traced as usize];
        out.set("datagen.generate_s", generate_s.median(), "s", generate_s.len());
        out.set("datagen.load_dir_s", load_dir_s, "s", 1);
        let n = reqs.len();
        let per = |v: u64| v as f64 / n as f64;
        out.set("graphstore.vertex_reads_per_op", per(refs.stats.vertex_reads), "count", n);
        out.set("graphstore.edge_traversals_per_op", per(refs.stats.edge_traversals), "count", n);
        out.set("graphstore.page_reads_per_op", per(refs.stats.page_reads), "count", n);
        out.set("graphstore.page_hit_ratio", 0.0, "ratio", 0);
        let epoch = built.server.current_epoch();
        out.set("graphstore.payload_bytes.dir", direct.payload_bytes() as f64, "bytes", 1);
        out.set("graphstore.payload_bytes.opt", epoch.graph().payload_bytes() as f64, "bytes", 1);
        out.set("graphstore.resident_bytes.dir", direct.resident_bytes() as f64, "bytes", 1);
        out.set("graphstore.resident_bytes.opt", epoch.graph().resident_bytes() as f64, "bytes", 1);
        drop(epoch);

        let traced_reads = &phase.latency[Kind::Traced as usize];
        query_and_trace_metrics(
            &mut out,
            traced,
            plain.quantile(0.5),
            traced_reads.quantile(0.5),
            traced_reads.samples(),
        );
        out.lines.push(traced.line(if wire { "wire read" } else { "in-process read" }));
        let engine = &phase.breakdown[if wire { Kind::InProcess } else { Kind::Traced } as usize];
        out.set("server.build_s", build_s.median(), "s", build_s.len());
        out.set(
            "server.engine_self_us",
            engine.per_op_us(engine.server),
            "us",
            engine.ops as usize,
        );
        out.set("server.plan_cache_hit_ratio", phase.cache_hit_ratio, "ratio", phase.ops as usize);
        if wire {
            let inproc = &phase.latency[Kind::InProcess as usize];
            let wire_ops = plain.ops() + phase.latency[Kind::Traced as usize].ops();
            let per_op = |bytes: u64| bytes as f64 / wire_ops.max(1) as f64;
            out.set("net.connect_ms", connect_ms.median(), "ms", connect_ms.len());
            out.set("net.bytes_in_per_op", per_op(phase.bytes_in), "bytes", wire_ops as usize);
            out.set("net.bytes_out_per_op", per_op(phase.bytes_out), "bytes", wire_ops as usize);
            out.set(
                "net.hop_us",
                plain.quantile(0.5) - inproc.quantile(0.5),
                "us",
                inproc.samples(),
            );
            out.lines.push(engine.line("in-process read (hop baseline)"));
        }
        out.set(
            "proc.cpu_us_per_op",
            us(phase.cpu) / phase.ops.max(1) as f64,
            "us",
            phase.ops as usize,
        );
        out.set("fail_frac", out.tally.fail_frac(), "ratio", out.tally.attempted as usize);
        out.spans = Some(rec);
    }
    built.close();
    out
}
