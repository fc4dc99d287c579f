//! `ingest-serve`: durable writes beside reads on ladder rung 10.
//!
//! The server is `KgServer::new_persistent` with `PersistConfig::new`, so
//! every acknowledged batch is fsynced. The base chunk is loaded at
//! construction and the other nine chunks arrive through `ingest`, as the
//! serving benchmark's scale ladder does. Automatic publication is off: the
//! client sends 64-update batches from the seeded update stream and calls
//! `flush_ingest` after every fourth, so publish points are deterministic,
//! then runs the four prepared statements of the serving mix on the new
//! epoch.
//!
//! Writes and reads take turns on one thread. With a separate reader and
//! writer on a two-core host, a read that starts as a publish begins waits
//! for the whole publish (0.3–0.8 s at rung 10); such reads are 0.6–2% of
//! all reads, so the read tail and read rate flipped between runs by up to
//! 30× and 2× and could bound no regression.

use crate::measure::{dir_bytes, fast_each, ms, peak_rss_mib, process_cpu, us, Samples};
use crate::oracle::Tally;
use crate::paper::query_and_trace_metrics;
use crate::serve::{build_references, requests, start_offset, DATASET_SEED, PREPARED_TEXTS};
use crate::trace::{Breakdown, Module, OpTiming, Recorder};
use crate::{Opts, Outcome};
use pgso_datagen::{load_into, streaming_updates, ScaleLadder, UpdateStreamConfig};
use pgso_graphstore::{GraphBackend, GraphUpdate, MemoryGraph};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, Ontology, StatisticsConfig};
use pgso_persist::JournaledGraph;
use pgso_pgschema::PropertyGraphSchema;
use pgso_server::{IngestConfig, KgServer, PersistConfig, PreparedStatement, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Chunk scale of the ladder: about 7.5k vertices per rung.
const LADDER_BASE_SCALE: f64 = 3.3;
const BATCH: usize = 64;
const BATCHES_PER_PUBLISH: usize = 4;
/// Reads after each publish: about a third of a cycle's time at rung 10.
/// The reads cycle through as many distinct requests, so every cycle
/// reads each one once.
const READS_PER_CYCLE: usize = 64;

struct Built {
    server: KgServer,
    handles: Vec<PreparedStatement>,
    ontology: Ontology,
    ladder: ScaleLadder,
    rung: usize,
    persist_dir: PathBuf,
    /// WAL size once set-up is done.
    wal_bytes: u64,
    generate_s: f64,
    load_opt_s: f64,
    build_s: f64,
}

fn build(opts: &Opts, round: usize, rec: &mut Recorder) -> Built {
    let (base_scale, rung) = if opts.tiny { (0.3, 2) } else { (LADDER_BASE_SCALE, 10) };
    let t0 = Instant::now();
    let ontology = catalog::medical();
    let statistics =
        DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), DATASET_SEED);
    let ladder = ScaleLadder::generate(&ontology, &statistics, base_scale, opts.seed, rung);
    let t1 = Instant::now();
    rec.span("datagen.generate", 0, 0, t0, t1);

    let persist_dir = opts.work_dir.join(format!("ingest-{round}"));
    let _ = std::fs::remove_dir_all(&persist_dir);
    let config = ServerConfig {
        auto_reoptimize: false,
        ingest: IngestConfig {
            publish_batch: usize::MAX,
            publish_interval: Duration::from_secs(3600),
        },
        ..ServerConfig::default()
    };
    let server = KgServer::new_persistent(
        ontology.clone(),
        statistics,
        ladder.base_chunk().clone(),
        AccessFrequencies::uniform(&ontology, 10_000.0),
        config,
        PersistConfig::new(&persist_dir),
    )
    .expect("persistent server builds in an empty directory");
    let t2 = Instant::now();
    rec.span("server.build", 0, 0, t1, t2);

    // Replaying the loader into a journaled scratch graph under the served
    // schema reproduces the update sequence the base epoch was built from;
    // its suffix past the base chunk is the rest of the rung.
    let schema = server.current_epoch().schema.clone();
    let mut scratch = JournaledGraph::new(MemoryGraph::new());
    load_into(&mut scratch, &ontology, &schema, ladder.base_chunk());
    let prefix = scratch.journal().len();
    for chunk in ladder.chunks_above_base(rung) {
        load_into(&mut scratch, &ontology, &schema, chunk);
    }
    let suffix = scratch.journal()[prefix..].to_vec();
    drop(scratch);
    let t3 = Instant::now();
    rec.span("datagen.load_opt", 0, 0, t2, t3);

    let wal_bytes = server.ingest(suffix).expect("ladder suffix is logged").wal_bytes;
    assert!(server.flush_ingest(), "ladder suffix publishes");
    let handles = PREPARED_TEXTS
        .iter()
        .map(|t| server.prepare_text(t).expect("benchmark statement prepares"))
        .collect();
    let t4 = Instant::now();
    rec.span("server.ingest", 0, 0, t3, t4);
    Built {
        server,
        handles,
        ontology,
        ladder,
        rung,
        persist_dir,
        wal_bytes,
        generate_s: (t1 - t0).as_secs_f64(),
        load_opt_s: (t3 - t2).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64() + (t4 - t3).as_secs_f64(),
    }
}

struct Reader {
    /// Untraced and traced read latencies in µs; a traced run alternates
    /// them.
    latency: [Samples; 2],
    /// Untraced latencies of each request, in µs.
    per_request: Vec<Samples>,
    breakdown: Breakdown,
    tally: Tally,
}

#[derive(Default)]
struct Writer {
    ack_ms: Samples,
    publish_ms: Samples,
    visible_ms: Samples,
    acked_updates: usize,
    acked_vertices: usize,
    acked_edges: usize,
    batches: usize,
    epochs: usize,
    wal_end: u64,
    breakdown: Breakdown,
    tally: Tally,
    exhausted: bool,
}

struct Phase {
    elapsed: Duration,
    cpu: Duration,
    cache_hit_ratio: f64,
    reader: Reader,
    writer: Writer,
}

/// The timed window: one client alternates cycles of [`BATCHES_PER_PUBLISH`]
/// durable write batches, the `flush_ingest` that publishes them, and
/// [`READS_PER_CYCLE`] reads of the serving mix, until the deadline.
fn measure(
    built: &Built,
    stream: &[GraphUpdate],
    opts: &Opts,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Phase {
    let reqs = requests(READS_PER_CYCLE);
    let cache0 = built.server.cache_stats();
    let cpu0 = process_cpu();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let server = &built.server;
    let mut r = Reader {
        latency: Default::default(),
        per_request: vec![Samples::default(); reqs.len()],
        breakdown: Breakdown::default(),
        tally: Tally::default(),
    };
    let mut w = Writer { wal_end: built.wal_bytes, ..Writer::default() };
    let mut batches = stream.chunks(BATCH).enumerate();
    let mut i = start_offset(opts.seed, 0, reqs.len());
    let mut n = 0u64;
    'run: loop {
        let mut unpublished: Vec<Instant> = Vec::new();
        for _ in 0..BATCHES_PER_PUBLISH {
            let Some((b, batch)) = batches.next() else {
                w.exhausted = true;
                break 'run;
            };
            let updates = batch.to_vec();
            let t0 = Instant::now();
            let report = server.ingest(updates);
            let t1 = Instant::now();
            rec.op(b as u64, "server.ingest", t0, t1, None);
            w.breakdown.add(&OpTiming { wall: t1 - t0, module: Module::Server, exec: None });
            let ok = report.as_ref().is_ok_and(|r| r.accepted == batch.len());
            if w.tally.check(ok, || "ingest.write".into()) {
                w.wal_end = report.expect("checked above").wal_bytes;
                w.ack_ms.push(ms(t1 - t0));
                w.acked_updates += batch.len();
                for u in batch {
                    match u {
                        GraphUpdate::AddVertex { .. } => w.acked_vertices += 1,
                        GraphUpdate::AddEdge { .. } => w.acked_edges += 1,
                    }
                }
                unpublished.push(t0);
            }
            w.batches += 1;
        }
        let f0 = Instant::now();
        let swapped = server.flush_ingest();
        let f1 = Instant::now();
        rec.op(w.batches as u64, "server.flush_ingest", f0, f1, None);
        w.publish_ms.push(ms(f1 - f0));
        w.epochs += usize::from(swapped);
        for t in unpublished {
            w.visible_ms.push(ms(f1 - t));
        }
        for _ in 0..READS_PER_CYCLE {
            // Alternate every four reads, so both halves run all four
            // statements.
            let traced = opts.trace && (n / 4) % 2 == 1;
            let k = i % reqs.len();
            let req = &reqs[k];
            let t0 = Instant::now();
            let result = server.execute(&built.handles[req.stmt], &req.params);
            let t1 = Instant::now();
            let wall = t1 - t0;
            r.latency[usize::from(traced)].push(us(wall));
            if !traced {
                r.per_request[k].push(us(wall));
            }
            let exec = result.as_ref().ok().map(|res| (res.elapsed, res.stage_timings));
            if traced {
                r.breakdown.add(&OpTiming { wall, module: Module::Server, exec });
                let exec = exec.as_ref().map(|(e, st)| (*e, st));
                rec.op(n, "server.execute", t0, t1, exec);
            }
            r.tally.check(result.is_ok(), || format!("ingest.read.s{}", req.stmt));
            i += 1;
            n += 1;
            if t1 >= deadline {
                break 'run;
            }
        }
    }
    let elapsed = start.elapsed();
    // Publish any acknowledged tail so the end-state check sees every ack;
    // this is after the timed window.
    if server.flush_ingest() {
        w.epochs += 1;
    }
    let cpu = process_cpu().saturating_sub(cpu0);
    let cache1 = built.server.cache_stats();
    let hits = cache1.hits - cache0.hits;
    let cache_hit_ratio = hits as f64 / (hits + cache1.misses - cache0.misses).max(1) as f64;
    out.tally.merge(std::mem::take(&mut r.tally));
    out.tally.merge(std::mem::take(&mut w.tally));
    if w.exhausted {
        out.lines
            .push("note: the writer used up the pre-generated stream before the deadline".into());
    }
    Phase { elapsed, cpu, cache_hit_ratio, reader: r, writer: w }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(&["paper.", "core.", "net.", "graphstore.page_"]);
    let mut rec = Recorder::new(opts.trace, Instant::now(), 0);
    let mut setup_s = Samples::default();
    let mut generate_s = Samples::default();
    let mut load_opt_s = Samples::default();
    let mut build_s = Samples::default();
    let mut built: Option<Built> = None;
    let mut round = 0;
    while opts.more_setups(round, Duration::from_secs_f64(setup_s.sum())) {
        if let Some(previous) = built.take() {
            let dir = previous.persist_dir.clone();
            drop(previous);
            let _ = std::fs::remove_dir_all(dir);
        }
        let b = build(opts, round, &mut rec);
        setup_s.push(b.generate_s + b.load_opt_s + b.build_s);
        generate_s.push(b.generate_s);
        load_opt_s.push(b.load_opt_s);
        build_s.push(b.build_s);
        built = Some(b);
        round += 1;
    }
    let built = built.expect("at least one set-up");

    // Untimed: a DIR graph of the whole rung checks the reader mix at the
    // first epoch and times it against the served schema.
    let l0 = Instant::now();
    let mut direct = MemoryGraph::new();
    let direct_schema = PropertyGraphSchema::direct_from_ontology(&built.ontology);
    built.ladder.load_rung(&mut direct, &built.ontology, &direct_schema, built.rung);
    let load_dir_s = l0.elapsed().as_secs_f64();
    let check_reqs = requests(if opts.tiny { 16 } else { 128 });
    let mut refs = build_references(&built.server, &built.handles, &direct, &check_reqs, 3);
    if opts.corrupt_reference {
        refs.dir[0].corrupt();
    }
    for (k, (d, s)) in refs.dir.iter().zip(&refs.served).enumerate() {
        out.tally.check(d == s, || format!("ingest.epoch0.s{}", check_reqs[k].stmt));
    }
    let payload_dir = direct.payload_bytes();
    let resident_dir = direct.resident_bytes();
    drop(direct);

    // The update stream, drawn from the seed against the served epoch and
    // sized above what the writer acknowledges in the window.
    let epoch = built.server.current_epoch();
    let base_vertices = epoch.graph().vertex_count();
    let base_edges = epoch.graph().edge_count();
    let entities = if opts.tiny { 512 } else { (opts.seconds * 1500.0) as usize + 2000 };
    let stream = streaming_updates(
        &built.ontology,
        &epoch.schema,
        epoch.graph(),
        entities,
        opts.seed,
        &UpdateStreamConfig::default(),
    );
    drop(epoch);
    let published_before = built.server.published_updates();

    let phase = measure(&built, &stream, opts, &mut out, &mut rec);
    let (r, w) = (&phase.reader, &phase.writer);

    // End-state oracle: every acknowledged update is published, and the
    // served graph holds exactly the base plus the acknowledged stream.
    let published = built.server.published_updates() - published_before;
    out.tally.check(published == w.acked_updates, || "ingest.acked-vs-published".into());
    let epoch = built.server.current_epoch();
    let (v, e) = (epoch.graph().vertex_count(), epoch.graph().edge_count());
    let (want_v, want_e) = (base_vertices + w.acked_vertices, base_edges + w.acked_edges);
    out.tally.check(v == want_v && e == want_e, || "ingest.final-counts".into());
    out.lines.push(format!(
        "end state: {} updates acknowledged, {published} published; vertices {v} (want {want_v}), \
         edges {e} (want {want_e})",
        w.acked_updates
    ));
    drop(epoch);

    // Every read request, write batch and publish takes the fast quantile
    // of its own repeats, which the host disturbed least (see
    // `measure::FAST_SHARE`). p50 and p90 are quantiles over the read
    // requests, and the rate is reads per second of a cycle, writes and
    // publish included, at those latencies; p99 is over every untraced read.
    let fast = fast_each(&r.per_request);
    let reads_us = fast.sum() / fast.len().max(1) as f64 * READS_PER_CYCLE as f64;
    let cycle_us =
        BATCHES_PER_PUBLISH as f64 * w.ack_ms.fast() * 1e3 + w.publish_ms.fast() * 1e3 + reads_us;
    let fast_qps = READS_PER_CYCLE as f64 / (cycle_us * 1e-6);
    let plain = &r.latency[0];
    let reads = r.latency[0].len() + r.latency[1].len();
    out.set("setup_s", setup_s.median(), "s", setup_s.len());
    out.set("read_p50_us", fast.quantile(0.5), "us", plain.len());
    out.set("read_p90_us", fast.quantile(0.9), "us", plain.len());
    out.set("read_p99_us", plain.quantile(0.99), "us", plain.len());
    out.set("read_qps", fast_qps, "ops/s", reads);
    out.lines.push(format!(
        "reads at each op's fast latency: {fast_qps:.1} ops/s; over the whole window: {:.1} ops/s",
        reads as f64 / phase.elapsed.as_secs_f64()
    ));
    out.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    out.set("speedup_min", refs.speedup, "ratio", check_reqs.len());
    let write_ups = w.acked_updates as f64 / phase.elapsed.as_secs_f64();
    out.lines.push(format!(
        "writes: ack p50 {:.3} ms p90 {:.3} ms (n={}), {write_ups:.0} updates/s, visible p50 {:.3} ms (n={}), \
         publish p50 {:.3} ms (n={})",
        w.ack_ms.median(),
        w.ack_ms.quantile(0.9),
        w.ack_ms.len(),
        w.visible_ms.median(),
        w.visible_ms.len(),
        w.publish_ms.median(),
        w.publish_ms.len()
    ));

    if opts.trace {
        out.set("datagen.generate_s", generate_s.median(), "s", generate_s.len());
        out.set("datagen.load_dir_s", load_dir_s, "s", 1);
        out.set("datagen.load_opt_s", load_opt_s.median(), "s", load_opt_s.len());
        let n = check_reqs.len();
        let per = |v: u64| v as f64 / n as f64;
        out.set("graphstore.vertex_reads_per_op", per(refs.stats.vertex_reads), "count", n);
        out.set("graphstore.edge_traversals_per_op", per(refs.stats.edge_traversals), "count", n);
        let epoch = built.server.current_epoch();
        out.set("graphstore.payload_bytes.dir", payload_dir as f64, "bytes", 1);
        out.set("graphstore.payload_bytes.opt", epoch.graph().payload_bytes() as f64, "bytes", 1);
        out.set("graphstore.resident_bytes.dir", resident_dir as f64, "bytes", 1);
        out.set("graphstore.resident_bytes.opt", epoch.graph().resident_bytes() as f64, "bytes", 1);
        drop(epoch);
        let traced = &r.latency[1];
        let (p50, traced_p50) = (plain.median(), traced.median());
        query_and_trace_metrics(&mut out, &r.breakdown, p50, traced_p50, traced.len());
        out.lines.push(r.breakdown.line("read"));
        out.lines.push(w.breakdown.line("write batch"));
        let traced = r.breakdown.ops as usize;
        out.set("server.build_s", build_s.median(), "s", build_s.len());
        out.set("server.engine_self_us", r.breakdown.per_op_us(r.breakdown.server), "us", traced);
        out.set("server.plan_cache_hit_ratio", phase.cache_hit_ratio, "ratio", reads);
        out.set("server.publish_ms.p50", w.publish_ms.median(), "ms", w.publish_ms.len());
        out.set("server.publish_ms.max", w.publish_ms.max(), "ms", w.publish_ms.len());
        out.set("server.epochs_published", w.epochs as f64, "count", 1);
        let wal_growth = w.wal_end.saturating_sub(built.wal_bytes) as f64;
        out.set(
            "persist.wal_bytes_per_update",
            wal_growth / w.acked_updates.max(1) as f64,
            "bytes",
            w.acked_updates,
        );
        out.set("persist.dir_bytes", dir_bytes(&built.persist_dir) as f64, "bytes", 1);
        let cpu_per_read = us(phase.cpu) / reads.max(1) as f64;
        out.set("proc.cpu_us_per_op", cpu_per_read, "us", reads);
        out.set("fail_frac", out.tally.fail_frac(), "ratio", out.tally.attempted as usize);
        out.set("write_p50_ms", w.ack_ms.median(), "ms", w.ack_ms.len());
        out.set("write_p90_ms", w.ack_ms.quantile(0.9), "ms", w.ack_ms.len());
        out.set("write_ups", write_ups, "updates/s", w.acked_updates);
        out.set("visible_p50_ms", w.visible_ms.median(), "ms", w.visible_ms.len());
        out.spans = Some(rec);
    }
    let dir = built.persist_dir.clone();
    drop(built);
    let _ = std::fs::remove_dir_all(dir);
    out
}
