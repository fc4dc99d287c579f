//! `paper-dirvsopt`: the Fig. 12 15-query mix on MED and FIN, DIR on the
//! direct graph against the pre-rewritten OPT statements on the optimized
//! graph, on `MemoryGraph` and on `DiskGraph` with an 8-page pool. One
//! thread; each op is one `execute_statement`.
//!
//! The dataset definitions (ontology, statistics, Zipf access frequencies)
//! are fixed at seed 42 as in `reproduce`; `--seed` draws the instance.
//! The scale is 0.05, a quarter of `reproduce`'s 0.2, so that three
//! set-ups and the timed loop fit in one run.

use crate::measure::{ms, peak_rss_mib, process_cpu, us, Samples};
use crate::oracle::RowSet;
use crate::trace::{Breakdown, Module, OpTiming, Recorder, STAGES};
use crate::{Opts, Outcome};
use pgso_bench::{figure12_workload, DatasetId, Workbench};
use pgso_core::{optimize_nsc, OptimizerConfig};
use pgso_datagen::{load_into, InstanceKg};
use pgso_graphstore::{AccessStats, DiskGraph, DiskGraphConfig, GraphBackend, MemoryGraph};
use pgso_ontology::WorkloadDistribution;
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::{execute_statement, rewrite_statement, Statement};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

const DATASET_SEED: u64 = 42;
const POOL_PAGES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    Dir,
    Opt,
}

impl Side {
    fn label(self) -> &'static str {
        match self {
            Side::Dir => "dir",
            Side::Opt => "opt",
        }
    }
}

struct Dataset {
    id: DatasetId,
    direct: Vec<Statement>,
    optimized: Vec<Statement>,
    reference: HashMap<String, RowSet>,
}

struct Cell {
    dataset: usize,
    backend: &'static str,
    direct: Box<dyn GraphBackend>,
    optimized: Box<dyn GraphBackend>,
}

struct Setup {
    datasets: Vec<Dataset>,
    cells: Vec<Cell>,
}

/// Set-up phase durations of one set-up, in seconds.
#[derive(Default)]
struct Phases {
    generate: f64,
    optimize: f64,
    load_dir: f64,
    load_opt: f64,
}

fn build(opts: &Opts, round: usize, root: u64, rec: &mut Recorder, phases: &mut Phases) -> Setup {
    let scale = if opts.tiny { 0.005 } else { 0.05 };
    let disk = DiskGraphConfig::with_pool_pages(POOL_PAGES);
    let dir = opts.work_dir.join(format!("paper-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create disk-graph directory");
    let mut datasets = Vec::new();
    let mut cells = Vec::new();
    for (index, id) in [DatasetId::Med, DatasetId::Fin].into_iter().enumerate() {
        let t0 = Instant::now();
        let wb = Workbench::new(id, WorkloadDistribution::default_zipf(), DATASET_SEED);
        let instance = InstanceKg::generate(&wb.ontology, &wb.statistics, scale, opts.seed);
        let t1 = Instant::now();
        rec.span("datagen.generate", root, 0, t0, t1);
        let optimized_schema = optimize_nsc(wb.input(), &OptimizerConfig::default()).schema;
        let t2 = Instant::now();
        rec.span("core.optimize", root, 0, t1, t2);
        let direct_schema = PropertyGraphSchema::direct_from_ontology(&wb.ontology);

        let load = |schema: &PropertyGraphSchema, file: Option<String>| -> Box<dyn GraphBackend> {
            match file {
                None => {
                    let mut g = MemoryGraph::new();
                    load_into(&mut g, &wb.ontology, schema, &instance);
                    Box::new(g)
                }
                Some(file) => {
                    let mut g = DiskGraph::create(dir.join(file), disk).expect("create disk graph");
                    load_into(&mut g, &wb.ontology, schema, &instance);
                    g.flush().expect("flush disk graph");
                    Box::new(g)
                }
            }
        };
        let label = id.label();
        let t3 = Instant::now();
        let mem_dir = load(&direct_schema, None);
        let disk_dir = load(&direct_schema, Some(format!("{label}-direct.store")));
        let t4 = Instant::now();
        rec.span("datagen.load_dir", root, 0, t3, t4);
        let mem_opt = load(&optimized_schema, None);
        let disk_opt = load(&optimized_schema, Some(format!("{label}-optimized.store")));
        let t5 = Instant::now();
        rec.span("datagen.load_opt", root, 0, t4, t5);
        phases.generate += (t1 - t0).as_secs_f64();
        phases.optimize += (t2 - t1).as_secs_f64();
        phases.load_dir += (t4 - t3).as_secs_f64();
        phases.load_opt += (t5 - t4).as_secs_f64();

        let direct = figure12_workload(id);
        let optimized = direct.iter().map(|q| rewrite_statement(q, &optimized_schema)).collect();
        datasets.push(Dataset { id, direct, optimized, reference: HashMap::new() });
        cells.push(Cell { dataset: index, backend: "memory", direct: mem_dir, optimized: mem_opt });
        cells.push(Cell { dataset: index, backend: "disk", direct: disk_dir, optimized: disk_opt });
    }
    Setup { datasets, cells }
}

/// Untimed references: each distinct query's DIR rows on the memory graph.
/// The disk graph's DIR rows must agree, or the reference is not trusted.
fn build_references(setup: &mut Setup, opts: &Opts, out: &mut Outcome) {
    for cell in &setup.cells {
        let dataset = &mut setup.datasets[cell.dataset];
        for stmt in &dataset.direct {
            let rows = RowSet::of(&execute_statement(stmt, cell.direct.as_ref()).rows);
            match dataset.reference.get(&stmt.name) {
                None => {
                    dataset.reference.insert(stmt.name.clone(), rows);
                }
                Some(reference) if *reference != rows => out.broken(format!(
                    "{} {} DIR rows differ between backends",
                    dataset.id.label(),
                    stmt.name
                )),
                Some(_) => {}
            }
        }
    }
    if opts.corrupt_reference {
        let first = setup.datasets[0].direct[0].name.clone();
        setup.datasets[0].reference.get_mut(&first).expect("reference exists").corrupt();
    }
}

/// Everything the timed loop measured.
struct Phase {
    elapsed: Duration,
    ops: u64,
    cpu: Duration,
    /// OPT op latencies of untraced and traced rounds, in µs.
    opt_us: [Samples; 2],
    /// (dataset, backend, side) -> per-pass mix time in ms.
    mix_ms: BTreeMap<(&'static str, &'static str, Side), Samples>,
    /// (dataset, backend) -> DIR ÷ OPT mix time of each round; the two
    /// passes of a pair run back to back, so the host's drift cancels.
    pair_speedup: BTreeMap<(&'static str, &'static str), Samples>,
    /// (dataset, backend, query, side) -> op latency in µs.
    query_us: BTreeMap<(&'static str, &'static str, String, Side), Samples>,
    opt_stats: AccessStats,
    opt_disk_stats: AccessStats,
    opt_breakdown: Breakdown,
}

/// Runs passes over every cell until `seconds` are up. In a traced run,
/// every other pair of rounds records spans, so traced and untraced ops
/// share the same conditions; the side order flips every round.
fn measure(setup: &Setup, out: &mut Outcome, rec: &mut Recorder, seconds: f64) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        elapsed: Duration::ZERO,
        ops: 0,
        cpu: Duration::ZERO,
        opt_us: Default::default(),
        mix_ms: BTreeMap::new(),
        pair_speedup: BTreeMap::new(),
        query_us: BTreeMap::new(),
        opt_stats: AccessStats::default(),
        opt_disk_stats: AccessStats::default(),
        opt_breakdown: Breakdown::default(),
    };
    let cpu0 = process_cpu();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let traced = rec.is_on() && (round / 2) % 2 == 1;
        for cell in &setup.cells {
            let dataset = &setup.datasets[cell.dataset];
            let label = dataset.id.label();
            let sides = if round.is_multiple_of(2) {
                [Side::Dir, Side::Opt]
            } else {
                [Side::Opt, Side::Dir]
            };
            let mut mix_of = BTreeMap::new();
            for side in sides {
                let (stmts, graph) = match side {
                    Side::Dir => (&dataset.direct, cell.direct.as_ref()),
                    Side::Opt => (&dataset.optimized, cell.optimized.as_ref()),
                };
                let mut mix = Duration::ZERO;
                // Rewritten statements may be renamed; the DIR name keys both.
                for (stmt, name) in stmts.iter().zip(dataset.direct.iter().map(|q| &q.name)) {
                    let t0 = Instant::now();
                    let result = execute_statement(stmt, graph);
                    let t1 = Instant::now();
                    let latency = t1 - t0;
                    mix += latency;
                    phase.ops += 1;
                    if !traced {
                        let key = (label, cell.backend, name.clone(), side);
                        phase.query_us.entry(key).or_default().push(us(latency));
                    }
                    if side == Side::Opt {
                        phase.opt_us[usize::from(traced)].push(us(latency));
                        let target = if cell.backend == "disk" {
                            &mut phase.opt_disk_stats
                        } else {
                            &mut phase.opt_stats
                        };
                        *target = target.merged(&result.stats);
                        phase.opt_breakdown.add(&OpTiming {
                            wall: latency,
                            module: Module::Query,
                            exec: Some((result.elapsed, result.stage_timings)),
                        });
                    }
                    if traced {
                        let exec = Some((result.elapsed, &result.stage_timings));
                        rec.op(phase.ops, "query.execute_statement", t0, t1, exec);
                    }
                    let ok = RowSet::of(&result.rows) == dataset.reference[name];
                    out.tally
                        .check(ok, || format!("{label}.{name}.{}.{}", side.label(), cell.backend));
                }
                phase.mix_ms.entry((label, cell.backend, side)).or_default().push(ms(mix));
                mix_of.insert(side, mix);
            }
            let pair = mix_of[&Side::Dir].as_secs_f64() / mix_of[&Side::Opt].as_secs_f64();
            phase.pair_speedup.entry((label, cell.backend)).or_default().push(pair);
        }
        round += 1;
    }
    phase.elapsed = start.elapsed();
    phase.cpu = process_cpu().saturating_sub(cpu0);
    phase
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(&["server.", "persist.", "net.", "write_", "visible_"]);
    let mut rec = Recorder::new(opts.trace, Instant::now(), 0);

    let mut setup_s = Samples::default();
    let mut phases_all: Vec<Phases> = Vec::new();
    let mut setup = None;
    let mut round = 0;
    while opts.more_setups(round, Duration::from_secs_f64(setup_s.sum())) {
        drop(setup.take());
        let mut phases = Phases::default();
        let root = rec.reserve();
        let t0 = Instant::now();
        let built = build(opts, round, root, &mut rec, &mut phases);
        let t1 = Instant::now();
        rec.span_with_id(root, "setup", 0, 0, t0, t1);
        setup_s.push((t1 - t0).as_secs_f64());
        phases_all.push(phases);
        setup = Some(built);
        round += 1;
    }
    let mut setup = setup.expect("at least one set-up");
    build_references(&mut setup, opts, &mut out);

    let phase = measure(&setup, &mut out, &mut rec, opts.seconds);

    // Every op's latency is the fast quantile of its own untraced repeats,
    // which the host disturbed least (see `measure::FAST_SHARE`).
    // p50 and p90 are quantiles of one OPT pass over every cell at those
    // latencies, and the rate is that of a round of DIR and OPT passes at
    // them; p99 is over every untraced OPT op.
    let mut fast_opt = Samples::default();
    let mut fast_round_us = 0.0;
    for cell in &setup.cells {
        let dataset = &setup.datasets[cell.dataset];
        for name in dataset.direct.iter().map(|q| &q.name) {
            for side in [Side::Dir, Side::Opt] {
                let key = (dataset.id.label(), cell.backend, name.clone(), side);
                let latency = phase.query_us[&key].fast();
                fast_round_us += latency;
                if side == Side::Opt {
                    fast_opt.push(latency);
                }
            }
        }
    }
    let untraced = &phase.opt_us[0];
    out.set("setup_s", setup_s.median(), "s", setup_s.len());
    out.set("read_p50_us", fast_opt.quantile(0.5), "us", untraced.len());
    out.set("read_p90_us", fast_opt.quantile(0.9), "us", untraced.len());
    out.set("read_p99_us", untraced.quantile(0.99), "us", untraced.len());
    let round_ops = 2 * fast_opt.len();
    out.set("read_qps", round_ops as f64 / (fast_round_us * 1e-6), "ops/s", phase.ops as usize);
    out.lines.push(format!(
        "rounds at each op's fast latency: {:.1} ops/s; over the whole window: {:.1} ops/s",
        round_ops as f64 / (fast_round_us * 1e-6),
        phase.ops as f64 / phase.elapsed.as_secs_f64()
    ));
    out.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    let mut speedup_min = f64::INFINITY;
    let mut passes = 0;
    for dataset in &setup.datasets {
        for backend in ["memory", "disk"] {
            let label = dataset.id.label();
            let dir = &phase.mix_ms[&(label, backend, Side::Dir)];
            let opt = &phase.mix_ms[&(label, backend, Side::Opt)];
            let speedup = phase.pair_speedup[&(label, backend)].median();
            speedup_min = speedup_min.min(speedup);
            passes = opt.len();
            out.lines.push(format!(
                "cell {label} {backend}: DIR {:.3} ms OPT {:.3} ms per 15-query pass, DIR/OPT x{speedup:.3} median of pairs (n={})",
                dir.median(),
                opt.median(),
                opt.len()
            ));
        }
    }
    out.set("speedup_min", speedup_min, "ratio", passes);

    if opts.trace {
        per_layer(&mut out, &setup, &phases_all, &phase, &rec);
        out.spans = Some(rec);
    }
    out
}

fn per_layer(out: &mut Outcome, setup: &Setup, phases: &[Phases], t: &Phase, rec: &Recorder) {
    let median = |f: fn(&Phases) -> f64| {
        let mut s = Samples::default();
        phases.iter().for_each(|p| s.push(f(p)));
        s.median()
    };
    let n = phases.len();
    out.set("datagen.generate_s", median(|p| p.generate), "s", n);
    out.set("datagen.load_dir_s", median(|p| p.load_dir), "s", n);
    out.set("datagen.load_opt_s", median(|p| p.load_opt), "s", n);
    out.set("core.optimize_ms", median(|p| p.optimize) * 1e3, "ms", n);

    let n_opt = t.opt_breakdown.ops as usize;
    let all = t.opt_stats.merged(&t.opt_disk_stats);
    let per_op = |v: u64| v as f64 / n_opt.max(1) as f64;
    out.set("graphstore.vertex_reads_per_op", per_op(all.vertex_reads), "count", n_opt);
    out.set("graphstore.edge_traversals_per_op", per_op(all.edge_traversals), "count", n_opt);
    out.set("graphstore.page_reads_per_op", per_op(all.page_reads), "count", n_opt);
    let disk = &t.opt_disk_stats;
    let touched = disk.page_hits + disk.page_reads;
    out.set(
        "graphstore.page_hit_ratio",
        disk.page_hits as f64 / touched.max(1) as f64,
        "ratio",
        touched as usize,
    );
    let (mut pd, mut po, mut rd, mut ro) = (0, 0, 0, 0);
    for c in setup.cells.iter().filter(|c| c.backend == "memory") {
        pd += c.direct.payload_bytes();
        po += c.optimized.payload_bytes();
        rd += c.direct.resident_bytes();
        ro += c.optimized.resident_bytes();
    }
    out.set("graphstore.payload_bytes.dir", pd as f64, "bytes", 2);
    out.set("graphstore.payload_bytes.opt", po as f64, "bytes", 2);
    out.set("graphstore.resident_bytes.dir", rd as f64, "bytes", 2);
    out.set("graphstore.resident_bytes.opt", ro as f64, "bytes", 2);

    let p50 = |s: &Samples| s.quantile(0.5);
    let (untraced, traced) = (&t.opt_us[0], &t.opt_us[1]);
    query_and_trace_metrics(out, &t.opt_breakdown, p50(untraced), p50(traced), traced.len());
    out.lines.push(t.opt_breakdown.line("OPT read"));
    for (name, secs) in crate::trace::self_times(rec.spans()) {
        if !name.starts_with("query.") {
            out.lines.push(format!("setup self time {name}: {secs:.3} s over {n} set-ups"));
        }
    }
    out.set("proc.cpu_us_per_op", us(t.cpu) / t.ops.max(1) as f64, "us", t.ops as usize);
    out.set("fail_frac", out.tally.fail_frac(), "ratio", out.tally.attempted as usize);

    for ((ds, backend, query, side), samples) in &t.query_us {
        let name = format!("paper.{ds}.{backend}.{query}.{}_us", side.label());
        out.set(name, samples.median(), "us", samples.len());
    }
    for ((ds, backend, side), samples) in &t.mix_ms {
        out.set(
            format!("paper.{ds}.{backend}.{}_ms", side.label()),
            samples.median(),
            "ms",
            samples.len(),
        );
        if *side == Side::Opt {
            let speedup = t.pair_speedup[&(*ds, *backend)].median();
            out.set(format!("paper.{ds}.{backend}.speedup"), speedup, "ratio", samples.len());
        }
    }
}

/// The `query.exec.*`, `trace.*` and module self-time metrics shared by
/// every workload whose reads return executor timings.
pub fn query_and_trace_metrics(
    out: &mut Outcome,
    b: &Breakdown,
    untraced_p50: f64,
    traced_p50: f64,
    traced_samples: usize,
) {
    let n = b.ops as usize;
    for (stage, secs) in STAGES.iter().zip(b.stages) {
        out.set(format!("query.exec.{stage}_us"), b.per_op_us(secs), "us", n);
    }
    out.set("query.exec.unstaged_us", b.per_op_us(b.unstaged), "us", n);
    out.set("trace.self_us.query", b.per_op_us(b.query()), "us", n);
    out.set("trace.self_us.server", b.per_op_us(b.server), "us", n);
    out.set("trace.self_us.net", b.per_op_us(b.net), "us", n);
    out.set("trace.self_us.unattributed", b.per_op_us(b.unattributed), "us", n);
    out.set("trace.unattributed_frac", b.unattributed_frac(), "ratio", n);
    let overhead = if untraced_p50 > 0.0 { traced_p50 / untraced_p50 - 1.0 } else { 0.0 };
    out.set("trace.overhead_frac", overhead, "ratio", traced_samples);
}
