//! `perfbench`: the row-checked benchmark of the pgso workspace.
//!
//! One command runs one workload closed-loop for a fixed time, checks every
//! answer against a reference built before timing, and prints every metric
//! declared in `BENCHMARK.json` by name, unit and sample count. The last
//! line of standard output is the machine-readable result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-dirvsopt --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from an untraced run;
//! `--trace 1` interleaves traced with untraced operations and reports the
//! per-layer metrics, each module's self time, the unattributed remainder
//! and the tracing overhead. Run it from the repository root: scratch files
//! go to `.perfbench-work/`, span dumps to `.perfbench-out/`.

mod catalog;
mod ingest;
mod measure;
mod oracle;
mod paper;
mod serve;
mod trace;

use oracle::Tally;
use std::collections::BTreeMap;

/// The seed kept out of tuning, for checking later claims on inputs not
/// used while a change was written. The default seed is 42.
const HOLDOUT_SEED: u64 = 7;
use std::path::{Path, PathBuf};
use trace::Recorder;

/// Options every workload receives. The program under test sees only the
/// inputs the workload generates from `seed`.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test size: tiny inputs, one set-up, a fraction of a second.
    pub tiny: bool,
    /// Self-test hook: corrupt one reference row before timing.
    pub corrupt_reference: bool,
    /// Scratch directory for disk graphs and WAL directories.
    pub work_dir: PathBuf,
}

impl Opts {
    /// Whether to run set-up again after `done` set-ups that took `spent`
    /// in all; `setup_s` is the median. At least three, and cheap set-ups
    /// repeat until a second is spent (at most 25) for a steadier median.
    pub fn more_setups(&self, done: usize, spent: std::time::Duration) -> bool {
        if self.tiny {
            return done < 1;
        }
        done < 3 || (done < 25 && spent < std::time::Duration::from_secs(1))
    }

    /// Client threads and connections: two, or fewer on a smaller host.
    pub fn clients(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    /// Name prefixes of per-layer metrics for layers this workload does
    /// not run; they report 0.
    pub idle: Vec<&'static str>,
    pub tally: Tally,
    /// False when a check that is not an operation failed: references that
    /// disagree among themselves, or a broken end-state invariant.
    pub correct: bool,
    pub lines: Vec<String>,
    pub spans: Option<Recorder>,
}

impl Outcome {
    pub fn new(idle: &[&'static str]) -> Self {
        Self {
            metrics: BTreeMap::new(),
            idle: idle.to_vec(),
            tally: Tally::default(),
            correct: true,
            lines: Vec::new(),
            spans: None,
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name.into(), Metric { value, unit, samples });
    }

    /// Marks the run incorrect and says why.
    pub fn broken(&mut self, why: String) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {why}"));
    }
}

pub fn run_workload(name: &str, opts: &Opts) -> Outcome {
    match name {
        "paper-dirvsopt" => paper::run(opts),
        "serve-inproc" => serve::run(opts, false),
        "serve-wire" => serve::run(opts, true),
        "ingest-serve" => ingest::run(opts),
        other => panic!("unknown workload {other}"),
    }
}

/// The declared metrics of one mode, with the values the run produced.
/// Errors name every declared metric that is missing, in another unit or
/// not finite.
pub fn select(outcome: &Outcome, trace: bool) -> Result<Vec<(String, Metric)>, String> {
    let cat = catalog::catalog();
    let declared = if trace { &cat.per_layer } else { &cat.end_to_end };
    let mut out = Vec::new();
    let mut problems = Vec::new();
    for d in declared {
        let metric = match outcome.metrics.get(&d.name) {
            Some(m) => *m,
            None if trace && outcome.idle.iter().any(|p| d.name.starts_with(p)) => {
                Metric { value: 0.0, unit: unit_str(&d.unit), samples: 0 }
            }
            None => {
                problems.push(format!("{} not produced", d.name));
                continue;
            }
        };
        if metric.unit != d.unit {
            problems.push(format!("{} in {} but declared in {}", d.name, metric.unit, d.unit));
        } else if !metric.value.is_finite() {
            problems.push(format!("{} is not finite", d.name));
        } else {
            out.push((d.name.clone(), metric));
        }
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("; "))
    }
}

/// Declared units are few; map them to the static strings workloads use.
fn unit_str(unit: &str) -> &'static str {
    ["s", "ms", "us", "ops/s", "MiB", "ratio", "count", "bytes", "updates/s"]
        .into_iter()
        .find(|u| *u == unit)
        .unwrap_or("unknown")
}

fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "none (not a git checkout)".into()
    };
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "host: cores={cores} cpu={} rustc={} git_rev={git} source_digest={:016x} profile={profile}",
        catalog::quote(&cpu),
        catalog::quote(&rustc),
        source_digest()
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the path and contents of every source file the benchmark
/// builds from, so a result names the code it measured even where the
/// checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml" || e == "lock") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn usage(problem: &str) -> ! {
    let names = catalog::catalog().workloads.join("|");
    eprintln!("perfbench: {problem}");
    eprintln!("usage: perfbench --workload <{names}> [--seed N] [--seconds S] [--trace 0|1]");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(seconds > 0.0 && seconds <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !catalog::catalog().workloads.contains(&workload) {
        usage(&format!("unknown workload {workload}"));
    }

    let work = WorkDir(
        PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id())),
    );
    std::fs::create_dir_all(&work.0).expect("create .perfbench-work scratch directory");
    let opts = Opts {
        seed,
        seconds,
        trace,
        tiny: false,
        corrupt_reference: false,
        work_dir: work.0.clone(),
    };
    println!("{}", host_stamp());
    println!(
        "run: workload={workload} seed={seed} seconds={seconds} trace={} max_clients={} \
         (holdout seed for later claims: {HOLDOUT_SEED})",
        u8::from(trace),
        opts.clients()
    );

    let mut outcome = run_workload(&workload, &opts);
    if outcome.tally.attempted == 0 {
        outcome.broken("no operation was attempted".into());
    }

    for (name, m) in &outcome.metrics {
        println!("metric {name} = {} {} (n={})", m.value, m.unit, m.samples);
    }
    for line in outcome.tally.lines().iter().chain(&outcome.lines) {
        println!("{line}");
    }
    println!(
        "fail_frac = {} ({} failed of {} attempted)",
        outcome.tally.fail_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    if let Some(spans) = &outcome.spans {
        let dir = Path::new(".perfbench-out");
        let path = dir.join(format!("spans-{workload}-seed{seed}.tsv"));
        match std::fs::create_dir_all(dir).and_then(|()| spans.write_tsv(&path)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    let selected = match select(&outcome, trace) {
        Ok(selected) => selected,
        Err(problems) => {
            eprintln!("perfbench: declared metrics missing or malformed: {problems}");
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                catalog::quote(name),
                m.value,
                catalog::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod selftest {
    //! Tiny runs of every workload: every declared metric is produced in
    //! its declared unit in both modes, and a corrupted reference row is
    //! counted as a failure.
    use super::*;

    fn tiny(name: &str, trace: bool, corrupt: bool) -> Outcome {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-work")
            .join(format!("selftest-{name}-{trace}-{corrupt}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let opts = Opts {
            seed: 3,
            seconds: 0.4,
            trace,
            tiny: true,
            corrupt_reference: corrupt,
            work_dir: dir.clone(),
        };
        let outcome = run_workload(name, &opts);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    }

    fn check_declared(name: &str) {
        for trace in [false, true] {
            let outcome = tiny(name, trace, false);
            if let Err(problems) = select(&outcome, trace) {
                panic!("{name} trace={trace}: {problems}");
            }
            assert!(outcome.tally.attempted > 0, "{name} attempted nothing");
            assert!(outcome.correct, "{name} trace={trace}: {:?}", outcome.lines);
            assert_eq!(outcome.spans.is_some(), trace);
        }
    }

    fn check_corruption_counts(name: &str) {
        let clean = tiny(name, false, false);
        let corrupt = tiny(name, false, true);
        assert!(
            corrupt.tally.failed > clean.tally.failed,
            "{name}: a corrupted reference row must count as a failure ({} vs {})",
            corrupt.tally.failed,
            clean.tally.failed
        );
    }

    #[test]
    fn paper_dirvsopt_declares_and_checks() {
        check_declared("paper-dirvsopt");
        check_corruption_counts("paper-dirvsopt");
    }

    #[test]
    fn serve_inproc_declares_and_checks() {
        check_declared("serve-inproc");
        check_corruption_counts("serve-inproc");
    }

    #[test]
    fn serve_wire_declares_and_checks() {
        check_declared("serve-wire");
        check_corruption_counts("serve-wire");
    }

    #[test]
    fn ingest_serve_declares_and_checks() {
        check_declared("ingest-serve");
        check_corruption_counts("ingest-serve");
    }
}
