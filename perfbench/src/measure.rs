//! Sample statistics and process counters read from `/proc/self`.

use std::time::{Duration, Instant};

/// Latency or duration samples of one kind, in the unit they were pushed in.
///
/// A bounded set keeps a uniform sample of at most `cap` values (reservoir
/// sampling with a fixed-seed generator), so a fast closed loop does not
/// grow the process footprint that `peak_rss_mb` reports.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    cap: usize,
    seen: usize,
    rng: u64,
}

impl Samples {
    pub fn bounded(cap: usize) -> Self {
        Self { values: Vec::with_capacity(cap), cap, seen: 0, rng: 0x9e37_79b9_7f4a_7c15 }
    }

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.cap == 0 || self.values.len() < self.cap {
            self.values.push(value);
            return;
        }
        // xorshift64; replace a random slot with probability cap / seen.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = (self.rng % self.seen as u64) as usize;
        if slot < self.cap {
            self.values[slot] = value;
        }
    }

    /// Appends every value kept by `other`; the result is unbounded.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.seen += other.seen;
    }

    /// Merges another thread's samples of the same kind, keeping the bound.
    pub fn merge_bounded(&mut self, other: &Samples) {
        if self.cap == 0 && other.cap != 0 {
            *self = Samples::bounded(other.cap);
        }
        let seen = self.seen + other.seen;
        for &v in &other.values {
            self.push(v);
        }
        self.seen = seen;
    }

    /// Values pushed, kept or not.
    pub fn len(&self) -> usize {
        self.seen
    }

    /// Sum of the kept values (all of them for an unbounded set).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The [`FAST_SHARE`] quantile.
    pub fn fast(&self) -> f64 {
        self.quantile(FAST_SHARE)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

/// Which quantile of an operation's own repeats stands for its latency in
/// the gated figures: the fastest hundredth. On a shared 2-vCPU host each
/// vCPU switched between two speeds about 1.5x apart every second or so,
/// with no CPU steal to show for it. An operation cannot run faster than
/// the program allows, so its fastest repeats are the ones that ran at the
/// host's full speed. Over seven runs of every workload, this quantile
/// spread 0.06-0.12 of its median; the 5th percentile 0.07-0.46 and the
/// median 0.04-0.56.
pub const FAST_SHARE: f64 = 0.01;

/// The fast latency of each operation that ran at least once.
pub fn fast_each<'a>(ops: impl IntoIterator<Item = &'a Samples>) -> Samples {
    let mut fast = Samples::default();
    ops.into_iter().filter(|s| s.len() > 0).for_each(|s| fast.push(s.fast()));
    fast
}

/// Latencies and completions of one closed loop, split into equal time
/// slices for the report.
#[derive(Debug, Clone)]
pub struct Timeline {
    start: Instant,
    slice: Duration,
    counts: Vec<u64>,
    latency_us: Vec<Samples>,
}

/// Slices per timed window.
const SLICES: usize = 30;
/// Latencies kept per slice.
const SLICE_CAP: usize = 4_000;

impl Timeline {
    pub fn new(start: Instant, seconds: f64) -> Self {
        Self {
            start,
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
            counts: vec![0; SLICES],
            latency_us: vec![Samples::default(); SLICES],
        }
    }

    fn index(&self, end: Instant) -> usize {
        let offset = end.saturating_duration_since(self.start).as_secs_f64();
        ((offset / self.slice.as_secs_f64()) as usize).min(SLICES - 1)
    }

    /// Counts one completed op and keeps its latency.
    pub fn record(&mut self, end: Instant, latency: Duration) {
        let i = self.index(end);
        self.counts[i] += 1;
        let slice = &mut self.latency_us[i];
        if slice.cap == 0 {
            *slice = Samples::bounded(SLICE_CAP);
        }
        slice.push(us(latency));
    }

    pub fn merge(&mut self, other: &Timeline) {
        for i in 0..SLICES {
            self.counts[i] += other.counts[i];
            self.latency_us[i].merge_bounded(&other.latency_us[i]);
        }
    }

    pub fn ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Latencies kept, over all slices.
    pub fn samples(&self) -> usize {
        self.latency_us.iter().map(Samples::len).sum()
    }

    /// Nearest-rank quantile of the latencies of all slices.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut pooled = Samples::default();
        self.latency_us.iter().for_each(|s| pooled.extend(s));
        pooled.quantile(q)
    }

    /// Per-slice completions per second and p50, for the report.
    pub fn describe(&self) -> String {
        let secs = self.slice.as_secs_f64();
        let slices: Vec<String> = (0..SLICES)
            .map(|i| {
                format!("{:.0}/{:.1}", self.counts[i] as f64 / secs, self.latency_us[i].median())
            })
            .collect();
        format!("slices (ops/s / p50 us): {}", slices.join(" "))
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process so far. `/proc/self/stat`
/// counts in clock ticks of `USER_HZ`, which Linux fixes at 100 per second
/// for user space.
pub fn process_cpu() -> Duration {
    const USER_HZ: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    let ticks = tick(11) + tick(12);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn bounded_samples_keep_a_uniform_subset() {
        let mut s = Samples::bounded(1000);
        for v in 0..100_000 {
            s.push(v as f64);
        }
        assert_eq!(s.len(), 100_000);
        assert_eq!(s.values.len(), 1000);
        assert!((s.median() - 50_000.0).abs() < 5_000.0, "median {}", s.median());
    }

    #[test]
    fn fast_is_the_low_tail_of_the_repeats() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.fast(), 1.0);
    }

    #[test]
    fn bounded_merge_keeps_the_bound_and_the_count() {
        let mut a = Samples::bounded(100);
        let mut b = Samples::bounded(100);
        (0..500).for_each(|v| a.push(v as f64));
        (0..300).for_each(|v| b.push(v as f64));
        a.merge_bounded(&b);
        assert_eq!(a.len(), 800);
        assert_eq!(a.values.len(), 100);
    }

    #[test]
    fn timeline_pools_its_slices() {
        let start = Instant::now();
        let mut t = Timeline::new(start, SLICES as f64 * 0.1);
        (0..3).for_each(|i| {
            t.record(start + Duration::from_millis(250 * i), Duration::from_micros(7))
        });
        assert_eq!(t.ops(), 3);
        assert_eq!(t.samples(), 3);
        assert_eq!(t.quantile(0.99), 7.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {}
        assert!(process_cpu() > Duration::ZERO);
    }
}
