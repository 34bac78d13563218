//! Timing series, summary statistics, the host probe and the run context.
//!
//! Nothing here calls into the program under test. The host probe in
//! particular is a fixed piece of work of the benchmark's own, timed next to
//! the program's units all through a run. On a shared host the CPU runs
//! faster or slower for minutes at a time as neighbours come and go; the
//! probe slows with it, so each unit's latency is also reported at the
//! reference host speed: its wall time scaled by the probe's reference time
//! over the probe's time around that unit.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds elapsed since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// The median of `xs` (mean of the middle pair for even counts); NaN when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least ten samples beyond it, with its nearest-rank value.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .map(|permille| (permille, (permille * n).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .map(|(permille, rank)| (permille as f64 / 10.0, v[rank - 1]))
}

/// Timed samples, each with the host factor in force when it was taken
/// (see [`HostClock::factor`]).
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Wall times, in the series' unit.
    pub raw: Vec<f64>,
    /// The host factor of each sample.
    pub host: Vec<f64>,
}

impl Series {
    /// Adds one sample.
    pub fn push(&mut self, raw: f64, host: f64) {
        self.raw.push(raw);
        self.host.push(host);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Series) {
        self.raw.extend_from_slice(&other.raw);
        self.host.extend_from_slice(&other.host);
    }

    /// The samples at the reference host speed.
    #[must_use]
    pub fn at_reference(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.host)
            .map(|(r, h)| r / h)
            .collect()
    }

    /// Median at the reference host speed.
    #[must_use]
    pub fn median(&self) -> f64 {
        median(&self.at_reference())
    }

    /// Median of the wall times.
    #[must_use]
    pub fn raw_median(&self) -> f64 {
        median(&self.raw)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the series has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

/// A named series of timed units.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Display name, e.g. `iter_ms.exact.early`.
    pub name: String,
    /// Unit of every sample.
    pub unit: &'static str,
    /// The samples, in the order they were taken.
    pub series: Series,
}

impl Timing {
    /// A timing series.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, series: Series) -> Self {
        Self {
            name: name.into(),
            unit,
            series,
        }
    }

    /// One human-readable report line: the median at the reference host
    /// speed, the wall-time median, the tail percentile (reference speed)
    /// and the count.
    #[must_use]
    pub fn line(&self) -> String {
        let tail = match tail(&self.series.at_reference()) {
            Some((p, v)) => format!("p{p}={v:.4}"),
            None => "tail=n/a".to_string(),
        };
        format!(
            "  {:<28} {:>6}  median={:.4}  wall={:.4}  {tail}  n={}",
            self.name,
            self.unit,
            self.series.median(),
            self.series.raw_median(),
            self.series.len()
        )
    }
}

/// The band of the unit at 0-based `position` among `n`: 0 for the first
/// fifth (early), 1 for the last fifth (late), `None` in between.
#[must_use]
pub fn band(position: usize, n: usize) -> Option<usize> {
    let fifth = (n / 5).max(1);
    if position < fifth {
        Some(0)
    } else if position >= n.saturating_sub(fifth) && position < n {
        Some(1)
    } else {
        None
    }
}

/// The probe's time at the reference host speed, ms: what it reads on the
/// development host (Intel Xeon, Sapphire Rapids, 2 vCPUs) in a quiet
/// phase. It only sets the scale of the reference-speed figures.
pub const REFERENCE_PROBE_MS: f64 = 0.21;

/// Readings kept for the rolling host factor.
const WINDOW: usize = 7;

/// Least time between two probes, ms, so the probe costs a few percent of
/// a run at most.
const SPACING_MS: f64 = 20.0;

/// A fixed piece of host work of the benchmark's own, in two parts of
/// about equal time. The first is latency-bound: sort 2048 numbers,
/// descend an implicit 2048-node search tree for 4096 queries, and copy the
/// result through 32 small heap blocks. The second is throughput-bound: a
/// branch-free gather-accumulate over a 64 KB table. Program work lies
/// between the two. On the development host a slow phase stretched the
/// first part 1.5x, the second 1.75x, the exact engine's predict 1.3x and
/// the fast engine's flat predict 2x; the mix sits between the fit modes.
pub struct Probe {
    data: Vec<f64>,
    queries: Vec<f64>,
    table: Vec<f64>,
    gathers: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let data = (0..2048).map(|_| unit()).collect();
        let queries = (0..4096).map(|_| unit()).collect();
        let table = (0..8192).map(|_| unit()).collect();
        Self {
            data,
            queries,
            table,
            gathers: (0..1 << 16).map(|_| (next() % 8192) as u32).collect(),
        }
    }
}

impl Probe {
    #[inline(never)]
    fn once(&self) {
        fn fill(sorted: &[f64], tree: &mut [f64], next: &mut usize, k: usize) {
            if k < tree.len() {
                fill(sorted, tree, next, 2 * k);
                tree[k] = sorted[*next];
                *next += 1;
                fill(sorted, tree, next, 2 * k + 1);
            }
        }
        let mut sorted = black_box(&self.data).clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut tree = vec![0.0; n + 1];
        fill(&sorted, &mut tree, &mut 0, 1);
        let mut leaves = 0usize;
        for &q in black_box(&self.queries) {
            let mut k = 1;
            while k <= n {
                k = 2 * k + usize::from(tree[k] < q);
            }
            leaves = leaves.wrapping_add(k);
        }
        let blocks: Vec<Vec<f64>> = sorted.chunks(64).map(<[f64]>::to_vec).collect();
        let total: f64 = blocks.iter().map(|b| b.iter().sum::<f64>()).sum();
        let mut acc = [0.0f64; 4];
        for _ in 0..2 {
            for (k, &i) in black_box(&self.gathers).iter().enumerate() {
                acc[k & 3] += self.table[i as usize] * 1.000_001;
            }
        }
        black_box((leaves, total, acc));
    }

    /// Milliseconds the probe takes: the faster of two back-to-back passes,
    /// so the first pass brings the probe's data into cache whatever ran
    /// before it.
    #[must_use]
    pub fn time(&self) -> f64 {
        (0..2)
            .map(|_| timed(|| self.once()).1)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The host's current speed, from probes taken all through a run.
pub struct HostClock {
    probe: Probe,
    recent: Vec<f64>,
    last: Instant,
    /// Every probe reading, ms.
    pub readings: Vec<f64>,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut clock = Self {
            probe: Probe::default(),
            recent: Vec::new(),
            last: Instant::now(),
            readings: Vec::new(),
        };
        for _ in 0..WINDOW {
            clock.sample();
        }
        clock
    }
}

impl HostClock {
    fn sample(&mut self) {
        let ms = self.probe.time();
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ms);
        self.readings.push(ms);
        self.last = Instant::now();
    }

    /// Takes a probe if the last one is at least [`SPACING_MS`] old. Call
    /// it between units, never inside one.
    pub fn tick(&mut self) {
        if ms_since(self.last) >= SPACING_MS {
            self.sample();
        }
    }

    /// How much slower than the reference the host runs now: the median of
    /// the last few probe readings over [`REFERENCE_PROBE_MS`].
    #[must_use]
    pub fn factor(&self) -> f64 {
        median(&self.recent) / REFERENCE_PROBE_MS
    }

    /// The median of a few fresh probe readings, for the run context
    /// before and after the measured work.
    pub fn fresh_median(&mut self) -> f64 {
        for _ in 0..WINDOW {
            self.sample();
        }
        median(&self.recent)
    }
}

/// The process's peak resident set size in MB, from `/proc/self/status`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point wins).
#[must_use]
pub fn fs_type(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_tail_and_bands() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 15]).is_none());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let early = (0..100).filter(|&p| band(p, 100) == Some(0)).count();
        let late: Vec<usize> = (0..100).filter(|&p| band(p, 100) == Some(1)).collect();
        assert_eq!(early, 20);
        assert_eq!((late.len(), late[0]), (20, 80));
        assert_eq!(band(100, 100), None);
        assert_eq!(band(usize::MAX, 100), None);
    }

    #[test]
    fn reference_speed_scales_by_the_host_factor() {
        let mut s = Series::default();
        s.push(10.0, 2.0);
        s.push(6.0, 1.0);
        s.push(3.0, 0.5);
        assert_eq!(s.at_reference(), vec![5.0, 6.0, 6.0]);
        assert_eq!((s.median(), s.raw_median()), (6.0, 6.0));
    }
}
