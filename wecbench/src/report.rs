//! The declared metrics, order statistics, and the result line.

use std::fmt::Write as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The end-to-end metrics every untraced run reports, with units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("writes_per_edge", "writes/edge"),
    ("work_per_edge", "work/edge"),
    ("qps", "queries/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("reads_per_query", "words/query"),
    ("writes_per_query", "words/query"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reads 0 there (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("core.decomp_build_s", "s"),
    ("core.decomp_build_seq_s", "s"),
    ("core.decomp_writes", "writes"),
    ("connectivity.oracle_build_s", "s"),
    ("connectivity.oracle_build_seq_s", "s"),
    ("connectivity.oracle_writes", "writes"),
    ("connectivity.oracle_depth", "depth"),
    ("connectivity.sec42_s", "s"),
    ("connectivity.sec42_seq_s", "s"),
    ("connectivity.sec42_writes", "writes"),
    ("connectivity.star_s", "s"),
    ("connectivity.star_seq_s", "s"),
    ("connectivity.star_writes", "writes"),
    ("prims.ldd_s", "s"),
    ("prims.ldd_writes", "writes"),
    ("biconnectivity.oracle_build_s", "s"),
    ("biconnectivity.oracle_build_seq_s", "s"),
    ("biconnectivity.oracle_writes", "writes"),
    ("biconnectivity.oracle_depth", "depth"),
    ("connectivity.query_us", "us"),
    ("connectivity.query_reads", "words/query"),
    ("biconnectivity.query_us", "us"),
    ("biconnectivity.query_reads", "words/query"),
    ("serve.flush_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.batch_size", "queries"),
    ("serve.oracle_share", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions_per_query", "count/query"),
    ("serve.epoch.apply_us", "us"),
    ("serve.epoch.writes_per_install", "writes"),
    ("serve.epoch.invalidated_per_install", "count"),
    ("serve.epoch.installs", "count"),
    ("serve.wire.pump_us", "us"),
    ("serve.wire.tick_us", "us"),
    ("serve.wire.frames_per_query", "count/query"),
    ("serve.wire.ops_per_query", "ops/query"),
    ("serve.wire.rounds_p99", "pumps"),
    ("shims.rayon.steals", "count"),
    ("shims.rayon.parks", "count"),
    ("shims.rayon.blocked_joins", "count"),
    ("shims.rayon.published", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: answered queries, or build rounds.
    pub attempted: u64,
    /// Typed errors + wrong answers + unanswered + failed build checks.
    pub failed: u64,
    /// Measured values by declared metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable context lines printed above the metrics (sample
    /// counts, sizes).
    pub notes: Vec<String>,
}

/// One declared metric with its measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The `declared` metrics in order, valued from `out`; a declared metric
/// the run did not measure reads 0.
///
/// # Panics
/// When the run measured a name that is not declared (a typo).
pub fn arrange(out: &Outcome, declared: &[(&'static str, &'static str)]) -> Vec<Metric> {
    for (name, _) in &out.values {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared"
        );
    }
    declared
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: out
                .values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
            unit,
        })
        .collect()
}

/// Segments each timed serving loop is split into, by answers delivered.
pub const SEGMENTS: usize = 80;

/// The fastest quarter (at least one) of `cost` — seconds per unit of work
/// of equal-work samples: build rounds, set-ups, or `query_cold`'s
/// segments — as indices, fastest first.
///
/// The host's CPU speed swings by up to 1.8× from one second to the next
/// while its ceiling holds steady, so timings of equal-work samples are
/// taken over their fastest quarter: a program that gets slower moves them
/// all, a noisy neighbour moves only the rest.
pub fn fastest_quarter(cost: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..cost.len()).collect();
    idx.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
    idx.truncate(cost.len().div_ceil(4));
    idx
}

/// The fastest quarter of `secs`, as values.
pub fn fast(secs: &[f64]) -> Vec<f64> {
    fastest_quarter(secs).into_iter().map(|i| secs[i]).collect()
}

/// One segment of a timed loop: how many answers it delivered, its wall
/// time, and its latency quantiles.
#[derive(Debug, Clone)]
pub struct Segment {
    pub answers: usize,
    pub secs: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Splits a timed loop into [`SEGMENTS`] segments by answers delivered,
/// keeping each segment's latency quantiles rather than its samples.
pub struct Marks {
    start: std::time::Instant,
    every: usize,
    lat_ns: Vec<u32>,
    segments: Vec<Segment>,
    from: f64,
}

impl Marks {
    /// Start the clock for a loop that will deliver `total` answers.
    pub fn start(total: usize) -> Self {
        let every = (total / SEGMENTS).max(1);
        Marks {
            start: std::time::Instant::now(),
            every,
            lat_ns: Vec::with_capacity(every + SEGMENTS),
            segments: Vec::new(),
            from: 0.0,
        }
    }

    /// One answer's submit-to-delivery latency.
    pub fn record(&mut self, ns: u32) {
        self.lat_ns.push(ns);
    }

    /// Close the segment once it holds its share of answers.
    pub fn note(&mut self) {
        if self.lat_ns.len() >= self.every {
            self.close();
        }
    }

    fn close(&mut self) {
        let now = self.start.elapsed().as_secs_f64();
        self.segments.push(Segment {
            answers: self.lat_ns.len(),
            secs: now - self.from,
            p50_us: quantile_ns_us(&mut self.lat_ns, 0.5),
            p99_us: quantile_ns_us(&mut self.lat_ns, 0.99),
        });
        self.lat_ns.clear();
        self.from = now;
    }

    /// Close the last segment; returns the segments and the loop's wall
    /// time.
    pub fn finish(mut self) -> (Vec<Segment>, f64) {
        if !self.lat_ns.is_empty() {
            self.close();
        }
        (self.segments, self.from)
    }
}

/// Latency samples a [`Reservoir`] keeps.
pub const RESERVOIR: usize = 1 << 18;

/// A uniform sample of at most [`RESERVOIR`] values of a stream (Algorithm
/// R, seeded), so a long loop's latency record has a fixed size.
pub struct Reservoir {
    pub ns: Vec<u32>,
    seen: u64,
    rng: SmallRng,
}

impl Reservoir {
    pub fn new(seed: u64) -> Self {
        Reservoir {
            ns: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x5a3e),
        }
    }

    pub fn push(&mut self, x: u32) {
        self.seen += 1;
        if self.ns.len() < RESERVOIR {
            self.ns.push(x);
        } else if let Some(slot) = self.ns.get_mut(self.rng.gen_range(0..self.seen) as usize) {
            *slot = x;
        }
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// The `q`-quantile (nearest rank) of nanosecond samples, in µs; 0 when
/// empty. Reorders `ns` in place.
pub fn quantile_ns_us(ns: &mut [u32], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let k = rank(ns.len(), q);
    let (_, x, _) = ns.select_nth_unstable(k);
    f64::from(*x) / 1e3
}

fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Nanoseconds since `t0`, saturated into a `u32` (4.29 s).
pub fn ns_since(t0: std::time::Instant, now: std::time::Instant) -> u32 {
    u32::try_from(now.duration_since(t0).as_nanos()).unwrap_or(u32::MAX)
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`; 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values are written as 0 so the line always
/// parses.
pub fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    )
    .expect("writing to a String cannot fail");
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let mut ns = [3000u32, 1000, 2000];
        assert_eq!(quantile_ns_us(&mut ns, 0.5), 2.0);
    }

    #[test]
    fn fastest_quarter_rounds_up() {
        assert_eq!(fastest_quarter(&[4.0, 1.0, 3.0, 2.0, 5.0]), vec![1, 3]);
        assert_eq!(fast(&[2.0]), vec![2.0]);
        assert!(fastest_quarter(&[]).is_empty());
    }

    #[test]
    fn reservoir_keeps_a_fixed_size_sample() {
        let mut r = Reservoir::new(1);
        for x in 0..3 * RESERVOIR as u32 {
            r.push(x);
        }
        assert_eq!(r.ns.len(), RESERVOIR);
        // A uniform sample of 0..3R has its median near 1.5R.
        let mid = quantile_ns_us(&mut r.ns, 0.5) * 1e3 / RESERVOIR as f64;
        assert!((mid - 1.5).abs() < 0.05, "{mid}");
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let out = Outcome {
            attempted: 3,
            values: vec![("qps", 1.5), ("setup_s", f64::NAN)],
            ..Outcome::default()
        };
        let line = result_json(&out, &arrange(&out, &END_TO_END[..5]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"build_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"writes_per_edge\": {\"value\": 0.0, \"unit\": \"writes/edge\"}, \
             \"work_per_edge\": {\"value\": 0.0, \"unit\": \"work/edge\"}, \
             \"qps\": {\"value\": 1.5, \"unit\": \"queries/s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        let out = Outcome {
            values: vec![("qsp", 1.0)],
            ..Outcome::default()
        };
        arrange(&out, END_TO_END);
    }
}
