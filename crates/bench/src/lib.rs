//! # wec-bench — the harness that regenerates every table and figure
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the full index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — construction cost of all six algorithms |
//! | `query_costs` | Table 1 — query cost column |
//! | `fig1_decomposition` | Figure 1 — worked implicit 4-decomposition |
//! | `fig2_bc_labeling` | Figure 2 — worked BC labeling |
//! | `fig3_local_graph` | Figure 3 — worked local graph |
//! | `decomp_scaling` | Theorem 3.1 — O(kn) ops / O(n/k) writes / O(k) ρ |
//! | `ldd_stats` | Theorem 4.1 — cut fraction ≤ β, radius O(log n/β) |
//! | `conn_writes` | Theorem 4.2 — writes O(n + βm) vs β |
//! | `depth_scaling` | Theorems 1.1/1.2 — ledger critical path vs n |
//! | `unbounded` | Section 6 — oracles through the bounded-degree view |
//! | `ablation` | seq vs parallel Algorithm 1, center-count overheads |
//!
//! Beyond the paper's artifacts, `serve_bench` wall-clocks the `wec-serve`
//! sharded batch-query layer (batch size × shard count sweep) and emits
//! `BENCH_PR2.json`; `stream_bench` wall-clocks the streaming front end
//! (micro-batch × cache capacity × locality sweep, plus the BFS
//! frontier-concat share) and emits `BENCH_PR3.json`; `affinity_bench`
//! compares routing × eviction policy combinations under cache-capacity
//! pressure (locality × capacity-fraction sweep against the PR-3
//! contiguous + fill-until-full baseline) and emits `BENCH_PR4.json`;
//! `cost_golden` regenerates `costs_golden.json`, the exact-cost golden
//! file CI's cost-regression gate diffs; `pool_bench` measures the rayon
//! shim's fork/join overhead and steal rates — the work-stealing scheduler
//! against the legacy injector-only mode, at `WEC_THREADS ∈ {2, 8}` via
//! subprocess legs — and emits `BENCH_PR5.json`; `fault_bench` drives the
//! seeded fault-injection plan through the streaming server at shard-panic
//! rates of 0%, 0.1%, 1%, and 5% — measuring answer completeness and
//! throughput against a crash-on-first-fault baseline — and emits
//! `BENCH_PR6.json`; `epoch_bench` drives the same workload with batched
//! edge insertions installed as epoch snapshots at 1% of the query rate —
//! proving zero queries block on an install while measuring the
//! throughput retained against the read-only baseline — and emits
//! `BENCH_PR7.json`; `tenant_bench` drives ~10k loopback wire clients
//! with a 10:1 per-tenant arrival skew through the `wec_serve::Frontend`
//! — deficit-round-robin fair share and a 4:2:1:1 weighted leg against
//! the FIFO baseline, measuring per-tenant delivered share, p99 ticket
//! latency in pump rounds, and throughput retained — and emits
//! `BENCH_PR8.json`; `conn_writes` additionally runs the PR-9 A/B legs on
//! its wall-clock graph — §4.2 with the materialized two-pass cross-edge
//! filter vs the fused delayed-sequence pass vs the sample-and-finish
//! star-contraction fast path (2-out sample, fused finish, star rounds),
//! reporting charged writes/edge and build wall-clock for each —
//! and emits `BENCH_PR9.json` (override the path with
//! `WEC_FUSION_BENCH_OUT`). Criterion wall-clock benches live in
//! `benches/`.

use std::time::Instant;
use wec_asym::report::json;
use wec_asym::{CostReport, Costs, Ledger};

/// Run a labeled measurement: fresh ledger at `omega`, returning the
/// report and the value.
pub fn measure<T>(label: &str, omega: u64, f: impl FnOnce(&mut Ledger) -> T) -> (CostReport, T) {
    let mut led = Ledger::new(omega);
    let out = f(&mut led);
    (led.report(label), out)
}

/// Wall-clock a closure: `(seconds, result)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Wall-clock a closure over `iters` runs (one untimed warm-up first),
/// returning the per-run times **sorted ascending** — so `[0]` is the min,
/// `[len / 2]` the median, `[len - 1]` the max.
pub fn time_samples(iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    let iters = iters.max(1);
    f(); // warm-up, untimed
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (s, ()) = time(&mut f);
        samples.push(s);
    }
    samples.sort_by(f64::total_cmp);
    samples
}

/// Wall-clock a closure over `iters` runs, returning the **median** of the
/// per-run times. Accounting protocol shared with [`time_samples`].
pub fn time_median(iters: usize, f: impl FnMut()) -> f64 {
    let samples = time_samples(iters, f);
    samples[samples.len() / 2]
}

/// A parallel-vs-sequential wall-clock comparison of one build phase, as
/// recorded in `BENCH_PR1.json`.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Phase label ("decomp/build", ...).
    pub label: String,
    /// Median seconds with [`Ledger::sequential`].
    pub seconds_seq: f64,
    /// Median seconds with [`Ledger::new`] (rayon pool).
    pub seconds_par: f64,
}

impl PhaseTiming {
    /// Sequential-over-parallel wall-clock ratio (> 1 means parallel wins).
    pub fn speedup(&self) -> f64 {
        if self.seconds_par > 0.0 {
            self.seconds_seq / self.seconds_par
        } else {
            f64::INFINITY
        }
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("label", &self.label)
            .float("seconds_seq", self.seconds_seq)
            .float("seconds_par", self.seconds_par)
            .float("speedup", self.speedup())
            .finish()
    }
}

/// The machine-readable perf snapshot each PR's bench run appends to: build
/// times (parallel vs sequential ledger), query throughput, thread count,
/// and ω, so later PRs have a trajectory to beat.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the benchmark graph.
    pub m: u64,
    /// Build-phase timings.
    pub phases: Vec<PhaseTiming>,
    /// Oracle point queries per second (wall-clock).
    pub query_throughput_per_sec: f64,
    /// Model-cost report of the oracle build (parallel ledger).
    pub build_costs: CostReport,
}

impl BenchSnapshot {
    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .raw(
                "phases",
                &json::array(self.phases.iter().map(|p| p.to_json())),
            )
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .raw("build_costs", &self.build_costs.to_json())
            .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_BENCH_OUT` override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// The machine-readable fusion snapshot (`BENCH_PR9.json`): charged
/// writes/edge and build wall-clock for the three connectivity build
/// paths — §4.2 with the materialized two-pass cross-edge filter (the
/// pre-PR-9 baseline), §4.2 with the fused delayed-sequence pass, and the
/// sample-and-finish star-contraction fast path — on the same graph and
/// seed. The bench guard asserts `writes_per_edge_fused ≤
/// writes_per_edge_materialized` and `writes_per_edge_star ≤
/// writes_per_edge_materialized`, the paper's own metric applied to the
/// build pipeline.
#[derive(Debug, Clone)]
pub struct FusionSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the benchmark graph.
    pub m: u64,
    /// Charged asymmetric writes per edge, §4.2 + materialized filter.
    pub writes_per_edge_materialized: f64,
    /// Charged asymmetric writes per edge, §4.2 + fused cross-edge pass.
    pub writes_per_edge_fused: f64,
    /// Charged asymmetric writes per edge, sample-and-finish star path.
    pub writes_per_edge_star: f64,
    /// Median build wall-clock seconds, materialized leg.
    pub build_seconds_materialized: f64,
    /// Median build wall-clock seconds, fused leg.
    pub build_seconds_fused: f64,
    /// Median build wall-clock seconds, star leg.
    pub build_seconds_star: f64,
}

impl FusionSnapshot {
    /// Write reduction of the fused §4.2 leg vs the materialized baseline,
    /// in percent of the baseline.
    pub fn fused_write_reduction_pct(&self) -> f64 {
        if self.writes_per_edge_materialized > 0.0 {
            100.0 * (self.writes_per_edge_materialized - self.writes_per_edge_fused)
                / self.writes_per_edge_materialized
        } else {
            0.0
        }
    }

    /// Write reduction of the star fast path vs the materialized §4.2
    /// baseline, in percent of the baseline.
    pub fn star_write_reduction_pct(&self) -> f64 {
        if self.writes_per_edge_materialized > 0.0 {
            100.0 * (self.writes_per_edge_materialized - self.writes_per_edge_star)
                / self.writes_per_edge_materialized
        } else {
            0.0
        }
    }

    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .float(
                "writes_per_edge_materialized",
                self.writes_per_edge_materialized,
            )
            .float("writes_per_edge_fused", self.writes_per_edge_fused)
            .float("writes_per_edge_star", self.writes_per_edge_star)
            .float(
                "build_seconds_materialized",
                self.build_seconds_materialized,
            )
            .float("build_seconds_fused", self.build_seconds_fused)
            .float("build_seconds_star", self.build_seconds_star)
            .float(
                "fused_write_reduction_pct",
                self.fused_write_reduction_pct(),
            )
            .float("star_write_reduction_pct", self.star_write_reduction_pct())
            .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_FUSION_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_FUSION_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured point of the serving sweep: a fixed batch size served over
/// a fixed shard count.
#[derive(Debug, Clone)]
pub struct ServeSweepPoint {
    /// Queries per batch.
    pub batch_size: u64,
    /// Shards the batch was partitioned into.
    pub shards: u64,
    /// Median wall-clock seconds to serve one batch.
    pub seconds_per_batch: f64,
    /// Batches served per second (`1 / seconds_per_batch`).
    pub batch_throughput_per_sec: f64,
    /// Queries answered per second (`batch_size / seconds_per_batch`).
    pub query_throughput_per_sec: f64,
}

impl ServeSweepPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("batch_size", self.batch_size)
            .num("shards", self.shards)
            .float("seconds_per_batch", self.seconds_per_batch)
            .float("batch_throughput_per_sec", self.batch_throughput_per_sec)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .finish()
    }
}

/// The machine-readable serving-layer snapshot (`BENCH_PR2.json`): a batch
/// size × shard count throughput sweep plus the peak rates, so later PRs
/// have a serving trajectory to beat. The top-level
/// `query_throughput_per_sec` / `batch_throughput_per_sec` keys are the
/// schema CI's bench-regression guard validates.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the benchmark graph.
    pub m: u64,
    /// The full sweep grid.
    pub sweep: Vec<ServeSweepPoint>,
    /// Peak queries/sec across the sweep.
    pub query_throughput_per_sec: f64,
    /// Peak batches/sec across the sweep.
    pub batch_throughput_per_sec: f64,
    /// Queries/sec of a mixed batch (connectivity + biconnectivity kinds)
    /// at the largest sweep configuration.
    pub mixed_query_throughput_per_sec: f64,
}

impl ServeSnapshot {
    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .raw(
                "sweep",
                &json::array(self.sweep.iter().map(|p| p.to_json())),
            )
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .float("batch_throughput_per_sec", self.batch_throughput_per_sec)
            .float(
                "mixed_query_throughput_per_sec",
                self.mixed_query_throughput_per_sec,
            )
            .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_SERVE_BENCH_OUT` override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_SERVE_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured point of the streaming sweep: a fixed micro-batch size ×
/// per-shard cache capacity × workload locality, served as a stream.
#[derive(Debug, Clone)]
pub struct StreamSweepPoint {
    /// Admission policy's `max_batch` (micro-batch size).
    pub max_batch: u64,
    /// Per-shard result-cache capacity (0 = caching disabled).
    pub cache_capacity: u64,
    /// Fraction of the stream drawn from the hot key set (workload
    /// locality knob; higher means more cacheable repetition).
    pub hot_fraction: f64,
    /// Measured cache hit ratio of the run.
    pub hit_ratio: f64,
    /// Median wall-clock seconds for the whole stream.
    pub seconds_per_stream: f64,
    /// Queries answered per second (`stream_len / seconds_per_stream`).
    pub query_throughput_per_sec: f64,
    /// Model asymmetric reads charged per query.
    pub reads_per_query: f64,
    /// Model asymmetric writes charged per query (cache fills only).
    pub writes_per_query: f64,
}

impl StreamSweepPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("max_batch", self.max_batch)
            .num("cache_capacity", self.cache_capacity)
            .float("hot_fraction", self.hot_fraction)
            .float("hit_ratio", self.hit_ratio)
            .float("seconds_per_stream", self.seconds_per_stream)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .float("reads_per_query", self.reads_per_query)
            .float("writes_per_query", self.writes_per_query)
            .finish()
    }
}

/// The machine-readable streaming-layer snapshot (`BENCH_PR3.json`): a
/// micro-batch × cache-capacity × locality sweep over the
/// `wec_serve::StreamingServer`, plus the sequential frontier-concat share
/// of BFS (the ROADMAP "frontier concatenation" measurement). The
/// top-level `query_throughput_per_sec` / `peak_hit_ratio` /
/// `bfs_concat_op_share` keys are the schema CI's bench guard validates.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the benchmark graph.
    pub m: u64,
    /// Shards the streaming server dispatched over.
    pub shards: u64,
    /// Queries per stream run.
    pub stream_len: u64,
    /// The full sweep grid.
    pub sweep: Vec<StreamSweepPoint>,
    /// Peak queries/sec across the sweep.
    pub query_throughput_per_sec: f64,
    /// Best cache hit ratio across the sweep.
    pub peak_hit_ratio: f64,
    /// BFS sequential-concat charged ops over total charged operations.
    pub bfs_concat_op_share: f64,
    /// BFS concat elements moved over total charged operations (the upper
    /// bound on what a scan-based parallel pack could relocate).
    pub bfs_concat_elem_share: f64,
}

impl StreamSnapshot {
    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .num("shards", self.shards)
            .num("stream_len", self.stream_len)
            .raw(
                "sweep",
                &json::array(self.sweep.iter().map(|p| p.to_json())),
            )
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .float("peak_hit_ratio", self.peak_hit_ratio)
            .float("bfs_concat_op_share", self.bfs_concat_op_share)
            .float("bfs_concat_elem_share", self.bfs_concat_elem_share)
            .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_STREAM_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_STREAM_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured point of the affinity sweep: a routing × eviction policy
/// combination at a fixed workload locality and cache-capacity fraction.
#[derive(Debug, Clone)]
pub struct AffinitySweepPoint {
    /// Routing policy label (`"contiguous"` / `"affinity"`).
    pub routing: String,
    /// Eviction policy label (`"fill"` / `"clock"`).
    pub eviction: String,
    /// Fraction of the stream drawn from the hot key set.
    pub hot_fraction: f64,
    /// Total cache capacity (all shards) as a fraction of the stream's
    /// working set (its count of distinct cache keys).
    pub capacity_fraction: f64,
    /// Per-shard slot budget the fraction resolves to.
    pub per_shard_capacity: u64,
    /// Measured cumulative cache hit ratio of the run.
    pub hit_ratio: f64,
    /// CLOCK evictions per query (0 under fill-until-full).
    pub evictions_per_query: f64,
    /// Median wall-clock seconds for the whole stream.
    pub seconds_per_stream: f64,
    /// Queries answered per second (`stream_len / seconds_per_stream`).
    pub query_throughput_per_sec: f64,
    /// Model asymmetric reads charged per query.
    pub reads_per_query: f64,
    /// Model asymmetric writes charged per query (cache fills only).
    pub writes_per_query: f64,
}

impl AffinitySweepPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("routing", &self.routing)
            .str("eviction", &self.eviction)
            .float("hot_fraction", self.hot_fraction)
            .float("capacity_fraction", self.capacity_fraction)
            .num("per_shard_capacity", self.per_shard_capacity)
            .float("hit_ratio", self.hit_ratio)
            .float("evictions_per_query", self.evictions_per_query)
            .float("seconds_per_stream", self.seconds_per_stream)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .float("reads_per_query", self.reads_per_query)
            .float("writes_per_query", self.writes_per_query)
            .finish()
    }
}

/// The machine-readable affinity/eviction snapshot (`BENCH_PR4.json`):
/// routing × eviction policy combinations swept over workload locality and
/// cache-capacity pressure, against the PR-3 contiguous + fill-until-full
/// baseline. The headline `affinity_hit_ratio` / `baseline_hit_ratio`
/// pair is measured at the acceptance point — the 94%-hot stream with
/// total capacity at 25% of the working set — and
/// `query_throughput_per_sec` is the sweep peak; those three top-level
/// keys are the schema CI's bench guard validates.
#[derive(Debug, Clone)]
pub struct AffinitySnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the benchmark graph.
    pub m: u64,
    /// Shards the streaming server dispatched over.
    pub shards: u64,
    /// Queries per stream run.
    pub stream_len: u64,
    /// Distinct cache keys of the 94%-hot stream (the working set the
    /// capacity fractions are relative to).
    pub working_set: u64,
    /// The full sweep grid.
    pub sweep: Vec<AffinitySweepPoint>,
    /// Peak queries/sec across the sweep.
    pub query_throughput_per_sec: f64,
    /// Affinity + CLOCK hit ratio at the acceptance point.
    pub affinity_hit_ratio: f64,
    /// Contiguous + fill-until-full hit ratio at the acceptance point.
    pub baseline_hit_ratio: f64,
}

impl AffinitySnapshot {
    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .num("shards", self.shards)
            .num("stream_len", self.stream_len)
            .num("working_set", self.working_set)
            .raw(
                "sweep",
                &json::array(self.sweep.iter().map(|p| p.to_json())),
            )
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .float("affinity_hit_ratio", self.affinity_hit_ratio)
            .float("baseline_hit_ratio", self.baseline_hit_ratio)
            .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_AFFINITY_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_AFFINITY_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured scheduler leg: a fixed thread count × publish mode
/// (work-stealing deques vs. legacy injector-only), run in its own
/// subprocess so `WEC_THREADS` really takes effect.
#[derive(Debug, Clone)]
pub struct PoolLeg {
    /// Threads the leg ran with (`WEC_THREADS`).
    pub threads: u64,
    /// `"steal"` (per-worker deques) or `"injector"` (legacy shared queue).
    pub mode: String,
    /// Wall-clock nanoseconds per `join` in the spawn-heavy microbench
    /// (balanced fan-out tree, trivial leaves — pure scheduler overhead).
    pub join_ns: f64,
    /// Joins per second implied by `join_ns`.
    pub joins_per_sec: f64,
    /// Nanoseconds per forked chunk in a grain-1 `Ledger::scoped_par` pass
    /// (the ledger-level fork path real passes use).
    pub chunk_ns: f64,
    /// Median seconds for the decomposition + oracle build phase.
    pub build_seconds: f64,
    /// Scheduler-stats delta over the leg: successful steals.
    pub steals: u64,
    /// Jobs published to worker deques.
    pub published_deque: u64,
    /// Jobs published to the injector.
    pub published_injector: u64,
    /// Deque-full overflows rerouted to the injector.
    pub deque_overflows: u64,
    /// Joins that blocked on a remotely executing branch.
    pub blocked_joins: u64,
    /// Idle-worker parks.
    pub parks: u64,
}

impl PoolLeg {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("threads", self.threads)
            .str("mode", &self.mode)
            .float("join_ns", self.join_ns)
            .float("joins_per_sec", self.joins_per_sec)
            .float("chunk_ns", self.chunk_ns)
            .float("build_seconds", self.build_seconds)
            .num("steals", self.steals)
            .num("published_deque", self.published_deque)
            .num("published_injector", self.published_injector)
            .num("deque_overflows", self.deque_overflows)
            .num("blocked_joins", self.blocked_joins)
            .num("parks", self.parks)
            .finish()
    }
}

/// The machine-readable scheduler snapshot (`BENCH_PR5.json`): fork/join
/// overhead of the work-stealing runtime vs. the legacy injector-only
/// scheduler at `WEC_THREADS ∈ {2, 8}`, plus steal-rate counters. The
/// top-level `join_ns_steal_t{2,8}` / `join_ns_injector_t{2,8}` /
/// `overhead_reduction_pct_t8` keys are what the CI bench guard validates;
/// the acceptance criterion is `join_ns_steal_tN < join_ns_injector_tN`.
#[derive(Debug, Clone)]
pub struct PoolSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// Threads available to the orchestrating process (host default).
    pub host_threads: u64,
    /// All measured legs (threads × mode grid).
    pub legs: Vec<PoolLeg>,
}

impl PoolSnapshot {
    fn leg(&self, threads: u64, mode: &str) -> Option<&PoolLeg> {
        self.legs
            .iter()
            .find(|l| l.threads == threads && l.mode == mode)
    }

    /// Percentage reduction in per-join overhead, steal mode vs. injector
    /// mode, at a given thread count (positive = steal wins).
    pub fn overhead_reduction_pct(&self, threads: u64) -> f64 {
        match (self.leg(threads, "steal"), self.leg(threads, "injector")) {
            (Some(s), Some(i)) if i.join_ns > 0.0 => 100.0 * (1.0 - s.join_ns / i.join_ns),
            _ => f64::NAN,
        }
    }

    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new()
            .num("pr", self.pr)
            .num("host_threads", self.host_threads)
            .raw("legs", &json::array(self.legs.iter().map(|l| l.to_json())));
        for &t in &[2u64, 8] {
            if let Some(s) = self.leg(t, "steal") {
                obj = obj
                    .float(&format!("join_ns_steal_t{t}"), s.join_ns)
                    .num(&format!("steals_t{t}"), s.steals);
            }
            if let Some(i) = self.leg(t, "injector") {
                obj = obj.float(&format!("join_ns_injector_t{t}"), i.join_ns);
            }
            obj = obj.float(
                &format!("overhead_reduction_pct_t{t}"),
                self.overhead_reduction_pct(t),
            );
        }
        obj.finish()
    }

    /// Write the snapshot to `path` (or the `WEC_POOL_BENCH_OUT` override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_POOL_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured leg of the fault-injection sweep: a fixed seeded
/// shard-panic rate driven through the streaming server's recovery
/// machinery, against the analytic crash-on-first-fault baseline.
#[derive(Debug, Clone)]
pub struct FaultLeg {
    /// Injected shard-panic probability in per-mille (‰) per
    /// (dispatch, shard) decision point. 0 = fault-free.
    pub fault_per_mille: u64,
    /// Fraction of submitted queries answered (delivered with a ticket).
    /// The recovery contract pins this at 1.0 for every rate.
    pub completeness: f64,
    /// Fraction a crash-on-first-fault server would have answered:
    /// queries delivered before the first dispatch at which the same
    /// seeded plan fires (replayed analytically from the plan).
    pub baseline_completeness: f64,
    /// Median wall-clock seconds for the whole stream.
    pub seconds_per_stream: f64,
    /// Queries answered per second (`stream_len / seconds_per_stream`).
    pub query_throughput_per_sec: f64,
    /// Shard-chunk panics caught by the isolation boundary.
    pub panics_caught: u64,
    /// Queries recomputed through the degraded uncached path.
    pub degraded_answers: u64,
    /// Backoff-ladder rungs charged.
    pub retries: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Half-open probes after cooldowns.
    pub half_open_probes: u64,
    /// Breakers closed again by a successful probe.
    pub shards_restored: u64,
    /// Poisoned cache locks cleared.
    pub lock_poison_recoveries: u64,
    /// Model asymmetric reads charged per query (recovery included).
    pub reads_per_query: f64,
    /// Model operations charged per query (recovery included).
    pub ops_per_query: f64,
}

impl FaultLeg {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("fault_per_mille", self.fault_per_mille)
            .float("completeness", self.completeness)
            .float("baseline_completeness", self.baseline_completeness)
            .float("seconds_per_stream", self.seconds_per_stream)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .num("panics_caught", self.panics_caught)
            .num("degraded_answers", self.degraded_answers)
            .num("retries", self.retries)
            .num("breaker_trips", self.breaker_trips)
            .num("half_open_probes", self.half_open_probes)
            .num("shards_restored", self.shards_restored)
            .num("lock_poison_recoveries", self.lock_poison_recoveries)
            .float("reads_per_query", self.reads_per_query)
            .float("ops_per_query", self.ops_per_query)
            .finish()
    }
}

/// The machine-readable robustness snapshot (`BENCH_PR6.json`): the
/// seeded fault-injection sweep over shard-panic rates
/// {0‰, 1‰, 10‰, 50‰} on the 94%-hot streaming workload. The top-level
/// `query_throughput_per_sec` (fault-free leg), `completeness_at_10pm` /
/// `baseline_completeness_at_10pm` (the 1% acceptance rate), and
/// `throughput_retained_pct_at_10pm` keys are what the CI bench guard
/// validates; the acceptance criterion is completeness 1.0 at every rate
/// while the crash baseline loses most of the stream.
#[derive(Debug, Clone)]
pub struct FaultSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the benchmark graph.
    pub m: u64,
    /// Shards the streaming server dispatched over.
    pub shards: u64,
    /// Queries per stream run.
    pub stream_len: u64,
    /// Fault-plan seed every leg derives its decisions from.
    pub seed: u64,
    /// All measured legs, ascending by fault rate.
    pub legs: Vec<FaultLeg>,
}

impl FaultSnapshot {
    fn leg(&self, per_mille: u64) -> Option<&FaultLeg> {
        self.legs.iter().find(|l| l.fault_per_mille == per_mille)
    }

    /// Completeness of the leg at `per_mille` (NaN if absent).
    pub fn leg_completeness(&self, per_mille: u64) -> f64 {
        self.leg(per_mille).map_or(f64::NAN, |l| l.completeness)
    }

    /// Crash-baseline completeness of the leg at `per_mille` (NaN if
    /// absent).
    pub fn leg_baseline(&self, per_mille: u64) -> f64 {
        self.leg(per_mille)
            .map_or(f64::NAN, |l| l.baseline_completeness)
    }

    /// Throughput retained at `per_mille` relative to the fault-free leg,
    /// as a percentage (100 = no degradation).
    pub fn throughput_retained_pct(&self, per_mille: u64) -> f64 {
        match (self.leg(0), self.leg(per_mille)) {
            (Some(base), Some(l)) if base.query_throughput_per_sec > 0.0 => {
                100.0 * l.query_throughput_per_sec / base.query_throughput_per_sec
            }
            _ => f64::NAN,
        }
    }

    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .num("shards", self.shards)
            .num("stream_len", self.stream_len)
            .num("seed", self.seed)
            .raw("legs", &json::array(self.legs.iter().map(|l| l.to_json())));
        if let Some(base) = self.leg(0) {
            obj = obj.float("query_throughput_per_sec", base.query_throughput_per_sec);
        }
        if let Some(l) = self.leg(10) {
            obj = obj
                .float("completeness_at_10pm", l.completeness)
                .float("baseline_completeness_at_10pm", l.baseline_completeness)
                .float(
                    "throughput_retained_pct_at_10pm",
                    self.throughput_retained_pct(10),
                );
        }
        obj.finish()
    }

    /// Write the snapshot to `path` (or the `WEC_FAULT_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_FAULT_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured leg of the epoch-snapshot mutation sweep: the 94%-hot
/// streaming workload with batched edge insertions staged and installed
/// at a fixed fraction of the query rate (0‰ = the read-only baseline).
#[derive(Debug, Clone)]
pub struct EpochLeg {
    /// Edge insertions per thousand queries (0 = read-only baseline).
    pub update_per_mille: u64,
    /// Edges batched into each installed `GraphDelta`; 0 on the
    /// read-only leg.
    pub delta_batch: u64,
    /// Median wall-clock seconds for the whole stream (mutations
    /// included on mutating legs).
    pub seconds_per_stream: f64,
    /// Queries answered per second (`stream_len / seconds_per_stream`).
    pub query_throughput_per_sec: f64,
    /// Epoch installs performed (epoch advances).
    pub installs: u64,
    /// Delta edges staged across the run.
    pub staged_edges: u64,
    /// Queries that had to wait for an epoch install before being
    /// answered. The double-buffered contract pins this at 0: installs
    /// never drain the queue and stragglers answer through their
    /// submission epoch's retained overlay.
    pub blocked_on_install: u64,
    /// Queries delivered between `stage_delta` and the matching
    /// `install_staged` — reads served while the next epoch was being
    /// built.
    pub answered_during_stage: u64,
    /// Queries answered through a retained older epoch's overlay (in
    /// flight across an install).
    pub straggler_answers: u64,
    /// Undelivered tickets outstanding at install time, summed over
    /// installs.
    pub in_flight_at_install: u64,
    /// Cache entries removed by install-time invalidation sweeps.
    pub invalidated_entries: u64,
    /// Resident cache slots scanned by invalidation sweeps.
    pub invalidation_swept_slots: u64,
    /// Old epoch overlays retired once delivery passed their last ticket.
    pub retired_overlays: u64,
    /// Cache hits across all shard caches.
    pub cache_hits: u64,
    /// Cache misses across all shard caches.
    pub cache_misses: u64,
    /// Model asymmetric reads charged per query (mutation charges
    /// included).
    pub reads_per_query: f64,
    /// Model asymmetric writes charged per query (mutation charges
    /// included).
    pub writes_per_query: f64,
    /// Model operations charged per query (mutation charges included).
    pub ops_per_query: f64,
}

impl EpochLeg {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("update_per_mille", self.update_per_mille)
            .num("delta_batch", self.delta_batch)
            .float("seconds_per_stream", self.seconds_per_stream)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .num("installs", self.installs)
            .num("staged_edges", self.staged_edges)
            .num("blocked_on_install", self.blocked_on_install)
            .num("answered_during_stage", self.answered_during_stage)
            .num("straggler_answers", self.straggler_answers)
            .num("in_flight_at_install", self.in_flight_at_install)
            .num("invalidated_entries", self.invalidated_entries)
            .num("invalidation_swept_slots", self.invalidation_swept_slots)
            .num("retired_overlays", self.retired_overlays)
            .num("cache_hits", self.cache_hits)
            .num("cache_misses", self.cache_misses)
            .float("reads_per_query", self.reads_per_query)
            .float("writes_per_query", self.writes_per_query)
            .float("ops_per_query", self.ops_per_query)
            .finish()
    }
}

/// The machine-readable dynamic-graph snapshot (`BENCH_PR7.json`): the
/// 94%-hot streaming workload with batched edge insertions installed as
/// epoch snapshots at 1% of the query rate, against the read-only
/// baseline leg. The top-level `query_throughput_per_sec` (read-only),
/// `mutating_throughput_per_sec`, `throughput_retained_pct`,
/// `blocked_on_install` (must be 0), `answered_during_stage`, and
/// `installs` keys are what the CI bench guard validates.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Edges of the base benchmark graph (before any delta).
    pub m: u64,
    /// Shards the streaming server dispatched over.
    pub shards: u64,
    /// Queries per stream run.
    pub stream_len: u64,
    /// Stream-generator seed.
    pub seed: u64,
    /// All measured legs, ascending by update rate.
    pub legs: Vec<EpochLeg>,
}

impl EpochSnapshot {
    fn leg(&self, update_per_mille: u64) -> Option<&EpochLeg> {
        self.legs
            .iter()
            .find(|l| l.update_per_mille == update_per_mille)
    }

    /// Throughput of the mutating leg at `update_per_mille` relative to
    /// the read-only baseline, as a percentage (100 = no degradation).
    pub fn throughput_retained_pct(&self, update_per_mille: u64) -> f64 {
        match (self.leg(0), self.leg(update_per_mille)) {
            (Some(base), Some(l)) if base.query_throughput_per_sec > 0.0 => {
                100.0 * l.query_throughput_per_sec / base.query_throughput_per_sec
            }
            _ => f64::NAN,
        }
    }

    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("m", self.m)
            .num("shards", self.shards)
            .num("stream_len", self.stream_len)
            .num("seed", self.seed)
            .raw("legs", &json::array(self.legs.iter().map(|l| l.to_json())));
        if let Some(base) = self.leg(0) {
            obj = obj.float("query_throughput_per_sec", base.query_throughput_per_sec);
        }
        if let Some(l) = self.leg(10) {
            obj = obj
                .float("mutating_throughput_per_sec", l.query_throughput_per_sec)
                .float("throughput_retained_pct", self.throughput_retained_pct(10))
                .num("blocked_on_install", l.blocked_on_install)
                .num("answered_during_stage", l.answered_during_stage)
                .num("installs", l.installs)
                .num("invalidated_entries", l.invalidated_entries)
                .num("straggler_answers", l.straggler_answers);
        }
        obj.finish()
    }

    /// Write the snapshot to `path` (or the `WEC_EPOCH_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_EPOCH_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One tenant's view of one measured tenancy leg: arrival share in,
/// delivered share out.
#[derive(Debug, Clone)]
pub struct TenantLane {
    /// Tenant id.
    pub tenant: u64,
    /// Fair-share weight the leg ran with.
    pub weight: u64,
    /// Loopback client connections bound to this tenant (the arrival-rate
    /// knob — clients submit closed-loop, one request per round per open
    /// window slot).
    pub clients: u64,
    /// Requests this tenant's clients submitted.
    pub submitted: u64,
    /// Answers delivered during the loaded phase (arrivals still
    /// flowing — the contended window fairness is measured over).
    pub delivered_loaded: u64,
    /// This tenant's share of loaded-phase deliveries, in percent.
    pub share_pct: f64,
    /// The share the leg's policy promises, in percent (weight share
    /// under fair-share legs; arrival share under FIFO).
    pub expected_share_pct: f64,
    /// p99 ticket latency in pump rounds over loaded-phase deliveries.
    pub p99_latency_rounds: f64,
    /// `delivered_total / submitted` after the drain; the quota-free
    /// contract pins this at exactly 1.0.
    pub completeness: f64,
}

impl TenantLane {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("tenant", self.tenant)
            .num("weight", self.weight)
            .num("clients", self.clients)
            .num("submitted", self.submitted)
            .num("delivered_loaded", self.delivered_loaded)
            .float("share_pct", self.share_pct)
            .float("expected_share_pct", self.expected_share_pct)
            .float("p99_latency_rounds", self.p99_latency_rounds)
            .float("completeness", self.completeness)
            .finish()
    }
}

/// One measured leg of the tenancy sweep: a batch-composition policy
/// (FIFO / equal-weight DRR / weighted DRR) driven by the same skewed
/// client population.
#[derive(Debug, Clone)]
pub struct TenantLeg {
    /// `"fifo"`, `"fair"` (equal-weight DRR), or `"weighted"` (4:2:1:1).
    pub mode: String,
    /// Loaded-phase pump rounds (arrivals flowing).
    pub rounds: u64,
    /// Per-tenant lanes, ascending by tenant id.
    pub lanes: Vec<TenantLane>,
    /// Max over tenants of `|share_pct − expected_share_pct|` relative to
    /// the expected share, in percent. The fair-share acceptance bound is
    /// ≤ 10 on the DRR legs.
    pub fairness_max_dev_pct: f64,
    /// p99 ticket latency in pump rounds across all tenants'
    /// loaded-phase deliveries.
    pub p99_latency_rounds: f64,
    /// Wall-clock seconds for the whole leg (loaded phase + drain).
    pub seconds: f64,
    /// Answers delivered per second over the whole leg.
    pub query_throughput_per_sec: f64,
}

impl TenantLeg {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("mode", &self.mode)
            .num("rounds", self.rounds)
            .raw(
                "lanes",
                &json::array(self.lanes.iter().map(|l| l.to_json())),
            )
            .float("fairness_max_dev_pct", self.fairness_max_dev_pct)
            .float("p99_latency_rounds", self.p99_latency_rounds)
            .float("seconds", self.seconds)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .finish()
    }
}

/// The machine-readable multi-tenant wire snapshot (`BENCH_PR8.json`):
/// thousands of loopback wire clients with a 10:1 per-tenant arrival skew
/// served through the `Frontend`, under FIFO, equal-weight DRR, and
/// 4:2:1:1 weighted DRR composition. The top-level
/// `query_throughput_per_sec` (fair leg), `fifo_throughput_per_sec`,
/// `fair_vs_fifo_throughput_pct`, `fairness_max_dev_pct` /
/// `weighted_fairness_max_dev_pct` (both ≤ 10 is the acceptance bound),
/// and `min_tenant_completeness` (must be exactly 1.0 — quota-free, no
/// tenant loses an answer) keys are what the CI bench guard validates.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Shards the streaming server dispatched over.
    pub shards: u64,
    /// Total loopback client connections.
    pub clients: u64,
    /// All measured legs.
    pub legs: Vec<TenantLeg>,
}

impl TenantSnapshot {
    fn leg(&self, mode: &str) -> Option<&TenantLeg> {
        self.legs.iter().find(|l| l.mode == mode)
    }

    /// Fair-leg throughput relative to the FIFO baseline, in percent.
    pub fn fair_vs_fifo_throughput_pct(&self) -> f64 {
        match (self.leg("fair"), self.leg("fifo")) {
            (Some(f), Some(b)) if b.query_throughput_per_sec > 0.0 => {
                100.0 * f.query_throughput_per_sec / b.query_throughput_per_sec
            }
            _ => f64::NAN,
        }
    }

    /// The worst per-tenant completeness across every leg and lane.
    pub fn min_tenant_completeness(&self) -> f64 {
        self.legs
            .iter()
            .flat_map(|l| l.lanes.iter().map(|t| t.completeness))
            .fold(f64::INFINITY, f64::min)
    }

    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("shards", self.shards)
            .num("clients", self.clients)
            .raw("legs", &json::array(self.legs.iter().map(|l| l.to_json())));
        if let Some(f) = self.leg("fair") {
            obj = obj
                .float("query_throughput_per_sec", f.query_throughput_per_sec)
                .float("fairness_max_dev_pct", f.fairness_max_dev_pct)
                .float("p99_latency_rounds", f.p99_latency_rounds);
        }
        if let Some(b) = self.leg("fifo") {
            obj = obj.float("fifo_throughput_per_sec", b.query_throughput_per_sec);
        }
        if let Some(w) = self.leg("weighted") {
            obj = obj.float("weighted_fairness_max_dev_pct", w.fairness_max_dev_pct);
        }
        obj.float(
            "fair_vs_fifo_throughput_pct",
            self.fair_vs_fifo_throughput_pct(),
        )
        .float("min_tenant_completeness", self.min_tenant_completeness())
        .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_TENANT_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_TENANT_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// One measured leg of the wire-chaos sweep: the 94%-hot wire workload
/// pushed through byte-fault-injected connections at a fixed rate, with
/// either exactly-once retrying clients (`mode = "retry"`) or fire-once
/// clients that never resubmit (`mode = "noretry"`, the baseline that
/// shows what the faults would cost an unhardened stack).
#[derive(Debug, Clone)]
pub struct ChaosLeg {
    /// Injected byte-fault probability in per-mille (‰) per decision
    /// point, applied to every fault family. 0 = fault-free.
    pub fault_per_mille: u64,
    /// `"retry"` or `"noretry"`.
    pub mode: String,
    /// Fraction of submitted queries that received exactly one answer.
    /// The retry contract pins this at 1.0 for every rate.
    pub completeness: f64,
    /// Duplicate deliveries suppressed client-side plus duplicate
    /// requests suppressed / answers replayed server-side — the dedup
    /// machinery's measured workload.
    pub duplicates_suppressed: u64,
    /// Reconnects performed (charged, backed off).
    pub reconnects: u64,
    /// Request frames resubmitted after reconnects or retryable errors.
    pub resubmitted: u64,
    /// Server connections closed by transport faults.
    pub conns_closed: u64,
    /// Median wall-clock seconds for the whole stream.
    pub seconds_per_stream: f64,
    /// Answers per second (`answered / seconds_per_stream`).
    pub query_throughput_per_sec: f64,
    /// Model operations charged per submitted query, server plus
    /// clients (retry overhead included).
    pub ops_per_query: f64,
}

impl ChaosLeg {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .num("fault_per_mille", self.fault_per_mille)
            .str("mode", &self.mode)
            .float("completeness", self.completeness)
            .num("duplicates_suppressed", self.duplicates_suppressed)
            .num("reconnects", self.reconnects)
            .num("resubmitted", self.resubmitted)
            .num("conns_closed", self.conns_closed)
            .float("seconds_per_stream", self.seconds_per_stream)
            .float("query_throughput_per_sec", self.query_throughput_per_sec)
            .float("ops_per_query", self.ops_per_query)
            .finish()
    }
}

/// The machine-readable wire-chaos snapshot (`BENCH_PR10.json`): the
/// 94%-hot wire workload at byte-fault rates {0‰, 1‰, 10‰}, retrying
/// clients against the no-retry baseline. The top-level
/// `query_throughput_per_sec` (fault-free retry leg),
/// `completeness_at_10pm` (must be exactly 1.0 — exactly-once survives
/// 1% byte faults), `noretry_completeness_at_10pm` (the baseline's
/// loss), `duplicates_suppressed_total`, and
/// `throughput_retained_pct_at_10pm` keys are what the CI bench guard
/// validates.
#[derive(Debug, Clone)]
pub struct ChaosSnapshot {
    /// Which PR produced the snapshot.
    pub pr: u64,
    /// `rayon` worker threads available to the run.
    pub threads: u64,
    /// Write-cost multiplier.
    pub omega: u64,
    /// Vertices of the benchmark graph.
    pub n: u64,
    /// Shards the streaming server dispatched over.
    pub shards: u64,
    /// Concurrent wire clients per leg.
    pub clients: u64,
    /// Queries submitted per client.
    pub per_client: u64,
    /// Fault-plan seed every leg derives its decisions from.
    pub seed: u64,
    /// All measured legs, ascending by fault rate, retry before noretry.
    pub legs: Vec<ChaosLeg>,
}

impl ChaosSnapshot {
    fn leg(&self, per_mille: u64, mode: &str) -> Option<&ChaosLeg> {
        self.legs
            .iter()
            .find(|l| l.fault_per_mille == per_mille && l.mode == mode)
    }

    /// Completeness of the retry leg at `per_mille` (NaN if absent).
    pub fn retry_completeness(&self, per_mille: u64) -> f64 {
        self.leg(per_mille, "retry")
            .map_or(f64::NAN, |l| l.completeness)
    }

    /// Completeness of the no-retry baseline at `per_mille` (NaN if
    /// absent).
    pub fn noretry_completeness(&self, per_mille: u64) -> f64 {
        self.leg(per_mille, "noretry")
            .map_or(f64::NAN, |l| l.completeness)
    }

    /// Retry-leg throughput retained at `per_mille` relative to the
    /// fault-free retry leg, as a percentage (100 = no degradation).
    pub fn throughput_retained_pct(&self, per_mille: u64) -> f64 {
        match (self.leg(0, "retry"), self.leg(per_mille, "retry")) {
            (Some(base), Some(l)) if base.query_throughput_per_sec > 0.0 => {
                100.0 * l.query_throughput_per_sec / base.query_throughput_per_sec
            }
            _ => f64::NAN,
        }
    }

    /// Duplicates suppressed across every leg.
    pub fn duplicates_suppressed_total(&self) -> u64 {
        self.legs.iter().map(|l| l.duplicates_suppressed).sum()
    }

    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new()
            .num("pr", self.pr)
            .num("threads", self.threads)
            .num("omega", self.omega)
            .num("n", self.n)
            .num("shards", self.shards)
            .num("clients", self.clients)
            .num("per_client", self.per_client)
            .num("seed", self.seed)
            .raw("legs", &json::array(self.legs.iter().map(|l| l.to_json())));
        if let Some(base) = self.leg(0, "retry") {
            obj = obj.float("query_throughput_per_sec", base.query_throughput_per_sec);
        }
        obj.float("completeness_at_10pm", self.retry_completeness(10))
            .float(
                "noretry_completeness_at_10pm",
                self.noretry_completeness(10),
            )
            .num(
                "duplicates_suppressed_total",
                self.duplicates_suppressed_total(),
            )
            .float(
                "throughput_retained_pct_at_10pm",
                self.throughput_retained_pct(10),
            )
            .finish()
    }

    /// Write the snapshot to `path` (or the `WEC_CHAOS_BENCH_OUT`
    /// override).
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let path = std::env::var("WEC_CHAOS_BENCH_OUT").unwrap_or_else(|_| path.to_string());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// Format a costs row for the fixed-width tables the binaries print.
pub fn row(label: &str, c: &Costs, omega: u64, depth: u64) -> String {
    format!(
        "{label:<34} {:>12} {:>12} {:>14} {:>14}",
        c.asym_writes,
        c.operations(),
        c.work(omega),
        depth
    )
}

/// Header matching [`row`].
pub fn header(title: &str) -> String {
    format!(
        "{title:<34} {:>12} {:>12} {:>14} {:>14}",
        "writes", "operations", "work", "depth"
    )
}

/// Geometric size sweep helper.
pub fn geometric(from: usize, to: usize, factor: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut x = from;
    while x <= to {
        v.push(x);
        x *= factor;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_costs() {
        let (r, x) = measure("t", 8, |led| {
            led.write(3);
            42
        });
        assert_eq!(x, 42);
        assert_eq!(r.asym_writes, 3);
        assert_eq!(r.work, 24);
    }

    #[test]
    fn geometric_sweep() {
        assert_eq!(geometric(10, 80, 2), vec![10, 20, 40, 80]);
    }
}
