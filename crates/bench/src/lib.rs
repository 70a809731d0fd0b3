//! # wec-bench — the harness that regenerates every table and figure
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation:
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
//! `cost_golden` regenerates `costs_golden.json`, the exact-cost golden
//! file CI's cost-regression gate diffs. The hand-rolled wall-clock
//! harness lives in `benches/wallclock.rs`; end-to-end serving and build
//! measurements live in the separate `wecbench` package.

use std::time::Instant;
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
}
