//! The repository benchmark: one command, four workloads, both cost
//! currencies (charged `Costs` and wall-clock). See `README.md` beside
//! this crate for the workloads, their loop shapes, and the metrics.
//!
//! ```text
//! wecbench --workload <oracle_build|cc_dense|query_cold|wire_hot>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.

mod build;
mod layers;
mod refs;
mod report;
mod serve;

use report::{arrange, result_json, Outcome, END_TO_END, PER_LAYER};

/// Write cost ω of every ledger the benchmark passes in.
pub const OMEGA: u64 = 64;

/// One run's arguments.
pub struct Cfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Cfg {
    /// The run's work quota: `rate` operations per requested second, at
    /// least `min`. Work is counted, never timed, so every charged count
    /// repeats exactly for a given seed and `--seconds`.
    pub fn quota(&self, rate: f64, min: u64) -> u64 {
        ((self.seconds as f64 * rate).round() as u64).max(min)
    }
}

const USAGE: &str = "usage: wecbench --workload <oracle_build|cc_dense|query_cold|wire_hot> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Cfg), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Cfg {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() {
    let (workload, cfg) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("wecbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&Cfg) -> Outcome = match workload.as_str() {
        "oracle_build" => build::oracle_build,
        "cc_dense" => build::cc_dense,
        "query_cold" => serve::query_cold,
        "wire_hot" => serve::wire_hot,
        other => {
            eprintln!("wecbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "=== wecbench {workload}: seed {}, {} s, trace {}, threads {}, omega {OMEGA} ===",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        rayon::current_num_threads()
    );
    let out = run(&cfg);
    let metrics = arrange(&out, if cfg.trace { PER_LAYER } else { END_TO_END });
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<44} {:>18.6} ratio   ({} failed of {} attempted)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", result_json(&out, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_run_arguments() {
        let (w, cfg) = parse(args("--workload wire_hot --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(w, "wire_hot");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 20, true));
    }

    #[test]
    fn rejects_incomplete_or_unknown_arguments() {
        assert!(parse(args("--workload wire_hot --seed 7 --seconds 20")).is_err());
        assert!(parse(args("--workload wire_hot --seed x --seconds 20 --trace 0")).is_err());
        assert!(parse(args(
            "--workload wire_hot --seed 1 --seconds 2 --trace 0 --bogus 1"
        ))
        .is_err());
        assert!(parse(args("--workload")).is_err());
    }
}
