//! DeepBase benchmark: one command, three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a separate traced run.
//! `BENCHMARK.json` at the repository root lists the two steady enough to
//! gate a change; `perfbench/METRICS.md` says why and what each metric
//! should move.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_inspect|warm_scan|serve_append> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in this one process, generates its records and
//! model weights from `--seed`, sets itself up [`SETUPS`] times (the
//! reported `setup_s` is the median), then runs a closed loop for
//! `--seconds` seconds and checks every op's output against a reference
//! computed from the same seed. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are [`END_TO_END`]; with `--trace 1` they are [`PER_LAYER`],
//! measured on every other op (the ops in between stay untraced, which
//! gives `trace.overhead_pct`), and the spans are written to
//! `.perfbench-run/trace-<workload>.tsv`.
//!
//! Scratch files live under `.perfbench-run/` in the working directory
//! and are removed when the run ends.

mod inspect;
mod probes;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. A cheap set-up repeats
/// until [`SETUP_MIN_SECONDS`] have passed (at most [`SETUPS_MAX`] times),
/// so its median rests on enough samples.
pub const SETUPS: usize = 3;
pub const SETUPS_MAX: usize = 64;
pub const SETUP_MIN_SECONDS: f64 = 1.5;

/// End-to-end metrics (name, unit), printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), printed by every traced run. A layer
/// the workload does not exercise reads 0. Per-op values are averages
/// over the traced ops.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("query.parse_us", "us"),
    ("plan.bind_us", "us"),
    ("plan.explain_us", "us"),
    ("engine.passes_per_op", "count"),
    ("engine.records_read_ratio", "ratio"),
    ("engine.blocks_processed", "count"),
    ("engine.self_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_calls", "count"),
    ("nn.rows_extracted", "count"),
    ("lang.hypothesis_ms", "ms"),
    ("lang.hypothesis_evals", "count"),
    ("cache.hit_ratio", "ratio"),
    ("measure.ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.scan_ms", "ms"),
    ("store.blocks_read", "count"),
    ("store.blocks_pruned", "count"),
    ("store.pool_hits", "count"),
    ("store.pool_misses", "count"),
    ("store.pool_evictions", "count"),
    ("store.lookups_per_block", "ratio"),
    ("store.disk_bytes_per_append", "B"),
    ("store.stored_bytes_per_raw_byte", "ratio"),
    ("admission.waves_admitted", "count"),
    ("admission.waves_waited", "count"),
    ("admission.wait_ratio", "ratio"),
    ("admission.max_queue_depth", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.response_bytes", "B"),
    ("model.wal_append_us", "us"),
    ("model.seal_p50_ms", "ms"),
    ("model.snapshot_ms", "ms"),
    ("model.reopen_ms", "ms"),
    ("model.wal_bytes_per_record", "B"),
    ("serve.inspect_p95_ms", "ms"),
    ("serve.post_append_inspect_p50_ms", "ms"),
    ("serve.append_p50_ms", "ms"),
    ("serve.refresh_p50_ms", "ms"),
    ("serve.view_read_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one run of a workload passes to its body.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (created empty, removed at exit).
    pub work: PathBuf,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold; any entry fails the run.
    pub gate_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed gate (kept short: the first few are printed).
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Latency samples in milliseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Linear-interpolated quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `traced / untraced - 1` of the two medians, in percent.
pub fn overhead_pct(traced: &Samples, untraced: &Samples) -> f64 {
    let base = untraced.median();
    if base > 0.0 {
        (traced.median() / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Runs `setup` [`SETUPS`] or more times (each in its own fresh
/// subdirectory of `work`), returns the last result and the median
/// set-up time in seconds. Earlier results are dropped before the next
/// set-up starts.
pub fn repeat_setup<T>(
    work: &Path,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Samples::default();
    let mut last = None;
    let begin = Instant::now();
    for k in 0..SETUPS_MAX {
        if k >= SETUPS && begin.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            break;
        }
        drop(last.take());
        let dir = work.join(format!("setup-{k}"));
        let start = Instant::now();
        let value = setup(&dir)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("SETUPS > 0"), times.median()))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// A small deterministic generator for records (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6465_6570_6261_7365)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(".perfbench-run");
    let work = run_dir.join(format!("{}-{}", cli.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        work: work.clone(),
    };
    let result = match cli.workload.as_str() {
        "cold_inspect" => inspect::cold_inspect(&args),
        "warm_scan" => inspect::warm_scan(&args),
        "serve_append" => serve::serve_append(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let spans = trace::take();
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cli.workload);
            std::process::exit(1);
        }
    };
    if cli.trace {
        let path = run_dir.join(format!("trace-{}.tsv", cli.workload));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    let _ = std::fs::remove_dir(&run_dir);

    let wanted: &[(&str, &str)] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if cli.trace => 0.0,
            None => panic!("workload {} did not report {name}", cli.workload),
        };
        println!("{name:<36} {value:>14.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    outcome.gate(outcome.attempted > 0, || "no op was attempted".into());
    for failure in outcome.gate_failures.iter().take(5) {
        eprintln!("perfbench: correctness gate failed: {failure}");
    }
    let correct = outcome.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
