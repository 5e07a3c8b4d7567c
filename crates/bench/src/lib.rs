//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (Figs. 1–15) has a
//! binary in `src/bin/` that prints the same rows/series the paper
//! reports. Defaults are scaled to finish in seconds–minutes on a
//! laptop; pass `--paper` for paper-scale parameters (§6.2: 29,696
//! records, 512 units, 142 rules, 190 hypotheses).

use deepbase::prelude::*;
use deepbase::workloads::sql;
use deepbase_lang::sql::SqlGrammarConfig;
use std::time::{Duration, Instant};

/// Common CLI arguments for harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run at the paper's full scale.
    pub paper: bool,
    /// Extra scale multiplier on records (1.0 = preset).
    pub scale: f32,
}

/// Printed on `--help` and on a malformed flag.
const USAGE: &str = "flags: --paper (full paper scale), --scale X (record multiplier)";

impl Args {
    /// Parses `--paper` and `--scale X` from `std::env::args`. Prints the
    /// usage line and exits: with status 0 on `--help`, with status 2
    /// when `--scale` is not followed by a number.
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|status| {
            eprintln!("{USAGE}");
            std::process::exit(status)
        })
    }

    /// Parses flags; `Err(status)` asks the caller to print the usage
    /// line and exit with that status.
    fn parse_from(flags: impl IntoIterator<Item = String>) -> Result<Args, i32> {
        let mut args = Args {
            paper: false,
            scale: 1.0,
        };
        let mut iter = flags.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--paper" => args.paper = true,
                "--scale" => match iter.next().and_then(|v| v.parse().ok()) {
                    Some(scale) => args.scale = scale,
                    None => return Err(2),
                },
                "--help" | "-h" => return Err(0),
                other => eprintln!("ignoring unknown flag {other:?}"),
            }
        }
        Ok(args)
    }
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Seconds as a compact string.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// The §6.2 scalability setup: SQL workload + trained model, at harness
/// scale.
pub struct SqlBenchSetup {
    /// The workload (dataset, hypotheses, parse cache, vocab).
    pub workload: sql::SqlWorkload,
    /// The trained auto-completion model.
    pub model: deepbase_nn::CharLstmModel,
    /// Hidden width used.
    pub hidden: usize,
}

/// Builds the default benchmark setup.
///
/// Paper defaults: 29,696 records, 512 hidden units, 142 grammar rules,
/// 190 hypotheses. Quick defaults are whatever the caller passes.
pub fn sql_bench_setup(args: &Args, records: usize, hidden: usize) -> SqlBenchSetup {
    let (records, hidden) = if args.paper {
        (29_696, 512)
    } else {
        (records, hidden)
    };
    let records = ((records as f32 * args.scale) as usize).max(64);
    let workload = sql::build(&sql::SqlWorkloadConfig {
        grammar: SqlGrammarConfig::medium(),
        n_queries: (records / 6).max(8),
        max_records: records,
        ..Default::default()
    });
    let epochs = if args.paper { 8 } else { 2 };
    let snapshots = sql::train_model(&workload, hidden, epochs, 0.02, 0);
    let model = snapshots.into_iter().last().expect("at least one snapshot");
    SqlBenchSetup {
        workload,
        model,
        hidden,
    }
}

/// Runs one inspection with the given engine/measure and returns its
/// profile (scores are discarded; the harnesses report runtimes).
pub fn run_engine(
    setup: &SqlBenchSetup,
    hypotheses: &[&dyn HypothesisFn],
    measure: &dyn Measure,
    engine: EngineKind,
    device: Device,
    epsilon: Option<f32>,
    cache: Option<std::sync::Arc<HypothesisCache>>,
) -> Profile {
    let extractor = CharModelExtractor::new(&setup.model);
    let request = InspectionRequest {
        model_id: "sql_char_model".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(setup.model.hidden())],
        dataset: &setup.workload.dataset,
        hypotheses: hypotheses.to_vec(),
        measures: vec![measure],
    };
    let config = InspectionConfig {
        engine,
        device,
        epsilon,
        cache,
        ..Default::default()
    };
    let (_, profile) = inspect(&request, &config).expect("benchmark inspection");
    profile
}

/// Subset of the hypothesis library as trait objects.
pub fn hypothesis_refs(workload: &sql::SqlWorkload, n: usize) -> Vec<&dyn HypothesisFn> {
    workload
        .hypotheses
        .iter()
        .take(n)
        .map(|h| h as &dyn HypothesisFn)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_builds_and_runs() {
        let args = Args {
            paper: false,
            scale: 1.0,
        };
        let setup = sql_bench_setup(&args, 128, 12);
        assert!(setup.workload.dataset.len() <= 128);
        let hyps = hypothesis_refs(&setup.workload, 4);
        assert_eq!(hyps.len(), 4);
        let corr = CorrelationMeasure;
        let profile = run_engine(
            &setup,
            &hyps,
            &corr,
            EngineKind::DeepBase,
            Device::SingleCore,
            Some(0.1),
            None,
        );
        assert!(profile.records_read > 0);
    }

    #[test]
    fn args_parse_flags_and_reject_a_bad_scale() {
        let parse = |flags: &[&str]| {
            Args::parse_from(flags.iter().map(|f| f.to_string())).map(|a| (a.paper, a.scale))
        };
        assert_eq!(parse(&[]), Ok((false, 1.0)));
        assert_eq!(parse(&["--paper"]), Ok((true, 1.0)));
        assert_eq!(parse(&["--scale", "2"]), Ok((false, 2.0)));
        assert_eq!(parse(&["--paper", "--scale"]), Err(2), "missing value");
        assert_eq!(parse(&["--scale", "two"]), Err(2), "bad value");
        assert_eq!(parse(&["--help"]), Err(0));
    }

    #[test]
    fn table_printer_aligns() {
        print_table(
            &["engine", "time"],
            &[
                vec!["PyBase".into(), "1.0s".into()],
                vec!["DeepBase".into(), "0.1s".into()],
            ],
        );
    }
}
