//! The benchmark's own `Extractor` and `HypothesisFn` implementations.
//!
//! They time forward passes and hypothesis evaluation from outside the
//! engine: while tracing is on, every call opens a span (extractor) or
//! charges leaf time (hypotheses) and bumps the counters below. The
//! forward-pass count used by the correctness gates is kept in every run.

use crate::trace;
use deepbase::prelude::*;
use deepbase_nn::CharLstmModel;
use deepbase_tensor::Matrix;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer counters, advanced only while tracing is on.
pub struct Counters {
    pub forward_ns: AtomicU64,
    pub forward_calls: AtomicU64,
    pub rows_extracted: AtomicU64,
    pub hypothesis_ns: AtomicU64,
    pub hypothesis_evals: AtomicU64,
}

pub static COUNTERS: Counters = Counters {
    forward_ns: AtomicU64::new(0),
    forward_calls: AtomicU64::new(0),
    rows_extracted: AtomicU64::new(0),
    hypothesis_ns: AtomicU64::new(0),
    hypothesis_evals: AtomicU64::new(0),
};

/// A snapshot of [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnapshot {
    pub forward_ns: u64,
    pub forward_calls: u64,
    pub rows_extracted: u64,
    pub hypothesis_ns: u64,
    pub hypothesis_evals: u64,
}

impl CounterSnapshot {
    pub fn now() -> CounterSnapshot {
        let c = &COUNTERS;
        CounterSnapshot {
            forward_ns: c.forward_ns.load(Ordering::Relaxed),
            forward_calls: c.forward_calls.load(Ordering::Relaxed),
            rows_extracted: c.rows_extracted.load(Ordering::Relaxed),
            hypothesis_ns: c.hypothesis_ns.load(Ordering::Relaxed),
            hypothesis_evals: c.hypothesis_evals.load(Ordering::Relaxed),
        }
    }

    pub fn since(&self, before: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            forward_ns: self.forward_ns - before.forward_ns,
            forward_calls: self.forward_calls - before.forward_calls,
            rows_extracted: self.rows_extracted - before.rows_extracted,
            hypothesis_ns: self.hypothesis_ns - before.hypothesis_ns,
            hypothesis_evals: self.hypothesis_evals - before.hypothesis_evals,
        }
    }
}

/// How the probe's unit columns relate to the raw LSTM activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitMix {
    /// Every unit is the raw activation.
    Raw,
    /// Units ≡ 0 (mod 4) are the constant 0.5, units ≡ 1 (mod 4) saturate
    /// to ±1, the rest are raw: the mix real saturated networks show, which
    /// lets the store prune and compress blocks.
    Saturated,
}

/// Char-LSTM extractor that counts and (when tracing) times forward passes.
pub struct LstmProbe {
    model: CharLstmModel,
    mix: UnitMix,
    forward_passes: Arc<AtomicUsize>,
}

impl LstmProbe {
    pub fn new(model: CharLstmModel, mix: UnitMix, forward_passes: &Arc<AtomicUsize>) -> LstmProbe {
        LstmProbe {
            model,
            mix,
            forward_passes: Arc::clone(forward_passes),
        }
    }

    fn forward(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let raw = CharModelExtractor::new(&self.model).extract(records, unit_ids);
        if self.mix == UnitMix::Raw {
            return raw;
        }
        let mut out = raw;
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (c, &u) in unit_ids.iter().enumerate() {
                row[c] = match u % 4 {
                    0 => 0.5,
                    1 if row[c] >= 0.0 => 1.0,
                    1 => -1.0,
                    _ => row[c],
                };
            }
        }
        out
    }
}

impl Extractor for LstmProbe {
    fn n_units(&self) -> usize {
        self.model.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.forward_passes.fetch_add(1, Ordering::SeqCst);
        if !trace::enabled() {
            return self.forward(records, unit_ids);
        }
        let _span = trace::span("nn.forward");
        let start = Instant::now();
        let out = self.forward(records, unit_ids);
        let c = &COUNTERS;
        c.forward_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.forward_calls.fetch_add(1, Ordering::Relaxed);
        c.rows_extracted
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        out
    }

    fn fingerprint(&self) -> Option<u64> {
        let fp = char_model_fingerprint(&self.model);
        Some(match self.mix {
            UnitMix::Raw => fp,
            UnitMix::Saturated => fp ^ 0x7361_7475_7261_7465,
        })
    }
}

/// Hypothesis wrapper that times evaluation while tracing is on.
pub struct TimedHypothesis(pub Arc<dyn HypothesisFn>);

impl TimedHypothesis {
    pub fn wrap_all(hyps: Vec<Arc<dyn HypothesisFn>>) -> Vec<Arc<dyn HypothesisFn>> {
        hyps.into_iter()
            .map(|h| Arc::new(TimedHypothesis(h)) as Arc<dyn HypothesisFn>)
            .collect()
    }
}

impl HypothesisFn for TimedHypothesis {
    fn id(&self) -> &str {
        self.0.id()
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        if !trace::enabled() {
            return self.0.behavior(record);
        }
        let start = Instant::now();
        let out = self.0.behavior(record);
        let ns = start.elapsed().as_nanos() as u64;
        trace::charge_leaf(ns);
        COUNTERS.hypothesis_ns.fetch_add(ns, Ordering::Relaxed);
        COUNTERS.hypothesis_evals.fetch_add(1, Ordering::Relaxed);
        out
    }
}
