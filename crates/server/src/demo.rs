//! Shared demo workload: a char-LSTM catalog with a forward-pass
//! counter, used by the server binary and the integration tests so both
//! serve exactly the same catalog.
//!
//! 4-symbol sequences, one LSTM probe model, character-class and
//! position hypotheses — an extraction-bound batch where a warm behavior
//! store pays.

use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_nn::{CharLstmModel, OutputMode};
use deepbase_tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default record count.
pub const ND: usize = 384;
/// Default symbols per record.
pub const NS: usize = 16;
/// Default hidden units of the probe model.
pub const UNITS: usize = 96;

/// Owned char-LSTM extractor with forward-pass counting and a weight
/// fingerprint (the durable store key). The counter is how tests and
/// benches *prove* a warm store serves queries without touching the
/// model — including over TCP.
pub struct CountingLstmExtractor {
    model: CharLstmModel,
    forward_passes: Arc<AtomicUsize>,
}

impl Extractor for CountingLstmExtractor {
    fn n_units(&self) -> usize {
        self.model.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.forward_passes.fetch_add(1, Ordering::SeqCst);
        if records.is_empty() {
            return Matrix::zeros(0, unit_ids.len());
        }
        let inputs: Vec<Vec<u32>> = records.iter().map(|r| r.symbols.clone()).collect();
        let full = self.model.extract_activations(&inputs);
        let mut out = Matrix::zeros(full.rows(), unit_ids.len());
        for r in 0..full.rows() {
            let src = full.row(r);
            let dst = out.row_mut(r);
            for (c, &u) in unit_ids.iter().enumerate() {
                dst[c] = src[u];
            }
        }
        out
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(char_model_fingerprint(&self.model))
    }
}

/// The deterministic demo records: `nd` sequences of `ns` symbols over
/// the alphabet a–d.
pub fn records(nd: usize, ns: usize) -> Vec<Record> {
    (0..nd)
        .map(|i| {
            let chars: Vec<char> = (0..ns)
                .map(|t| match (i * 11 + t * 5) % 7 {
                    0 | 4 => 'a',
                    1 | 5 => 'b',
                    2 => 'c',
                    _ => 'd',
                })
                .collect();
            let symbols: Vec<u32> = chars.iter().map(|&c| c as u32 - 'a' as u32).collect();
            Record::standalone(i, symbols, chars.into_iter().collect())
        })
        .collect()
}

/// Builds the demo catalog at an explicit size: model `probe` with
/// `units` hidden units (layer = uid % 2), hypothesis sets `chars` and
/// `position`, dataset `seq` with `nd` records of `ns` symbols.
pub fn catalog_sized(nd: usize, ns: usize, units: usize, passes: &Arc<AtomicUsize>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "probe",
        5,
        Arc::new(CountingLstmExtractor {
            model: CharLstmModel::new(4, units, OutputMode::LastStep, 42),
            forward_passes: Arc::clone(passes),
        }),
        (0..units)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
            Arc::new(FnHypothesis::char_class("is_c", |c| c == 'c')),
        ],
    );
    catalog.add_hypotheses("position", vec![Arc::new(FnHypothesis::position_counter())]);
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::new("seq", ns, records(nd, ns)).unwrap()),
    );
    catalog
}

/// Builds the demo catalog at the default [`ND`]/[`NS`]/[`UNITS`] size.
pub fn catalog(passes: &Arc<AtomicUsize>) -> Catalog {
    catalog_sized(ND, NS, UNITS, passes)
}

/// The demo inspection batch: overlapping unit filters and GROUP BY over
/// correlation. A tiny epsilon keeps every pass streaming the full
/// dataset, so a cold run materializes complete store columns.
pub const QUERIES: [&str; 5] = [
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D HAVING S.unit_score > 0.5",
    "SELECT S.group_id, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE H.name = 'chars' GROUP BY U.layer",
    "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'position'",
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE U.layer = 0 HAVING S.unit_score > 0.3",
    "SELECT S.uid, S.unit_score, S.group_score INSPECT U.uid AND H.h USING corr \
     OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
     WHERE U.uid < 24 AND H.name = 'chars'",
];

/// The inspection config the demo workload runs under (block size 64,
/// epsilon small enough that every pass streams the full dataset).
pub fn inspection() -> InspectionConfig {
    InspectionConfig {
        block_records: 64,
        epsilon: Some(1e-12),
        ..Default::default()
    }
}
