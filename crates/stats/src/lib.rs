//! # deepbase-stats
//!
//! Statistical affinity measures for Deep Neural Inspection.
//!
//! DeepBase (paper §4.3) quantifies the affinity between hidden-unit
//! behaviors and hypothesis behaviors using statistical measures. The
//! Python original leans on scipy/scikit-learn/Keras; this crate implements
//! the required statistics from scratch:
//!
//! * [`corr`] — Pearson correlation, streaming accumulation, and
//!   Fisher-transform confidence intervals (the early-stopping rule).
//! * [`mi`] — binned mutual information, univariate and multivariate.
//! * [`quantile`] — exact and P² streaming quantiles, quantile binning
//!   (NetDissect-style thresholds).
//! * [`descriptive`] — difference of means, Jaccard/IoU, silhouette score
//!   (the §4.4 verification statistic).
//! * [`classify`] — precision/recall/F1/accuracy metrics.
//! * [`logreg`] — single-, multi-output (merged) and softmax logistic
//!   regression probes with Adam, L1/L2 and incremental `process_block`
//!   training.
//! * [`baselines`] — random- and majority-class baselines.
//! * [`split`] — deterministic shuffles, train/test and k-fold splits.

pub mod baselines;
pub mod classify;
pub mod corr;
pub mod descriptive;
pub mod logreg;
pub mod mi;
pub mod quantile;
pub mod split;

pub use classify::{f1_score, Confusion};
pub use corr::{pearson, StreamingPearson, Z_95};
pub use descriptive::{difference_of_means, jaccard, jaccard_at_quantile, silhouette_score};
pub use logreg::{ConvergenceTracker, LogRegConfig, MultiLogReg, SoftmaxReg};
pub use mi::{multivariate_mi, mutual_information};
pub use quantile::{quantile, quantile_bin, P2Quantile};
