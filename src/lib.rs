//! # deepbase-repro
//!
//! Root facade of the DeepBase reproduction (Sellam et al., SIGMOD 2019).
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests read like downstream user code:
//!
//! * [`deepbase`] — the inspection engine (the paper's contribution).
//! * [`nn`] — trainable neural-network substrate (Keras stand-in).
//! * [`lang`] — grammars, parsing, hypotheses, POS tagging (NLTK/CoreNLP
//!   stand-in).
//! * [`stats`] — statistical measures (scipy/scikit-learn stand-in).
//! * [`relational`] — mini columnar engine (PostgreSQL/MADLib stand-in).
//! * [`tensor`] — dense linear algebra (NumPy stand-in), built on cache-
//!   blocked mat-mul kernels.
//! * [`runtime`] — the persistent worker pool behind every parallel path
//!   (the CUDA stand-in). `Device::Parallel(n)` in the engine splits work
//!   into `n` deterministic chunks and runs them on this pool; workers are
//!   spawned once per process and reused across extraction, measure
//!   fan-out and mat-mul calls, so parallel results are always identical
//!   to `Device::SingleCore`.
//!
//! See `examples/` for runnable walkthroughs, `crates/bench` for the
//! harnesses that regenerate every table and figure of the paper, and
//! `perfbench/` for the end-to-end and per-layer benchmark.

pub use deepbase;
pub use deepbase_lang as lang;
pub use deepbase_nn as nn;
pub use deepbase_relational as relational;
pub use deepbase_runtime as runtime;
pub use deepbase_stats as stats;
pub use deepbase_tensor as tensor;
