//! `loadbench`: an open-loop load benchmark for the bagpred prediction
//! server, measured from outside the server.
//!
//! Each workload runs in a fresh process that boots the real stack
//! (`bootstrap::default_registry` → `PredictionService::start` →
//! `Server::bind`) and drives it over one loopback connection with two
//! threads. See `README.md` for the workloads, the metrics and how they
//! relate.
//!
//! * [`workload`] — the four traffic mixes and their seeded streams.
//! * [`gen`] — the two-thread generator (open and closed loop).
//! * [`verify`] — the offline bit-for-bit correctness gate.
//! * [`trace`] — spans around each layer's public calls, and the ledger.
//! * [`child`] — one workload run inside its own process.
//! * [`parent`] — the parent process: children, results, `--repeat`, `--compare`.
//! * [`stats`], [`json`], [`metrics`] — exact quantiles, JSON, names.

pub mod child;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod parent;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
