//! # ldc-core — Lower-level Driven Compaction
//!
//! Rust implementation of the ICDE 2019 paper *"LDC: A Lower-Level Driven
//! Compaction Method to Optimize SSD-Oriented Key-Value Stores"* (Chai et
//! al.). LDC replaces the traditional upper-level driven compaction of
//! LSM-tree stores with a two-phase mechanism:
//!
//! 1. **link** — instead of immediately merging an upper-level SSTable into
//!    the `O(k)` overlapping lower-level SSTables, the file is *frozen* and
//!    its key range is recorded as lightweight **slice links** on those
//!    lower files (no data I/O);
//! 2. **merge** — a lower-level SSTable that has accumulated `T_s` slices
//!    (about its own size in upper-level data) drives the actual merge,
//!    rewriting itself once per `T_s` upper-level contributions.
//!
//! The result (paper §III-C): per-round compaction granularity drops from
//! `O(k)` SSTables to `O(1)` — smaller write stalls, 2.6x lower P99.9
//! latency — and write amplification drops by a factor of `k`, which on
//! read-fast/write-slow SSDs buys 57-72% higher mixed throughput and half
//! the compaction I/O (longer device lifetime).
//!
//! Crate layout:
//! * [`LdcPolicy`] — the compaction policy (Algorithm 1) plugged into the
//!   `ldc-lsm` engine;
//! * [`AdaptiveThreshold`] — workload-driven self-tuning of `T_s` (§III-B4);
//! * [`model`] — the paper's analytical performance model (§II);
//! * [`LdcDb`] — the store: a builder that wires the policy, the engine and
//!   the simulated SSD substrate together, and a handle that dereferences
//!   to the engine ([`lsm::Db`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod facade;
pub mod model;
mod policy;

pub use adaptive::AdaptiveThreshold;
pub use facade::{CompactionMode, LdcDb, LdcDbBuilder};
pub use policy::{LdcConfig, LdcPolicy};

// Degraded-mode surface: scrub, repair, quarantine.
pub use ldc_lsm::{
    repair_db, repair_db_with_sink, CorruptionInfo, CorruptionPolicy, QuarantinedFile,
    RepairReport, ScrubReport,
};

// Re-export the layers underneath so downstream users need one dependency.
pub use ldc_lsm as lsm;
pub use ldc_ssd as ssd;
