//! Experiment harness: build a store, run a workload, collect every metric
//! the paper's figures need.

use std::sync::Arc;

use ldc_core::{CompactionMode, LdcConfig, LdcDb};
use ldc_lsm::db::DbStats;
use ldc_lsm::Options;
use ldc_obs::{Event, RingBufferSink};
use ldc_ssd::{DeviceSnapshot, IoStatsSnapshot, SsdConfig, TimeCategory};
use ldc_workload::{preload_workload, run_measured, RunReport, WorkloadSpec};

use crate::adapter::DbAdapter;

/// Which compaction mechanism to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The paper's mechanism.
    Ldc,
    /// The LevelDB baseline.
    Udc,
}

impl System {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            System::Ldc => "LDC",
            System::Udc => "UDC",
        }
    }
}

/// Store configuration for one experiment run.
#[derive(Clone)]
pub struct StoreConfig {
    /// LDC or UDC.
    pub system: System,
    /// Engine options.
    pub options: Options,
    /// Simulated-SSD profile.
    pub ssd: SsdConfig,
    /// Fixed SliceLink threshold (None = fan-out); LDC only.
    pub slice_link_threshold: Option<usize>,
    /// Self-adaptive threshold controller; LDC only.
    pub adaptive_threshold: bool,
    /// Frozen-region GC budget override; LDC only.
    pub space_gc_ratio: Option<f64>,
    /// Attach a ring-buffer event sink and export the measured window's
    /// compaction/stall timeline in [`ExperimentResult::events`].
    pub trace_events: bool,
}

/// Ring capacity when [`StoreConfig::trace_events`] is on — generous enough
/// that laptop-scale runs never wrap (each event is a small flat record).
const EVENT_RING_CAPACITY: usize = 1 << 20;

/// Engine geometry for experiment runs: the paper's shape (fan-out 10,
/// 10 bits/key, equal memtable/SSTable size) scaled to 1/4 size so that a
/// laptop-scale op count produces the same tree depth and rotation
/// frequency *relative to the data size* as the paper's 10-30 M-request
/// runs. DESIGN.md §1 documents this substitution.
pub fn paper_scaled_options() -> Options {
    Options {
        memtable_bytes: 512 << 10,
        sstable_bytes: 512 << 10,
        l1_capacity_bytes: 2 << 20,
        // The paper's testbed had enough RAM that the OS page cache covered
        // most of the store (reads cost ~RAM once warm); give the block
        // cache the same role at our scale.
        block_cache_bytes: 64 << 20,
        ..Options::default()
    }
}

impl StoreConfig {
    /// Paper-shaped (scaled) configuration for `system`.
    pub fn new(system: System) -> Self {
        Self {
            system,
            options: paper_scaled_options(),
            ssd: SsdConfig::default(),
            slice_link_threshold: None,
            adaptive_threshold: false,
            space_gc_ratio: None,
            trace_events: false,
        }
    }

    fn build(&self) -> (LdcDb, Option<Arc<RingBufferSink>>) {
        let mode = match self.system {
            System::Udc => CompactionMode::Udc,
            System::Ldc => {
                let mut config = LdcConfig {
                    slice_link_threshold: self.slice_link_threshold,
                    adaptive: self.adaptive_threshold,
                    ..LdcConfig::default()
                };
                if let Some(ratio) = self.space_gc_ratio {
                    config.space_gc_ratio = ratio;
                }
                CompactionMode::Ldc(config)
            }
        };
        let mut builder = LdcDb::builder()
            .options(self.options.clone())
            .ssd_config(self.ssd.clone())
            .mode(mode);
        let sink = self
            .trace_events
            .then(|| Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY)));
        if let Some(sink) = &sink {
            builder = builder.event_sink(sink.clone());
        }
        (builder.build().expect("store construction"), sink)
    }
}

/// Everything measured over one run's measured window.
pub struct ExperimentResult {
    /// Which system ran.
    pub system: System,
    /// Latency/throughput report from the runner.
    pub report: RunReport,
    /// Device traffic during the measured window only.
    pub io: IoStatsSnapshot,
    /// Device traffic including preload.
    pub total_io: IoStatsSnapshot,
    /// Device state at the end (wear, FTL counters).
    pub device: DeviceSnapshot,
    /// Engine counters.
    pub db_stats: DbStats,
    /// Live file bytes at the end (Fig 15).
    pub space_bytes: u64,
    /// Bytes in active level files at the end.
    pub level_bytes: u64,
    /// Bytes pinned in the frozen region at the end (LDC only).
    pub frozen_bytes: u64,
    /// Data-block reads from the device during the measured window (Fig 13).
    pub block_reads: u64,
    /// (category label, fraction of virtual time) — Table I.
    pub time_breakdown: Vec<(&'static str, f64)>,
    /// Structured event timeline for the measured window (flushes, merges,
    /// links, stalls, GC, ...). Empty unless [`StoreConfig::trace_events`].
    pub events: Vec<Event>,
}

impl ExperimentResult {
    /// Compaction bytes (read + write) during the measured window.
    pub fn compaction_io_bytes(&self) -> u64 {
        self.io.compaction_read_bytes() + self.io.compaction_write_bytes()
    }

    /// Throughput in operations per virtual second.
    pub fn throughput(&self) -> f64 {
        self.report.throughput()
    }
}

/// Builds a store from `config`, preloads `spec`, then measures the main
/// window. Deterministic for fixed seeds.
pub fn run_experiment(config: &StoreConfig, spec: &WorkloadSpec) -> ExperimentResult {
    let (db, sink) = config.build();
    let mut adapter = DbAdapter::new(db);
    preload_workload(spec, &mut adapter).expect("preload");
    // Settle any compaction debt from the preload so it cannot pollute the
    // measured window.
    adapter.db_mut().drain_background();

    let device = adapter.db().device().clone();
    let io_before = device.io_stats();
    let misses_before = adapter.db().block_cache_counters().misses;
    device.ledger().reset();

    let clock = device.clock().clone();
    let window_start = clock.now();
    let mut report = run_measured(spec, &mut adapter, &clock).expect("measured run");
    // Pending background work belongs to this window's total time.
    report.duration_nanos += adapter.db_mut().drain_background();

    let io_after = device.io_stats();
    let misses_after = adapter.db().block_cache_counters().misses;
    let ledger = device.ledger();
    let mut time_breakdown: Vec<(&'static str, f64)> = TimeCategory::ALL
        .iter()
        .map(|&c| (c.label(), ledger.fraction(c)))
        .collect();
    // Fold anything unaccounted into "Others".
    let accounted: f64 = time_breakdown.iter().map(|(_, f)| f).sum();
    if let Some(last) = time_breakdown.last_mut() {
        last.1 += (1.0 - accounted).max(0.0);
    }

    ExperimentResult {
        system: config.system,
        report,
        io: io_after.delta_since(&io_before),
        total_io: io_after,
        device: device.snapshot(),
        db_stats: adapter.db().stats(),
        space_bytes: adapter.db().space_bytes(),
        level_bytes: {
            let v = adapter.db().engine().version();
            (0..v.num_levels()).map(|l| v.level_bytes(l)).sum()
        },
        frozen_bytes: adapter.db().engine().version().frozen_bytes(),
        block_reads: misses_after - misses_before,
        time_breakdown,
        events: sink
            .map(|s| {
                s.events()
                    .into_iter()
                    .filter(|e| e.end_nanos >= window_start)
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// Runs the same spec on both systems (UDC first), for side-by-side tables.
pub fn run_both(
    options: &Options,
    ssd: &SsdConfig,
    spec: &WorkloadSpec,
) -> (ExperimentResult, ExperimentResult) {
    let mut udc = StoreConfig::new(System::Udc);
    udc.options = options.clone();
    udc.ssd = ssd.clone();
    let mut ldc = StoreConfig::new(System::Ldc);
    ldc.options = options.clone();
    ldc.ssd = ssd.clone();
    (run_experiment(&udc, spec), run_experiment(&ldc, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec::read_write_balanced(2000)
            .with_key_space(1000)
            .with_codec(ldc_workload::KeyCodec::new(16, 128))
    }

    fn quick_options() -> Options {
        Options::small_for_tests()
    }

    #[test]
    fn experiment_collects_all_metrics() {
        let mut config = StoreConfig::new(System::Ldc);
        config.options = quick_options();
        let result = run_experiment(&config, &quick_spec());
        assert_eq!(result.report.ops, 2000);
        assert!(result.throughput() > 0.0);
        assert!(result.io.total_write_bytes() > 0);
        assert!(result.space_bytes > 0);
        let total: f64 = result.time_breakdown.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-6, "fractions sum to {total}");
    }

    #[test]
    fn measured_window_excludes_preload_io() {
        let mut config = StoreConfig::new(System::Udc);
        config.options = quick_options();
        let result = run_experiment(&config, &quick_spec());
        assert!(
            result.io.total_write_bytes() < result.total_io.total_write_bytes(),
            "window should exclude preload traffic"
        );
    }

    #[test]
    fn traced_run_exports_measured_window_events() {
        let mut config = StoreConfig::new(System::Ldc);
        config.options = quick_options();
        config.trace_events = true;
        let result = run_experiment(&config, &quick_spec());
        assert!(!result.events.is_empty(), "traced run exported no events");
        assert!(
            result.events.iter().any(|e| e.kind.is_compaction()),
            "timeline has no compaction events"
        );
        // The exported timeline covers only the measured window: every
        // event ends at or after the first one begins, and the preload's
        // flush storm (which dwarfs the window's) is filtered out.
        assert!(
            (result
                .events
                .iter()
                .filter(|e| e.kind == ldc_obs::EventKind::Flush)
                .count() as u64)
                <= result.db_stats.flushes,
            "more flush events than lifetime flushes"
        );
        // Untraced runs stay allocation-free: no events.
        config.trace_events = false;
        assert!(run_experiment(&config, &quick_spec()).events.is_empty());
    }

    #[test]
    fn run_both_returns_matching_workloads() {
        let (udc, ldc) = run_both(&quick_options(), &SsdConfig::default(), &quick_spec());
        assert_eq!(udc.system, System::Udc);
        assert_eq!(ldc.system, System::Ldc);
        assert_eq!(udc.report.ops, ldc.report.ops);
        assert!(udc.db_stats.links == 0);
    }
}
