//! The four workloads and one repetition of each: build a store, preload
//! it, drain background work, run a fixed, seeded operation stream against
//! `LdcDb` through its public API, and check every answer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ldc_bench::paper_scaled_options;
use ldc_core::LdcDb;
use ldc_lsm::db::DbStats;
use ldc_lsm::CacheCounters;
use ldc_obs::{Blame, OpType};
use ldc_ssd::{FtlStats, IoStatsSnapshot, MemStorage, SsdDevice, StorageBackend, TimeCategory};

use crate::gen::{Codec, Rng, Zipf, KEY_BYTES, VALUE_BYTES};
use crate::timed::{self, IoSpan, PhaseSink, PhaseTotals, TimedStorage};

/// Entries a scan asks for (YCSB-E's scan length in this benchmark).
const SCAN_LEN: usize = 50;
/// Worst traces kept per op type in the traced run.
const TRACE_WORST_K: usize = 32;
/// Keys re-read after the final drain to catch lost or stale writes.
const FINAL_CHECK_KEYS: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table III RWB: 50% put / 50% get, uniform, inline, fits the cache.
    Rwb,
    /// 100% uniform get over a drained store 4x the block cache.
    ReadCold,
    /// YCSB-E: 95% scans of 50 / 5% inserts, zipfian 0.99, fits the cache.
    ScanZipf,
    /// One writer and one reader on one handle, one background worker.
    RwwThreaded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Rwb,
        Workload::ReadCold,
        Workload::ScanZipf,
        Workload::RwwThreaded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rwb => "rwb",
            Workload::ReadCold => "read-cold",
            Workload::ScanZipf => "scan-zipf",
            Workload::RwwThreaded => "rww-threaded",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether background work runs inline on the load thread, which makes
    /// every virtual-clock number a pure function of the seed.
    pub fn inline(self) -> bool {
        self != Workload::RwwThreaded
    }

    fn plan(self) -> Plan {
        let cache = paper_scaled_options().block_cache_bytes;
        match self {
            Workload::Rwb => Plan {
                preload: 16_384,
                sorted_preload: false,
                ops: 40_000,
                cache_bytes: cache,
                workers: 0,
            },
            // 4 MiB of cache against 16 MiB of data: the cache is shrunk
            // rather than the preload grown, to keep set-up short.
            Workload::ReadCold => Plan {
                preload: 16_384,
                sorted_preload: false,
                ops: 40_000,
                cache_bytes: 4 << 20,
                workers: 0,
            },
            // Loaded in key order, so every seed starts from the same
            // compacted tree and the window's inserts drive the only
            // compaction: with a random load, whether the few flushes in
            // the window set off LDC merges swung virtual throughput by
            // over 25% between seeds.
            Workload::ScanZipf => Plan {
                preload: 16_384,
                sorted_preload: true,
                ops: 36_000,
                cache_bytes: cache,
                workers: 0,
            },
            Workload::RwwThreaded => Plan {
                preload: 16_384,
                sorted_preload: false,
                ops: 30_000,
                cache_bytes: cache,
                workers: 1,
            },
        }
    }
}

struct Plan {
    /// Items written (version 1) before the window.
    preload: u64,
    /// Preload in key order instead of item order (which scatters keys).
    sorted_preload: bool,
    /// Operations in the window (the writer's puts for `rww-threaded`).
    ops: usize,
    cache_bytes: usize,
    workers: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get = 0,
    Put = 1,
    Scan = 2,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Put, OpKind::Scan];

    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
        }
    }

    fn op_type(self) -> OpType {
        match self {
            OpKind::Get => OpType::Get,
            OpKind::Put => OpType::Put,
            OpKind::Scan => OpType::Scan,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    item: u64,
}

/// Per-op latencies of one op type, in host and virtual nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub host_ns: Vec<u64>,
    pub virt_ns: Vec<u64>,
}

/// One facade call in the traced run (host ns since the rep's origin).
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub id: u64,
    pub kind: OpKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Engine and device counters read through the public API.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub stats: DbStats,
    pub cache: CacheCounters,
    pub io: IoStatsSnapshot,
    pub ftl: FtlStats,
    pub ledger: [u64; 5],
    pub blame: [[u64; Blame::COUNT]; 3],
}

impl Counters {
    fn read(db: &LdcDb) -> Self {
        let device = db.device();
        let metrics = db.metrics();
        let mut ledger = [0u64; 5];
        for (slot, cat) in ledger.iter_mut().zip(TimeCategory::ALL) {
            *slot = device.ledger().get(cat);
        }
        let blame = OpKind::ALL.map(|k| metrics.blame_totals(k.op_type()));
        Counters {
            stats: db.stats(),
            cache: db.block_cache_counters(),
            io: device.io_stats(),
            ftl: device.ftl_stats(),
            ledger,
            blame,
        }
    }
}

/// What the traced run adds to a repetition.
#[derive(Debug, Default)]
pub struct TraceData {
    pub ops: Vec<OpSpan>,
    pub io: Vec<IoSpan>,
    pub phases: PhaseTotals,
    /// Worst traces whose blame buckets did not sum to their total.
    pub blame_sum_mismatches: u64,
    pub worst_traces: u64,
}

/// End state of the store after the window and the final drain.
#[derive(Debug, Clone, Copy)]
pub struct EndState {
    pub l0_files: usize,
    pub sst_files: usize,
    pub frozen_bytes: u64,
    pub space_bytes: u64,
    pub live_user_bytes: u64,
}

/// Everything one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub window_host_s: f64,
    pub samples: [Samples; 3],
    /// Virtual nanoseconds of the window plus the final drain.
    pub virt_window_ns: u64,
    pub final_drain_host_ns: u64,
    /// Counters at the start of the window and at its end (after the
    /// final drain).
    pub before: Counters,
    pub after: Counters,
    pub end: EndState,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub trace: Option<TraceData>,
}

impl Rep {
    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.host_ns.len() as u64).sum()
    }
}

/// Bookkeeping for failed or wrong answers.
#[derive(Default)]
struct Faults {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Faults {
    fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first.is_none() {
            self.first = Some(msg());
        }
    }

    fn merge(&mut self, other: Faults) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// What the benchmark believes each item holds.
struct Model {
    codec: Codec,
    /// Latest acknowledged version per item (0: never written).
    versions: Vec<u64>,
    /// Key order, kept only for workloads that scan.
    order: Option<BTreeMap<[u8; KEY_BYTES], u64>>,
    expected: Vec<u8>,
}

impl Model {
    fn value_matches(&mut self, item: u64, value: &[u8]) -> bool {
        let version = self.versions[item as usize];
        self.codec.value(item, version, &mut self.expected);
        version != 0 && value == self.expected.as_slice()
    }
}

/// Runs one repetition of `workload`: set-up, then the timed window.
pub fn run_rep(workload: Workload, seed: u64, traced: bool) -> Rep {
    let plan = workload.plan();
    let codec = Codec::new(seed);
    let origin = Instant::now();

    let mut options = paper_scaled_options();
    options.wal_sync = false;
    options.block_cache_bytes = plan.cache_bytes;
    options.background_workers = plan.workers;
    let mut builder = LdcDb::builder().options(options);
    let mut instruments = None;
    if traced {
        let device = SsdDevice::new(ldc_ssd::SsdConfig::default());
        let storage = TimedStorage::new(MemStorage::new(device), origin);
        let sink = Arc::new(PhaseSink::default());
        builder = builder
            .storage(Arc::clone(&storage) as Arc<dyn StorageBackend>)
            .event_sink(Arc::clone(&sink) as ldc_obs::SharedSink)
            .trace_worst_k(TRACE_WORST_K);
        instruments = Some((storage, sink));
    }

    let db = builder.build().expect("open store");
    let mut value = Vec::with_capacity(VALUE_BYTES);
    let mut load_order: Vec<u64> = (0..plan.preload).collect();
    if plan.sorted_preload {
        load_order.sort_by_key(|&item| codec.key(item));
    }
    for item in load_order {
        codec.value(item, 1, &mut value);
        db.put(&codec.key(item), &value).expect("preload put");
    }
    db.drain_background();
    let warm_up_faults = warm_up(&db, codec, plan.preload);
    let setup_s = origin.elapsed().as_secs_f64();

    // Inputs and the answer model are built before the window opens.
    let ops = workload.inline().then(|| op_stream(workload, seed, &plan));
    let model = ops.as_ref().map(|ops| {
        let inserts = ops.iter().filter(|o| o.item >= plan.preload).count();
        let mut versions = vec![1; plan.preload as usize];
        versions.resize(versions.len() + inserts, 0);
        Model {
            codec,
            versions,
            order: (workload == Workload::ScanZipf)
                .then(|| (0..plan.preload).map(|i| (codec.key(i), i)).collect()),
            expected: Vec::with_capacity(VALUE_BYTES),
        }
    });

    if let Some((storage, sink)) = &instruments {
        storage.take_spans();
        sink.take();
    }
    let before = Counters::read(&db);
    let clock = db.device().clock().clone();
    let v_start = clock.now();
    let window_start = Instant::now();
    let (samples, op_spans, faults, versions) = match (ops, model) {
        (Some(ops), Some(mut model)) => {
            let (samples, spans, faults) =
                run_single(&db, &ops, &mut model, traced, origin, &clock);
            (samples, spans, faults, model.versions)
        }
        _ => run_threaded(&db, seed, &plan, traced, origin, &clock),
    };
    let window_host_s = window_start.elapsed().as_secs_f64();

    let drain_start = Instant::now();
    db.drain_background();
    let final_drain_host_ns = drain_start.elapsed().as_nanos() as u64;
    let virt_window_ns = clock.now() - v_start;

    let trace = instruments.map(|(storage, sink)| {
        let worst = db.worst_traces();
        let mismatches = worst
            .iter()
            .filter(|t| t.blame_breakdown().iter().sum::<u64>() != t.total)
            .count() as u64;
        TraceData {
            ops: op_spans,
            io: storage.take_spans(),
            phases: sink.take(),
            blame_sum_mismatches: mismatches,
            worst_traces: worst.len() as u64,
        }
    });
    let after = Counters::read(&db);
    let version = db.engine().version();
    let live_items = versions.iter().filter(|&&v| v != 0).count() as u64;
    let end = EndState {
        l0_files: version.level_files(0),
        sst_files: (0..version.num_levels())
            .map(|l| version.level_files(l))
            .sum(),
        frozen_bytes: version.frozen_bytes(),
        space_bytes: db.space_bytes(),
        live_user_bytes: live_items * (KEY_BYTES + VALUE_BYTES) as u64,
    };
    // After every counter is read, so these gets stay out of the window.
    let mut faults = faults;
    faults.merge(warm_up_faults);
    faults.merge(final_check(&db, codec, &versions, seed));

    Rep {
        setup_s,
        window_host_s,
        samples,
        virt_window_ns,
        final_drain_host_ns,
        before,
        after,
        end,
        attempted: faults.attempted,
        failed: faults.failed,
        first_failure: faults.first,
        trace,
    }
}

/// The window's operation stream for a single-threaded workload.
fn op_stream(workload: Workload, seed: u64, plan: &Plan) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    let mut next_new = plan.preload;
    let zipf = (workload == Workload::ScanZipf).then(|| Zipf::new(plan.preload, 0.99));
    (0..plan.ops)
        .map(|_| match workload {
            Workload::Rwb => Op {
                kind: if rng.below(2) == 0 {
                    OpKind::Put
                } else {
                    OpKind::Get
                },
                item: rng.below(plan.preload),
            },
            Workload::ReadCold => Op {
                kind: OpKind::Get,
                item: rng.below(plan.preload),
            },
            Workload::ScanZipf => {
                if rng.below(100) < 5 {
                    next_new += 1;
                    Op {
                        kind: OpKind::Put,
                        item: next_new - 1,
                    }
                } else {
                    let zipf = zipf.as_ref().expect("scan workload has a chooser");
                    Op {
                        kind: OpKind::Scan,
                        item: zipf.sample(&mut rng),
                    }
                }
            }
            Workload::RwwThreaded => unreachable!("threaded workload has two streams"),
        })
        .collect()
}

/// Host nanoseconds since `origin`.
fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn run_single(
    db: &LdcDb,
    ops: &[Op],
    model: &mut Model,
    traced: bool,
    origin: Instant,
    clock: &ldc_ssd::VirtualClock,
) -> ([Samples; 3], Vec<OpSpan>, Faults) {
    let codec = model.codec;
    let mut samples: [Samples; 3] = Default::default();
    for s in &mut samples {
        s.host_ns.reserve(ops.len());
        s.virt_ns.reserve(ops.len());
    }
    let mut spans = Vec::with_capacity(if traced { ops.len() } else { 0 });
    let mut faults = Faults::default();
    let mut value = Vec::with_capacity(VALUE_BYTES);
    let mut next_version = 2u64;
    timed::mark_load_thread();

    for (n, op) in ops.iter().enumerate() {
        let key = codec.key(op.item);
        if op.kind == OpKind::Put {
            codec.value(op.item, next_version, &mut value);
        }
        let id = n as u64 + 1;
        if traced {
            timed::set_current_op(id);
        }
        let v0 = clock.now();
        let t0 = ns_since(origin);
        let outcome = match op.kind {
            OpKind::Get => db.get(&key).map(Answer::Value),
            OpKind::Put => db.put(&key, &value).map(|()| Answer::Done),
            OpKind::Scan => db.scan(&key, SCAN_LEN).map(Answer::Rows),
        };
        let t1 = ns_since(origin);
        let v1 = clock.now();
        if traced {
            timed::set_current_op(0);
            spans.push(OpSpan {
                id,
                kind: op.kind,
                start_ns: t0,
                end_ns: t1,
            });
        }
        let s = &mut samples[op.kind as usize];
        s.host_ns.push(t1 - t0);
        s.virt_ns.push(v1 - v0);

        faults.attempted += 1;
        match outcome {
            Err(e) => faults.fail(|| format!("{} item {}: {e}", op.kind.label(), op.item)),
            Ok(Answer::Done) => {
                model.versions[op.item as usize] = next_version;
                next_version += 1;
                if let Some(order) = &mut model.order {
                    order.insert(key, op.item);
                }
            }
            Ok(Answer::Value(got)) => {
                if !got
                    .as_deref()
                    .is_some_and(|v| model.value_matches(op.item, v))
                {
                    faults.fail(|| format!("get item {}: wrong or missing value", op.item));
                }
            }
            Ok(Answer::Rows(rows)) => {
                if let Err(msg) = check_scan(model, &key, &rows) {
                    faults.fail(|| format!("scan from item {}: {msg}", op.item));
                }
            }
        }
    }
    (samples, spans, faults)
}

enum Answer {
    Done,
    Value(Option<Vec<u8>>),
    Rows(Vec<(Vec<u8>, Vec<u8>)>),
}

/// A scan must return, in key order, exactly the model's next `SCAN_LEN`
/// keys from `start`, each with its latest value.
fn check_scan(
    model: &mut Model,
    start: &[u8; KEY_BYTES],
    rows: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), String> {
    let expected: Vec<([u8; KEY_BYTES], u64)> = model
        .order
        .as_ref()
        .ok_or("scan without a key-order model")?
        .range(*start..)
        .take(SCAN_LEN)
        .map(|(k, i)| (*k, *i))
        .collect();
    if rows.len() != expected.len() {
        return Err(format!("{} rows, expected {}", rows.len(), expected.len()));
    }
    for (row, (key, item)) in rows.iter().zip(expected) {
        if row.0.as_slice() != key {
            return Err("keys out of order or missing".to_string());
        }
        if !model.value_matches(item, &row.1) {
            return Err(format!("item {item}: wrong value"));
        }
    }
    Ok(())
}

/// `rww-threaded`: one writer (uniform overwrites) and one reader (uniform
/// gets) on one handle. A read must see a version no older than the last
/// write acknowledged before it started and no newer than the last write
/// issued before it ended.
fn run_threaded(
    db: &LdcDb,
    seed: u64,
    plan: &Plan,
    traced: bool,
    origin: Instant,
    clock: &ldc_ssd::VirtualClock,
) -> ([Samples; 3], Vec<OpSpan>, Faults, Vec<u64>) {
    let codec = Codec::new(seed);
    let n = plan.preload as usize;
    let issued: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(1)).collect();
    let acked: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(1)).collect();
    let writer_done = AtomicBool::new(false);

    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            timed::mark_load_thread();
            let mut rng = Rng::new(seed, 2);
            let mut out = Lane::new(plan.ops);
            let mut value = Vec::with_capacity(VALUE_BYTES);
            for i in 0..plan.ops {
                let item = rng.below(plan.preload);
                let version = i as u64 + 2;
                let key = codec.key(item);
                codec.value(item, version, &mut value);
                issued[item as usize].store(version, Ordering::SeqCst);
                let id = 2 * i as u64 + 1;
                let result = out.time(OpKind::Put, id, traced, origin, clock, || {
                    db.put(&key, &value)
                });
                match result {
                    Ok(()) => acked[item as usize].store(version, Ordering::SeqCst),
                    Err(e) => out.faults.fail(|| format!("put item {item}: {e}")),
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            out
        });
        let reader = s.spawn(|| {
            timed::mark_load_thread();
            let mut rng = Rng::new(seed, 3);
            let mut out = Lane::new(plan.ops);
            let mut expected = Vec::with_capacity(VALUE_BYTES);
            let mut i = 0u64;
            while !writer_done.load(Ordering::SeqCst) {
                let item = rng.below(plan.preload);
                let key = codec.key(item);
                let lo = acked[item as usize].load(Ordering::SeqCst);
                i += 1;
                let result = out.time(OpKind::Get, 2 * i, traced, origin, clock, || db.get(&key));
                let hi = issued[item as usize].load(Ordering::SeqCst);
                let ok = match &result {
                    Ok(Some(v)) => match Codec::header(v) {
                        Some((idx, ver)) if idx == item && (lo..=hi).contains(&ver) => {
                            codec.value(item, ver, &mut expected);
                            *v == expected
                        }
                        _ => false,
                    },
                    _ => false,
                };
                if !ok {
                    out.faults
                        .fail(|| format!("get item {item}: wrong or missing value"));
                }
            }
            out
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });

    let mut samples: [Samples; 3] = Default::default();
    samples[OpKind::Put as usize] = writer.samples;
    samples[OpKind::Get as usize] = reader.samples;
    let mut spans = writer.spans;
    spans.extend(reader.spans);
    let mut faults = writer.faults;
    faults.merge(reader.faults);
    let versions = acked.iter().map(|v| v.load(Ordering::SeqCst)).collect();
    (samples, spans, faults, versions)
}

/// One load thread's measurements.
struct Lane {
    samples: Samples,
    spans: Vec<OpSpan>,
    faults: Faults,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            samples: Samples {
                host_ns: Vec::with_capacity(capacity),
                virt_ns: Vec::with_capacity(capacity),
            },
            spans: Vec::new(),
            faults: Faults::default(),
        }
    }

    fn time<T>(
        &mut self,
        kind: OpKind,
        id: u64,
        traced: bool,
        origin: Instant,
        clock: &ldc_ssd::VirtualClock,
        call: impl FnOnce() -> T,
    ) -> T {
        if traced {
            timed::set_current_op(id);
        }
        let v0 = clock.now();
        let t0 = ns_since(origin);
        let out = call();
        let t1 = ns_since(origin);
        let v1 = clock.now();
        if traced {
            timed::set_current_op(0);
            self.spans.push(OpSpan {
                id,
                kind,
                start_ns: t0,
                end_ns: t1,
            });
        }
        self.samples.host_ns.push(t1 - t0);
        self.samples.virt_ns.push(v1.saturating_sub(v0));
        self.faults.attempted += 1;
        out
    }
}

/// Reads the whole preloaded store once, in key order, so the window
/// starts from a filled block cache rather than timing its first fill, and
/// checks that every preloaded item came back at version 1.
fn warm_up(db: &LdcDb, codec: Codec, preload: u64) -> Faults {
    let mut faults = Faults {
        attempted: 1,
        ..Faults::default()
    };
    let mut expected: Vec<([u8; KEY_BYTES], u64)> =
        (0..preload).map(|i| (codec.key(i), i)).collect();
    expected.sort_unstable();
    let mut value = Vec::with_capacity(VALUE_BYTES);
    match db.scan(&[], preload as usize) {
        Err(e) => faults.fail(|| format!("warm-up scan: {e}")),
        Ok(rows) => {
            let intact = rows.len() == expected.len()
                && rows.iter().zip(&expected).all(|(row, (key, item))| {
                    codec.value(*item, 1, &mut value);
                    row.0.as_slice() == key && row.1 == value
                });
            if !intact {
                faults.fail(|| "warm-up scan: preloaded items missing or wrong".to_string());
            }
        }
    }
    faults
}

/// After the final drain, a seeded sample of items must read back at
/// exactly their last acknowledged version.
fn final_check(db: &LdcDb, codec: Codec, versions: &[u64], seed: u64) -> Faults {
    let mut faults = Faults::default();
    let mut rng = Rng::new(seed, 4);
    let mut expected = Vec::with_capacity(VALUE_BYTES);
    for _ in 0..FINAL_CHECK_KEYS.min(versions.len() as u64) {
        let item = rng.below(versions.len() as u64);
        let version = versions[item as usize];
        faults.attempted += 1;
        let got = db.get(&codec.key(item));
        let ok = match (&got, version) {
            (Ok(None), 0) => true,
            (Ok(Some(v)), ver) if ver != 0 => {
                codec.value(item, ver, &mut expected);
                *v == expected
            }
            _ => false,
        };
        if !ok {
            faults.fail(|| format!("final read of item {item}: expected version {version}"));
        }
    }
    faults
}
