//! Crash / corruption / error-injection verification harness.
//!
//! [`ChaosHarness`] runs a deterministic workload against a store built on
//! a [`FaultStorage`], injects one fault class per run, then reopens and
//! checks the surviving state against an in-memory model:
//!
//! * **Crash points** ([`ChaosHarness::run_crash_point`]): power loss on
//!   the Nth mutating storage operation. With `wal_sync` on, every
//!   acknowledged write must survive exactly; the single in-flight write
//!   may land or vanish (and is checked to do one of the two).
//! * **Bit flips** ([`ChaosHarness::run_bit_flip`]): one bit of a WAL,
//!   SSTable, or manifest is flipped. The store must detect the damage or
//!   mask it — it must never serve a value that was not written.
//! * **I/O errors** ([`ChaosHarness::run_io_errors`]): mutating storage
//!   operations fail with a configured probability. The first failure must
//!   latch the engine's background error (fail-stop), reads must keep
//!   working, and a clean reopen must restore exactly the acknowledged
//!   state.
//!
//! Every failure carries the [`FaultPlan`] and the fault journal, so a
//! red run is replayable from the `(seed, crash point)` pair alone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ldc_core::{CompactionMode, LdcDb, LdcDbBuilder};
use ldc_lsm::backup::for_each_stream_edit;
use ldc_lsm::{
    backup_prefix, checkpoint_complete, repair_db, restore_backup, CorruptionPolicy, Options,
    RecoverySummary, RepairReport,
};
use ldc_obs::{EventKind, RingBufferSink, SharedSink};
use ldc_ssd::{MemStorage, SsdDevice, StorageBackend};
use ldc_sync::Follower;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultStorage, PowerCycleReport};
use crate::plan::{BitFlipTarget, FaultPlan};

/// Decorrelates the workload stream from the fault stream.
const WORKLOAD_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// Workload + engine configuration for a harness run. Two runs with equal
/// configs perform identical operations.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds both the workload and the fault plan.
    pub seed: u64,
    /// Operations the workload attempts.
    pub ops: u64,
    /// Distinct keys the workload draws from.
    pub key_space: u64,
    /// Value payload size in bytes.
    pub value_len: usize,
    /// Every Nth operation is a delete (0 disables deletes).
    pub delete_every: u64,
    /// Compaction mechanism under test.
    pub mode: CompactionMode,
    /// Engine options; `wal_sync` should stay on for crash runs.
    pub options: Options,
}

impl ChaosConfig {
    /// A small, fast configuration: enough traffic for several flushes
    /// and background compactions, seconds per run.
    pub fn quick(seed: u64, mode: CompactionMode) -> Self {
        let options = Options {
            wal_sync: true,
            ..Options::small_for_tests()
        };
        Self {
            seed,
            ops: 300,
            key_space: 64,
            value_len: 120,
            delete_every: 7,
            mode,
            options,
        }
    }
}

/// A verification failure, carrying everything needed to replay it.
#[derive(Debug)]
pub struct ChaosFailure {
    /// The plan the failing run used.
    pub plan: FaultPlan,
    /// What went wrong.
    pub detail: String,
    /// The faults the storage injected, in order.
    pub fault_log: Vec<String>,
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos failure: {}", self.detail)?;
        writeln!(f, "replay plan: {}", self.plan)?;
        writeln!(
            f,
            "replay: ChaosHarness::new(ChaosConfig {{ seed: {}, .. }}) with the plan above",
            self.plan.seed
        )?;
        if self.fault_log.is_empty() {
            write!(f, "faults injected: none")
        } else {
            writeln!(f, "faults injected:")?;
            for (i, line) in self.fault_log.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "  {line}")?;
            }
            Ok(())
        }
    }
}

impl std::error::Error for ChaosFailure {}

/// Result of one crash-point run.
#[derive(Debug, Clone)]
pub struct CrashPointReport {
    /// The mutating-op index the power died on.
    pub crash_op: u64,
    /// Whether the crash actually fired (false once the point lies past
    /// the workload's total storage traffic).
    pub crashed: bool,
    /// Writes acknowledged before the crash.
    pub acked_writes: u64,
    /// What the power cycle discarded.
    pub power_cycle: PowerCycleReport,
    /// What the reopening recovery did.
    pub recovery: RecoverySummary,
}

/// How a bit-flip run ended (both variants are acceptable outcomes; a
/// wrong served value is a [`ChaosFailure`] instead).
#[derive(Debug, Clone)]
pub enum BitFlipOutcome {
    /// The reopen itself refused the corrupt store.
    DetectedAtOpen(String),
    /// The store reopened; reads were each correct or detected.
    Reopened {
        /// Point/scan reads that surfaced a detected corruption error.
        detected_reads: u64,
        /// Whether a full integrity sweep still passes.
        integrity_ok: bool,
        /// Files the recovery quarantined.
        files_quarantined: u32,
    },
}

/// Result of one bit-flip run.
#[derive(Debug, Clone)]
pub struct BitFlipReport {
    /// File the flip hit.
    pub file: String,
    /// Byte offset of the flipped bit.
    pub offset: u64,
    /// Bit index within the byte.
    pub bit: u8,
    /// How the store coped.
    pub outcome: BitFlipOutcome,
}

/// Result of one transient-read run.
#[derive(Debug, Clone)]
pub struct TransientReadReport {
    /// Transient read failures the storage injected.
    pub injected_failures: u64,
    /// Retries the engine's storage wrapper recorded while masking them.
    pub retries_recorded: u64,
}

/// Result of one scrub → quarantine → repair pipeline run.
#[derive(Debug, Clone)]
pub struct ScrubRepairReport {
    /// SSTable the bit flip hit.
    pub file: String,
    /// Byte offset of the flipped bit.
    pub offset: u64,
    /// Bit index within the byte.
    pub bit: u8,
    /// The reopen itself refused the corrupt store (footer/magic damage);
    /// the run went straight to repair without a scrub pass.
    pub detected_at_open: bool,
    /// Corruptions the scrub pass reported.
    pub scrub_corruptions: u64,
    /// Live tables the scrub pass quarantined.
    pub files_quarantined: u64,
    /// What `repair_db` did.
    pub repair: RepairReport,
    /// Keys still serving their latest acknowledged value after repair.
    pub surviving_keys: u64,
    /// Keys lost with the quarantined table(s).
    pub lost_keys: u64,
}

/// Result of one error-injection run.
#[derive(Debug, Clone)]
pub struct IoErrorReport {
    /// Writes acknowledged before the first injected failure.
    pub acked_writes: u64,
    /// Errors the storage injected in total.
    pub injected_errors: u64,
    /// Workload index of the first failed operation, if any failed.
    pub first_error_op: Option<u64>,
}

/// Mutating-op landmarks of the benign backup pipeline, for aiming crash
/// points at specific phases (see [`ChaosHarness::measure_backup_ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupOpsProfile {
    /// Mutating ops performed before `backup_begin` was called; crash
    /// points in `before_checkpoint+1 ..= checkpoint_done` land inside
    /// base-checkpoint creation.
    pub before_checkpoint: u64,
    /// Mutating ops when `backup_begin` returned.
    pub checkpoint_done: u64,
    /// Total mutating ops of the full pipeline; crash points in
    /// `checkpoint_done+1 ..= total` land in the shipping workload.
    pub total: u64,
}

/// Result of one primary-side backup crash run (checkpoint creation or
/// stream shipping interrupted by power loss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupCrashReport {
    /// The mutating-op index the power died on.
    pub crash_op: u64,
    /// Whether the crash actually fired.
    pub crashed: bool,
    /// Writes acknowledged before the crash.
    pub acked_writes: u64,
    /// What the power cycle discarded.
    pub power_cycle: PowerCycleReport,
    /// Whether the backup's base checkpoint survived complete (its
    /// `CURRENT` marker is durable).
    pub backup_complete: bool,
    /// The acknowledged-history prefix the restored copy matched:
    /// restored state == state after this many acknowledged writes
    /// (`acked_writes + 1` encodes "final state plus the in-flight
    /// write"). `None` when the backup was incomplete and refused.
    pub restored_prefix: Option<u64>,
    /// Replication cursor of a follower bootstrapped from the surviving
    /// backup, when it was complete.
    pub follower_cursor: Option<u64>,
}

/// Result of one follower-side apply crash run (power loss during
/// bootstrap restore or stream apply on the follower's storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyCrashReport {
    /// The mutating-op index (on the follower's storage) the power died on.
    pub crash_op: u64,
    /// Whether the crash actually fired.
    pub crashed: bool,
    /// The follower's durable cursor right after the interrupted poll.
    pub applied_before_crash: u64,
    /// Cursor after recovery and catch-up — the full stream length.
    pub final_cursor: u64,
    /// Total mutating ops the pipeline performed on the follower's
    /// storage (the crash-point space for [`ChaosHarness::run_apply_crash`]).
    pub follower_ops: u64,
}

/// What [`ChaosHarness::drive_backup_primary`] observed before stopping.
struct BackupPrimaryRun {
    /// Final acknowledged key space.
    model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// `boundaries[n]` is the key space after the first `n` acknowledged
    /// writes; a restored backup must land on one of these states.
    boundaries: Vec<BTreeMap<Vec<u8>, Vec<u8>>>,
    in_flight: Option<(Vec<u8>, Option<Vec<u8>>)>,
    acked: u64,
    before_checkpoint: u64,
    checkpoint_done: Option<u64>,
}

/// Deterministic fault-injection verifier over one [`ChaosConfig`].
pub struct ChaosHarness {
    config: ChaosConfig,
}

impl ChaosHarness {
    /// A harness for `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Self { config }
    }

    /// The configuration under test.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn key_for(idx: u64) -> Vec<u8> {
        format!("key{idx:05}").into_bytes()
    }

    /// Operation `i` of the workload: `(key, Some(value))` for a put,
    /// `(key, None)` for a delete.
    fn gen_op(&self, rng: &mut SmallRng, i: u64) -> (Vec<u8>, Option<Vec<u8>>) {
        let key = Self::key_for(rng.gen_range(0..self.config.key_space));
        let deletes = self.config.delete_every;
        if deletes > 0 && i % deletes == deletes - 1 {
            return (key, None);
        }
        // The op index makes every value unique, so a stale read is
        // distinguishable from the current one.
        let mut value = format!("v{i:08}-").into_bytes();
        while value.len() < self.config.value_len {
            value.push(b'a' + rng.gen_range(0..26u8));
        }
        (key, Some(value))
    }

    fn open(
        &self,
        storage: &Arc<dyn StorageBackend>,
        sink: Option<SharedSink>,
    ) -> ldc_lsm::Result<LdcDb> {
        self.open_with(storage, sink, self.config.options.clone())
    }

    fn open_with(
        &self,
        storage: &Arc<dyn StorageBackend>,
        sink: Option<SharedSink>,
        options: Options,
    ) -> ldc_lsm::Result<LdcDb> {
        let mut builder = LdcDb::builder()
            .options(options)
            .mode(self.config.mode.clone())
            .storage(Arc::clone(storage));
        if let Some(sink) = sink {
            builder = builder.event_sink(sink);
        }
        builder.build()
    }

    fn fail(&self, fault: &FaultStorage, detail: String) -> ChaosFailure {
        ChaosFailure {
            plan: fault.plan().clone(),
            detail,
            fault_log: fault.fault_log(),
        }
    }

    /// Checks the reopened store against the model over the whole key
    /// universe: point gets, a full scan, version invariants, and an
    /// SSTable integrity sweep. The optional in-flight write is allowed
    /// to have either landed or vanished — atomically.
    fn verify_exact(
        &self,
        db: &mut LdcDb,
        model: &BTreeMap<Vec<u8>, Vec<u8>>,
        in_flight: Option<&(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Result<(), String> {
        for idx in 0..self.config.key_space {
            let key = Self::key_for(idx);
            let got = db
                .get(&key)
                .map_err(|e| format!("get {} failed: {e}", String::from_utf8_lossy(&key)))?;
            let old = model.get(&key).map(|v| v.as_slice());
            if let Some((k, new)) = in_flight {
                if *k == key {
                    if got.as_deref() != old && got.as_deref() != new.as_deref() {
                        return Err(format!(
                            "in-flight key {} resolved to neither old nor new value",
                            String::from_utf8_lossy(&key)
                        ));
                    }
                    continue;
                }
            }
            if got.as_deref() != old {
                return Err(format!(
                    "key {}: got {:?}, model has {:?}",
                    String::from_utf8_lossy(&key),
                    got.map(|v| String::from_utf8_lossy(&v).into_owned()),
                    old.map(String::from_utf8_lossy)
                ));
            }
        }
        let scanned: BTreeMap<Vec<u8>, Vec<u8>> = db
            .scan(b"", usize::MAX)
            .map_err(|e| format!("scan failed: {e}"))?
            .into_iter()
            .collect();
        let mut with_new = model.clone();
        if let Some((k, new)) = in_flight {
            match new {
                Some(v) => {
                    with_new.insert(k.clone(), v.clone());
                }
                None => {
                    with_new.remove(k);
                }
            }
        }
        if scanned != *model && scanned != with_new {
            return Err(format!(
                "scan returned {} entries matching neither pre- nor post-in-flight model ({} entries)",
                scanned.len(),
                model.len()
            ));
        }
        db.engine()
            .version()
            .check_invariants()
            .map_err(|e| format!("version invariants violated: {e}"))?;
        db.verify_integrity()
            .map_err(|e| format!("integrity sweep failed: {e}"))?;
        Ok(())
    }

    /// Runs the workload with a benign plan and returns the total number
    /// of mutating storage operations it produces — the upper bound of
    /// the interesting crash-point space.
    pub fn measure_storage_ops(&self) -> Result<u64, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::new(self.config.seed),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let db = self
            .open(&storage, None)
            .map_err(|e| self.fail(&fault, format!("open failed under benign plan: {e}")))?;
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
        for i in 0..self.config.ops {
            let (key, value) = self.gen_op(&mut rng, i);
            match &value {
                Some(v) => db.put(&key, v),
                None => db.delete(&key),
            }
            .map_err(|e| self.fail(&fault, format!("write failed under benign plan: {e}")))?;
        }
        Ok(fault.mutating_ops())
    }

    /// Kills the power on mutating storage operation `crash_op` (1-based),
    /// reboots, reopens, and verifies that exactly the acknowledged writes
    /// survived (modulo the single in-flight write).
    pub fn run_crash_point(&self, crash_op: u64) -> Result<CrashPointReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::crash_at(self.config.seed, crash_op),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();

        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut in_flight: Option<(Vec<u8>, Option<Vec<u8>>)> = None;
        let mut acked = 0u64;
        let mut crashed = false;
        match self.open(&storage, None) {
            Ok(db) => {
                let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
                for i in 0..self.config.ops {
                    let (key, value) = self.gen_op(&mut rng, i);
                    let result = match &value {
                        Some(v) => db.put(&key, v),
                        None => db.delete(&key),
                    };
                    match result {
                        Ok(()) => {
                            acked += 1;
                            match value {
                                Some(v) => {
                                    model.insert(key, v);
                                }
                                None => {
                                    model.remove(&key);
                                }
                            }
                        }
                        Err(_) => {
                            in_flight = Some((key, value));
                            crashed = true;
                            break;
                        }
                    }
                }
            }
            // Crash during database creation: nothing was acknowledged.
            Err(_) => crashed = true,
        }

        let power_cycle = fault
            .power_cycle()
            .map_err(|e| self.fail(&fault, format!("power cycle failed: {e}")))?;

        let sink = Arc::new(RingBufferSink::new(4096));
        let mut db = self
            .open(&storage, Some(sink.clone()))
            .map_err(|e| self.fail(&fault, format!("reopen after crash failed: {e}")))?;
        let recovery = db.recovery_summary();
        self.verify_exact(&mut db, &model, in_flight.as_ref())
            .map_err(|detail| self.fail(&fault, detail))?;
        if !sink.events().iter().any(|e| e.kind == EventKind::Recovery) {
            return Err(self.fail(&fault, "reopen emitted no recovery event".to_string()));
        }

        // The recovered store must keep working and survive a further
        // clean reopen (catches half-written metadata the first recovery
        // papered over).
        drop(db);
        let mut db = self
            .open(&storage, None)
            .map_err(|e| self.fail(&fault, format!("second clean reopen failed: {e}")))?;
        self.verify_exact(&mut db, &model, in_flight.as_ref())
            .map_err(|detail| self.fail(&fault, format!("after second reopen: {detail}")))?;

        Ok(CrashPointReport {
            crash_op,
            crashed,
            acked_writes: acked,
            power_cycle,
            recovery,
        })
    }

    /// Sweeps [`ChaosHarness::run_crash_point`] over `points`, failing on
    /// the first red crash point.
    pub fn crash_sweep(
        &self,
        points: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<CrashPointReport>, ChaosFailure> {
        points
            .into_iter()
            .map(|p| self.run_crash_point(p))
            .collect()
    }

    fn builder(&self) -> LdcDbBuilder {
        LdcDb::builder()
            .options(self.config.options.clone())
            .mode(self.config.mode.clone())
    }

    /// The primary side of the backup pipeline: first half of the
    /// workload, `backup_begin` (base checkpoint + armed stream), second
    /// half with periodic flushes so the stream grows, final flush. Stops
    /// at the first error (the crash point) and reports what was
    /// acknowledged and where the checkpoint phase sat in mutating-op
    /// space.
    fn drive_backup_primary(
        &self,
        storage: &Arc<dyn StorageBackend>,
        fault: &FaultStorage,
    ) -> BackupPrimaryRun {
        let mut run = BackupPrimaryRun {
            model: BTreeMap::new(),
            boundaries: vec![BTreeMap::new()],
            in_flight: None,
            acked: 0,
            before_checkpoint: 0,
            checkpoint_done: None,
        };
        let db = match self.open(storage, None) {
            Ok(db) => db,
            Err(_) => return run,
        };
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
        let half = self.config.ops / 2;
        for i in 0..self.config.ops {
            if i == half {
                db.drain_background();
                run.before_checkpoint = fault.mutating_ops();
                if db.backup_begin("chaos").is_err() {
                    return run;
                }
                run.checkpoint_done = Some(fault.mutating_ops());
            }
            let (key, value) = self.gen_op(&mut rng, i);
            let result = match &value {
                Some(v) => db.put(&key, v),
                None => db.delete(&key),
            };
            match result {
                Ok(()) => {
                    run.acked += 1;
                    match value {
                        Some(v) => {
                            run.model.insert(key, v);
                        }
                        None => {
                            run.model.remove(&key);
                        }
                    }
                    run.boundaries.push(run.model.clone());
                }
                Err(_) => {
                    run.in_flight = Some((key, value));
                    return run;
                }
            }
            if i >= half && (i - half) % 20 == 19 && db.flush().is_err() {
                return run;
            }
        }
        if db.flush().is_err() {
            return run;
        }
        db.drain_background();
        let _ = db.backup_end();
        run
    }

    /// Runs the backup pipeline with a benign plan and returns its
    /// mutating-op landmarks, so a sweep can aim crash points at the
    /// checkpoint-creation and stream-shipping windows specifically.
    pub fn measure_backup_ops(&self) -> Result<BackupOpsProfile, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::new(self.config.seed),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let run = self.drive_backup_primary(&storage, &fault);
        let Some(checkpoint_done) = run.checkpoint_done else {
            return Err(self.fail(
                &fault,
                "benign backup pipeline did not complete its checkpoint".to_string(),
            ));
        };
        Ok(BackupOpsProfile {
            before_checkpoint: run.before_checkpoint,
            checkpoint_done,
            total: fault.mutating_ops(),
        })
    }

    /// Kills the power on mutating storage operation `crash_op` anywhere
    /// in the primary-side backup pipeline — mid-checkpoint, mid-ship, or
    /// mid-workload — then verifies every crash-consistency contract: the
    /// primary recovers to exactly the acknowledged state; a complete
    /// surviving backup restores (and bootstraps a follower) to a state
    /// on the acknowledged-history prefix; an incomplete one is refused.
    pub fn run_backup_crash(&self, crash_op: u64) -> Result<BackupCrashReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::crash_at(self.config.seed, crash_op),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let run = self.drive_backup_primary(&storage, &fault);
        let crashed = fault.powered_off();
        let power_cycle = fault
            .power_cycle()
            .map_err(|e| self.fail(&fault, format!("power cycle failed: {e}")))?;

        // The primary itself recovers to exactly the acknowledged state.
        let mut db = self
            .open(&storage, None)
            .map_err(|e| self.fail(&fault, format!("primary reopen failed: {e}")))?;
        self.verify_exact(&mut db, &run.model, run.in_flight.as_ref())
            .map_err(|d| self.fail(&fault, format!("primary after crash: {d}")))?;
        drop(db);

        // The in-flight write may have reached a shipped flush before the
        // crash cut its put short — one more acceptable restore state.
        let mut with_in_flight = run.model.clone();
        if let Some((k, new)) = &run.in_flight {
            match new {
                Some(v) => {
                    with_in_flight.insert(k.clone(), v.clone());
                }
                None => {
                    with_in_flight.remove(k);
                }
            }
        }
        let on_prefix = |state: &BTreeMap<Vec<u8>, Vec<u8>>| -> Option<u64> {
            match run.boundaries.iter().position(|b| b == state) {
                Some(n) => Some(n as u64),
                None if run.in_flight.is_some() && *state == with_in_flight => Some(run.acked + 1),
                None => None,
            }
        };

        let prefix = backup_prefix("chaos");
        let backup_complete = checkpoint_complete(storage.as_ref(), &prefix);
        let mut restored_prefix = None;
        let mut follower_cursor = None;
        if backup_complete {
            let dst: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
            restore_backup(&storage, &prefix, &dst, self.config.options.max_levels).map_err(
                |e| self.fail(&fault, format!("restore of complete backup failed: {e}")),
            )?;
            let restored_db = self
                .open(&dst, None)
                .map_err(|e| self.fail(&fault, format!("restored store failed to open: {e}")))?;
            let restored: BTreeMap<Vec<u8>, Vec<u8>> = restored_db
                .scan(b"", usize::MAX)
                .map_err(|e| self.fail(&fault, format!("restored scan failed: {e}")))?
                .into_iter()
                .collect();
            drop(restored_db);
            restored_prefix = Some(on_prefix(&restored).ok_or_else(|| {
                self.fail(
                    &fault,
                    format!(
                        "restored backup ({} keys) matches no acknowledged-history prefix",
                        restored.len()
                    ),
                )
            })?);

            // The real follower bootstraps from the same surviving backup
            // and must land on an acknowledged prefix too.
            let follower = Follower::bootstrap(
                &storage,
                "chaos",
                self.builder(),
                MemStorage::new(SsdDevice::with_defaults()),
            )
            .map_err(|e| self.fail(&fault, format!("follower bootstrap failed: {e}")))?;
            follower
                .poll()
                .map_err(|e| self.fail(&fault, format!("follower poll failed: {e}")))?;
            let fstate: BTreeMap<Vec<u8>, Vec<u8>> = follower
                .db()
                .scan(b"", usize::MAX)
                .map_err(|e| self.fail(&fault, format!("follower scan failed: {e}")))?
                .into_iter()
                .collect();
            if on_prefix(&fstate).is_none() {
                return Err(self.fail(
                    &fault,
                    "follower state matches no acknowledged-history prefix".to_string(),
                ));
            }
            follower_cursor = Some(follower.db().replication_cursor());
        } else {
            // Incomplete checkpoints must be refused, not half-restored.
            let dst: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
            if restore_backup(&storage, &prefix, &dst, self.config.options.max_levels).is_ok() {
                return Err(self.fail(&fault, "restore accepted an incomplete backup".to_string()));
            }
        }

        Ok(BackupCrashReport {
            crash_op,
            crashed,
            acked_writes: run.acked,
            power_cycle,
            backup_complete,
            restored_prefix,
            follower_cursor,
        })
    }

    /// Sweeps [`ChaosHarness::run_backup_crash`] over `points`.
    pub fn backup_crash_sweep(
        &self,
        points: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<BackupCrashReport>, ChaosFailure> {
        points
            .into_iter()
            .map(|p| self.run_backup_crash(p))
            .collect()
    }

    /// Kills the power on mutating storage operation `crash_op` of the
    /// *follower's* storage — during the bootstrap restore or during a
    /// stream-apply poll — then recovers via the documented recipe
    /// (reopen when the store exists, wipe and re-bootstrap when the
    /// crash predated its creation) and verifies the follower converges
    /// exactly to the primary's final state. `crash_op = 0` never fires
    /// and measures the benign pipeline instead.
    pub fn run_apply_crash(&self, crash_op: u64) -> Result<ApplyCrashReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::crash_at(self.config.seed, crash_op),
        );
        let fdst: Arc<dyn StorageBackend> = fault.clone();

        // The primary runs clean on its own storage; only the follower's
        // disk is faulted.
        let pstorage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
        let db = self
            .open(&pstorage, None)
            .map_err(|e| self.fail(&fault, format!("primary open failed: {e}")))?;
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let half = self.config.ops / 2;
        let write =
            |db: &LdcDb, i: u64, rng: &mut SmallRng, model: &mut BTreeMap<Vec<u8>, Vec<u8>>| {
                let (key, value) = self.gen_op(rng, i);
                match &value {
                    Some(v) => db.put(&key, v),
                    None => db.delete(&key),
                }
                .map_err(|e| self.fail(&fault, format!("primary write {i} failed: {e}")))?;
                match value {
                    Some(v) => {
                        model.insert(key, v);
                    }
                    None => {
                        model.remove(&key);
                    }
                }
                Ok(())
            };
        for i in 0..half {
            write(&db, i, &mut rng, &mut model)?;
        }
        db.drain_background();
        db.backup_begin("chaos")
            .map_err(|e| self.fail(&fault, format!("backup_begin failed: {e}")))?;

        // Bootstrap through the fault storage: the crash point may land
        // inside the base restore itself.
        let mut follower =
            Follower::bootstrap(&pstorage, "chaos", self.builder(), Arc::clone(&fdst)).ok();

        // Grow the stream past the base checkpoint.
        for i in half..self.config.ops {
            write(&db, i, &mut rng, &mut model)?;
            if (i - half) % 20 == 19 {
                db.flush()
                    .map_err(|e| self.fail(&fault, format!("primary flush failed: {e}")))?;
            }
        }
        db.flush()
            .map_err(|e| self.fail(&fault, format!("primary final flush failed: {e}")))?;
        db.drain_background();

        // Tail it; the crash point fires during the follower's table
        // copies or manifest appends.
        let mut applied_before_crash = 0;
        if let Some(f) = &follower {
            if f.poll().is_err() {
                applied_before_crash = f.db().replication_cursor();
            }
        }
        let crashed = fault.powered_off();
        if crashed {
            fault
                .power_cycle()
                .map_err(|e| self.fail(&fault, format!("follower power cycle failed: {e}")))?;
            drop(follower.take());
            let recovered = if fdst.exists("CURRENT") {
                Follower::reopen(&pstorage, "chaos", self.builder(), Arc::clone(&fdst))
            } else {
                for name in fdst.list() {
                    fdst.delete(&name)
                        .map_err(|e| self.fail(&fault, format!("wipe failed: {e}")))?;
                }
                Follower::bootstrap(&pstorage, "chaos", self.builder(), Arc::clone(&fdst))
            }
            .map_err(|e| self.fail(&fault, format!("follower recovery failed: {e}")))?;
            follower = Some(recovered);
        }
        let follower = follower.ok_or_else(|| {
            self.fail(
                &fault,
                "follower bootstrap failed without a crash".to_string(),
            )
        })?;
        follower
            .poll()
            .map_err(|e| self.fail(&fault, format!("catch-up poll failed: {e}")))?;

        // Exact convergence with the primary's final state.
        for idx in 0..self.config.key_space {
            let key = Self::key_for(idx);
            let got = follower
                .db()
                .get(&key)
                .map_err(|e| self.fail(&fault, format!("follower get failed: {e}")))?;
            if got.as_deref() != model.get(&key).map(|v| v.as_slice()) {
                return Err(self.fail(
                    &fault,
                    format!(
                        "follower diverged on key {} after recovery",
                        String::from_utf8_lossy(&key)
                    ),
                ));
            }
        }
        if follower.lag() != 0 {
            return Err(self.fail(
                &fault,
                format!(
                    "follower still lags {} records after catch-up",
                    follower.lag()
                ),
            ));
        }
        let total = for_each_stream_edit(
            pstorage.as_ref(),
            &backup_prefix("chaos"),
            u64::MAX,
            |_, _| Ok(()),
        )
        .map_err(|e| self.fail(&fault, format!("stream count failed: {e}")))?;
        let final_cursor = follower.db().replication_cursor();
        if final_cursor != total {
            return Err(self.fail(
                &fault,
                format!("follower cursor {final_cursor} != stream length {total}"),
            ));
        }
        Ok(ApplyCrashReport {
            crash_op,
            crashed,
            applied_before_crash,
            final_cursor,
            follower_ops: fault.mutating_ops(),
        })
    }

    /// Sweeps [`ChaosHarness::run_apply_crash`] over `points`.
    pub fn apply_crash_sweep(
        &self,
        points: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<ApplyCrashReport>, ChaosFailure> {
        points
            .into_iter()
            .map(|p| self.run_apply_crash(p))
            .collect()
    }

    /// Runs the workload to completion, flips one bit in a file of
    /// `target`'s family, reopens, and checks that the store either
    /// detects the damage or keeps serving only values that were actually
    /// written.
    pub fn run_bit_flip(&self, target: BitFlipTarget) -> Result<BitFlipReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::new(self.config.seed),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();

        // Per-key set of every value ever acknowledged (for point-in-time
        // targets) plus the final model (for SSTables, where no data may
        // be lost silently).
        let mut history: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let db = self
                .open(&storage, None)
                .map_err(|e| self.fail(&fault, format!("open failed: {e}")))?;
            let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
            for i in 0..self.config.ops {
                let (key, value) = self.gen_op(&mut rng, i);
                match &value {
                    Some(v) => db.put(&key, v),
                    None => db.delete(&key),
                }
                .map_err(|e| self.fail(&fault, format!("write {i} failed: {e}")))?;
                match value {
                    Some(v) => {
                        history.entry(key.clone()).or_default().push(v.clone());
                        model.insert(key, v);
                    }
                    None => {
                        model.remove(&key);
                    }
                }
            }
            db.drain_background();
        }

        // Corrupt the largest file of the family (most likely to hold data).
        let victim = storage
            .list()
            .into_iter()
            .filter(|n| target.matches(n))
            .filter_map(|n| storage.size(&n).ok().map(|s| (s, n)))
            .filter(|(s, _)| *s > 0)
            .max()
            .map(|(_, n)| n)
            .ok_or_else(|| {
                self.fail(
                    &fault,
                    format!("no non-empty {} file to corrupt", target.label()),
                )
            })?;
        let (offset, bit) = fault
            .flip_bit(&victim)
            .map_err(|e| self.fail(&fault, format!("bit flip failed: {e}")))?;

        let db = match self.open(&storage, None) {
            // Refusing to open a corrupt store is detection, not failure.
            Err(e) => {
                return Ok(BitFlipReport {
                    file: victim,
                    offset,
                    bit,
                    outcome: BitFlipOutcome::DetectedAtOpen(e.to_string()),
                })
            }
            Ok(db) => db,
        };

        let mut detected_reads = 0u64;
        for idx in 0..self.config.key_space {
            let key = Self::key_for(idx);
            match db.get(&key) {
                Err(_) => detected_reads += 1,
                Ok(got) => match target {
                    // SSTable damage must not silently lose or alter data:
                    // every read is exact or detected.
                    BitFlipTarget::Sstable => {
                        if got.as_deref() != model.get(&key).map(|v| v.as_slice()) {
                            return Err(self.fail(
                                &fault,
                                format!(
                                    "sstable flip: key {} served wrong value undetected",
                                    String::from_utf8_lossy(&key)
                                ),
                            ));
                        }
                    }
                    // Log/manifest damage recovers to a point in time:
                    // values may be stale or gone, never fabricated.
                    BitFlipTarget::Wal | BitFlipTarget::Manifest => {
                        if let Some(v) = got {
                            let ever = history.get(&key).is_some_and(|vs| vs.contains(&v));
                            if !ever {
                                return Err(self.fail(
                                    &fault,
                                    format!(
                                        "{} flip: key {} served a never-written value",
                                        target.label(),
                                        String::from_utf8_lossy(&key)
                                    ),
                                ));
                            }
                        }
                    }
                },
            }
        }
        match db.scan(b"", usize::MAX) {
            Err(_) => detected_reads += 1,
            Ok(entries) => {
                for (k, v) in entries {
                    let ok = match target {
                        BitFlipTarget::Sstable => model.get(&k).is_some_and(|want| *want == v),
                        BitFlipTarget::Wal | BitFlipTarget::Manifest => {
                            history.get(&k).is_some_and(|vs| vs.contains(&v))
                        }
                    };
                    if !ok {
                        return Err(self.fail(
                            &fault,
                            format!(
                                "{} flip: scan served a wrong value for key {}",
                                target.label(),
                                String::from_utf8_lossy(&k)
                            ),
                        ));
                    }
                }
            }
        }
        let integrity_ok = db.verify_integrity().is_ok();
        let files_quarantined = db.recovery_summary().files_quarantined;
        Ok(BitFlipReport {
            file: victim,
            offset,
            bit,
            outcome: BitFlipOutcome::Reopened {
                detected_reads,
                integrity_ok,
                files_quarantined,
            },
        })
    }

    /// Injects I/O errors with probability `prob` on every mutating
    /// storage operation, verifying fail-stop behaviour: the first write
    /// failure latches, reads keep working, and a clean reopen restores
    /// exactly the acknowledged state.
    pub fn run_io_errors(&self, prob: f64) -> Result<IoErrorReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::io_errors(self.config.seed, prob),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let mut db = self
            .open(&storage, None)
            .map_err(|e| self.fail(&fault, format!("open failed (error hit creation): {e}")))?;

        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut in_flight: Option<(Vec<u8>, Option<Vec<u8>>)> = None;
        let mut acked = 0u64;
        let mut first_error_op = None;
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
        for i in 0..self.config.ops {
            let (key, value) = self.gen_op(&mut rng, i);
            let result = match &value {
                Some(v) => db.put(&key, v),
                None => db.delete(&key),
            };
            match result {
                Ok(()) => {
                    acked += 1;
                    match value {
                        Some(v) => {
                            model.insert(key, v);
                        }
                        None => {
                            model.remove(&key);
                        }
                    }
                }
                Err(_) => {
                    first_error_op = Some(i);
                    in_flight = Some((key, value));
                    // Fail-stop: the background error must latch and
                    // refuse further writes.
                    if db.engine().background_error().is_none() {
                        return Err(self.fail(
                            &fault,
                            "write failed but no background error latched".to_string(),
                        ));
                    }
                    if db.put(b"zz-sentinel", b"x").is_ok() {
                        return Err(self.fail(
                            &fault,
                            "write accepted after background error latched".to_string(),
                        ));
                    }
                    break;
                }
            }
        }
        // Reads are still served while the engine is failed-stop.
        self.verify_exact(&mut db, &model, in_flight.as_ref())
            .map_err(|detail| self.fail(&fault, format!("while latched: {detail}")))?;
        drop(db);

        // Clean process restart on intact storage (no power loss): the
        // acknowledged state must come back exactly.
        fault.disarm();
        let mut db = self
            .open(&storage, None)
            .map_err(|e| self.fail(&fault, format!("reopen failed: {e}")))?;
        self.verify_exact(&mut db, &model, in_flight.as_ref())
            .map_err(|detail| self.fail(&fault, format!("after reopen: {detail}")))?;
        if db
            .get(b"zz-sentinel")
            .map_err(|e| self.fail(&fault, format!("sentinel get failed: {e}")))?
            .is_some()
        {
            return Err(self.fail(
                &fault,
                "refused sentinel write surfaced after reopen".to_string(),
            ));
        }

        Ok(IoErrorReport {
            acked_writes: acked,
            injected_errors: fault.injected_errors(),
            first_error_op,
        })
    }

    /// Fails each file's first `failures` reads transiently and verifies
    /// the engine's retry budget masks them completely: the workload runs
    /// to completion and every read verifies against the model.
    ///
    /// `failures` must stay below the engine's
    /// [`ldc_lsm::options::READ_RETRY_ATTEMPTS`] budget; at or past it,
    /// transient errors surface and the run reports a [`ChaosFailure`].
    pub fn run_transient_reads(&self, failures: u32) -> Result<TransientReadReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::transient_reads(self.config.seed, failures),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let mut db = self
            .open(&storage, None)
            .map_err(|e| self.fail(&fault, format!("open failed under transient reads: {e}")))?;

        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
        for i in 0..self.config.ops {
            let (key, value) = self.gen_op(&mut rng, i);
            match &value {
                Some(v) => db.put(&key, v),
                None => db.delete(&key),
            }
            .map_err(|e| {
                self.fail(
                    &fault,
                    format!("write {i} failed under transient reads: {e}"),
                )
            })?;
            match value {
                Some(v) => {
                    model.insert(key, v);
                }
                None => {
                    model.remove(&key);
                }
            }
        }
        db.drain_background();
        self.verify_exact(&mut db, &model, None)
            .map_err(|detail| self.fail(&fault, detail))?;
        let retries = db.metrics().degraded_counters().transient_retries;
        if failures > 0 && fault.injected_errors() > 0 && retries == 0 {
            return Err(self.fail(
                &fault,
                "transient failures injected but no retry was recorded".to_string(),
            ));
        }
        Ok(TransientReadReport {
            injected_failures: fault.injected_errors(),
            retries_recorded: retries,
        })
    }

    /// The full degraded-mode pipeline: run the workload, flip one bit in
    /// the largest SSTable, then **scrub** (detect), **quarantine** (drop
    /// the corrupt table while serving everything else), **repair** (rebuild
    /// the manifest, salvage WAL remnants), and finally reopen and verify
    /// against the model — no served value may be one that was never
    /// written, and every key outside the quarantined table must still
    /// carry its latest acknowledged value.
    pub fn run_scrub_quarantine_repair(&self) -> Result<ScrubRepairReport, ChaosFailure> {
        let fault = FaultStorage::new(
            MemStorage::new(SsdDevice::with_defaults()),
            FaultPlan::new(self.config.seed),
        );
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let options = Options {
            corruption_policy: CorruptionPolicy::Quarantine,
            ..self.config.options.clone()
        };

        // Per-key set of every acknowledged value: quarantining a table
        // can roll individual keys back in time (a dropped tombstone
        // resurfaces an older value), so "ever written" is the fabrication
        // check; "latest value" is the survival check.
        let mut history: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let db = self
                .open_with(&storage, None, options.clone())
                .map_err(|e| self.fail(&fault, format!("open failed: {e}")))?;
            let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
            for i in 0..self.config.ops {
                let (key, value) = self.gen_op(&mut rng, i);
                match &value {
                    Some(v) => db.put(&key, v),
                    None => db.delete(&key),
                }
                .map_err(|e| self.fail(&fault, format!("write {i} failed: {e}")))?;
                match value {
                    Some(v) => {
                        history.entry(key.clone()).or_default().push(v.clone());
                        model.insert(key, v);
                    }
                    None => {
                        model.remove(&key);
                    }
                }
            }
            db.drain_background();
        }

        let victim = storage
            .list()
            .into_iter()
            .filter(|n| BitFlipTarget::Sstable.matches(n))
            .filter_map(|n| storage.size(&n).ok().map(|s| (s, n)))
            .filter(|(s, _)| *s > 0)
            .max()
            .map(|(_, n)| n)
            .ok_or_else(|| self.fail(&fault, "no non-empty sstable to corrupt".to_string()))?;
        let (offset, bit) = fault
            .flip_bit(&victim)
            .map_err(|e| self.fail(&fault, format!("bit flip failed: {e}")))?;

        let mut detected_at_open = false;
        let mut scrub_corruptions = 0u64;
        let mut files_quarantined = 0u64;
        match self.open_with(&storage, None, options.clone()) {
            Err(_) => detected_at_open = true,
            Ok(db) => {
                let scrub = db
                    .scrub()
                    .map_err(|e| self.fail(&fault, format!("scrub pass failed: {e}")))?;
                if scrub.is_clean() {
                    return Err(self.fail(
                        &fault,
                        format!("bit flip in {victim} at byte {offset} evaded the scrub"),
                    ));
                }
                scrub_corruptions = scrub.corruptions.len() as u64;
                files_quarantined = db.quarantined().len() as u64;
                // Degraded serving: every read outside the quarantined
                // table is exact; inside it, keys are gone or rolled back,
                // never fabricated.
                for idx in 0..self.config.key_space {
                    let key = Self::key_for(idx);
                    let got = db.get(&key).map_err(|e| {
                        self.fail(
                            &fault,
                            format!(
                                "degraded get {} errored after quarantine: {e}",
                                String::from_utf8_lossy(&key)
                            ),
                        )
                    })?;
                    if let Some(v) = &got {
                        if !history.get(&key).is_some_and(|vs| vs.contains(v)) {
                            return Err(self.fail(
                                &fault,
                                format!(
                                    "degraded get {} served a never-written value",
                                    String::from_utf8_lossy(&key)
                                ),
                            ));
                        }
                    }
                }
            }
        }

        let repair = repair_db(Arc::clone(&storage), &options)
            .map_err(|e| self.fail(&fault, format!("repair_db failed: {e}")))?;

        let db = self
            .open_with(&storage, None, options.clone())
            .map_err(|e| self.fail(&fault, format!("reopen after repair failed: {e}")))?;
        let mut surviving = 0u64;
        let mut lost = 0u64;
        for idx in 0..self.config.key_space {
            let key = Self::key_for(idx);
            let got = db.get(&key).map_err(|e| {
                self.fail(
                    &fault,
                    format!(
                        "post-repair get {} failed: {e}",
                        String::from_utf8_lossy(&key)
                    ),
                )
            })?;
            let latest = model.get(&key);
            match &got {
                Some(v) => {
                    if latest == Some(v) {
                        surviving += 1;
                    } else if history.get(&key).is_some_and(|vs| vs.contains(v)) {
                        lost += 1; // rolled back with the quarantined table
                    } else {
                        return Err(self.fail(
                            &fault,
                            format!(
                                "post-repair get {} served a never-written value",
                                String::from_utf8_lossy(&key)
                            ),
                        ));
                    }
                }
                None => {
                    if latest.is_some() {
                        lost += 1;
                    } else {
                        surviving += 1;
                    }
                }
            }
        }
        for (k, v) in db
            .scan(b"", usize::MAX)
            .map_err(|e| self.fail(&fault, format!("post-repair scan failed: {e}")))?
        {
            if !history.get(&k).is_some_and(|vs| vs.contains(&v)) {
                return Err(self.fail(
                    &fault,
                    format!(
                        "post-repair scan served a never-written value for {}",
                        String::from_utf8_lossy(&k)
                    ),
                ));
            }
        }
        db.engine()
            .version()
            .check_invariants()
            .map_err(|e| self.fail(&fault, format!("post-repair invariants violated: {e}")))?;
        db.verify_integrity()
            .map_err(|e| self.fail(&fault, format!("post-repair integrity sweep failed: {e}")))?;

        Ok(ScrubRepairReport {
            file: victim,
            offset,
            bit,
            detected_at_open,
            scrub_corruptions,
            files_quarantined,
            repair,
            surviving_keys: surviving,
            lost_keys: lost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_core::CompactionMode;

    fn harness(seed: u64) -> ChaosHarness {
        ChaosHarness::new(ChaosConfig {
            ops: 120,
            ..ChaosConfig::quick(seed, CompactionMode::Udc)
        })
    }

    #[test]
    fn crash_point_early_and_late() {
        let h = harness(1);
        let early = h.run_crash_point(5).unwrap();
        assert!(early.crashed);
        let total = h.measure_storage_ops().unwrap();
        let never = h.run_crash_point(total + 100).unwrap();
        assert!(!never.crashed);
        assert_eq!(never.acked_writes, 120);
    }

    #[test]
    fn crash_point_is_deterministic() {
        let h = harness(2);
        let a = h.run_crash_point(40).unwrap();
        let b = h.run_crash_point(40).unwrap();
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.power_cycle, b.power_cycle);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn io_error_run_fail_stops_and_recovers() {
        let report = harness(3).run_io_errors(0.02).unwrap();
        assert!(report.injected_errors > 0, "no errors injected");
        assert!(report.first_error_op.is_some());
    }

    #[test]
    fn transient_reads_are_masked_by_retry_budget() {
        // Engine default budget is 4 attempts; 2 failures per file heal
        // inside it.
        let report = harness(4).run_transient_reads(2).unwrap();
        assert!(
            report.injected_failures > 0,
            "no transient failures injected"
        );
        assert!(report.retries_recorded > 0, "engine recorded no retries");
    }

    #[test]
    fn scrub_quarantine_repair_pipeline_round_trips() {
        let report = harness(5).run_scrub_quarantine_repair().unwrap();
        if !report.detected_at_open {
            assert!(report.scrub_corruptions > 0);
        }
        assert!(
            report.surviving_keys > 0,
            "repair lost every key: {report:?}"
        );
    }

    #[test]
    fn backup_crash_sweep_lands_on_acknowledged_prefixes() {
        use ldc_core::LdcConfig;
        for mode in [
            CompactionMode::Udc,
            CompactionMode::Ldc(LdcConfig::default()),
        ] {
            let h = ChaosHarness::new(ChaosConfig {
                ops: 120,
                ..ChaosConfig::quick(21, mode)
            });
            let profile = h.measure_backup_ops().unwrap();
            assert!(profile.before_checkpoint < profile.checkpoint_done);
            assert!(profile.checkpoint_done < profile.total);
            // One point early in checkpoint creation, one just before its
            // CURRENT marker, one in the middle of the shipping workload.
            let mid_checkpoint = profile.before_checkpoint + 1;
            let late_checkpoint = profile.checkpoint_done - 1;
            let mid_ship = (profile.checkpoint_done + profile.total) / 2;
            let reports = h
                .backup_crash_sweep([mid_checkpoint, late_checkpoint, mid_ship])
                .unwrap();
            assert!(reports.iter().all(|r| r.crashed));
            // Crashes before the marker leave an incomplete (refused)
            // backup; after it, the backup restores to an acknowledged
            // prefix and a follower bootstraps from it.
            assert!(!reports[0].backup_complete);
            assert!(reports[2].backup_complete);
            assert!(reports[2].restored_prefix.is_some());
            assert!(reports[2].follower_cursor.is_some());
        }
    }

    #[test]
    fn backup_crash_is_deterministic() {
        let h = harness(22);
        let profile = h.measure_backup_ops().unwrap();
        let p = (profile.checkpoint_done + profile.total) / 2;
        assert_eq!(
            h.run_backup_crash(p).unwrap(),
            h.run_backup_crash(p).unwrap()
        );
    }

    #[test]
    fn apply_crash_recovers_via_documented_recipe() {
        use ldc_core::LdcConfig;
        for mode in [
            CompactionMode::Udc,
            CompactionMode::Ldc(LdcConfig::default()),
        ] {
            let h = ChaosHarness::new(ChaosConfig {
                ops: 120,
                ..ChaosConfig::quick(23, mode)
            });
            // crash_op 0 never fires: measures the follower-side op space.
            let clean = h.run_apply_crash(0).unwrap();
            assert!(!clean.crashed);
            assert!(clean.final_cursor > 0);
            // Early point lands in the bootstrap restore (wipe +
            // re-bootstrap recovery); late point in the apply poll
            // (reopen + resume from the durable cursor).
            let reports = h
                .apply_crash_sweep([3, clean.follower_ops.saturating_sub(5)])
                .unwrap();
            for r in &reports {
                assert!(r.crashed, "point did not fire: {r:?}");
                assert_eq!(r.final_cursor, clean.final_cursor);
            }
        }
    }

    #[test]
    fn apply_crash_is_deterministic() {
        let h = harness(24);
        let clean = h.run_apply_crash(0).unwrap();
        let p = clean.follower_ops / 2;
        assert_eq!(h.run_apply_crash(p).unwrap(), h.run_apply_crash(p).unwrap());
    }

    #[test]
    fn failure_display_carries_replay_recipe() {
        let failure = ChaosFailure {
            plan: FaultPlan::crash_at(9, 33),
            detail: "test detail".to_string(),
            fault_log: vec!["crash: op 33 append 000002.log".to_string()],
        };
        let text = failure.to_string();
        assert!(text.contains("test detail"));
        assert!(text.contains("seed: 9"));
        assert!(text.contains("Some(33)"));
        assert!(text.contains("crash: op 33"));
    }
}
