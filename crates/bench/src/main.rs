//! `ldc-bench` — multi-tool entry point.
//!
//! The figure/table reproductions live in `src/bin/` (one binary each;
//! `cargo run -p ldc-bench --bin fig08_tail_latency`). This default binary
//! hosts operational subcommands that exercise the engine end to end:
//!
//! ```text
//! cargo run -p ldc-bench -- repair --seed 7
//! cargo run -p ldc-bench -- readwhilewriting --quick
//! ```
//!
//! `repair` drives the full degraded-mode pipeline on a fresh simulated
//! store: run a workload, flip one bit in the largest SSTable, scrub
//! (detect), quarantine (keep serving), `repair_db` (rebuild the manifest,
//! salvage WAL remnants), reopen, and verify every served value against
//! the model. It also proves the transient-read retry budget masks
//! heal-after-N read failures. Exits non-zero on any verification failure,
//! printing the `(seed, plan)` replay recipe.
//!
//! `readwhilewriting` is the db_bench-style mixed workload: one writer
//! overwrites a preloaded keyspace (forcing flushes and compactions) while
//! N reader threads hammer point lookups through the shared handle,
//! measuring host-time read latency. It runs both compaction modes and
//! writes a machine-readable `BENCH_readwhilewriting.json` for CI trend
//! tracking. Latencies here are *host* wall-clock (thread scheduling and
//! all), unlike the figure binaries' virtual-clock numbers — the point is
//! exercising the concurrent read path, not reproducing a paper figure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ldc_bench::cli::{print_table, CommonArgs};
use ldc_bench::prelude::*;
use ldc_chaos::{ChaosConfig, ChaosHarness};
use ldc_core::CompactionMode;
use ldc_core::LdcConfig;
use ldc_workload::Histogram;

fn usage() -> ! {
    eprintln!("usage: ldc-bench <subcommand> [flags]");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!(
        "  repair            degraded-mode pipeline: scrub -> quarantine -> repair -> verify"
    );
    eprintln!("  backup            checkpoint -> incremental stream -> crash -> restore ->");
    eprintln!("                    verify, plus follower apply-crash recovery, UDC and LDC");
    eprintln!("  readwhilewriting  1 writer + N readers on a shared handle, UDC vs LDC");
    eprintln!("                    [--readers N] [--workers N] [--quick] [--out PATH]");
    eprintln!("                    + common flags; --workers N also runs both modes with");
    eprintln!("                    N background workers next to the inline baseline");
    eprintln!("  compaction-backlog  burst-load a flush/compaction backlog, then measure");
    eprintln!("                    drain time + foreground read p50/p99/p999 during the");
    eprintln!("                    drain, UDC vs LDC -> BENCH_backlog.json");
    eprintln!("                    [--readers N] [--workers N] [--quick] [--out PATH]");
    eprintln!("                    [--det-out PATH  deterministic single-threaded replay]");
    eprintln!("  tail              deterministic mixed load, UDC vs LDC: P50..P99.99 +");
    eprintln!("                    per-blame breakdown -> BENCH_tail.json");
    eprintln!("                    [--k N] [--quick] [--out PATH] + common flags");
    eprintln!("  trace-report      same load; renders the worst-K trace reservoir as");
    eprintln!("                    folded stacks [--k N] [--quick] + common flags");
    eprintln!("  ycsb-net          YCSB A-F over loopback TCP against ldc-server, UDC vs");
    eprintln!("                    LDC, closed + open loop -> BENCH_net.json");
    eprintln!("                    [--shards N] [--queue-capacity N] [--rate R]");
    eprintln!("                    [--closed-only] [--quick] [--out PATH] + common flags");
    eprintln!();
    eprintln!("figure binaries live under --bin (e.g. --bin fig08_tail_latency)");
    std::process::exit(2);
}

fn run_repair(args: CommonArgs) -> Result<(), String> {
    let config = ChaosConfig {
        ops: args.ops,
        ..ChaosConfig::quick(args.seed, CompactionMode::Ldc(LdcConfig::default()))
    };
    let harness = ChaosHarness::new(config);

    println!("# degraded-mode pipeline (seed {})", args.seed);

    let transient = harness.run_transient_reads(2).map_err(|f| f.to_string())?;
    println!(
        "transient reads: {} injected failures masked by {} retries",
        transient.injected_failures, transient.retries_recorded
    );
    if transient.injected_failures > 0 && transient.retries_recorded == 0 {
        return Err("transient failures were injected but never retried".to_string());
    }

    let report = harness
        .run_scrub_quarantine_repair()
        .map_err(|f| f.to_string())?;
    println!(
        "bit flip: {} byte {} bit {}",
        report.file, report.offset, report.bit
    );
    if report.detected_at_open {
        println!("detection: reopen refused the corrupt store");
    } else {
        println!(
            "detection: scrub reported {} corruption(s), quarantined {} file(s)",
            report.scrub_corruptions, report.files_quarantined
        );
    }
    println!(
        "repair: kept {} table(s), salvaged {}, quarantined {}, thawed {} frozen, {} WAL record(s)",
        report.repair.tables_kept,
        report.repair.tables_salvaged,
        report.repair.tables_quarantined,
        report.repair.frozen_thawed,
        report.repair.wal_records_salvaged
    );
    println!(
        "verify: {} key(s) surviving, {} lost with the quarantined table",
        report.surviving_keys, report.lost_keys
    );
    if report.surviving_keys == 0 {
        return Err("repair lost every key".to_string());
    }
    println!("OK");
    Ok(())
}

/// The crash-mid-backup pipeline from EXPERIMENTS.md, end to end: profile
/// the backup's op timeline, kill the power inside checkpoint creation and
/// mid-ship, restore (or prove the torn checkpoint is refused), bootstrap
/// a follower from the surviving stream, then crash the follower itself
/// mid-apply and recover it via the documented recipe. Every line prints
/// the `(seed, crash op)` pair that replays it.
fn run_backup(args: CommonArgs) -> Result<(), String> {
    println!("# backup pipeline (seed {})", args.seed);
    for (label, mode) in [
        ("UDC", CompactionMode::Udc),
        ("LDC", CompactionMode::Ldc(LdcConfig::default())),
    ] {
        let config = ChaosConfig {
            ops: args.ops,
            ..ChaosConfig::quick(args.seed, mode)
        };
        let harness = ChaosHarness::new(config);
        let profile = harness.measure_backup_ops().map_err(|f| f.to_string())?;
        println!(
            "## {label}: checkpoint spans storage ops {}..={}, pipeline total {}",
            profile.before_checkpoint + 1,
            profile.checkpoint_done,
            profile.total
        );

        // One point inside checkpoint creation, one just before its
        // completeness marker, one in the shipping workload after it.
        let points = [
            profile.before_checkpoint + 1,
            profile.checkpoint_done.saturating_sub(1),
            (profile.checkpoint_done + profile.total) / 2,
        ];
        let reports = harness
            .backup_crash_sweep(points)
            .map_err(|f| f.to_string())?;
        for r in &reports {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            println!(
                "crash @{}: {} acked writes, backup {}, restored prefix {}, follower cursor {}",
                r.crash_op,
                r.acked_writes,
                if r.backup_complete {
                    "complete"
                } else {
                    "incomplete (restore refused)"
                },
                opt(r.restored_prefix),
                opt(r.follower_cursor),
            );
            if !r.crashed {
                return Err(format!("{label}: crash point {} never fired", r.crash_op));
            }
        }
        let last = reports.last().expect("sweep over three points");
        if !last.backup_complete || last.restored_prefix.is_none() {
            return Err(format!(
                "{label}: a mid-ship crash must leave a restorable backup"
            ));
        }

        // Follower side: crash the apply path, recover per the recipe
        // (reopen from the durable cursor, or wipe and re-bootstrap), and
        // require catch-up to the full stream a clean run reaches.
        let clean = harness.run_apply_crash(0).map_err(|f| f.to_string())?;
        let applies = harness
            .apply_crash_sweep([3, clean.follower_ops.saturating_sub(5)])
            .map_err(|f| f.to_string())?;
        for r in &applies {
            println!(
                "apply crash @{}: durable cursor {} at crash, {} after recovery (stream {})",
                r.crash_op, r.applied_before_crash, r.final_cursor, clean.final_cursor
            );
            if !r.crashed {
                return Err(format!(
                    "{label}: apply crash point {} never fired",
                    r.crash_op
                ));
            }
            if r.final_cursor != clean.final_cursor {
                return Err(format!(
                    "{label}: follower recovered to cursor {}, clean run reaches {}",
                    r.final_cursor, clean.final_cursor
                ));
            }
        }
    }
    println!(
        "replay: ldc-bench backup --seed {} --ops {} reproduces every line",
        args.seed, args.ops
    );
    println!("OK");
    Ok(())
}

/// One mode's results from the read-while-writing race.
struct RwwResult {
    mode: &'static str,
    background_workers: usize,
    wall_secs: f64,
    writes: u64,
    reads: u64,
    read_latency_ns: Histogram,
    write_latency_ns: Histogram,
    flushes: u64,
    compactions: u64,
}

impl RwwResult {
    fn p_us(&self, p: f64) -> f64 {
        self.read_latency_ns.percentile(p) as f64 / 1e3
    }

    fn wp_us(&self, p: f64) -> f64 {
        self.write_latency_ns.percentile(p) as f64 / 1e3
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"mode\":\"{}\",\"background_workers\":{},",
                "\"wall_secs\":{:.3},\"writes\":{},",
                "\"writes_per_sec\":{:.0},\"reads\":{},\"reads_per_sec\":{:.0},",
                "\"read_p50_us\":{:.1},\"read_p99_us\":{:.1},\"read_p999_us\":{:.1},",
                "\"read_mean_us\":{:.1},\"read_max_us\":{:.1},",
                "\"write_p50_us\":{:.1},\"write_p99_us\":{:.1},\"write_p999_us\":{:.1},",
                "\"write_mean_us\":{:.1},\"write_max_us\":{:.1},",
                "\"flushes\":{},\"compactions\":{}}}"
            ),
            self.mode,
            self.background_workers,
            self.wall_secs,
            self.writes,
            self.writes as f64 / self.wall_secs,
            self.reads,
            self.reads as f64 / self.wall_secs,
            self.p_us(50.0),
            self.p_us(99.0),
            self.p_us(99.9),
            self.read_latency_ns.mean() / 1e3,
            self.read_latency_ns.max() as f64 / 1e3,
            self.wp_us(50.0),
            self.wp_us(99.0),
            self.wp_us(99.9),
            self.write_latency_ns.mean() / 1e3,
            self.write_latency_ns.max() as f64 / 1e3,
            self.flushes,
            self.compactions
        )
    }
}

/// Tiny xorshift so reader key choice is seedable without pulling the
/// workload sampler (whose state isn't `Send`-shareable across threads).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One writer overwriting `args.ops` keys over a preloaded keyspace while
/// `readers` threads do point gets through the same shared handle.
// Host wall-clock is the measurement here, not a determinism leak: threads
// race for real, so virtual time cannot describe what readers experience.
#[allow(clippy::disallowed_methods)]
fn run_rww_mode(
    mode: &'static str,
    background_workers: usize,
    db: LdcDb,
    args: &CommonArgs,
    readers: u64,
) -> Result<RwwResult, String> {
    let codec = args.codec();
    let preload = args.ops.max(1);
    for i in 0..preload {
        db.put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("{mode} preload: {e}"))?;
    }
    db.drain_background();

    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let start = Instant::now();
    let mut merged = Histogram::new();
    let mut write_hist = Histogram::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for r in 0..readers {
            let db = &db;
            let codec = &codec;
            let (stop, failed, reads) = (&stop, &failed, &reads);
            let seed = args.seed;
            handles.push(s.spawn(move || {
                let mut hist = Histogram::new();
                let mut rng = seed ^ (r + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                while !stop.load(Ordering::Relaxed) {
                    let key = codec.key(xorshift(&mut rng) % preload);
                    let t0 = Instant::now();
                    let got = db.get_pinned(&key);
                    hist.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    match got {
                        Ok(Some(_)) => {}
                        Ok(None) => {
                            eprintln!("{mode}: reader {r} lost a preloaded key");
                            failed.store(true, Ordering::Relaxed);
                            return hist;
                        }
                        Err(e) => {
                            eprintln!("{mode}: reader {r} error: {e}");
                            failed.store(true, Ordering::Relaxed);
                            return hist;
                        }
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                hist
            }));
        }
        // This thread is the writer: overwrite the preloaded keyspace so
        // flushes and compactions churn the files readers are pinned to.
        // Write latency is measured the same way the readers measure
        // theirs — host time around each call — so stalls and group-commit
        // waits land in the write tail.
        for i in 0..args.ops {
            let idx = i % preload;
            let t0 = Instant::now();
            let put = db.put(&codec.key(idx), &codec.value(idx, 1 + i / preload));
            write_hist.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            if let Err(e) = put {
                eprintln!("{mode}: writer error: {e}");
                failed.store(true, Ordering::Relaxed);
                break;
            }
            if failed.load(Ordering::Relaxed) {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            merged.merge(&h.join().expect("reader thread panicked"));
        }
    });
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    db.drain_background();
    if failed.load(Ordering::Relaxed) {
        return Err(format!("{mode}: read-while-writing race failed"));
    }
    let stats = db.stats();
    Ok(RwwResult {
        mode,
        background_workers,
        wall_secs,
        writes: args.ops,
        reads: reads.load(Ordering::Relaxed),
        read_latency_ns: merged,
        write_latency_ns: write_hist,
        flushes: stats.flushes,
        compactions: stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges,
    })
}

/// Deterministic readwhilewriting-style mixed load for tail attribution:
/// single-threaded (so the virtual clock is exactly reproducible), one
/// write every fourth op over a preloaded keyspace, uniform point gets in
/// between. Returns the store with tracing still enabled so callers can
/// render reports from its reservoir.
fn run_tail_load(udc: bool, args: &CommonArgs, worst_k: usize) -> Result<LdcDb, String> {
    let mut b = LdcDb::builder()
        .options(paper_scaled_options())
        .trace_worst_k(worst_k);
    if udc {
        b = b.udc_baseline();
    }
    let db = b.build().map_err(|e| e.to_string())?;
    let codec = args.codec();
    let preload = (args.ops / 2).max(1);
    for i in 0..preload {
        db.put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("preload: {e}"))?;
    }
    db.drain_background();
    // Measure only the mixed phase: preload latencies, blame, and traces
    // are cleared so both modes start from identical accounting.
    db.metrics().reset();
    db.reset_traces();

    let mut rng = args.seed | 1;
    for i in 0..args.ops {
        if i % 4 == 0 {
            let idx = i % preload;
            db.put(&codec.key(idx), &codec.value(idx, 1 + i / preload))
                .map_err(|e| format!("write op {i}: {e}"))?;
        } else {
            let idx = xorshift(&mut rng) % preload;
            db.get_pinned(&codec.key(idx))
                .map_err(|e| format!("read op {i}: {e}"))?;
        }
    }
    Ok(db)
}

/// Emits one mode's JSON object for `BENCH_tail.json`: virtual-clock
/// percentiles through P99.99 plus the per-blame nanosecond breakdown for
/// each op type that ran.
fn tail_mode_json(mode: &str, db: &LdcDb) -> Result<String, String> {
    use ldc_obs::{Blame, OpType};
    // Acceptance invariant: every captured trace's blame buckets must sum
    // to its total latency exactly — attribution may never lose or invent
    // a nanosecond.
    for trace in db.worst_traces() {
        let sum: u64 = trace.blame_breakdown().iter().sum();
        if sum != trace.total {
            return Err(format!(
                "{mode}: trace {} #{} blame sum {} != total {}",
                trace.op.label(),
                trace.op_index,
                sum,
                trace.total
            ));
        }
    }
    let metrics = db.metrics();
    let mut ops = Vec::new();
    for op in OpType::ALL {
        let h = metrics.latency(op);
        if h.count() == 0 {
            continue;
        }
        let blame = metrics.blame_totals(op);
        let blame_fields: Vec<String> = Blame::ALL
            .iter()
            .zip(blame.iter())
            .map(|(b, ns)| format!("\"{}\":{}", b.label(), ns))
            .collect();
        ops.push(format!(
            concat!(
                "\"{}\":{{\"count\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},",
                "\"p999_us\":{:.1},\"p9999_us\":{:.1},\"max_us\":{:.1},",
                "\"blame_ns\":{{{}}}}}"
            ),
            op.label(),
            h.count(),
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.0) as f64 / 1e3,
            h.percentile(99.9) as f64 / 1e3,
            h.percentile(99.99) as f64 / 1e3,
            h.max() as f64 / 1e3,
            blame_fields.join(",")
        ));
    }
    Ok(format!("{{\"mode\":\"{}\",{}}}", mode, ops.join(",")))
}

fn run_tail(args: CommonArgs, worst_k: usize, out: &str) -> Result<(), String> {
    let udc = run_tail_load(true, &args, worst_k)?;
    let ldc = run_tail_load(false, &args, worst_k)?;

    for (mode, db) in [("UDC", &udc), ("LDC", &ldc)] {
        println!("## {mode}");
        print!("{}", db.tail_report());
        println!();
    }

    let json = format!(
        concat!(
            "{{\"bench\":\"tail\",\"ops\":{},\"value_bytes\":{},\"seed\":{},",
            "\"worst_k\":{},\"modes\":[{},{}]}}\n"
        ),
        args.ops,
        args.value_bytes,
        args.seed,
        worst_k,
        tail_mode_json("UDC", &udc)?,
        tail_mode_json("LDC", &ldc)?
    );
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn run_trace_report(args: CommonArgs, worst_k: usize) -> Result<(), String> {
    for udc in [true, false] {
        let db = run_tail_load(udc, &args, worst_k)?;
        let mode = if udc { "UDC" } else { "LDC" };
        println!("## {mode} worst-{worst_k} traces (folded stacks, virtual ns)");
        print!("{}", db.trace_folded_report());
        println!();
    }
    Ok(())
}

fn run_read_while_writing(
    args: CommonArgs,
    readers: u64,
    workers: usize,
    out: &str,
) -> Result<(), String> {
    let open = |udc: bool, bg: usize| -> Result<LdcDb, String> {
        let mut b = LdcDb::builder()
            .options(paper_scaled_options())
            .background_workers(bg);
        if udc {
            b = b.udc_baseline();
        }
        b.build().map_err(|e| e.to_string())
    };
    // With `--workers N` the inline runs stay in as the baseline, so one
    // JSON records the threaded-vs-inline read-tail difference directly.
    let mut results = vec![
        run_rww_mode("UDC", 0, open(true, 0)?, &args, readers)?,
        run_rww_mode("LDC", 0, open(false, 0)?, &args, readers)?,
    ];
    if workers > 0 {
        results.push(run_rww_mode(
            "UDC",
            workers,
            open(true, workers)?,
            &args,
            readers,
        )?);
        results.push(run_rww_mode(
            "LDC",
            workers,
            open(false, workers)?,
            &args,
            readers,
        )?);
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{}", r.background_workers),
                format!("{:.0}", r.writes as f64 / r.wall_secs),
                format!("{:.0}", r.reads as f64 / r.wall_secs),
                format!("{:.1}", r.p_us(50.0)),
                format!("{:.1}", r.p_us(99.0)),
                format!("{:.1}", r.p_us(99.9)),
                format!("{:.1}", r.wp_us(50.0)),
                format!("{:.1}", r.wp_us(99.0)),
                format!("{:.1}", r.wp_us(99.9)),
                format!("{}", r.flushes),
                format!("{}", r.compactions),
            ]
        })
        .collect();
    print_table(
        args.csv,
        &format!(
            "readwhilewriting: {} writes vs {} readers ({}-byte values, host time)",
            args.ops, readers, args.value_bytes
        ),
        &[
            "system",
            "bg workers",
            "writes/s",
            "reads/s",
            "read p50 (us)",
            "read p99 (us)",
            "read p99.9 (us)",
            "write p50 (us)",
            "write p99 (us)",
            "write p99.9 (us)",
            "flushes",
            "compactions",
        ],
        &rows,
    );

    let modes_json: Vec<String> = results.iter().map(|r| r.json()).collect();
    let json = format!(
        concat!(
            "{{\"bench\":\"readwhilewriting\",\"ops\":{},\"readers\":{},",
            "\"value_bytes\":{},\"seed\":{},\"background_workers\":{},",
            "\"modes\":[{}]}}\n"
        ),
        args.ops,
        readers,
        args.value_bytes,
        args.seed,
        workers,
        modes_json.join(",")
    );
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(())
}

/// One mode's results from the backlog burst-and-drain measurement.
struct BacklogResult {
    mode: &'static str,
    background_workers: usize,
    burst_wall_secs: f64,
    backlog_l0_files: usize,
    drain_wall_secs: f64,
    reads: u64,
    read_latency_ns: Histogram,
    flushes: u64,
    compactions: u64,
}

impl BacklogResult {
    fn p_us(&self, p: f64) -> f64 {
        self.read_latency_ns.percentile(p) as f64 / 1e3
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"mode\":\"{}\",\"background_workers\":{},",
                "\"burst_wall_secs\":{:.3},\"backlog_l0_files\":{},",
                "\"drain_wall_secs\":{:.3},\"reads\":{},",
                "\"read_p50_us\":{:.1},\"read_p99_us\":{:.1},\"read_p999_us\":{:.1},",
                "\"flushes\":{},\"compactions\":{}}}"
            ),
            self.mode,
            self.background_workers,
            self.burst_wall_secs,
            self.backlog_l0_files,
            self.drain_wall_secs,
            self.reads,
            self.p_us(50.0),
            self.p_us(99.0),
            self.p_us(99.9),
            self.flushes,
            self.compactions
        )
    }
}

/// Burst-loads a compaction backlog, then measures how long the pool takes
/// to drain it and what foreground point reads experience meanwhile.
// Host wall-clock again: the drain races real reader threads.
#[allow(clippy::disallowed_methods)]
fn run_backlog_mode(
    mode: &'static str,
    udc: bool,
    args: &CommonArgs,
    workers: usize,
    readers: u64,
) -> Result<BacklogResult, String> {
    let mut b = LdcDb::builder()
        .options(paper_scaled_options())
        .background_workers(workers);
    if udc {
        b = b.udc_baseline();
    }
    let db = b.build().map_err(|e| e.to_string())?;
    let codec = args.codec();
    let preload = args.ops.max(1);
    for i in 0..preload {
        db.put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("{mode} preload: {e}"))?;
    }
    db.drain_background();
    let s0 = db.stats();

    // Burst: overwrite the keyspace as fast as the write gates allow, so
    // flush/compaction debt piles up faster than the pool retires it.
    let t0 = Instant::now();
    for i in 0..args.ops {
        let idx = i % preload;
        db.put(&codec.key(idx), &codec.value(idx, 1 + i / preload))
            .map_err(|e| format!("{mode} burst: {e}"))?;
    }
    let burst_wall_secs = t0.elapsed().as_secs_f64();
    let backlog_l0_files = db.engine().version().levels[0].len();

    // Drain while foreground readers measure what the backlog costs them.
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let mut merged = Histogram::new();
    let mut drain_wall_secs = 0.0f64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for r in 0..readers {
            let db = &db;
            let codec = &codec;
            let (stop, failed, reads) = (&stop, &failed, &reads);
            let seed = args.seed;
            handles.push(s.spawn(move || {
                let mut hist = Histogram::new();
                let mut rng = seed ^ (r + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                while !stop.load(Ordering::Relaxed) {
                    let key = codec.key(xorshift(&mut rng) % preload);
                    let t0 = Instant::now();
                    let got = db.get_pinned(&key);
                    hist.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    match got {
                        Ok(Some(_)) => {}
                        Ok(None) => {
                            eprintln!("{mode}: reader {r} lost a preloaded key");
                            failed.store(true, Ordering::Relaxed);
                            return hist;
                        }
                        Err(e) => {
                            eprintln!("{mode}: reader {r} error: {e}");
                            failed.store(true, Ordering::Relaxed);
                            return hist;
                        }
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                hist
            }));
        }
        let t1 = Instant::now();
        db.drain_background();
        drain_wall_secs = t1.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            merged.merge(&h.join().expect("reader thread panicked"));
        }
    });
    if failed.load(Ordering::Relaxed) {
        return Err(format!("{mode}: backlog drain race failed"));
    }
    let stats = db.stats();
    Ok(BacklogResult {
        mode,
        background_workers: workers,
        burst_wall_secs,
        backlog_l0_files,
        drain_wall_secs,
        reads: reads.load(Ordering::Relaxed),
        read_latency_ns: merged,
        flushes: stats.flushes - s0.flushes,
        compactions: (stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges)
            - (s0.merges + s0.trivial_moves + s0.links + s0.ldc_merges),
    })
}

/// Single-threaded deterministic replay of the backlog shape: no reader
/// threads, `background_workers == 0`, everything stamped off the virtual
/// clock — two same-seed runs must emit byte-identical JSON.
fn backlog_det_json(udc: bool, args: &CommonArgs) -> Result<String, String> {
    let mode = if udc { "UDC" } else { "LDC" };
    let mut b = LdcDb::builder()
        .options(paper_scaled_options())
        .background_workers(0);
    if udc {
        b = b.udc_baseline();
    }
    let db = b.build().map_err(|e| e.to_string())?;
    let codec = args.codec();
    let preload = args.ops.max(1);
    for i in 0..preload {
        db.put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("{mode} det preload: {e}"))?;
    }
    db.drain_background();
    let s0 = db.stats();
    for i in 0..args.ops {
        let idx = i % preload;
        db.put(&codec.key(idx), &codec.value(idx, 1 + i / preload))
            .map_err(|e| format!("{mode} det burst: {e}"))?;
    }
    let backlog_l0_files = db.engine().version().levels[0].len();
    let drain_virtual_nanos = db.drain_background();
    let stats = db.stats();
    Ok(format!(
        concat!(
            "{{\"mode\":\"{}\",\"backlog_l0_files\":{},",
            "\"drain_virtual_nanos\":{},\"flushes\":{},\"compactions\":{}}}"
        ),
        mode,
        backlog_l0_files,
        drain_virtual_nanos,
        stats.flushes - s0.flushes,
        (stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges)
            - (s0.merges + s0.trivial_moves + s0.links + s0.ldc_merges),
    ))
}

fn run_backlog(
    args: CommonArgs,
    workers: usize,
    readers: u64,
    out: &str,
    det_out: Option<&str>,
) -> Result<(), String> {
    let udc = run_backlog_mode("UDC", true, &args, workers, readers)?;
    let ldc = run_backlog_mode("LDC", false, &args, workers, readers)?;

    let rows: Vec<Vec<String>> = [&udc, &ldc]
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{}", r.background_workers),
                format!("{:.3}", r.burst_wall_secs),
                format!("{}", r.backlog_l0_files),
                format!("{:.3}", r.drain_wall_secs),
                format!("{:.1}", r.p_us(50.0)),
                format!("{:.1}", r.p_us(99.0)),
                format!("{:.1}", r.p_us(99.9)),
                format!("{}", r.flushes),
                format!("{}", r.compactions),
            ]
        })
        .collect();
    print_table(
        args.csv,
        &format!(
            "compaction-backlog: {} burst writes, {} readers during drain ({}-byte values, host time)",
            args.ops, readers, args.value_bytes
        ),
        &[
            "system",
            "bg workers",
            "burst (s)",
            "L0 backlog",
            "drain (s)",
            "read p50 (us)",
            "read p99 (us)",
            "read p99.9 (us)",
            "flushes",
            "compactions",
        ],
        &rows,
    );

    let json = format!(
        concat!(
            "{{\"bench\":\"compaction-backlog\",\"ops\":{},\"readers\":{},",
            "\"value_bytes\":{},\"seed\":{},\"background_workers\":{},",
            "\"modes\":[{},{}]}}\n"
        ),
        args.ops,
        readers,
        args.value_bytes,
        args.seed,
        workers,
        udc.json(),
        ldc.json()
    );
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("\nwrote {out}");

    if let Some(det_path) = det_out {
        let det = format!(
            "{{\"bench\":\"compaction-backlog-det\",\"ops\":{},\"value_bytes\":{},\"seed\":{},\"modes\":[{},{}]}}\n",
            args.ops,
            args.value_bytes,
            args.seed,
            backlog_det_json(true, &args)?,
            backlog_det_json(false, &args)?
        );
        std::fs::write(det_path, &det).map_err(|e| format!("writing {det_path}: {e}"))?;
        println!("wrote {det_path} (single-threaded, virtual clock)");
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sub = match args.next() {
        Some(s) => s,
        None => usage(),
    };
    match sub.as_str() {
        "repair" => {
            let common = CommonArgs::from_iter(400, args);
            if let Err(detail) = run_repair(common) {
                eprintln!("repair pipeline FAILED: {detail}");
                std::process::exit(1);
            }
        }
        "backup" => {
            let common = CommonArgs::from_iter(300, args);
            if let Err(detail) = run_backup(common) {
                eprintln!("backup pipeline FAILED: {detail}");
                std::process::exit(1);
            }
        }
        "readwhilewriting" => {
            // Pull out the flags CommonArgs doesn't know before delegating
            // (its parser treats unknown flags as fatal).
            let mut readers = 4u64;
            let mut workers = 0usize;
            let mut quick = false;
            let mut out = "BENCH_readwhilewriting.json".to_string();
            let mut rest = Vec::new();
            let mut iter = args.peekable();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--readers" => {
                        readers = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--readers: integer"))
                    }
                    "--workers" => {
                        workers = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--workers: integer"))
                    }
                    "--quick" => quick = true,
                    "--out" => out = iter.next().unwrap_or_else(|| panic!("--out needs a value")),
                    _ => rest.push(arg),
                }
            }
            let default_ops = if quick { 2_000 } else { 20_000 };
            let common = CommonArgs::from_iter(default_ops, rest);
            if let Err(detail) = run_read_while_writing(common, readers.max(1), workers, &out) {
                eprintln!("readwhilewriting FAILED: {detail}");
                std::process::exit(1);
            }
        }
        "compaction-backlog" => {
            let mut readers = 4u64;
            let mut workers = 2usize;
            let mut quick = false;
            let mut out = "BENCH_backlog.json".to_string();
            let mut det_out: Option<String> = None;
            let mut rest = Vec::new();
            let mut iter = args.peekable();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--readers" => {
                        readers = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--readers: integer"))
                    }
                    "--workers" => {
                        workers = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--workers: integer"))
                    }
                    "--quick" => quick = true,
                    "--out" => out = iter.next().unwrap_or_else(|| panic!("--out needs a value")),
                    "--det-out" => {
                        det_out = Some(
                            iter.next()
                                .unwrap_or_else(|| panic!("--det-out needs a value")),
                        )
                    }
                    _ => rest.push(arg),
                }
            }
            let default_ops = if quick { 2_000 } else { 20_000 };
            let common = CommonArgs::from_iter(default_ops, rest);
            if let Err(detail) =
                run_backlog(common, workers, readers.max(1), &out, det_out.as_deref())
            {
                eprintln!("compaction-backlog FAILED: {detail}");
                std::process::exit(1);
            }
        }
        "tail" | "trace-report" => {
            let mut worst_k = 8usize;
            let mut quick = false;
            let mut out = "BENCH_tail.json".to_string();
            let mut rest = Vec::new();
            let mut iter = args.peekable();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--k" => {
                        worst_k = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--k: integer"))
                    }
                    "--quick" => quick = true,
                    "--out" => out = iter.next().unwrap_or_else(|| panic!("--out needs a value")),
                    _ => rest.push(arg),
                }
            }
            let default_ops = if quick { 2_000 } else { 20_000 };
            let common = CommonArgs::from_iter(default_ops, rest);
            let result = if sub == "tail" {
                run_tail(common, worst_k.max(1), &out)
            } else {
                run_trace_report(common, worst_k.max(1))
            };
            if let Err(detail) = result {
                eprintln!("{sub} FAILED: {detail}");
                std::process::exit(1);
            }
        }
        "ycsb-net" => {
            let mut net = ldc_bench::NetBenchArgs {
                common: CommonArgs::from_iter(3_000, std::iter::empty::<String>()),
                shards: 4,
                queue_capacity: 64,
                rate_per_sec: 20_000.0,
                closed_only: false,
                out: "BENCH_net.json".to_string(),
            };
            let mut quick = false;
            let mut rest = Vec::new();
            let mut iter = args.peekable();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--shards" => {
                        net.shards = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--shards: integer"))
                    }
                    "--queue-capacity" => {
                        net.queue_capacity = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--queue-capacity: integer"))
                    }
                    "--rate" => {
                        net.rate_per_sec = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--rate: number"))
                    }
                    "--closed-only" => net.closed_only = true,
                    "--quick" => quick = true,
                    "--out" => {
                        net.out = iter.next().unwrap_or_else(|| panic!("--out needs a value"))
                    }
                    _ => rest.push(arg),
                }
            }
            let default_ops = if quick { 800 } else { 3_000 };
            net.common = CommonArgs::from_iter(default_ops, rest);
            net.shards = net.shards.max(1);
            net.queue_capacity = net.queue_capacity.max(1);
            if let Err(detail) = ldc_bench::run_ycsb_net(&net) {
                eprintln!("ycsb-net FAILED: {detail}");
                std::process::exit(1);
            }
        }
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown subcommand: {other}");
            usage();
        }
    }
}
