//! Per-layer numbers of one traced repetition, and the checks that the
//! layers add up: storage child spans nest inside their facade op, so
//! `lsm.db` self time + storage time = op span exactly, and the engine's
//! blame buckets sum to each op type's virtual total.

use std::collections::BTreeMap;

use ldc_obs::Blame;
use ldc_ssd::{IoClass, TimeCategory};

use crate::timed::IoSpan;
use crate::workload::{OpKind, Rep, TraceData};

/// Name and unit of every per-layer metric, in report order.
/// `BENCHMARK.json` lists the same names.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("core.get_host_ns", "ns");
    add("core.put_host_ns", "ns");
    add("core.scan_host_ns", "ns");
    add("lsm.db.get_self_ns", "ns");
    add("lsm.db.put_self_ns", "ns");
    add("lsm.db.scan_self_ns", "ns");
    add("ssd.storage.get_reads", "count");
    add("ssd.storage.get_read_kib", "KiB");
    add("ssd.storage.get_host_ns", "ns");
    add("ssd.storage.scan_reads", "count");
    add("ssd.storage.wal_host_ns", "ns");
    for (class, _) in STORAGE_CLASSES {
        add(&format!("ssd.storage.{class}_mib"), "MiB");
        add(&format!("ssd.storage.{class}_host_ms"), "ms");
    }
    add("ssd.storage.bg_host_ms", "ms");
    add("ssd.ftl.device_write_amp", "ratio");
    add("ssd.ftl.erases", "count");
    add("ssd.clock.compaction_frac", "fraction");
    add("ssd.clock.fs_frac", "fraction");
    add("ssd.clock.fg_write_frac", "fraction");
    add("ssd.clock.fg_read_frac", "fraction");
    add("lsm.cache.hit_ratio", "fraction");
    add("lsm.cache.misses_per_get", "count");
    add("lsm.cache.evictions", "count");
    add("lsm.filter.skips_per_get", "count");
    add("lsm.gate.stalls", "count");
    add("lsm.gate.slowdowns", "count");
    add("lsm.gate.stall_virt_ms", "ms");
    for name in ["flushes", "merges", "ldc_merges", "links", "trivial_moves"] {
        add(&format!("lsm.compaction.{name}"), "count");
    }
    add("lsm.compaction.read_virt_ms", "ms");
    add("lsm.compaction.merge_virt_ms", "ms");
    add("lsm.compaction.write_virt_ms", "ms");
    add("lsm.compaction.host_ms", "ms");
    add("lsm.version.l0_files", "count");
    add("lsm.version.sst_files", "count");
    add("lsm.version.frozen_mib", "MiB");
    add("lsm.scheduler.final_drain_host_ms", "ms");
    for kind in OpKind::ALL {
        for blame in Blame::ALL {
            add(
                &format!("obs.blame.{}.{}_ns", kind.label(), blame.label()),
                "ns",
            );
        }
    }
    add("obs.trace.overhead_pct", "%");
    out
}

/// Storage classes reported as volume and host time, by report name.
const STORAGE_CLASSES: [(&str, IoClass); 5] = [
    ("wal", IoClass::WalWrite),
    ("flush", IoClass::FlushWrite),
    ("compaction_read", IoClass::CompactionRead),
    ("compaction_write", IoClass::CompactionWrite),
    ("manifest", IoClass::ManifestWrite),
];

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

fn median_u64(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

const MIB: f64 = (1u64 << 20) as f64;

/// Per-op rollup of the storage calls made under one facade op.
#[derive(Default, Clone, Copy)]
struct Children {
    host_ns: u64,
    user_reads: u64,
    user_read_bytes: u64,
    user_read_ns: u64,
    wal_ns: u64,
    background_io: bool,
    /// Latest end seen so far, to detect overlapping children.
    last_end: u64,
    nested: bool,
}

/// Per-layer metrics of one traced repetition (every name in
/// [`catalog`] except `obs.trace.overhead_pct`), plus the violations of
/// the add-up checks.
pub fn per_layer(rep: &Rep, inline: bool) -> (Vec<(String, f64)>, Vec<String>) {
    let trace: &TraceData = rep
        .trace
        .as_ref()
        .expect("per-layer metrics need a traced rep");
    let mut violations = Vec::new();
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    // Storage child spans grouped under their facade op.
    let index: BTreeMap<u64, usize> = trace
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| (op.id, i))
        .collect();
    let mut children = vec![
        Children {
            nested: true,
            ..Children::default()
        };
        trace.ops.len()
    ];
    let mut io: Vec<&IoSpan> = trace.io.iter().collect();
    io.sort_by_key(|s| s.start_ns);
    for span in &io {
        if span.parent_op == 0 {
            continue;
        }
        let Some(&i) = index.get(&span.parent_op) else {
            violations.push(format!("storage span under unknown op {}", span.parent_op));
            continue;
        };
        let op = &trace.ops[i];
        let c = &mut children[i];
        let dur = span.end_ns - span.start_ns;
        if span.start_ns < op.start_ns || span.end_ns > op.end_ns || span.start_ns < c.last_end {
            c.nested = false;
        }
        c.last_end = span.end_ns;
        c.host_ns += dur;
        match span.class {
            Some(IoClass::UserRead) => {
                c.user_reads += 1;
                c.user_read_bytes += span.bytes;
                c.user_read_ns += dur;
            }
            Some(IoClass::WalWrite) => c.wal_ns += dur,
            Some(IoClass::FlushWrite | IoClass::CompactionRead | IoClass::CompactionWrite) => {
                c.background_io = true
            }
            _ => {}
        }
    }

    // Op span = lsm.db self + storage children, per op and in total.
    let mut n = [0u64; 3];
    let mut span_ns = [0u64; 3];
    let mut self_ns = [0u64; 3];
    let mut child_ns = [0u64; 3];
    let mut user_reads = [0u64; 3];
    let mut user_read_bytes = [0u64; 3];
    let mut user_read_ns = [0u64; 3];
    let mut wal_ns = [0u64; 3];
    let mut plain: [Vec<u64>; 3] = Default::default();
    for (op, c) in trace.ops.iter().zip(&children) {
        let k = op.kind as usize;
        let dur = op.end_ns - op.start_ns;
        let Some(own) = dur.checked_sub(c.host_ns).filter(|_| c.nested) else {
            violations.push(format!(
                "op {} ({}): storage children do not nest inside its span",
                op.id,
                op.kind.label()
            ));
            continue;
        };
        n[k] += 1;
        span_ns[k] += dur;
        self_ns[k] += own;
        child_ns[k] += c.host_ns;
        user_reads[k] += c.user_reads;
        user_read_bytes[k] += c.user_read_bytes;
        user_read_ns[k] += c.user_read_ns;
        wal_ns[k] += c.wal_ns;
        if !c.background_io {
            plain[k].push(dur);
        }
    }
    for kind in OpKind::ALL {
        let k = kind as usize;
        if self_ns[k] + child_ns[k] != span_ns[k] {
            violations.push(format!("{}: self + storage != op span", kind.label()));
        }
    }
    let (g, p, s) = (
        OpKind::Get as usize,
        OpKind::Put as usize,
        OpKind::Scan as usize,
    );
    for kind in OpKind::ALL {
        let k = kind as usize;
        put(
            &format!("core.{}_host_ns", kind.label()),
            ratio(span_ns[k] as f64, n[k]),
        );
    }
    for kind in OpKind::ALL {
        let k = kind as usize;
        put(
            &format!("lsm.db.{}_self_ns", kind.label()),
            ratio(self_ns[k] as f64, n[k]),
        );
    }
    put("ssd.storage.get_reads", ratio(user_reads[g] as f64, n[g]));
    put(
        "ssd.storage.get_read_kib",
        ratio(user_read_bytes[g] as f64 / 1024.0, n[g]),
    );
    put(
        "ssd.storage.get_host_ns",
        ratio(user_read_ns[g] as f64, n[g]),
    );
    put("ssd.storage.scan_reads", ratio(user_reads[s] as f64, n[s]));
    put("ssd.storage.wal_host_ns", ratio(wal_ns[p] as f64, n[p]));

    // Volume and host time per storage class over the window and final
    // drain, whoever made the call.
    for (label, class) in STORAGE_CLASSES {
        let (bytes, ns) = io
            .iter()
            .filter(|sp| sp.class == Some(class))
            .fold((0u64, 0u64), |(b, t), sp| {
                (b + sp.bytes, t + (sp.end_ns - sp.start_ns))
            });
        put(&format!("ssd.storage.{label}_mib"), bytes as f64 / MIB);
        put(&format!("ssd.storage.{label}_host_ms"), ns as f64 / 1e6);
    }
    let bg_ns: u64 = io
        .iter()
        .filter(|sp| !sp.load_thread)
        .map(|sp| sp.end_ns - sp.start_ns)
        .sum();
    put("ssd.storage.bg_host_ms", bg_ns as f64 / 1e6);

    let (b, a) = (&rep.before, &rep.after);
    let host_pages = a.ftl.host_pages_written - b.ftl.host_pages_written;
    let gc_pages = a.ftl.gc_pages_relocated - b.ftl.gc_pages_relocated;
    put(
        "ssd.ftl.device_write_amp",
        ratio((host_pages + gc_pages) as f64, host_pages),
    );
    put("ssd.ftl.erases", (a.ftl.erases - b.ftl.erases) as f64);

    let ledger: Vec<u64> = a.ledger.iter().zip(&b.ledger).map(|(x, y)| x - y).collect();
    let ledger_total: u64 = ledger.iter().sum();
    let share = |cat: TimeCategory| {
        let i = TimeCategory::ALL
            .iter()
            .position(|&c| c == cat)
            .expect("category listed");
        ratio(ledger[i] as f64, ledger_total)
    };
    put(
        "ssd.clock.compaction_frac",
        share(TimeCategory::CompactionWork),
    );
    put("ssd.clock.fs_frac", share(TimeCategory::FileSystem));
    put(
        "ssd.clock.fg_write_frac",
        share(TimeCategory::ForegroundWrite),
    );
    put(
        "ssd.clock.fg_read_frac",
        share(TimeCategory::ForegroundRead),
    );

    let hits = a.cache.hits - b.cache.hits;
    let misses = a.cache.misses - b.cache.misses;
    let gets = n[g];
    put("lsm.cache.hit_ratio", ratio(hits as f64, hits + misses));
    put("lsm.cache.misses_per_get", ratio(misses as f64, gets));
    put(
        "lsm.cache.evictions",
        (a.cache.evictions - b.cache.evictions) as f64,
    );
    put(
        "lsm.filter.skips_per_get",
        ratio((a.stats.bloom_skips - b.stats.bloom_skips) as f64, gets),
    );

    let (sa, sb) = (&a.stats, &b.stats);
    put("lsm.gate.stalls", (sa.stalls - sb.stalls) as f64);
    put("lsm.gate.slowdowns", (sa.slowdowns - sb.slowdowns) as f64);
    put(
        "lsm.gate.stall_virt_ms",
        (sa.stall_nanos - sb.stall_nanos) as f64 / 1e6,
    );
    put("lsm.compaction.flushes", (sa.flushes - sb.flushes) as f64);
    put("lsm.compaction.merges", (sa.merges - sb.merges) as f64);
    put(
        "lsm.compaction.ldc_merges",
        (sa.ldc_merges - sb.ldc_merges) as f64,
    );
    put("lsm.compaction.links", (sa.links - sb.links) as f64);
    put(
        "lsm.compaction.trivial_moves",
        (sa.trivial_moves - sb.trivial_moves) as f64,
    );
    put(
        "lsm.compaction.read_virt_ms",
        trace.phases.read_ns as f64 / 1e6,
    );
    put(
        "lsm.compaction.merge_virt_ms",
        trace.phases.merge_ns as f64 / 1e6,
    );
    put(
        "lsm.compaction.write_virt_ms",
        trace.phases.write_ns as f64 / 1e6,
    );

    // Host time of ops that ran a flush or compaction, beyond what a plain
    // op of the same type takes.
    let plain_median: Vec<u64> = plain.iter_mut().map(|v| median_u64(v)).collect();
    let compaction_ns: u64 = trace
        .ops
        .iter()
        .zip(&children)
        .filter(|(_, c)| c.background_io)
        .map(|(op, _)| (op.end_ns - op.start_ns).saturating_sub(plain_median[op.kind as usize]))
        .sum();
    put("lsm.compaction.host_ms", compaction_ns as f64 / 1e6);

    put("lsm.version.l0_files", rep.end.l0_files as f64);
    put("lsm.version.sst_files", rep.end.sst_files as f64);
    put("lsm.version.frozen_mib", rep.end.frozen_bytes as f64 / MIB);
    put(
        "lsm.scheduler.final_drain_host_ms",
        rep.final_drain_host_ns as f64 / 1e6,
    );

    // Engine blame, virtual ns per op. Checked against the op totals the
    // benchmark measured on the device clock.
    for kind in OpKind::ALL {
        let k = kind as usize;
        let delta: Vec<u64> = a.blame[k]
            .iter()
            .zip(&b.blame[k])
            .map(|(x, y)| x - y)
            .collect();
        let ops = rep.samples[k].virt_ns.len() as u64;
        for (blame, v) in Blame::ALL.iter().zip(&delta) {
            put(
                &format!("obs.blame.{}.{}_ns", kind.label(), blame.label()),
                ratio(*v as f64, ops),
            );
        }
        let blamed: u64 = delta.iter().sum();
        let measured: u64 = rep.samples[k].virt_ns.iter().sum();
        // With a worker thread the device clock also moves under other
        // threads' work, so only inline runs can be held to equality.
        if inline && blamed != measured {
            violations.push(format!(
                "{}: blame buckets sum to {blamed} virtual ns, ops measured {measured}",
                kind.label()
            ));
        }
    }
    if trace.blame_sum_mismatches > 0 {
        let msg = format!(
            "{} of {} worst traces: blame buckets do not sum to the trace total",
            trace.blame_sum_mismatches, trace.worst_traces
        );
        if inline {
            violations.push(msg);
        } else {
            // The inline WAL path rewinds the shared device clock, so with
            // concurrent load threads a reader's spans can misnest; the
            // engine's blame is only exact single-threaded.
            eprintln!("note (threaded, not checked): {msg}");
        }
    }
    (m, violations)
}
