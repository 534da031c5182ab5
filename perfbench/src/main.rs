//! `ldc-perfbench`: one benchmark for the LDC store, run through `LdcDb`'s
//! public API.
//!
//! ```text
//! ldc-perfbench --workload <rwb|read-cold|scan-zipf|rww-threaded>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats "set up a fresh store, run the workload's fixed window"
//! until `--seconds` have passed, and reports medians over the
//! repetitions. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! spends half the time on untraced repetitions and half on traced ones
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object; a wrong answer makes the exit code 1. See README.md.

// A host-clock benchmark: wall-clock reads are its measurements, and none
// of them reaches the engine, its virtual clock or anything it stores.
#![allow(clippy::disallowed_methods)]

mod gen;
mod layers;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use workload::{OpKind, Rep, Workload};

/// Repetitions a run makes at least, whatever `--seconds` says, so that
/// `setup_s` is always a median of several set-ups.
const MIN_REPS: usize = 3;
/// Traced repetitions a `--trace 1` run makes at least.
const MIN_TRACED_REPS: usize = 2;
/// Where the per-run detail files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// How an end-to-end metric is measured.
struct Metric {
    name: &'static str,
    clock: &'static str,
    unit: &'static str,
    /// Listed in `BENCHMARK.json` (reported on every workload, never 0).
    gated: bool,
}

const fn metric(
    name: &'static str,
    clock: &'static str,
    unit: &'static str,
    gated: bool,
) -> Metric {
    Metric {
        name,
        clock,
        unit,
        gated,
    }
}

/// Every end-to-end metric, in report order. The per-op-type rows are
/// printed where their op type runs; the gated rows exist on every
/// workload.
const E2E: [Metric; 20] = [
    metric("setup_s", "host", "s", true),
    metric("host.ops_per_s", "host", "ops/s", true),
    metric("host.read_p50_us", "host", "us", true),
    metric("host.read_p99_us", "host", "us", true),
    metric("host.op_p99_us", "host", "us", true),
    metric("host.get_p50_us", "host", "us", false),
    metric("host.get_p99_us", "host", "us", false),
    metric("host.put_p50_us", "host", "us", false),
    metric("host.put_p99_us", "host", "us", false),
    metric("host.scan_p50_us", "host", "us", false),
    metric("host.scan_p99_us", "host", "us", false),
    metric("virt.ops_per_s", "virtual", "ops/s", true),
    metric("virt.op_p999_us", "virtual", "us", false),
    metric("virt.get_p999_us", "virtual", "us", false),
    metric("virt.put_p999_us", "virtual", "us", false),
    metric("virt.scan_p999_us", "virtual", "us", false),
    metric("write_amp", "count", "ratio", true),
    metric("space_amp", "count", "ratio", true),
    metric("rss_peak_mb", "host", "MiB", true),
    metric("error_rate", "count", "fraction", false),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Nearest-rank percentile of `values` (sorted in place), `p` in (0, 1].
fn percentile(values: &mut [u64], p: f64) -> f64 {
    values.sort_unstable();
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The op type whose latency `host.read_*` reports on `workload`.
fn read_kind(workload: Workload) -> OpKind {
    if workload == Workload::ScanZipf {
        OpKind::Scan
    } else {
        OpKind::Get
    }
}

/// End-to-end metrics of one repetition (all but `rss_peak_mb`, which is
/// per process). Per-op-type rows appear only when that op type ran.
fn e2e(rep: &Rep, workload: Workload) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ops = rep.ops() as f64;
    m.insert("setup_s", rep.setup_s);
    m.insert("host.ops_per_s", ops / rep.window_host_s);
    m.insert("virt.ops_per_s", ops / (rep.virt_window_ns as f64 / 1e9));
    let names = [
        ("host.get_p50_us", "host.get_p99_us", "virt.get_p999_us"),
        ("host.put_p50_us", "host.put_p99_us", "virt.put_p999_us"),
        ("host.scan_p50_us", "host.scan_p99_us", "virt.scan_p999_us"),
    ];
    let mut all_host = Vec::new();
    let mut all_virt = Vec::new();
    for (kind, (p50, p99, v999)) in OpKind::ALL.into_iter().zip(names) {
        let s = &rep.samples[kind as usize];
        if s.host_ns.is_empty() {
            continue;
        }
        let mut host = s.host_ns.clone();
        let mut virt = s.virt_ns.clone();
        m.insert(p50, percentile(&mut host, 0.50) / 1e3);
        m.insert(p99, percentile(&mut host, 0.99) / 1e3);
        m.insert(v999, percentile(&mut virt, 0.999) / 1e3);
        if kind == read_kind(workload) {
            m.insert("host.read_p50_us", m[p50]);
            m.insert("host.read_p99_us", m[p99]);
        }
        all_host.extend_from_slice(&s.host_ns);
        all_virt.extend_from_slice(&s.virt_ns);
    }
    m.insert("host.op_p99_us", percentile(&mut all_host, 0.99) / 1e3);
    m.insert("virt.op_p999_us", percentile(&mut all_virt, 0.999) / 1e3);
    let written: u64 = rep.after.io.write_bytes.iter().sum();
    m.insert(
        "write_amp",
        written as f64 / rep.after.stats.user_bytes_written as f64,
    );
    m.insert(
        "space_amp",
        rep.end.space_bytes as f64 / rep.end.live_user_bytes as f64,
    );
    m.insert("error_rate", rep.failed as f64 / rep.attempted as f64);
    m
}

/// Metrics that must read identically on every repetition of an inline
/// workload, traced or not.
fn is_exact(name: &str) -> bool {
    name.starts_with("virt.") || name == "write_amp" || name == "space_amp"
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> i32 {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let start = Instant::now();

    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < untraced_budget {
        reps.push(workload::run_rep(args.workload, args.seed, false));
    }
    let mut traced: Vec<Rep> = Vec::new();
    if args.trace {
        while traced.len() < MIN_TRACED_REPS || start.elapsed() < budget {
            traced.push(workload::run_rep(args.workload, args.seed, true));
        }
    }

    let mut problems: Vec<String> = Vec::new();
    let attempted: u64 = reps.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().chain(&traced).map(|r| r.failed).sum();
    if let Some(msg) = reps
        .iter()
        .chain(&traced)
        .find_map(|r| r.first_failure.clone())
    {
        problems.push(format!("wrong answer: {msg}"));
    }

    // End-to-end metrics: medians over the untraced repetitions.
    let per_rep: Vec<BTreeMap<&str, f64>> = reps.iter().map(|r| e2e(r, args.workload)).collect();
    let per_traced: Vec<BTreeMap<&str, f64>> =
        traced.iter().map(|r| e2e(r, args.workload)).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for m in &E2E {
        let v: Vec<f64> = per_rep
            .iter()
            .filter_map(|r| r.get(m.name).copied())
            .collect();
        if !v.is_empty() {
            values.insert(m.name, median(&v));
        }
    }
    if let Some(rss) = rss_peak_mb() {
        values.insert("rss_peak_mb", rss);
    }
    values.insert("error_rate", failed as f64 / attempted.max(1) as f64);

    // Virtual-clock numbers are a pure function of the seed on inline
    // workloads: every repetition, traced or not, must agree exactly.
    if args.workload.inline() {
        let first = &per_rep[0];
        for other in per_rep.iter().chain(&per_traced).skip(1) {
            for (name, v) in first.iter().filter(|(n, _)| is_exact(n)) {
                if other.get(name).map(|o| o.to_bits()) != Some(v.to_bits()) {
                    problems.push(format!(
                        "{name} differs between repetitions of one seed: {v} vs {:?}",
                        other.get(name)
                    ));
                }
            }
        }
    }

    // Per-layer metrics: medians over the traced repetitions.
    let mut layer_values: BTreeMap<String, f64> = BTreeMap::new();
    if args.trace {
        let mut per_layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for rep in &traced {
            let (metrics, violations) = layers::per_layer(rep, args.workload.inline());
            for (name, v) in metrics {
                per_layer.entry(name).or_default().push(v);
            }
            problems.extend(violations);
        }
        for (name, v) in per_layer {
            layer_values.insert(name, median(&v));
        }
        let traced_ops: Vec<f64> = per_traced.iter().map(|m| m["host.ops_per_s"]).collect();
        let untraced_ops = values["host.ops_per_s"];
        layer_values.insert(
            "obs.trace.overhead_pct".to_string(),
            100.0 * (untraced_ops - median(&traced_ops)) / untraced_ops,
        );
    }

    // Human-readable report.
    let w = args.workload;
    println!(
        "workload {}  seed {}  host_cores {}  reps {} untraced, {} traced  ({:.1} s)",
        w.name(),
        args.seed,
        host_cores,
        reps.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    let counts: Vec<String> = OpKind::ALL
        .iter()
        .map(|k| {
            format!(
                "{} {}",
                reps[0].samples[*k as usize].host_ns.len(),
                k.label()
            )
        })
        .collect();
    println!("samples per repetition: {}", counts.join(", "));
    println!(
        "{:<20} {:<8} {:<9} {:>16}",
        "metric", "clock", "unit", "median"
    );
    for m in &E2E {
        let shown = values
            .get(m.name)
            .map_or("n/a".to_string(), |v| format!("{v:.4}"));
        println!("{:<20} {:<8} {:<9} {:>16}", m.name, m.clock, m.unit, shown);
    }
    if args.trace {
        println!("per-layer (traced repetitions):");
        for (name, unit) in layers::catalog() {
            let v = layer_values.get(&name).copied().unwrap_or(0.0);
            println!("  {name:<44} {unit:<9} {v:>16.4}");
        }
    }
    write_detail(
        args,
        host_cores,
        &per_rep,
        &values,
        &layer_values,
        traced.last(),
    );

    let reported: Vec<(String, f64, &str)> = if args.trace {
        layers::catalog()
            .into_iter()
            .map(|(name, unit)| {
                let v = layer_values.get(&name).copied().unwrap_or(f64::NAN);
                (name, v, unit)
            })
            .collect()
    } else {
        E2E.iter()
            .filter(|m| m.gated)
            .map(|m| {
                let v = values.get(m.name).copied().unwrap_or(f64::NAN);
                (m.name.to_string(), v, m.unit)
            })
            .collect()
    };
    let mut metrics = String::new();
    for (name, value, unit) in &reported {
        if !value.is_finite() {
            problems.push(format!("{name} was not measured"));
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_f64(*value),
            json_str(unit)
        );
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    if correct {
        0
    } else {
        1
    }
}

/// Writes the run's full record (every metric with its clock, the raw
/// per-repetition values, and in traced runs the last repetition's spans)
/// under `.bench_out/`. Best effort: a write failure only warns.
fn write_detail(
    args: &Args,
    host_cores: usize,
    per_rep: &[BTreeMap<&str, f64>],
    values: &BTreeMap<&str, f64>,
    layer_values: &BTreeMap<String, f64>,
    last_traced: Option<&Rep>,
) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"host_cores\": {host_cores}, \"reps\": {}, \"end_to_end\": {{",
        json_str(args.workload.name()),
        args.seed,
        per_rep.len()
    );
    let mut first = true;
    for m in &E2E {
        let Some(v) = values.get(m.name) else {
            continue;
        };
        let raw: Vec<String> = per_rep
            .iter()
            .filter_map(|r| r.get(m.name))
            .map(|v| json_f64(*v))
            .collect();
        let _ = write!(
            out,
            "{}{}: {{\"median\": {}, \"clock\": {}, \"unit\": {}, \"reps\": [{}]}}",
            if first { "" } else { ", " },
            json_str(m.name),
            json_f64(*v),
            json_str(m.clock),
            json_str(m.unit),
            raw.join(", ")
        );
        first = false;
    }
    out.push_str("}, \"per_layer\": {");
    let layer: Vec<String> = layer_values
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_f64(*v)))
        .collect();
    out.push_str(&layer.join(", "));
    out.push_str("}}\n");
    let result = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), out))
        .and_then(|()| match last_traced.and_then(|r| r.trace.as_ref()) {
            Some(trace) => std::fs::write(format!("{stem}.spans.jsonl"), spans_jsonl(trace)),
            None => Ok(()),
        });
    if let Err(e) = result {
        eprintln!("warning: could not write {stem}.*: {e}");
    }
}

/// The traced repetition's spans, one JSON object a line: facade ops
/// first, then storage calls with their parent op (0: background or
/// outside any op).
fn spans_jsonl(trace: &workload::TraceData) -> String {
    let mut out = String::new();
    for op in &trace.ops {
        let _ = writeln!(
            out,
            "{{\"span\": \"op\", \"id\": {}, \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            op.id,
            op.kind.label(),
            op.start_ns,
            op.end_ns
        );
    }
    for io in &trace.io {
        let _ = writeln!(
            out,
            "{{\"span\": \"storage\", \"parent\": {}, \"method\": \"{:?}\", \"class\": \"{}\", \"bytes\": {}, \"thread\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            io.parent_op,
            io.method,
            io.class.map_or("none", |c| c.label()),
            io.bytes,
            if io.load_thread { "load" } else { "background" },
            io.start_ns,
            io.end_ns
        );
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ldc-perfbench: {e}");
            eprintln!(
                "usage: ldc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}
