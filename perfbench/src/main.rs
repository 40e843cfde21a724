//! End-to-end makespan benchmark of the Hurricane engine.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload clicklog-zipf --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload: it generates the inputs from `--seed`
//! (untimed), runs whole jobs — fresh cluster, deploy, fill, run, read
//! back — for `--seconds`, checks every job against an oracle, and prints
//! the metrics by name with their units. The last line of standard
//! output is a JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! `--trace 0` reports the end-to-end metrics of untraced jobs.
//! `--trace 1` is the per-layer run: it interleaves untraced jobs with
//! jobs whose graph is wrapped in span-recording decorators, runs the
//! comparators (cloning off, the static-partitioning baseline, the
//! single-threaded oracle, the skew gap) and the storage and format
//! replay probes, writes the spans to `perfbench/out/`, and reports the
//! per-layer metrics.

mod probes;
mod stats;
mod trace;
mod workloads;

use hurricane_core::HurricaneConfig;
use stats::{load_ratio, median, split, tail, Interval};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{stage_of, Kind, Outcome, Span, Tracer};
use workloads::{same_sinks, JobRecord, Workload, NAMES};

/// The pinned engine configuration: 2 compute nodes × 1 worker slot
/// (one slot per CPU of the 2-CPU reference machine), 32 KiB chunks, a
/// 5 ms clone interval and a 1 ms master poll; everything else at its
/// default, including the direct storage plane. Built in code, never
/// from `HURRICANE_*` variables, so the environment cannot change the
/// measured program.
fn engine_config(cloning: bool) -> HurricaneConfig {
    HurricaneConfig {
        compute_nodes: 2,
        worker_slots: 1,
        chunk_size: 32 * 1024,
        clone_interval: Duration::from_millis(5),
        master_poll: Duration::from_millis(1),
        cloning_enabled: cloning,
        ..Default::default()
    }
}

/// Jobs a timed run completes even past `--seconds`, so the tail
/// percentile (ten samples beyond it) is always p75 or higher.
const MIN_JOBS: usize = 40;

/// Measuring stops here whatever the job count, keeping a run well
/// inside a three-minute limit.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// Stages of the three applications (task-name prefixes), and the ones
/// that carry a merge. A workload reports 0 for stages it lacks.
const STAGES: [&str; 7] = [
    "phase1",
    "phase2",
    "phase3",
    "init",
    "iter",
    "partition",
    "probe",
];
const MERGE_STAGES: [&str; 4] = ["phase2", "phase3", "init", "iter"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {NAMES:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Completed jobs plus failure accounting: a job that errors or whose
/// output differs from the oracle counts as failed and the run goes on.
#[derive(Default)]
struct Jobs {
    done: Vec<JobRecord>,
    attempted: u64,
    failed: u64,
}

impl Jobs {
    fn run(&mut self, w: &Workload, config: &HurricaneConfig, tracer: Option<&Arc<Tracer>>) {
        self.attempted += 1;
        match w.run_job(config, tracer) {
            Ok(rec) if w.check(&rec.sinks) => self.done.push(rec),
            Ok(_) => {
                eprintln!("job {}: output differs from the oracle", self.attempted);
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("job {}: {e}", self.attempted);
                self.failed += 1;
            }
        }
    }

    fn absorb(&mut self, other: &Jobs) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn median_of(&self, f: impl Fn(&JobRecord) -> f64) -> f64 {
        median(&self.done.iter().map(f).collect::<Vec<_>>())
    }
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    jobs: Jobs,
    /// Checks beyond per-job oracles (trace fidelity, split sums).
    checks_ok: bool,
    /// Printed, not gated.
    notes: Vec<String>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.add_noted(name, unit, value, String::new());
    }

    fn add_noted(&mut self, name: impl Into<String>, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            note,
        });
    }

    fn correct(&self) -> bool {
        self.checks_ok && self.jobs.failed == 0 && self.jobs.attempted > 0
    }

    fn print(&self) {
        let j = &self.jobs;
        let rate = j.failed as f64 / j.attempted.max(1) as f64;
        println!(
            "failure_rate = {rate} ({} of {} jobs)",
            j.failed, j.attempted
        );
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("{} = {} {}{note}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            j.attempted,
            j.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `steal` column of the first line of /proc/stat (CPU time the
/// hypervisor gave to other guests) and the sum of all columns, in ticks.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The end-to-end run: untraced jobs for `seconds` (at least
/// [`MIN_JOBS`]) after one unmeasured warm-up job.
fn timed(w: &Workload, seconds: u64) -> Report {
    let config = engine_config(true);
    let mut warm = Jobs::default();
    warm.run(w, &config, None);
    let mut jobs = Jobs::default();
    let ticks = cpu_ticks();
    let t = Instant::now();
    let budget = Duration::from_secs(seconds);
    while (t.elapsed() < budget || jobs.done.len() < MIN_JOBS) && t.elapsed() < MAX_MEASURE {
        jobs.run(w, &config, None);
    }
    let runs: Vec<f64> = jobs.done.iter().map(|j| j.run_s).collect();
    let mut r = Report {
        checks_ok: true,
        ..Report::default()
    };
    r.add_noted(
        "makespan_s",
        "s",
        median(&runs),
        format!("median of {} jobs", runs.len()),
    );
    match tail(&runs) {
        Some(t) => r.add_noted(
            "makespan_tail_s",
            "s",
            t.value,
            format!("p{} of {} jobs", t.percentile, t.samples),
        ),
        None => {
            // Only when jobs failed: the failure count already marks the
            // run incorrect; report the slowest job.
            let max = runs.iter().copied().fold(0.0, f64::max);
            r.add_noted(
                "makespan_tail_s",
                "s",
                max,
                format!("max of {} jobs", runs.len()),
            );
        }
    }
    r.add("setup_s", "s", jobs.median_of(JobRecord::setup_s));
    r.add("job_s", "s", jobs.median_of(JobRecord::job_s));
    // Allocator retention in glibc's per-thread arenas moved peak RSS by
    // 10-20 % between identical runs, too much for a gated metric.
    r.notes.push(format!(
        "peak_rss_mb = {} MB  (process VmHWM; printed, not gated)",
        peak_rss_mb()
    ));
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, cpu_ticks()) {
        let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        r.notes.push(format!(
            "host steal while measuring = {pct:.1} % of CPU time (the hypervisor ran other guests; it slows every timing)"
        ));
    }
    jobs.absorb(&warm);
    r.jobs = jobs;
    r
}

/// Per-job figures derived from one traced job's spans.
#[derive(Default)]
struct JobSplit {
    run_s: f64,
    merge_s: f64,
    task_s: f64,
    gap_s: f64,
    /// Split rows sum to the run span exactly (in ns).
    sums: bool,
    slot_utilization: f64,
    /// stage → (busy, instances, wall, load ratio)
    tasks: BTreeMap<String, [f64; 4]>,
    /// stage → (busy, calls, wall)
    merges: BTreeMap<String, [f64; 3]>,
}

const NS: f64 = 1e9;

fn by_stage<'a>(spans: &[&'a Span]) -> BTreeMap<String, Vec<&'a Span>> {
    let mut m: BTreeMap<String, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        m.entry(stage_of(&s.name).to_string()).or_default().push(*s);
    }
    m
}

fn analyze(job_spans: &[&Span], slots: usize) -> Option<JobSplit> {
    let run = job_spans
        .iter()
        .find(|s| s.kind == Kind::App && s.name == "run")?;
    let window: Interval = (run.start, run.end);
    let of_kind =
        |k: Kind| -> Vec<&Span> { job_spans.iter().copied().filter(|s| s.kind == k).collect() };
    let (tasks, merges) = (of_kind(Kind::Task), of_kind(Kind::Merge));
    let ivs = |v: &[&Span]| -> Vec<Interval> { v.iter().map(|s| (s.start, s.end)).collect() };
    let sp = split(window, &ivs(&merges), &ivs(&tasks));
    let run_ns = window.1 - window.0;
    let busy = |v: &[&Span]| v.iter().map(|s| (s.end - s.start) as f64).sum::<f64>() / NS;
    let wall = |v: &[&Span]| {
        let lo = v.iter().map(|s| s.start).min().unwrap_or(0);
        let hi = v.iter().map(|s| s.end).max().unwrap_or(0);
        (hi - lo) as f64 / NS
    };
    let mut out = JobSplit {
        run_s: run_ns as f64 / NS,
        merge_s: sp.merge_ns as f64 / NS,
        task_s: sp.task_ns as f64 / NS,
        gap_s: sp.gap_ns as f64 / NS,
        sums: sp.merge_ns + sp.task_ns + sp.gap_ns == run_ns,
        slot_utilization: (busy(&tasks) + busy(&merges)) / (run_ns as f64 / NS * slots as f64),
        ..JobSplit::default()
    };
    for (stage, spans) in by_stage(&tasks) {
        // Sibling tasks of a stage (phase2.0, phase2.1, ...): each task's
        // wall is first start to last end over its instances.
        let mut per_task: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
        for s in &spans {
            per_task.entry(&s.name).or_default().push(s);
        }
        let walls: Vec<f64> = per_task.values().map(|v| wall(v)).collect();
        out.tasks.insert(
            stage,
            [
                busy(&spans),
                spans.len() as f64,
                wall(&spans),
                load_ratio(&walls),
            ],
        );
    }
    for (stage, spans) in by_stage(&merges) {
        out.merges
            .insert(stage, [busy(&spans), spans.len() as f64, wall(&spans)]);
    }
    Some(out)
}

/// Runs `f` at least `min` times and until `budget` has passed.
fn repeat(min: usize, budget: Duration, mut f: impl FnMut()) {
    let t = Instant::now();
    let mut n = 0;
    while n < min || t.elapsed() < budget {
        f();
        n += 1;
    }
}

/// The per-layer run. Phases, as shares of `seconds`: half alternating
/// untraced and traced jobs, a fifth with cloning off, then the static
/// baseline, oracle, skew-gap and replay-probe comparators.
fn traced(w: &Workload, name: &str, seed: u64, seconds: u64) -> Report {
    let secs = Duration::from_secs(seconds);
    let config = engine_config(true);
    let slots = config.compute_nodes * config.worker_slots;
    let tracer = Arc::new(Tracer::default());
    let mut plain = Jobs::default();
    let mut traced_jobs = Jobs::default();
    let mut warm = Jobs::default();
    warm.run(w, &config, None);
    repeat(5, secs / 2, || {
        plain.run(w, &config, None);
        traced_jobs.run(w, &config, Some(&tracer));
    });
    let fidelity = match (plain.done.first(), traced_jobs.done.first()) {
        (Some(a), Some(b)) => same_sinks(&a.sinks, &b.sinks),
        _ => false,
    };
    let mut nc = Jobs::default();
    let nc_config = engine_config(false);
    repeat(3, secs / 5, || {
        nc.run(w, &nc_config, None);
    });
    let mut statics = Vec::new();
    let mut static_ok = true;
    for _ in 0..3 {
        if let Some((s, ok)) = w.run_static(slots) {
            statics.push(s);
            static_ok &= ok;
        }
    }
    let reference_s = median(&(0..3).map(|_| w.time_oracle()).collect::<Vec<_>>());
    // The skew gap: the same ClickLog job on uniform input (generation
    // untimed), s=1 makespan ÷ s=0 makespan.
    let mut uniform = Jobs::default();
    if name == "clicklog-zipf" {
        let w0 = Workload::clicklog(seed, 0.0);
        for _ in 0..5 {
            uniform.run(&w0, &config, None);
        }
    }
    let probes: Vec<probes::ProbeRates> = (0..5)
        .map(|_| probes::probe(&w.source_records(), config.chunk_size, config.batch_factor))
        .collect();

    // Spans → per-job splits.
    let spans = tracer.spans();
    let mut by_job: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &spans {
        by_job.entry(s.job).or_default().push(s);
    }
    let splits: Vec<JobSplit> = by_job
        .values()
        .filter(|v| {
            v.iter()
                .any(|s| s.kind == Kind::Job && s.outcome == Outcome::Ok)
        })
        .filter_map(|v| analyze(v, slots))
        .collect();
    let sums_ok = !splits.is_empty() && splits.iter().all(|s| s.sums);
    write_spans(&tracer, name, seed);

    println!("traced jobs: run = merge + task + gap (s)");
    for (i, s) in splits.iter().enumerate() {
        println!(
            "  job {i:>3}: {:.6} = {:.6} + {:.6} + {:.6}{}",
            s.run_s,
            s.merge_s,
            s.task_s,
            s.gap_s,
            if s.sums { "" } else { "  MISMATCH" }
        );
    }

    let mut r = Report {
        checks_ok: fidelity && sums_ok && static_ok,
        ..Report::default()
    };
    if !fidelity {
        eprintln!("traced and untraced jobs disagree (or one failed)");
    }
    let hurricane_s = plain.median_of(|j| j.run_s);
    let traced_s = traced_jobs.median_of(|j| j.run_s);
    let nc_s = nc.median_of(|j| j.run_s);

    // core.app
    r.add("app.deploy_s", "s", plain.median_of(|j| j.deploy_s));
    r.add("app.fill_s", "s", plain.median_of(|j| j.fill_s));
    r.add(
        "app.fill_mb_per_s",
        "MB/s",
        plain.median_of(|j| j.fill_bytes as f64 / 1e6 / j.fill_s),
    );
    r.add("app.read_s", "s", plain.median_of(|j| j.read_s));
    // core.master
    let rep = |f: fn(&hurricane_core::AppReport) -> f64| plain.median_of(|j| f(&j.report));
    r.add("master.clones", "count", rep(|a| a.total_clones as f64));
    r.add(
        "master.clone_requests",
        "count",
        rep(|a| a.clone_requests as f64),
    );
    r.add(
        "master.clone_rejections",
        "count",
        rep(|a| a.clone_rejections as f64),
    );
    r.add(
        "master.clone_grant_ratio",
        "ratio",
        rep(|a| a.total_clones as f64 / a.clone_requests.max(1) as f64),
    );
    r.add("master.restarts", "count", rep(|a| a.restarts as f64));
    let med = |f: fn(&JobSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    r.add("master.sched_gap_s", "s", med(|s| s.gap_s));
    r.add("master.nc_makespan_s", "s", nc_s);
    r.add("master.clone_gain", "ratio", nc_s / hurricane_s);
    r.add("split.task_s", "s", med(|s| s.task_s));
    r.add("split.merge_s", "s", med(|s| s.merge_s));
    // core.task
    const TASK_FIELDS: [(&str, &str); 4] = [
        ("busy_s", "s"),
        ("instances", "count"),
        ("wall_s", "s"),
        ("load_ratio", "ratio"),
    ];
    for stage in STAGES {
        for (i, (field, unit)) in TASK_FIELDS.iter().enumerate() {
            let v: Vec<f64> = splits
                .iter()
                .map(|s| s.tasks.get(stage).map_or(0.0, |a| a[i]))
                .collect();
            r.add(format!("task.{stage}.{field}"), unit, median(&v));
        }
    }
    r.add(
        "task.slot_utilization",
        "ratio",
        med(|s| s.slot_utilization),
    );
    // core.merges
    const MERGE_FIELDS: [(&str, &str); 3] = [("busy_s", "s"), ("calls", "count"), ("wall_s", "s")];
    for stage in MERGE_STAGES {
        for (i, (field, unit)) in MERGE_FIELDS.iter().enumerate() {
            let v: Vec<f64> = splits
                .iter()
                .map(|s| s.merges.get(stage).map_or(0.0, |a| a[i]))
                .collect();
            r.add(format!("merge.{stage}.{field}"), unit, median(&v));
        }
    }
    // storage
    let st = |f: fn(&workloads::StorageTotals) -> u64| plain.median_of(|j| f(&j.storage) as f64);
    r.add("storage.inserts", "count", st(|s| s.inserts));
    r.add("storage.removes", "count", st(|s| s.removes));
    r.add("storage.empty_probes", "count", st(|s| s.empty_probes));
    r.add(
        "storage.empty_probe_ratio",
        "ratio",
        plain.median_of(|j| {
            let s = &j.storage;
            s.empty_probes as f64 / (s.removes + s.empty_probes).max(1) as f64
        }),
    );
    r.add("storage.bytes_in", "B", st(|s| s.bytes_in));
    r.add("storage.bytes_out", "B", st(|s| s.bytes_out));
    r.add("storage.batch_ops", "count", st(|s| s.batch_ops));
    let pm = |f: fn(&probes::ProbeRates) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    r.add("storage.insert_mb_per_s", "MB/s", pm(|p| p.insert_mb_per_s));
    r.add("storage.remove_mb_per_s", "MB/s", pm(|p| p.remove_mb_per_s));
    // format
    r.add(
        "format.decode_mrec_per_s",
        "Mrec/s",
        pm(|p| p.decode_mrec_per_s),
    );
    r.add(
        "format.encode_mrec_per_s",
        "Mrec/s",
        pm(|p| p.encode_mrec_per_s),
    );
    // tracing and comparators
    r.add("trace.overhead_ratio", "ratio", traced_s / hurricane_s);
    let static_s = median(&statics);
    r.add("baseline.static_s", "s", static_s);
    r.add("baseline.reference_s", "s", reference_s);
    let uniform_s = uniform.median_of(|j| j.run_s);
    let skew_gap = if uniform.done.is_empty() {
        0.0
    } else {
        hurricane_s / uniform_s
    };
    r.add("baseline.skew_gap", "ratio", skew_gap);

    println!("comparators (median seconds; ungated):");
    let row = |label: &str, s: f64| {
        if s > 0.0 {
            println!(
                "  {label:<34} {s:>9.4}  {:>6.2}x hurricane",
                s / hurricane_s
            );
        } else {
            println!("  {label:<34} {:>9}", "n/a");
        }
    };
    row("hurricane", hurricane_s);
    row("hurricane (traced)", traced_s);
    row("hurricane-nc (cloning off)", nc_s);
    row("hurricane-baseline (static)", static_s);
    row("single-threaded oracle", reference_s);
    row("hurricane at s=0 (skew gap base)", uniform_s);

    for j in [&plain, &traced_jobs, &nc, &uniform] {
        r.jobs.absorb(j);
    }
    r.jobs.absorb(&warm);
    r
}

/// Writes the tracer's spans to `perfbench/out/spans-<workload>-<seed>.json`.
fn write_spans(tracer: &Tracer, name: &str, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{name}-{seed}.json"));
    let body = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"spans\": {}}}\n",
        tracer.to_json()
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let w = Workload::generate(&args.workload, args.seed).expect("name checked by parse_args");
    println!(
        "workload {} seed {} (inputs generated in {:.2} s, untimed)",
        args.workload,
        args.seed,
        t.elapsed().as_secs_f64()
    );
    println!(
        "engine config: {:?}; {} in-process storage nodes",
        engine_config(true),
        workloads::STORAGE_NODES
    );
    let report = if args.trace {
        traced(&w, &args.workload, args.seed, args.seconds)
    } else {
        timed(&w, args.seconds)
    };
    report.print();
}
