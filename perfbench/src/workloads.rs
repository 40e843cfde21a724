//! The three workloads: seeded input generation, one job on the real
//! engine through its public entry points, and each job's oracle.

use crate::trace::{self, Outcome, Tracer};
use hurricane_apps::clicklog::ClickLogJob;
use hurricane_apps::hashjoin::HashJoinJob;
use hurricane_apps::pagerank::{PageRankJob, DAMPING};
use hurricane_common::SplitMix64;
use hurricane_core::graph::AppGraph;
use hurricane_core::{AppReport, EngineError, HurricaneApp, HurricaneConfig};
use hurricane_storage::{ClusterConfig, StorageCluster};
use hurricane_workloads::clicklog::{ClickLogGen, ClickLogSpec};
use hurricane_workloads::join::{large_relation, small_relation, JoinSpec, Tuple};
use hurricane_workloads::rmat::{RmatGen, RmatSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// In-process storage nodes behind every job.
pub const STORAGE_NODES: usize = 4;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["clicklog-zipf", "pagerank-rmat", "hashjoin-zipf"];

/// Order-insensitive digest of a join result: row count plus the
/// wrapping sum of a hash of every `(key, r_payload, s_payload)` row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinDigest {
    /// Rows in the result.
    pub rows: u64,
    /// Wrapping sum of [`row_hash`] over the rows.
    pub sum: u64,
}

impl JoinDigest {
    fn add(&mut self, k: u32, r: u64, s: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(k, r, s));
    }

    fn absorb(&mut self, other: JoinDigest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

fn row_hash(k: u32, r: u64, s: u64) -> u64 {
    SplitMix64::mix(SplitMix64::mix(SplitMix64::mix(k as u64) ^ r) ^ s)
}

/// What a job's sink bags held.
#[derive(Debug, Clone, PartialEq)]
pub enum Sinks {
    /// ClickLog: distinct IPs per region.
    Counts(Vec<u64>),
    /// PageRank: final rank per vertex.
    Ranks(Vec<f64>),
    /// HashJoin: digest of every output row.
    Join(JoinDigest),
}

/// Storage-node counters summed across a job's cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageTotals {
    pub inserts: u64,
    pub removes: u64,
    pub empty_probes: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub batch_ops: u64,
}

impl StorageTotals {
    fn of(cluster: &StorageCluster) -> Self {
        let mut t = Self::default();
        for i in 0..cluster.num_nodes() {
            let node = cluster.node(i);
            let s = node.stats();
            t.inserts += s.inserts.get();
            t.removes += s.removes.get();
            t.empty_probes += s.empty_probes.get();
            t.bytes_in += s.bytes_in.get();
            t.bytes_out += s.bytes_out.get();
            t.batch_ops += s.batch_ops.get();
        }
        t
    }
}

/// Timings and counters of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Cluster creation + `deploy`.
    pub deploy_s: f64,
    /// `fill_source` calls.
    pub fill_s: f64,
    /// Bytes the fills wrote.
    pub fill_bytes: u64,
    /// `HurricaneApp::run`.
    pub run_s: f64,
    /// Sink readback.
    pub read_s: f64,
    /// The engine's own report.
    pub report: AppReport,
    /// Storage counters at the end of the run (before readback).
    pub storage: StorageTotals,
    /// What the sinks held.
    pub sinks: Sinks,
}

impl JobRecord {
    /// Cluster creation + deploy + fill.
    pub fn setup_s(&self) -> f64 {
        self.deploy_s + self.fill_s
    }

    /// Setup + run + readback: the time until the answer is in hand.
    pub fn job_s(&self) -> f64 {
        self.setup_s() + self.run_s + self.read_s
    }
}

enum Input {
    ClickLog {
        job: ClickLogJob,
        records: Vec<u32>,
    },
    PageRank {
        job: PageRankJob,
        edges: Vec<(u32, u32)>,
    },
    HashJoin {
        job: HashJoinJob,
        r: Vec<Tuple>,
        s: Vec<Tuple>,
    },
}

/// One workload's generated input and its expected output.
pub struct Workload {
    input: Input,
    expected: Sinks,
}

/// Mixes the run seed with a per-workload salt so workloads draw
/// unrelated inputs from one seed.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::mix(seed ^ SplitMix64::mix(salt))
}

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "clicklog-zipf" => Self::clicklog(seed, 1.0),
            "pagerank-rmat" => {
                let job = PageRankJob {
                    vertices: 1 << 16,
                    iterations: 5,
                };
                let spec = RmatSpec::with_edge_factor(16, derive(seed, 2));
                let edges = RmatGen::new(spec)
                    .map(|(u, v)| (u as u32, v as u32))
                    .collect();
                Self::with_oracle(Input::PageRank { job, edges })
            }
            "hashjoin-zipf" => {
                let spec = JoinSpec {
                    num_keys: 1 << 14,
                    small_tuples: 100_000,
                    large_tuples: 1_000_000,
                    skew: 1.0,
                    seed: derive(seed, 3),
                };
                let job = HashJoinJob { partitions: 8 };
                let (r, s) = (small_relation(&spec), large_relation(&spec));
                Self::with_oracle(Input::HashJoin { job, r, s })
            }
            _ => return None,
        })
    }

    /// ClickLog over 8 regions and 2^16 IPs, about 8M records at Zipf
    /// skew `skew`.
    pub fn clicklog(seed: u64, skew: f64) -> Self {
        let job = ClickLogJob {
            regions: 8,
            num_ips: 1 << 16,
        };
        let records = ClickLogGen::new(ClickLogSpec {
            num_ips: job.num_ips,
            regions: job.regions,
            skew,
            records: 8 << 20,
            seed: derive(seed, 1),
        })
        .collect();
        Self::with_oracle(Input::ClickLog { job, records })
    }

    fn with_oracle(input: Input) -> Self {
        let expected = oracle(&input);
        Self { input, expected }
    }

    /// Recomputes the single-threaded oracle and returns its wall time.
    pub fn time_oracle(&self) -> f64 {
        let t = Instant::now();
        let got = std::hint::black_box(oracle(&self.input));
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(got, self.expected, "the oracle is deterministic");
        secs
    }

    /// Whether `sinks` is the right answer: exact for counts and joins,
    /// within 1e-9 per vertex for PageRank.
    pub fn check(&self, sinks: &Sinks) -> bool {
        match (&self.expected, sinks) {
            (Sinks::Ranks(want), Sinks::Ranks(got)) => ranks_close(want, got, 1e-9),
            (want, got) => want == got,
        }
    }

    /// Runs one job on a fresh cluster under `config`. With a tracer the
    /// graph is the span-recording copy and every app call is a span.
    pub fn run_job(
        &self,
        config: &HurricaneConfig,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<JobRecord, EngineError> {
        let job_span = tracer.map(|t| (t.begin_job(), t.now()));
        let r = match &self.input {
            Input::ClickLog { job, records } => {
                let plan = job.plan();
                let counts = plan.counts;
                run(
                    plan.graph,
                    config,
                    tracer,
                    |app| app.fill_source(plan.input, records.iter().copied()),
                    |app| {
                        let mut out = Vec::with_capacity(counts.len());
                        for &bag in &counts {
                            out.push(app.read_records::<u64>(bag)?.iter().sum());
                        }
                        Ok(Sinks::Counts(out))
                    },
                )
            }
            Input::PageRank { job, edges } => {
                let plan = job.plan();
                let (final_ranks, n) = (plan.final_ranks, plan.vertices as usize);
                run(
                    plan.graph,
                    config,
                    tracer,
                    |app| app.fill_source(plan.edges, edges.iter().copied()),
                    |app| {
                        let mut ranks = vec![0.0f64; n];
                        for (v, (contrib, _)) in
                            app.read_records::<(u32, (f64, u32))>(final_ranks)?
                        {
                            ranks[v as usize] = 0.15 / n as f64 + DAMPING * contrib;
                        }
                        Ok(Sinks::Ranks(ranks))
                    },
                )
            }
            Input::HashJoin { job, r, s } => {
                let plan = job.plan();
                let outputs = plan.outputs;
                run(
                    plan.graph,
                    config,
                    tracer,
                    |app| {
                        Ok(app.fill_source(plan.r_input, r.iter().copied())?
                            + app.fill_source(plan.s_input, s.iter().copied())?)
                    },
                    |app| {
                        // One partition's rows at a time, so readback
                        // never holds the whole result.
                        let mut d = JoinDigest::default();
                        for &bag in &outputs {
                            for (k, rp, sp) in app.read_records::<(u32, u64, u64)>(bag)? {
                                d.add(k, rp, sp);
                            }
                        }
                        Ok(Sinks::Join(d))
                    },
                )
            }
        };
        if let (Some(t), Some((id, start))) = (tracer, job_span) {
            let outcome = match &r {
                Ok(rec) if self.check(&rec.sinks) => Outcome::Ok,
                _ => Outcome::Error,
            };
            t.end_job(id, start, outcome);
        }
        r
    }

    /// The static-partitioning comparator (`hurricane-baseline`'s
    /// map/shuffle/sort/reduce on `workers` threads): wall seconds and
    /// whether it matched the oracle. `None` for PageRank, which has no
    /// static counterpart here.
    pub fn run_static(&self, workers: usize) -> Option<(f64, bool)> {
        use hurricane_baseline::{mapreduce, split_input};
        match &self.input {
            Input::ClickLog { job, records } => {
                let (regions, num_ips) = (job.regions, job.num_ips);
                let splits = split_input(records.clone(), 8);
                let t = Instant::now();
                let (results, _) = mapreduce(
                    splits,
                    regions,
                    workers,
                    move |ip: u32, emit: &mut dyn FnMut(u32, u32)| {
                        emit(
                            hurricane_workloads::clicklog::region_of(ip, num_ips, regions),
                            ip,
                        )
                    },
                    |region: &u32, ips: Vec<u32>| {
                        let mut set = hurricane_apps::BitSet::new();
                        for ip in ips {
                            set.set(ip);
                        }
                        (*region, set.count())
                    },
                );
                let secs = t.elapsed().as_secs_f64();
                let mut counts = vec![0u64; regions];
                for (r, c) in results.into_iter().flatten() {
                    counts[r as usize] = c;
                }
                Some((secs, self.check(&Sinks::Counts(counts))))
            }
            Input::HashJoin { r, s, .. } => {
                // Key-partitioned join: both sides shuffle by key and each
                // key group joins on one reducer.
                let items: Vec<(bool, u32, u64)> = r
                    .iter()
                    .map(|&(k, p)| (false, k, p))
                    .chain(s.iter().map(|&(k, p)| (true, k, p)))
                    .collect();
                let splits = split_input(items, 8);
                let t = Instant::now();
                let (results, _) = mapreduce(
                    splits,
                    8,
                    workers,
                    |(is_s, k, p): (bool, u32, u64), emit: &mut dyn FnMut(u32, (bool, u64))| {
                        emit(k, (is_s, p))
                    },
                    |&k: &u32, vals: Vec<(bool, u64)>| {
                        let (ss, rs): (Vec<_>, Vec<_>) = vals.into_iter().partition(|v| v.0);
                        let mut d = JoinDigest::default();
                        for &(_, sp) in &ss {
                            for &(_, rp) in &rs {
                                d.add(k, rp, sp);
                            }
                        }
                        d
                    },
                );
                let secs = t.elapsed().as_secs_f64();
                let mut d = JoinDigest::default();
                for part in results.into_iter().flatten() {
                    d.absorb(part);
                }
                Some((secs, self.check(&Sinks::Join(d))))
            }
            Input::PageRank { .. } => None,
        }
    }

    /// The workload's largest source relation, which the storage and
    /// format probes replay.
    pub fn source_records(&self) -> SourceRecords<'_> {
        match &self.input {
            Input::ClickLog { records, .. } => SourceRecords::Ips(records),
            Input::PageRank { edges, .. } => SourceRecords::Edges(edges),
            Input::HashJoin { s, .. } => SourceRecords::Tuples(s),
        }
    }
}

/// A borrowed view of a workload's largest source relation.
pub enum SourceRecords<'a> {
    Ips(&'a [u32]),
    Edges(&'a [(u32, u32)]),
    Tuples(&'a [Tuple]),
}

fn ranks_close(want: &[f64], got: &[f64], tol: f64) -> bool {
    want.len() == got.len() && want.iter().zip(got).all(|(w, g)| (w - g).abs() < tol)
}

/// Whether two jobs' sinks hold the same contents. Counts and join
/// digests compare exactly; ranks compare to 1e-12 of their value,
/// because clone partials sum in schedule order and float addition
/// does not associate.
pub fn same_sinks(a: &Sinks, b: &Sinks) -> bool {
    match (a, b) {
        (Sinks::Ranks(x), Sinks::Ranks(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| (p - q).abs() <= 1e-12 * p.abs().max(q.abs()))
        }
        _ => a == b,
    }
}

fn oracle(input: &Input) -> Sinks {
    match input {
        Input::ClickLog { job, records } => Sinks::Counts(job.reference(records.iter().copied())),
        Input::PageRank { job, edges } => Sinks::Ranks(job.reference(edges)),
        // `reference_join` is a materializing nested loop; a hash join
        // that only digests the rows is the same answer at this size.
        Input::HashJoin { r, s, .. } => {
            let mut by_key: HashMap<u32, Vec<u64>> = HashMap::new();
            for &(k, p) in r {
                by_key.entry(k).or_default().push(p);
            }
            let mut d = JoinDigest::default();
            for &(k, sp) in s {
                for &rp in by_key.get(&k).map_or(&[][..], Vec::as_slice) {
                    d.add(k, rp, sp);
                }
            }
            Sinks::Join(d)
        }
    }
}

/// Times `f`; under a tracer it is also an app-call span.
fn call<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &str,
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<(T, f64), EngineError> {
    let t = Instant::now();
    let v = match tracer {
        Some(tr) => tr.app_call(name, f)?,
        None => f()?,
    };
    Ok((v, t.elapsed().as_secs_f64()))
}

fn run(
    graph: AppGraph,
    config: &HurricaneConfig,
    tracer: Option<&Arc<Tracer>>,
    fill: impl FnOnce(&HurricaneApp) -> Result<u64, EngineError>,
    read: impl FnOnce(&HurricaneApp) -> Result<Sinks, EngineError>,
) -> Result<JobRecord, EngineError> {
    let graph = match tracer {
        Some(t) => trace::wrap(&graph, t),
        None => graph,
    };
    let (mut app, deploy_s) = call(tracer, "deploy", || {
        let cluster = StorageCluster::new(STORAGE_NODES, ClusterConfig::default());
        HurricaneApp::deploy(graph, cluster, config.clone())
    })?;
    let (fill_bytes, fill_s) = call(tracer, "fill", || fill(&app))?;
    let (report, run_s) = call(tracer, "run", || app.run())?;
    let storage = StorageTotals::of(app.cluster());
    let (sinks, read_s) = call(tracer, "read", || read(&app))?;
    Ok(JobRecord {
        deploy_s,
        fill_s,
        fill_bytes,
        run_s,
        read_s,
        report,
        storage,
        sinks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn small_config() -> HurricaneConfig {
        HurricaneConfig {
            compute_nodes: 2,
            worker_slots: 1,
            chunk_size: 4 * 1024,
            clone_interval: Duration::from_millis(1),
            master_poll: Duration::from_millis(1),
            ..Default::default()
        }
    }

    fn small(kind: usize) -> Workload {
        let input = match kind {
            0 => {
                let job = ClickLogJob {
                    regions: 4,
                    num_ips: 1 << 10,
                };
                let records = ClickLogGen::new(ClickLogSpec {
                    num_ips: job.num_ips,
                    regions: job.regions,
                    skew: 1.0,
                    records: 50_000,
                    seed: 5,
                })
                .collect();
                Input::ClickLog { job, records }
            }
            1 => {
                let job = PageRankJob {
                    vertices: 1 << 8,
                    iterations: 3,
                };
                let edges = RmatGen::new(RmatSpec::with_edge_factor(8, 5))
                    .map(|(u, v)| (u as u32, v as u32))
                    .collect();
                Input::PageRank { job, edges }
            }
            _ => {
                let spec = JoinSpec {
                    num_keys: 256,
                    small_tuples: 2_000,
                    large_tuples: 20_000,
                    skew: 1.0,
                    seed: 5,
                };
                let job = HashJoinJob { partitions: 4 };
                let (r, s) = (small_relation(&spec), large_relation(&spec));
                Input::HashJoin { job, r, s }
            }
        };
        Workload::with_oracle(input)
    }

    #[test]
    fn traced_and_untraced_jobs_agree_with_the_oracle_and_each_other() {
        for kind in 0..3 {
            let w = small(kind);
            let plain = w.run_job(&small_config(), None).unwrap();
            let tracer = Arc::new(Tracer::default());
            let traced = w.run_job(&small_config(), Some(&tracer)).unwrap();
            assert!(w.check(&plain.sinks), "workload {kind}: untraced job");
            assert!(w.check(&traced.sinks), "workload {kind}: traced job");
            assert!(same_sinks(&plain.sinks, &traced.sinks), "workload {kind}");
            let spans = tracer.spans();
            assert!(spans.iter().any(|s| s.kind == trace::Kind::Task));
        }
    }

    #[test]
    fn traced_keyed_merges_keep_their_spilling_path() {
        // A 1-byte merge budget forces every keyed merge through its
        // bounded (spilling) path; the result must still be exact.
        let w = small(1);
        let config = small_config().with_merge_memory_budget(1);
        let tracer = Arc::new(Tracer::default());
        let rec = w.run_job(&config, Some(&tracer)).unwrap();
        assert!(w.check(&rec.sinks));
    }

    #[test]
    fn static_baselines_match_the_oracle() {
        for kind in [0, 2] {
            let (_, ok) = small(kind).run_static(2).unwrap();
            assert!(ok, "workload {kind}");
        }
        assert!(small(1).run_static(2).is_none());
    }

    #[test]
    fn join_digest_ignores_row_order() {
        let mut a = JoinDigest::default();
        a.add(1, 2, 3);
        a.add(4, 5, 6);
        let mut b = JoinDigest::default();
        b.add(4, 5, 6);
        b.add(1, 2, 3);
        assert_eq!(a, b);
        let mut c = JoinDigest::default();
        c.add(1, 3, 2);
        c.add(4, 5, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn same_sinks_tolerates_only_rounding() {
        let a = Sinks::Ranks(vec![0.5, 0.25]);
        assert!(same_sinks(&a, &Sinks::Ranks(vec![0.5 + 1e-17, 0.25])));
        assert!(!same_sinks(&a, &Sinks::Ranks(vec![0.5 + 1e-9, 0.25])));
        assert!(!same_sinks(
            &Sinks::Counts(vec![1]),
            &Sinks::Counts(vec![2])
        ));
    }
}
