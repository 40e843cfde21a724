//! In-memory spans around the engine's public entry points.
//!
//! A traced job runs a copy of the application graph rebuilt through
//! `GraphBuilder` with every `TaskDef::logic` and `TaskDef::merge`
//! wrapped in a timing decorator. Spans form a tree: job → app call
//! (deploy, fill, run, read) → task instance or merge call. They stay in
//! memory and are written out as JSON when the benchmark ends.

use hurricane_core::graph::{AppGraph, BagKind, GraphBag, GraphBuilder};
use hurricane_core::task::{BagReader, BagWriter, MergeLogic, SpillSink, SpillStats, TaskCtx};
use hurricane_core::{EngineError, TaskLogic};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole job: setup, run and readback.
    Job,
    /// One call into `HurricaneApp`; `deploy` includes creating the cluster.
    App,
    /// One execution of a task body (original, clone or restart).
    Task,
    /// One `MergeLogic` call (one output of a merge task).
    Merge,
}

/// How a span's work ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Returned `Ok`.
    Ok,
    /// Returned `EngineError::Cancelled`.
    Cancelled,
    /// Returned any other error.
    Error,
}

impl Outcome {
    fn of<T>(r: &Result<T, EngineError>) -> Self {
        match r {
            Ok(_) => Outcome::Ok,
            Err(EngineError::Cancelled) => Outcome::Cancelled,
            Err(_) => Outcome::Error,
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 for a job.
    pub parent: u64,
    /// The job this span belongs to.
    pub job: u64,
    /// Task name for task and merge spans, call name otherwise.
    pub name: String,
    /// What the span covers.
    pub kind: Kind,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Compute node of a task span (`TaskCtx::node`).
    pub node: Option<u32>,
    /// Clone index of a task span (0 for the original).
    pub clone: Option<u32>,
    /// Output index of a merge span.
    pub output: Option<usize>,
    /// How it ended.
    pub outcome: Outcome,
}

/// Span collector shared by the benchmark loop and the decorators.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// Job and app-call span that task and merge spans started now
    /// belong to (jobs run one at a time).
    job: AtomicU64,
    parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            job: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a job and returns its span id; app calls started from now
    /// on hang off it.
    pub fn begin_job(&self) -> u64 {
        let id = self.id();
        self.job.store(id, Ordering::Relaxed);
        self.parent.store(id, Ordering::Relaxed);
        id
    }

    /// Records the span of job `job` over `[start, now)`.
    pub fn end_job(&self, job: u64, start: u64, outcome: Outcome) {
        self.push(Span {
            id: job,
            parent: 0,
            job,
            name: "job".into(),
            kind: Kind::Job,
            start,
            end: self.now(),
            node: None,
            clone: None,
            output: None,
            outcome,
        });
        self.parent.store(0, Ordering::Relaxed);
    }

    /// Times `f` as an app-call span named `name` under the current job;
    /// task and merge spans that start meanwhile become its children.
    pub fn app_call<T>(
        &self,
        name: &str,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let job = self.job.load(Ordering::Relaxed);
        let id = self.id();
        self.parent.store(id, Ordering::Relaxed);
        let start = self.now();
        let r = f();
        self.push(Span {
            id,
            parent: job,
            job,
            name: name.into(),
            kind: Kind::App,
            start,
            end: self.now(),
            node: None,
            clone: None,
            output: None,
            outcome: Outcome::of(&r),
        });
        self.parent.store(job, Ordering::Relaxed);
        r
    }

    fn record(&self, name: &str, kind: Kind, start: u64, detail: Detail, outcome: Outcome) {
        let id = self.id();
        self.push(Span {
            id,
            parent: self.parent.load(Ordering::Relaxed),
            job: self.job.load(Ordering::Relaxed),
            name: name.into(),
            kind,
            start,
            end: self.now(),
            node: detail.node,
            clone: detail.clone,
            output: detail.output,
            outcome,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Every span as a JSON array.
    pub fn to_json(&self) -> String {
        fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
            v.map_or_else(|| "null".into(), |v| v.to_string())
        }
        let mut s = String::from("[");
        for (i, sp) in self.spans().iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"kind\":\"{:?}\",\
                 \"start_ns\":{},\"end_ns\":{},\"node\":{},\"clone\":{},\"output\":{},\
                 \"outcome\":\"{:?}\"}}",
                sp.id,
                sp.parent,
                sp.job,
                sp.name.escape_default(),
                sp.kind,
                sp.start,
                sp.end,
                opt(sp.node),
                opt(sp.clone),
                opt(sp.output),
                sp.outcome,
            );
        }
        s.push(']');
        s
    }
}

#[derive(Default)]
struct Detail {
    node: Option<u32>,
    clone: Option<u32>,
    output: Option<usize>,
}

/// Times every run of a task body.
struct TracedTask {
    name: String,
    inner: Arc<dyn TaskLogic>,
    tracer: Arc<Tracer>,
}

impl TaskLogic for TracedTask {
    fn run(&self, ctx: &mut TaskCtx) -> Result<(), EngineError> {
        let start = self.tracer.now();
        let r = self.inner.run(ctx);
        let detail = Detail {
            node: Some(ctx.node()),
            clone: Some(ctx.instance().clone.0),
            output: None,
        };
        let outcome = Outcome::of(&r);
        self.tracer
            .record(&self.name, Kind::Task, start, detail, outcome);
        r
    }
}

/// Times every merge call. Both `merge` and `merge_bounded` forward to
/// the wrapped logic, so a merge with its own bounded path (such as
/// `KeyedMerge`'s external aggregation) keeps it instead of falling back
/// to the trait's default.
struct TracedMerge {
    name: String,
    inner: Arc<dyn MergeLogic>,
    tracer: Arc<Tracer>,
}

impl TracedMerge {
    fn timed<T>(
        &self,
        output_index: usize,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let start = self.tracer.now();
        let r = f();
        let detail = Detail {
            output: Some(output_index),
            ..Detail::default()
        };
        self.tracer
            .record(&self.name, Kind::Merge, start, detail, Outcome::of(&r));
        r
    }
}

impl MergeLogic for TracedMerge {
    fn merge(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        self.timed(output_index, || {
            self.inner.merge(output_index, partials, out)
        })
    }

    fn merge_bounded(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
        budget: u64,
        sink: &mut dyn SpillSink,
    ) -> Result<SpillStats, EngineError> {
        self.timed(output_index, || {
            self.inner
                .merge_bounded(output_index, partials, out, budget, sink)
        })
    }
}

/// Rebuilds `graph` with every task body and merge wrapped in a timing
/// decorator. Bags and tasks keep their declaration order, so the plan's
/// `GraphBag` handles stay valid for the copy.
pub fn wrap(graph: &AppGraph, tracer: &Arc<Tracer>) -> AppGraph {
    let mut g = GraphBuilder::new();
    for b in graph.bag_handles() {
        let def = graph.bag(b);
        let copy = match def.kind {
            BagKind::Source => g.source(def.name.clone()),
            BagKind::Internal => g.bag(def.name.clone()),
        };
        debug_assert_eq!(copy, b);
    }
    for t in graph.task_ids() {
        let def = graph.task(t);
        let inputs: Vec<GraphBag> = def.inputs.iter().map(|&i| GraphBag(i)).collect();
        let outputs: Vec<GraphBag> = def.outputs.iter().map(|&i| GraphBag(i)).collect();
        let logic = TracedTask {
            name: def.name.clone(),
            inner: def.logic.clone(),
            tracer: tracer.clone(),
        };
        match &def.merge {
            None => g.task(def.name.clone(), &inputs, &outputs, logic),
            Some(m) => g.task_with_merge(
                def.name.clone(),
                &inputs,
                &outputs,
                logic,
                TracedMerge {
                    name: def.name.clone(),
                    inner: m.clone(),
                    tracer: tracer.clone(),
                },
            ),
        };
    }
    g.build().expect("a copy of a valid graph is valid")
}

/// The stage a task belongs to: its name up to the first `.`
/// (`phase2.3` → `phase2`, `iter.0` → `iter`).
pub fn stage_of(task: &str) -> &str {
    task.split('.').next().unwrap_or(task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_storage::{ClusterConfig, StorageCluster};

    /// A merge whose bounded path is observable: it reports one run.
    struct Bounded;

    impl MergeLogic for Bounded {
        fn merge(
            &self,
            _o: usize,
            _p: &mut [BagReader],
            _out: &mut BagWriter,
        ) -> Result<(), EngineError> {
            Ok(())
        }

        fn merge_bounded(
            &self,
            _o: usize,
            _p: &mut [BagReader],
            _out: &mut BagWriter,
            _budget: u64,
            _sink: &mut dyn SpillSink,
        ) -> Result<SpillStats, EngineError> {
            Ok(SpillStats {
                spilled_records: 7,
                runs: 1,
                rounds: 1,
            })
        }
    }

    struct NoSink;

    impl SpillSink for NoSink {
        fn create_run(&mut self) -> Result<BagWriter, EngineError> {
            unreachable!("the test merge never spills")
        }
        fn open_run(&mut self, _: hurricane_common::BagId) -> Result<BagReader, EngineError> {
            unreachable!("the test merge never spills")
        }
        fn release_run(&mut self, _: hurricane_common::BagId) -> Result<(), EngineError> {
            unreachable!("the test merge never spills")
        }
    }

    #[test]
    fn merge_decorator_forwards_the_bounded_path() {
        let tracer = Arc::new(Tracer::default());
        let traced = TracedMerge {
            name: "m.0".into(),
            inner: Arc::new(Bounded),
            tracer: tracer.clone(),
        };
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let mut out = BagWriter::open(cluster.clone(), cluster.create_bag(), 1, 1024);
        let stats = traced
            .merge_bounded(2, &mut [], &mut out, 64, &mut NoSink)
            .unwrap();
        assert_eq!(stats.runs, 1, "the wrapped merge's own bounded path ran");
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].kind, spans[0].output, spans[0].outcome),
            (Kind::Merge, Some(2), Outcome::Ok)
        );
    }

    #[test]
    fn app_calls_nest_under_jobs() {
        let t = Tracer::default();
        let job = t.begin_job();
        let start = t.now();
        t.app_call("run", || Ok(())).unwrap();
        let e: Result<(), _> = t.app_call("read", || Err(EngineError::Cancelled));
        assert!(e.is_err());
        t.end_job(job, start, Outcome::Ok);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[..2].iter().all(|s| s.parent == job && s.job == job));
        assert_eq!(spans[1].outcome, Outcome::Cancelled);
        assert_eq!((spans[2].kind, spans[2].parent), (Kind::Job, 0));
        assert!(t.to_json().starts_with("[{\"id\":"));
    }

    #[test]
    fn stage_names() {
        assert_eq!(stage_of("phase2.3"), "phase2");
        assert_eq!(stage_of("partition"), "partition");
    }
}
