//! The traced run's in-process pass: replays workload op inputs through
//! each layer's public calls, one span per call, parented to the op.
//!
//! Nothing here is on the timed path; the daemon is not involved.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lopacity::{
    AnonymizationOutcome, Anonymizer, ChurnSession, EdgeEvent, OpacityEvaluator, Parallelism,
    ProgressObserver, Removal, RunControl, RunInfo, StepEvent, TypeSpec,
};
use lopacity_daemon::job::{graph_hash, resolve_graph};
use lopacity_daemon::{JobSpec, Journal, Record};
use lopacity_graph::{io as gio, Edge, Graph};
use lopacity_util::FaultPlan;

use crate::gen::churn_stream;
use crate::mix;
use crate::trace::Tracer;

/// Per-metric samples gathered outside spans (counts, sizes, rates).
#[derive(Debug, Default)]
pub struct Values(pub BTreeMap<&'static str, Vec<f64>>);

impl Values {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Timestamps each greedy step of a run.
#[derive(Default)]
struct StepClock {
    start: Option<Instant>,
    steps: Vec<Instant>,
}

impl ProgressObserver for StepClock {
    fn on_run_start(&mut self, _info: &RunInfo<'_>) {
        self.start = Some(Instant::now());
    }

    fn on_step(&mut self, _event: &StepEvent) {
        self.steps.push(Instant::now());
    }
}

/// How the pass runs the greedy phase for one op.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Run at this θ instead of the spec's (a step probe on workloads
    /// whose jobs take no steps).
    pub theta: Option<f64>,
    /// Stop after this many steps.
    pub max_steps: Option<u64>,
}

/// Candidates timed by the scan probe (a prefix of the first step's).
const SCAN_CANDIDATES: usize = 1000;

/// One traced Anonymizer run: a `run_name` span with a `step_name` child
/// per committed step.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    tracer: &mut Tracer,
    parent: usize,
    op: u64,
    graph: &Graph,
    spec: &JobSpec,
    ev: OpacityEvaluator,
    plan: RunPlan,
    parallelism: Parallelism,
    names: (&'static str, &'static str),
) -> AnonymizationOutcome {
    let mut config = spec.config().with_parallelism(parallelism);
    if let Some(theta) = plan.theta {
        config.theta = theta;
    }
    let control = RunControl::new();
    control.set_max_steps(plan.max_steps);
    let mut clock = StepClock::default();
    let span = tracer.begin(names.0, Some(parent), op);
    let mut session = Anonymizer::new(graph, &TypeSpec::DegreePairs)
        .config(config)
        .observer(&mut clock)
        .control(control);
    session.adopt_prepared(ev);
    let outcome = session.run(Removal);
    drop(session);
    tracer.end(span);
    let mut from = clock
        .start
        .map_or(tracer.spans[span].start, |t| tracer.at(t));
    for t in clock.steps {
        let to = tracer.at(t);
        tracer.record(names.1, from, to, Some(span), op);
        from = to;
    }
    outcome
}

/// Replays one job op (`body` is its spec) through every layer the
/// daemon's job path calls, appending its frames to `journal`.
pub fn job_pass(
    tracer: &mut Tracer,
    values: &mut Values,
    journal: &Journal,
    journal_path: &Path,
    op: u64,
    body: &str,
    plan: RunPlan,
) {
    let root = tracer.begin("inproc.op", None, op);
    let p = Some(root);
    let spec = tracer
        .time("admit.parse", p, op, || JobSpec::parse(body))
        .expect("spec parses");
    tracer.time("admit.estimate", p, op, || spec.estimated_footprint());
    let graph = tracer
        .time("ingest.parse", p, op, || resolve_graph(&spec.source))
        .expect("graph parses");
    let parse_s = tracer.spans.last().expect("span").duration().as_secs_f64();
    values.push(
        "ingest.mb_per_s",
        body.len() as f64 / 1e6 / parse_s.max(1e-9),
    );
    tracer.time("ingest.hash", p, op, || graph_hash(&graph));
    let input = graph.clone();
    let ev = tracer.time("build", p, op, || {
        OpacityEvaluator::with_options(
            input,
            &TypeSpec::DegreePairs,
            spec.l,
            spec.engine,
            Parallelism::Auto,
            spec.store,
        )
    });
    values.push("build.store_bytes", ev.dist_store().storage_bytes() as f64);
    let mut scan = tracer.time("cache.clone", p, op, || ev.clone());
    scan.set_parallelism(Parallelism::Off);
    let candidates: Vec<Edge> = graph.edges().take(SCAN_CANDIDATES).collect();
    tracer.time("scan", p, op, || {
        for &e in &candidates {
            std::hint::black_box(scan.trial_remove(e));
        }
    });
    let scan_us = tracer.spans.last().expect("span").duration().as_secs_f64() * 1e6;
    values.push("scan.trial_us", scan_us / candidates.len().max(1) as f64);
    drop(scan);

    let outcome = traced_run(
        tracer,
        root,
        op,
        &graph,
        &spec,
        ev.clone(),
        plan,
        Parallelism::Auto,
        ("run", "step"),
    );
    values.push("scan.trials_per_op", outcome.trials as f64);
    values.push("forks.clones_per_op", outcome.fork_clones as f64);
    traced_run(
        tracer,
        root,
        op,
        &graph,
        &spec,
        ev.clone(),
        plan,
        Parallelism::Off,
        ("run.serial", "step.serial"),
    );

    if let Some(e) = graph.edges().next() {
        let (mut committed, mut fork) = (ev.clone(), ev);
        let token = tracer.time("commit.apply", p, op, || committed.apply_remove(e));
        tracer.time("forks.replay", p, op, || {
            fork.replay_commit(&committed.commit_delta(&token))
        });
    }
    let rendered = tracer.time("render", p, op, || {
        let mut out = Vec::new();
        gio::write_edge_list(&outcome.graph, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("edge list is ASCII")
    });
    let before = file_len(journal_path);
    let frames = [
        Record::Submit {
            id: op,
            spec: spec.canonical_body(),
        },
        Record::Result {
            id: op,
            graph: rendered,
        },
    ];
    for record in &frames {
        tracer
            .time("journal.append", p, op, || journal.append(record))
            .expect("journal append");
    }
    values.push(
        "journal.bytes_per_op",
        (file_len(journal_path) - before) as f64,
    );
    tracer.end(root);
}

/// Appends one churn batch's journal frame, as the daemon does per batch.
pub fn append_batch(
    tracer: &mut Tracer,
    values: &mut Values,
    journal: &Journal,
    journal_path: &Path,
    op: u64,
    batch: &str,
) {
    let before = file_len(journal_path);
    let record = Record::Events {
        id: 0,
        batch: batch.to_string(),
    };
    tracer
        .time("journal.append", None, op, || journal.append(&record))
        .expect("journal append");
    values.push(
        "journal.bytes_per_op",
        (file_len(journal_path) - before) as f64,
    );
}

/// Churn layers on a job workload's first op graph: a session at the
/// op's θ (repaired once if needed), `batches` seeded batches through
/// parse and detect, and a repair after each violated batch — or one
/// repair call at the end if none violated.
pub fn churn_probe(
    tracer: &mut Tracer,
    values: &mut Values,
    body: &str,
    batches: usize,
    seed: u64,
) {
    let spec = JobSpec::parse(body).expect("spec parses");
    let graph = resolve_graph(&spec.source).expect("graph parses");
    let op = u64::MAX;
    let root = tracer.begin("inproc.churn", None, op);
    let p = Some(root);
    let mut session = tracer.time("churn.setup", p, op, || {
        let anonymizer = Anonymizer::new(&graph, &TypeSpec::DegreePairs).config(spec.config());
        let mut session = ChurnSession::new(anonymizer);
        if !session.is_certified() {
            session.repair(Removal);
        }
        session
    });
    let mut violated = 0;
    let mut events_total = 0;
    let mut cells = 0;
    for text in churn_stream(&graph, 20, 0.25, mix(seed, 0x9b_0000)).take(batches) {
        let events = tracer
            .time("churn.parse", p, op, || EdgeEvent::parse_stream(&text))
            .expect("batch parses");
        let report = tracer.time("churn.detect", p, op, || session.apply_batch(&events));
        events_total += events.len();
        cells += report.changed_cells;
        if report.violated {
            violated += 1;
            tracer.time("churn.repair", p, op, || session.repair(Removal));
        }
    }
    if violated == 0 {
        tracer.time("churn.repair", p, op, || session.repair(Removal));
    }
    tracer.end(root);
    values.push("churn.batches", batches as f64);
    values.push("churn.violated", violated as f64);
    values.push("churn.events", events_total as f64);
    values.push("churn.changed_cells", cells as f64);
}

/// Opens a scratch journal for the pass's own frames.
pub fn open_journal(dir: &Path) -> (Journal, std::path::PathBuf) {
    let (journal, _) =
        Journal::open(dir, Arc::new(FaultPlan::none())).expect("open scratch journal");
    let path = journal.path().to_path_buf();
    (journal, path)
}

/// Times `Journal::open` (replay) over a daemon's state directory.
pub fn time_replay(tracer: &mut Tracer, state_dir: &Path) -> usize {
    let (_, records) = tracer
        .time("journal.replay", None, u64::MAX, || {
            Journal::open(state_dir, Arc::new(FaultPlan::none()))
        })
        .expect("replay the state dir's journal");
    records.len()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
