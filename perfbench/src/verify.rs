//! Output verification, run outside the timed phase.
//!
//! Jobs: the returned graph must be a subgraph of the upload whose
//! re-certification (`opacity_report_against_original`) gives maxLO ≤ θ
//! and the maxLO the daemon reported. Churn: the batches are replayed
//! in-process and every report field the daemon sent must be reproduced;
//! the replayed session must then pass `ChurnSession::certify`.

use std::collections::HashMap;

use lopacity::opacity::opacity_report_against_original;
use lopacity::{Anonymizer, ChurnSession, EdgeEvent, Removal, TypeSpec};
use lopacity_daemon::job::resolve_graph;
use lopacity_daemon::JobSpec;
use lopacity_graph::{io as gio, Graph};

use crate::gen::ChurnInputs;
use crate::load::{Output, Sample};
use crate::trace::Tracer;
use crate::Fnv;

/// The value of a `key value` line.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
}

/// A status body without its `id` line: equal for equal work, whatever
/// id the daemon assigned.
pub fn status_without_id(status: &str) -> String {
    status
        .lines()
        .filter(|l| !l.starts_with("id "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// What a job's result must show.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub l: u8,
    pub theta: f64,
    /// Greedy steps and removals, when the workload fixes them.
    pub steps: Option<usize>,
    pub removed: Option<usize>,
}

fn parse_usize(text: &str, key: &str) -> Result<usize, String> {
    field(text, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("status has no numeric {key:?}"))
}

/// Checks one finished job against the graph it was given. Returns the
/// number of edges it removed.
pub fn check_job(original: &Graph, expect: Expect, output: &Output) -> Result<usize, String> {
    let Output::Job { status, graph, .. } = output else {
        return Err("not a job output".into());
    };
    if field(status, "achieved") != Some("true") {
        return Err("job did not reach θ".into());
    }
    if field(status, "interrupted") != Some("no") {
        return Err("job was interrupted".into());
    }
    let steps = parse_usize(status, "steps")?;
    let removed = parse_usize(status, "removed")?;
    if parse_usize(status, "inserted")? != 0 {
        return Err("a removal job inserted edges".into());
    }
    if let Some(want) = expect.steps.filter(|&w| w != steps) {
        return Err(format!("job took {steps} steps, expected {want}"));
    }
    if let Some(want) = expect.removed.filter(|&w| w != removed) {
        return Err(format!("job removed {removed} edges, expected {want}"));
    }
    let n = original.num_vertices();
    let published =
        gio::read_edge_list(graph.as_bytes(), n).map_err(|e| format!("result graph: {e}"))?;
    if published.num_vertices() != n {
        return Err(format!(
            "result has {} vertices, upload {n}",
            published.num_vertices()
        ));
    }
    if let Some(e) = published.edges().find(|e| !original.has_edge(e.u(), e.v())) {
        return Err(format!(
            "result edge {}-{} is not in the upload",
            e.u(),
            e.v()
        ));
    }
    if original.num_edges() - published.num_edges() != removed {
        return Err(format!(
            "result lost {} edges but reports {removed} removals",
            original.num_edges() - published.num_edges()
        ));
    }
    let report =
        opacity_report_against_original(original, &published, &TypeSpec::DegreePairs, expect.l);
    if !report.max_lo.satisfies(expect.theta) {
        return Err(format!(
            "re-certified maxLO {} > θ {}",
            report.max_lo.as_f64(),
            expect.theta
        ));
    }
    let recertified = format!("{:.6}", report.max_lo.as_f64());
    if field(status, "final_lo") != Some(recertified.as_str()) {
        return Err(format!(
            "daemon reported maxLO {:?}, re-certification gives {recertified}",
            field(status, "final_lo")
        ));
    }
    Ok(removed)
}

/// Checks job samples on `threads` threads. `original(op)` and
/// `expect(op)` describe each op; identical (status, graph) outputs are
/// re-certified once. Returns, per sample, its removals or the failure.
pub fn check_jobs(
    samples: &[Sample],
    threads: usize,
    original: &(dyn Fn(usize) -> Graph + Sync),
    expect: &(dyn Fn(usize) -> Expect + Sync),
) -> Vec<Result<usize, String>> {
    // Deduplicate identical outputs of the same op input.
    let mut first_of: HashMap<(u64, u64), usize> = HashMap::new();
    let mut plan: Vec<Option<usize>> = Vec::with_capacity(samples.len());
    for (k, s) in samples.iter().enumerate() {
        let key = match &s.outcome {
            Ok(Output::Job { status, graph, .. }) => {
                let mut h = Fnv::default();
                h.write(status_without_id(status).as_bytes());
                h.write(graph.as_bytes());
                Some((s.op as u64, h.finish()))
            }
            _ => None,
        };
        plan.push(key.and_then(|key| first_of.get(&key).copied()));
        if let Some(key) = key {
            first_of.entry(key).or_insert(k);
        }
    }
    let todo: Vec<usize> = (0..samples.len()).filter(|&k| plan[k].is_none()).collect();
    let chunk = todo.len().div_ceil(threads.max(1)).max(1);
    let mut results: Vec<Option<Result<usize, String>>> = vec![None; samples.len()];
    let checked: Vec<(usize, Result<usize, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&k| {
                            let s = &samples[k];
                            let result = match &s.outcome {
                                Ok(out) => check_job(&original(s.op), expect(s.op), out),
                                Err(e) => Err(e.clone()),
                            };
                            (k, result)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier panicked"))
            .collect()
    });
    for (k, r) in checked {
        results[k] = Some(r);
    }
    (0..samples.len())
        .map(|k| match plan[k] {
            Some(first) => results[first].clone().expect("first occurrence checked"),
            None => results[k].clone().expect("checked"),
        })
        .collect()
}

/// Runs `f`, as a span when tracing.
fn timed(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    f: &mut dyn FnMut(),
) {
    match tracer {
        Some(t) => t.time(name, parent, op, f),
        None => f(),
    }
}

/// What an in-process churn replay found.
#[derive(Debug)]
pub struct ChurnReplay {
    /// Per sample: `Ok(repair edits)` or the mismatch.
    pub results: Vec<Result<usize, String>>,
    /// Setup summary mismatch, if any.
    pub setup: Option<String>,
    pub certify: Result<(), String>,
    pub violated: usize,
    pub events: usize,
    pub changed_cells: usize,
}

/// Field-by-field comparison of a report the daemon sent with one built
/// in-process. Keys the daemon sends that the replay does not compute
/// are ignored.
fn compare(daemon: &str, local: &[(&str, String)]) -> Result<(), String> {
    for (key, want) in local {
        let got = field(daemon, key);
        if got != Some(want.as_str()) {
            return Err(format!("{key}: daemon {got:?}, replay {want:?}"));
        }
    }
    Ok(())
}

/// Opens the session the daemon holds for `inputs.spec` (with its initial
/// repair) and replays `samples`' batches into it, comparing reports.
/// `setup_status` is the session job's final status body.
pub fn replay_churn(
    inputs: &ChurnInputs,
    setup_status: &str,
    samples: &[Sample],
    mut tracer: Option<&mut Tracer>,
) -> ChurnReplay {
    let spec = JobSpec::parse(&inputs.spec).expect("generated specs parse");
    let original = resolve_graph(&spec.source).expect("generated graphs parse");
    let mut out = ChurnReplay {
        results: Vec::new(),
        setup: None,
        certify: Ok(()),
        violated: 0,
        events: 0,
        changed_cells: 0,
    };

    let mut session_slot = None;
    let mut patch_slot = None;
    let setup_span = tracer
        .as_deref_mut()
        .map(|t| t.begin("inproc.session", None, 0));
    timed(&mut tracer, "churn.setup", setup_span, 0, &mut || {
        let anonymizer = Anonymizer::new(&original, &TypeSpec::DegreePairs).config(spec.config());
        let mut session = ChurnSession::new(anonymizer);
        if !session.is_certified() {
            patch_slot = Some(session.repair(Removal));
        }
        session_slot = Some(session);
    });
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), setup_span) {
        t.end(id);
    }
    let mut session = session_slot.expect("session built");
    let a = session.assessment();
    let mut expected = vec![
        ("certified", session.is_certified().to_string()),
        ("max_lo", format!("{:.6}", a.as_f64())),
        ("n_at_max", a.n_at_max().to_string()),
    ];
    if let Some(p) = &patch_slot {
        expected.push(("repair_steps", p.steps.to_string()));
        expected.push(("repair_trials", p.trials.to_string()));
        expected.push(("repair_removed", p.removed.len().to_string()));
    }
    if let Err(e) = compare(setup_status, &expected) {
        out.setup = Some(format!("session setup: {e}"));
    }

    for s in samples {
        let (Some(batch), Ok(Output::Batch { report })) = (&s.batch, &s.outcome) else {
            out.results.push(Err(match &s.outcome {
                Err(e) => e.clone(),
                Ok(_) => "not a batch".to_string(),
            }));
            continue;
        };
        let op = s.op as u64;
        let parent = tracer
            .as_deref_mut()
            .map(|t| t.begin("inproc.batch", None, op));
        let mut events = Vec::new();
        timed(&mut tracer, "churn.parse", parent, op, &mut || {
            events = EdgeEvent::parse_stream(batch).expect("generated batches parse");
        });
        let mut local = None;
        timed(&mut tracer, "churn.detect", parent, op, &mut || {
            local = Some(session.apply_batch(&events));
        });
        let local = local.expect("batch applied");
        out.events += events.len();
        out.changed_cells += local.changed_cells;
        let mut fields = vec![
            ("applied", local.applied.to_string()),
            ("skipped", local.skipped.to_string()),
            ("changed_cells", local.changed_cells.to_string()),
            ("max_lo", format!("{:.6}", local.max_lo)),
            ("violated", local.violated.to_string()),
        ];
        let mut edits = 0;
        let mut achieved = true;
        if local.violated {
            out.violated += 1;
            let mut patch = None;
            timed(&mut tracer, "churn.repair", parent, op, &mut || {
                patch = Some(session.repair(Removal));
            });
            let p = patch.expect("repair ran");
            edits = p.edits();
            achieved = p.achieved;
            fields.push(("repair_achieved", p.achieved.to_string()));
            fields.push(("repair_steps", p.steps.to_string()));
            fields.push(("repair_trials", p.trials.to_string()));
            fields.push(("repair_removed", p.removed.len().to_string()));
            fields.push(("repair_inserted", p.inserted.len().to_string()));
            fields.push(("repair_max_lo", format!("{:.6}", p.max_lo)));
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), parent) {
            t.end(id);
        }
        out.results.push(match compare(report, &fields) {
            Err(e) => Err(format!("batch {}: {e}", s.op)),
            Ok(()) if !achieved => Err(format!("batch {}: repair did not reach θ", s.op)),
            Ok(()) => Ok(edits),
        });
    }
    out.certify = session.certify();
    if out.certify.is_ok() {
        let published = session.evaluator().graph().clone();
        let report = opacity_report_against_original(
            &original,
            &published,
            &TypeSpec::DegreePairs,
            inputs.l,
        );
        if !report.max_lo.satisfies(inputs.theta) {
            out.certify = Err(format!(
                "final graph re-certifies at maxLO {} > θ {}",
                report.max_lo.as_f64(),
                inputs.theta
            ));
        }
    }
    out
}
