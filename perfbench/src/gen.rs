//! Workload inputs as a pure function of the seed.
//!
//! Every graph is uploaded inline, so the daemon parses exactly the text
//! generated here; the in-process passes parse the same text with
//! [`lopacity_daemon::job::resolve_graph`] to see the graph the daemon saw.

use std::collections::HashMap;

use lopacity::{
    AnonymizeConfig, Anonymizer, ChurnSession, Parallelism, ProgressObserver, Removal, RunControl,
    StepEvent, TypeSpec,
};
use lopacity_daemon::job::resolve_graph;
use lopacity_daemon::JobSpec;
use lopacity_gen::Dataset;
use lopacity_graph::{io as gio, Graph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{mix, Scale};

/// Client poll interval for job status, well under every job's p50.
pub const POLL_MS: u64 = 5;

/// Renders a graph as the canonical edge list the daemon also writes.
pub fn render(g: &Graph) -> String {
    let mut out = Vec::new();
    gio::write_edge_list(g, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("edge list is ASCII")
}

/// A job spec with an inline graph.
pub fn spec_text(mode: &str, l: u8, theta: f64, seed: u64, graph_text: &str) -> String {
    format!(
        "mode {mode}\nmethod rem\nl {l}\ntheta {theta}\nseed {seed}\ngraph inline\n\n{graph_text}"
    )
}

/// The graph the daemon builds from a spec body.
pub fn spec_graph(body: &str) -> Graph {
    let spec = JobSpec::parse(body).expect("generated specs parse");
    resolve_graph(&spec.source).expect("generated graphs parse")
}

/// One rung of the sweep ladder: a θ that the greedy run with this RNG
/// seed first reaches after exactly `steps` steps and `removed` removals.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOp {
    pub theta: f64,
    pub rng_seed: u64,
    pub steps: usize,
    pub removed: usize,
}

/// `sweep`: one uploaded graph and a ladder of (θ, RNG seed) jobs.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    pub l: u8,
    pub graph_text: String,
    pub graph: Graph,
    /// Graph draws rejected because their greedy trajectory plateaued.
    pub draws: u64,
    pub ops: Vec<SweepOp>,
}

impl SweepInputs {
    pub fn op(&self, i: usize) -> &SweepOp {
        &self.ops[i % self.ops.len()]
    }

    pub fn body(&self, i: usize) -> String {
        let op = self.op(i);
        spec_text("anonymize", self.l, op.theta, op.rng_seed, &self.graph_text)
    }
}

/// Records `(step, maxLO, removed)` after each committed greedy step.
#[derive(Default)]
struct Trajectory(Vec<(usize, f64, usize)>);

impl ProgressObserver for Trajectory {
    fn on_step(&mut self, event: &StepEvent) {
        self.0.push((event.step, event.max_lo, event.removed));
    }
}

/// Builds the sweep ladder. For each RNG seed the greedy removal run is
/// traced in-process (θ = 0, `sweep_rungs` steps); the maxLO after step
/// `k` becomes the θ of rung `k`, so the job at that rung takes exactly
/// `k` steps. A draw whose trajectory does not drop strictly at every
/// one of those steps (a maxLO plateau would merge two rungs) is replaced
/// by the next draw, so every seed's jobs do the same number of steps.
pub fn sweep(seed: u64, scale: &Scale) -> SweepInputs {
    const MAX_DRAWS: u64 = 64;
    let mut draw = 0;
    loop {
        let generated = Dataset::Gnutella.generate(scale.sweep_n, mix(seed, 0x5eed_0000 + draw));
        let graph_text = render(&generated);
        let graph = gio::read_edge_list(graph_text.as_bytes(), 0).expect("rendered graphs parse");
        let mut ops = Vec::new();
        for rng_seed in 1..=scale.sweep_rng_seeds {
            ops.extend(ladder(&graph, scale.sweep_l, rng_seed, scale.sweep_rungs));
        }
        draw += 1;
        let complete = ops.len() as u64 == scale.sweep_rng_seeds * scale.sweep_rungs as u64;
        if complete || draw >= MAX_DRAWS {
            assert!(
                !ops.is_empty(),
                "no sweep draw lowered maxLO in its first step"
            );
            return SweepInputs {
                l: scale.sweep_l,
                graph_text,
                graph,
                draws: draw - 1,
                ops,
            };
        }
    }
}

/// The rungs of one RNG seed's trajectory: one per step, up to the first
/// step that does not lower maxLO.
fn ladder(graph: &Graph, l: u8, rng_seed: u64, steps: usize) -> Vec<SweepOp> {
    let mut trajectory = Trajectory::default();
    let control = RunControl::new();
    control.set_max_steps(Some(steps as u64));
    let config = AnonymizeConfig::new(l, 0.0)
        .with_seed(rng_seed)
        .with_parallelism(Parallelism::Off);
    let mut session = Anonymizer::new(graph, &TypeSpec::DegreePairs)
        .config(config)
        .observer(&mut trajectory)
        .control(control);
    let mut low = session.initial_assessment().as_f64();
    session.run(Removal);
    drop(session);
    let mut rungs = Vec::new();
    for (step, max_lo, removed) in trajectory.0 {
        if max_lo >= low {
            break;
        }
        low = max_lo;
        rungs.push(SweepOp {
            theta: max_lo,
            rng_seed,
            steps: step,
            removed,
        });
    }
    rungs
}

/// `fresh`: op `i` uploads its own G(n, 3n) graph at θ = 1.
#[derive(Debug, Clone)]
pub struct FreshInputs {
    pub n: usize,
    pub l: u8,
    pub seed: u64,
}

/// θ for `fresh`. maxLO reaches 1 on some G(n, 3n) draws (a degree-pair
/// type with one pair), so θ = 1 is the fixed θ that certifies every
/// upload with zero greedy steps.
pub const FRESH_THETA: f64 = 1.0;

impl FreshInputs {
    pub fn body(&self, i: usize) -> String {
        let g = lopacity_gen::er::gnm(self.n, 3 * self.n, mix(self.seed, 0xf0_0000 + i as u64));
        spec_text("anonymize", self.l, FRESH_THETA, 1, &render(&g))
    }
}

pub fn fresh(seed: u64, scale: &Scale) -> FreshInputs {
    FreshInputs {
        n: scale.fresh_n,
        l: scale.fresh_l,
        seed,
    }
}

/// `churn`: one held session over an uploaded G(n, m) and a stream of
/// fixed-size event batches.
#[derive(Debug, Clone)]
pub struct ChurnInputs {
    pub spec: String,
    pub graph: Graph,
    pub theta: f64,
    pub l: u8,
    pub seed: u64,
    pub batch: usize,
    pub delete_share: f64,
    /// Greedy steps of the session's set-up repair.
    pub setup_steps: usize,
    /// Draws skipped before this one.
    pub draws: u64,
}

/// Builds the churn inputs. The daemon certifies the session at set-up
/// by repairing the upload; a G(n, m) draw is kept only if that repair
/// takes a step count inside `churn_setup_steps` (checked in-process
/// under a step budget), so set-up cost does not swing with the seed —
/// some draws need hundreds of steps.
pub fn churn(seed: u64, scale: &Scale) -> ChurnInputs {
    const MAX_DRAWS: u64 = 64;
    let (low, high) = scale.churn_setup_steps;
    let mut fallback = None;
    for draw in 0..MAX_DRAWS {
        let generated =
            lopacity_gen::er::gnm(scale.churn_n, scale.churn_m, mix(seed, 0xc4_0000 + draw));
        let spec = spec_text(
            "churn",
            scale.churn_l,
            scale.churn_theta,
            1,
            &render(&generated),
        );
        let graph = spec_graph(&spec);
        let steps = setup_repair_steps(&graph, scale.churn_l, scale.churn_theta, high);
        let inputs = ChurnInputs {
            spec,
            graph,
            theta: scale.churn_theta,
            l: scale.churn_l,
            seed,
            batch: scale.churn_batch,
            delete_share: scale.churn_delete_share,
            setup_steps: steps.unwrap_or(0),
            draws: draw,
        };
        match steps {
            Some(k) if k >= low => return inputs,
            Some(_) if fallback.is_none() => fallback = Some(inputs),
            _ => {}
        }
    }
    fallback.expect("no churn draw certified within the step budget")
}

/// Steps the session's set-up repair takes, if it certifies within `cap`.
fn setup_repair_steps(graph: &Graph, l: u8, theta: f64, cap: usize) -> Option<usize> {
    let config = AnonymizeConfig::new(l, theta).with_seed(1);
    let mut session =
        ChurnSession::new(Anonymizer::new(graph, &TypeSpec::DegreePairs).config(config));
    if session.is_certified() {
        return Some(0);
    }
    let control = RunControl::new();
    control.set_max_steps(Some(cap as u64));
    session.set_control(Some(control));
    let patch = session.repair(Removal);
    patch.achieved.then_some(patch.steps)
}

impl ChurnInputs {
    /// The batch stream, from its first batch. Deletes pick a present
    /// edge and inserts an absent pair of the stream's own edge set (the
    /// upload plus earlier events; repairs are not modelled, so a few
    /// events may be no-ops on the daemon, which counts them as skipped).
    pub fn stream(&self) -> ChurnStream {
        churn_stream(
            &self.graph,
            self.batch,
            self.delete_share,
            mix(self.seed, 0xe7_0000),
        )
    }

    /// Delete-only batches for the recovery probe: removing edges only
    /// lengthens distances, so none of them can break certification.
    pub fn probe_stream(&self) -> ChurnStream {
        churn_stream(&self.graph, self.batch, 1.0, mix(self.seed, 0xd0_0000))
    }
}

/// A seeded, endless stream of `+ u v` / `- u v` batches over a graph.
pub struct ChurnStream {
    rng: StdRng,
    n: u32,
    present: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
    batch: usize,
    delete_share: f64,
}

pub fn churn_stream(graph: &Graph, batch: usize, delete_share: f64, seed: u64) -> ChurnStream {
    let present: Vec<(u32, u32)> = graph.edges().map(|e| (e.u(), e.v())).collect();
    let index = present.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    ChurnStream {
        rng: StdRng::seed_from_u64(seed),
        n: graph.num_vertices() as u32,
        present,
        index,
        batch,
        delete_share,
    }
}

impl ChurnStream {
    fn remove(&mut self, i: usize) -> (u32, u32) {
        let edge = self.present.swap_remove(i);
        self.index.remove(&edge);
        if let Some(&moved) = self.present.get(i) {
            self.index.insert(moved, i);
        }
        edge
    }
}

impl Iterator for ChurnStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let mut text = String::new();
        for _ in 0..self.batch {
            let delete = self.rng.random_range(0.0..1.0) < self.delete_share;
            if delete && !self.present.is_empty() {
                let i = self.rng.random_range(0..self.present.len());
                let (u, v) = self.remove(i);
                text.push_str(&format!("- {u} {v}\n"));
            } else {
                loop {
                    let a = self.rng.random_range(0..self.n);
                    let b = self.rng.random_range(0..self.n);
                    let edge = (a.min(b), a.max(b));
                    if a != b && !self.index.contains_key(&edge) {
                        self.index.insert(edge, self.present.len());
                        self.present.push(edge);
                        text.push_str(&format!("+ {a} {b}\n"));
                        break;
                    }
                }
            }
        }
        Some(text)
    }
}
