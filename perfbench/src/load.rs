//! The closed-loop load generator: every client thread owns one
//! `lopacity_client::Client` (one kept-alive connection) and sends its
//! next op only after the previous one completed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lopacity_client::Client;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::daemon::Daemon;
use crate::gen::POLL_MS;
use crate::mix;
use crate::trace::Tracer;

/// The first status poll of a job waits a uniform draw from
/// `[0, POLL_PHASE_US)`, then polls follow every [`POLL_MS`]. Without the
/// random phase every latency snaps to a multiple of the poll round trip
/// (~44 ms on loopback, see the README), and a median can jump by a whole
/// round trip between runs.
pub const POLL_PHASE_US: u64 = 45_000;

/// A seeded source of first-poll waits.
pub struct PollPhase(StdRng);

impl PollPhase {
    pub fn new(seed: u64) -> PollPhase {
        PollPhase(StdRng::seed_from_u64(seed))
    }

    pub fn draw(&mut self) -> Duration {
        Duration::from_micros(self.0.random_range(0..POLL_PHASE_US))
    }
}

/// What an op returned.
#[derive(Debug, Clone)]
pub enum Output {
    /// A finished job: its final status body and the downloaded graph
    /// (empty for a churn session job, which has none).
    Job {
        id: u64,
        status: String,
        graph: String,
    },
    /// A churn batch's re-certification report.
    Batch { report: String },
}

/// One op as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: usize,
    pub latency: Duration,
    pub outcome: Result<Output, String>,
    /// `GET /jobs/<id>` calls this op made.
    pub polls: u32,
    /// From the 202 to the first poll that no longer read `queued`
    /// (resolution: one poll round trip).
    pub queue_wait: Option<Duration>,
    pub traced: bool,
    /// The event batch sent (churn only).
    pub batch: Option<String>,
}

/// Optional span recording for one op: children of the op span.
pub struct OpTrace<'a> {
    tracer: Option<&'a mut Tracer>,
    parent: Option<usize>,
    op: u64,
}

impl<'a> OpTrace<'a> {
    pub fn off() -> OpTrace<'a> {
        OpTrace {
            tracer: None,
            parent: None,
            op: 0,
        }
    }

    pub fn under(tracer: &'a mut Tracer, parent: usize, op: u64) -> OpTrace<'a> {
        OpTrace {
            tracer: Some(tracer),
            parent: Some(parent),
            op,
        }
    }

    fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            Some(t) => t.time(name, self.parent, self.op, f),
            None => f(),
        }
    }
}

/// A job op: `POST /jobs`, poll `GET /jobs/<id>` (first after
/// `first_wait`, then every [`POLL_MS`]) until it is finished, then (when
/// `fetch_graph`) `GET /jobs/<id>/graph`. A job that ends in any phase but
/// `done` is a failed op.
pub fn run_job(
    client: &mut Client,
    body: &str,
    first_wait: Duration,
    fetch_graph: bool,
    trace: &mut OpTrace<'_>,
) -> (Result<Output, String>, u32, Option<Duration>) {
    let mut polls = 0;
    let mut queue_wait = None;
    let outcome = (|| {
        let id = trace
            .child("http.submit", || client.submit(body))
            .map_err(|e| e.to_string())?;
        let accepted = Instant::now();
        let (phase, status) = loop {
            std::thread::sleep(if polls == 0 {
                first_wait
            } else {
                Duration::from_millis(POLL_MS)
            });
            let (phase, status) = trace
                .child("http.poll", || client.status(id))
                .map_err(|e| e.to_string())?;
            polls += 1;
            if queue_wait.is_none() && phase != "queued" {
                queue_wait = Some(accepted.elapsed());
            }
            if matches!(phase.as_str(), "done" | "cancelled" | "failed") {
                break (phase, status);
            }
        };
        if phase != "done" {
            return Err(format!("job {id} ended {phase}: {}", status.trim_end()));
        }
        let graph = if fetch_graph {
            let response = trace
                .child("http.fetch", || client.get(&format!("/jobs/{id}/graph")))
                .map_err(|e| e.to_string())?;
            String::from_utf8(response.body).map_err(|_| "graph is not UTF-8".to_string())?
        } else {
            String::new()
        };
        Ok(Output::Job { id, status, graph })
    })();
    (outcome, polls, queue_wait)
}

/// A churn op: one `POST /jobs/<id>/events` round trip.
pub fn run_batch(
    client: &mut Client,
    session: u64,
    batch: &str,
    trace: &mut OpTrace<'_>,
) -> Result<Output, String> {
    let path = format!("/jobs/{session}/events");
    let response = trace
        .child("http.events", || {
            client.request("POST", &path, &[], batch.as_bytes())
        })
        .map_err(|e| e.to_string())?;
    let report = String::from_utf8(response.body).map_err(|_| "report is not UTF-8".to_string())?;
    Ok(Output::Batch { report })
}

/// When the loop stops issuing ops: at a deadline, or after a fixed count.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(usize),
}

impl Stop {
    fn allows(&self, started: Instant, issued: usize) -> bool {
        match *self {
            Stop::After(d) => started.elapsed() < d,
            Stop::Ops(n) => issued < n,
        }
    }
}

pub struct LoopResult {
    pub samples: Vec<Sample>,
    /// From the loop's start until its last op completed.
    pub wall: Duration,
    pub tracer: Tracer,
}

/// Runs job ops `first, first+1, ...` from `clients` threads until `stop`.
/// `body(i)` builds op `i`'s spec (outside the op's clock); ops for which
/// `traced(i)` holds record client spans under an `op` span. Client `c`
/// draws its poll phases from `mix(phase_seed, c)`.
#[allow(clippy::too_many_arguments)]
pub fn job_loop(
    daemon: &Daemon,
    clients: usize,
    stop: Stop,
    first: usize,
    t0: Instant,
    phase_seed: u64,
    traced: &(dyn Fn(usize) -> bool + Sync),
    body: &(dyn Fn(usize) -> String + Sync),
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = daemon.client(c as u64 + 1);
                    let mut phase = PollPhase::new(mix(phase_seed, c as u64));
                    let mut tracer = Tracer::new(t0);
                    let mut samples = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if !stop.allows(started, k) {
                            break;
                        }
                        let i = first + k;
                        let spec = body(i);
                        let is_traced = traced(i);
                        let wait = phase.draw();
                        let begin = Instant::now();
                        let (outcome, polls, queue_wait) = if is_traced {
                            let span = tracer.begin("op", None, i as u64);
                            let run = run_job(
                                &mut client,
                                &spec,
                                wait,
                                true,
                                &mut OpTrace::under(&mut tracer, span, i as u64),
                            );
                            tracer.end(span);
                            run
                        } else {
                            run_job(&mut client, &spec, wait, true, &mut OpTrace::off())
                        };
                        samples.push(Sample {
                            op: i,
                            latency: begin.elapsed(),
                            outcome,
                            polls,
                            queue_wait,
                            traced: is_traced,
                            batch: None,
                        });
                    }
                    (samples, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut tracer = Tracer::new(t0);
    let mut samples = Vec::new();
    for (s, t) in per_client {
        samples.extend(s);
        tracer.absorb(t);
    }
    samples.sort_by_key(|s| s.op);
    LoopResult {
        samples,
        wall,
        tracer,
    }
}

/// Sends batches from `stream` into the held session `session`, one at a
/// time from one client, until `stop`.
pub fn churn_loop(
    daemon: &Daemon,
    session: u64,
    stream: &mut dyn Iterator<Item = String>,
    stop: Stop,
    t0: Instant,
    traced: &dyn Fn(usize) -> bool,
) -> LoopResult {
    let mut client = daemon.client(1);
    let mut tracer = Tracer::new(t0);
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while stop.allows(started, i) {
        let batch = stream.next().expect("batch streams are endless");
        let is_traced = traced(i);
        let begin = Instant::now();
        let outcome = if is_traced {
            let span = tracer.begin("op", None, i as u64);
            let out = run_batch(
                &mut client,
                session,
                &batch,
                &mut OpTrace::under(&mut tracer, span, i as u64),
            );
            tracer.end(span);
            out
        } else {
            run_batch(&mut client, session, &batch, &mut OpTrace::off())
        };
        samples.push(Sample {
            op: i,
            latency: begin.elapsed(),
            outcome,
            polls: 0,
            queue_wait: None,
            traced: is_traced,
            batch: Some(batch),
        });
        i += 1;
    }
    LoopResult {
        samples,
        wall: started.elapsed(),
        tracer,
    }
}
