//! One benchmark run: set-up, timed closed loop, recovery probe,
//! verification, and (when traced) the in-process layer pass.
//!
//! Phases, in order:
//! 1. **Set-up**, `setup_reps` times: spawn `lopacityd` over an empty
//!    state dir, wait for `/healthz`, run the workload's warm-up (the
//!    first job on `sweep`, the certified session on `churn`). The last
//!    daemon is kept; `setup_s` is the median.
//! 2. **Recovery probe**, on the first set-up's daemon once its clock has
//!    stopped: one client runs a fixed op set, `VmHWM` is read
//!    (`peak_rss_mb`), the daemon is drained with SIGTERM, and respawns
//!    over the same state dir are timed until each answers its first query
//!    (`recovery_s`). A fixed journal keeps both metrics independent of how
//!    many ops the timed phase got through. The probe's outputs give the
//!    digest.
//! 3. **Timed phase**: the closed loop for `--seconds`; then `/metrics`
//!    is scraped and the daemon is drained.
//! 4. **Verification** of every output (see [`crate::verify`]).
//! 5. **Traced runs only**: health-check round trips on the kept-alive
//!    connection, then the in-process pass ([`crate::layers`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::daemon::{spawn_healthy, Daemon};
use crate::gen::{self, POLL_MS};
use crate::layers::{self, RunPlan, Values};
use crate::load::{self, job_loop, run_job, LoopResult, OpTrace, Output, PollPhase, Sample, Stop};
use crate::report::{mean, median, percentile, Metric};
use crate::trace::Tracer;
use crate::verify::{self, status_without_id, Expect};
use crate::{mix, Fnv, Scale, Workload};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// The `lopacityd` binary under test.
    pub daemon: PathBuf,
    /// Scratch directory for state dirs and journals (removed at the end).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
    /// Repository root, for the source digest.
    pub root: PathBuf,
    pub rustc: String,
}

/// What the run prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Health-check round trips timed for `http.rtt_ms`.
const RTT_PINGS: usize = 40;
/// Job ops replayed in-process on `fresh` (each op is a distinct graph).
const FRESH_PASS_OPS: usize = 4;
/// Batches the churn-layer probe sends on the job workloads.
const CHURN_PROBE_BATCHES: usize = 8;

/// Everything measured, before it becomes metrics.
struct Measured {
    timed: LoopResult,
    setup_s: Vec<f64>,
    /// Set-up op samples (warm-up job or churn session job).
    setup_ops: Vec<Sample>,
    recovery_s: Vec<f64>,
    peak_rss_mb: f64,
    cpu_cores_busy: f64,
    scraped: HashMap<String, u64>,
    /// Per timed sample: `Ok(edits)` or why it failed.
    verified: Vec<Result<usize, String>>,
    /// Failures outside the timed ops (set-up, probe, recovery, replay).
    problems: Vec<String>,
    digest: u64,
    /// Client-side spans outside ops (health checks, result fetches).
    extra: Tracer,
    /// `churn.repair_share` on the churn workload: (violated, batches).
    repairs: Option<(usize, usize)>,
    /// Churn replay totals: (events, changed cells).
    churn_cells: Option<(usize, usize)>,
    /// Share of the machine's CPU time stolen by the hypervisor during the
    /// timed phase, when `/proc/stat` reports it.
    steal: Option<f64>,
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    let clients = match o.workload {
        Workload::Churn => 1,
        _ => nproc.min(2),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} scale={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace as u8,
        o.scale.name
    );
    println!(
        "env nproc={nproc} workers={workers} clients={clients} connections={clients} poll_ms={POLL_MS} \
         rustc=\"{}\" commit={} source_digest={:016x}",
        o.rustc,
        commit(&o.root),
        source_digest(&o.root)
    );
    let _ = std::fs::remove_dir_all(&o.work);
    std::fs::create_dir_all(&o.work).map_err(|e| format!("create {}: {e}", o.work.display()))?;
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0);
    let mut values = Values::default();
    let measured = match o.workload {
        Workload::Sweep | Workload::Fresh => {
            jobs(o, workers, clients, t0, &mut tracer, &mut values)?
        }
        Workload::Churn => churn(o, workers, t0, &mut tracer, &mut values)?,
    };
    let outcome = finish(o, nproc, workers, clients, measured, tracer, values);
    let _ = std::fs::remove_dir_all(&o.work);
    Ok(outcome)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What the recovery probe measured.
struct Probe {
    samples: Vec<Sample>,
    peak_rss_mb: f64,
    recovery_s: Vec<f64>,
    problems: Vec<String>,
    dir: PathBuf,
}

/// The recovery probe: takes the first set-up's daemon, its state dir and
/// its warm-up samples.
type ProbeFn<'a> = dyn FnMut(Daemon, &Path, &[Sample]) -> Result<Probe, String> + 'a;

/// Runs the set-up `setup_reps` times; returns the kept (last) daemon,
/// the set-up times, the last warm-up's samples, and the recovery probe,
/// which runs on the first set-up's daemon after its clock stopped.
fn setup(
    o: &Opts,
    workers: usize,
    warm_up: &mut dyn FnMut(&Daemon, bool, Duration) -> Vec<Sample>,
    probe: &mut ProbeFn<'_>,
) -> Result<(Daemon, Vec<f64>, Vec<Sample>, Probe), String> {
    let mut phase = PollPhase::new(mix(o.seed, 0x5e70_0000));
    if o.scale.setup_reps < 2 {
        return Err("setup_reps must be at least 2".into());
    }
    let mut times = Vec::new();
    let mut probed = None;
    for r in 0..o.scale.setup_reps {
        let dir = o.work.join(format!("setup-{r}"));
        let start = Instant::now();
        let daemon = spawn_healthy(&o.daemon, workers, &dir)?;
        let last = r + 1 == o.scale.setup_reps;
        let samples = warm_up(&daemon, last, phase.draw());
        times.push(secs(start.elapsed()));
        if let Some(Err(e)) = samples.iter().map(|s| &s.outcome).find(|r| r.is_err()) {
            return Err(format!("set-up warm-up failed: {e}"));
        }
        if r == 0 {
            probed = Some(probe(daemon, &dir, &samples)?);
        } else if last {
            return Ok((
                daemon,
                times,
                samples,
                probed.expect("probe ran on the first set-up"),
            ));
        } else {
            daemon.terminate()?;
        }
    }
    unreachable!("the last set-up returns")
}

/// Restarts timed per recovery measurement; `recovery_s` is their median.
/// A restart's own CPU time swings by half between back-to-back respawns
/// over the same journal on a shared machine, so the fastest of a few
/// depends on one lucky respawn; the median of many does not.
const RECOVERY_REPS: usize = 21;

/// Runs `restart` (respawn over the probe's state dir, first query,
/// drain) `RECOVERY_REPS` times and returns the times it reports.
fn recover(mut restart: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    (0..RECOVERY_REPS).map(|_| restart()).collect()
}

/// `(total, steal)` jiffies of the machine, from the first `/proc/stat` line.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Steal share between two `cpu_jiffies` readings.
fn steal_between(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

fn scrape(daemon: &Daemon) -> Result<HashMap<String, u64>, String> {
    let pairs = daemon
        .client(90)
        .metrics()
        .map_err(|e| format!("/metrics: {e}"))?;
    Ok(pairs.into_iter().collect())
}

/// `RTT_PINGS` health checks on one kept-alive connection.
fn ping(daemon: &Daemon, tracer: &mut Tracer) -> Result<(), String> {
    let mut client = daemon.client(91);
    client
        .get("/healthz")
        .map_err(|e| format!("healthz: {e}"))?;
    for _ in 0..RTT_PINGS {
        tracer
            .time("http.rtt", None, u64::MAX, || client.get("/healthz"))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn sample_of(
    op: usize,
    begin: Instant,
    run: (Result<Output, String>, u32, Option<Duration>),
) -> Sample {
    Sample {
        op,
        latency: begin.elapsed(),
        outcome: run.0,
        polls: run.1,
        queue_wait: run.2,
        traced: false,
        batch: None,
    }
}

/// One job op outside the closed loop, traced when `tracer` is given.
fn single_job(
    daemon: &Daemon,
    op: usize,
    body: &str,
    fetch: bool,
    first_wait: Duration,
    tracer: Option<&mut Tracer>,
) -> Sample {
    let mut client = daemon.client(0);
    let begin = Instant::now();
    let run = match tracer {
        Some(t) => {
            let span = t.begin("op", None, op as u64);
            let run = run_job(
                &mut client,
                body,
                first_wait,
                fetch,
                &mut OpTrace::under(t, span, op as u64),
            );
            t.end(span);
            run
        }
        None => run_job(&mut client, body, first_wait, fetch, &mut OpTrace::off()),
    };
    sample_of(op, begin, run)
}

fn job_key(out: &Output) -> String {
    match out {
        Output::Job { status, graph, .. } => format!("{}{graph}", status_without_id(status)),
        Output::Batch { report } => report.clone(),
    }
}

/// `sweep` and `fresh`.
fn jobs(
    o: &Opts,
    workers: usize,
    clients: usize,
    t0: Instant,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Measured, String> {
    let sweep = (o.workload == Workload::Sweep).then(|| gen::sweep(o.seed, &o.scale));
    let fresh = gen::fresh(o.seed, &o.scale);
    let body = |i: usize| match &sweep {
        Some(s) => s.body(i),
        None => fresh.body(i),
    };
    let original = |i: usize| match &sweep {
        Some(s) => s.graph.clone(),
        None => gen::spec_graph(&fresh.body(i)),
    };
    let expect = |i: usize| match &sweep {
        Some(s) => {
            let op = s.op(i);
            Expect {
                l: s.l,
                theta: op.theta,
                steps: Some(op.steps),
                removed: Some(op.removed),
            }
        }
        None => Expect {
            l: fresh.l,
            theta: gen::FRESH_THETA,
            steps: Some(0),
            removed: Some(0),
        },
    };
    match &sweep {
        Some(s) => println!(
            "inputs sweep: gnutella n={} m={} L={} method=rem ops/cycle={} (θ, rng seed, steps): {} \
             [plateaued draws skipped: {}]",
            s.graph.num_vertices(),
            s.graph.num_edges(),
            s.l,
            s.ops.len(),
            s.ops
                .iter()
                .map(|op| format!("({:.4}, {}, {})", op.theta, op.rng_seed, op.steps))
                .collect::<Vec<_>>()
                .join(" "),
            s.draws
        ),
        None => println!(
            "inputs fresh: G(n={}, m={}) per op, L={} θ={} method=rem",
            fresh.n,
            3 * fresh.n,
            fresh.l,
            gen::FRESH_THETA
        ),
    }
    // Op `i` and op `i + period` have the same input.
    let period = sweep.as_ref().map_or(usize::MAX, |s| s.ops.len());
    let probe_ops = sweep.as_ref().map_or(o.scale.probe_ops, |s| {
        o.scale.sweep_probe_cycles * s.ops.len()
    });

    // 1. Set-up (on sweep the first job pays the one APSP build), with
    // the recovery probe on the first set-up's daemon.
    let mut warm_up = |d: &Daemon, last: bool, wait: Duration| match &sweep {
        Some(_) => vec![single_job(
            d,
            0,
            &body(0),
            true,
            wait,
            (last && o.trace).then_some(&mut *tracer),
        )],
        None => Vec::new(),
    };
    let mut probe = |d: Daemon, dir: &Path, _: &[Sample]| -> Result<Probe, String> {
        // One client, so the probe's allocation sequence (its VmHWM) does
        // not depend on how two clients' jobs interleave.
        let run = job_loop(
            &d,
            1,
            Stop::Ops(probe_ops),
            0,
            t0,
            mix(o.seed, 0x9b0b),
            &|_| false,
            &body,
        );
        let peak_rss_mb = d.peak_rss_mib()?;
        d.terminate()?;
        let (last, status) = run
            .samples
            .iter()
            .filter_map(|s| match &s.outcome {
                Ok(Output::Job { id, status, .. }) => Some((*id, status.clone())),
                _ => None,
            })
            .max_by_key(|(id, _)| *id)
            .ok_or("the recovery probe finished no job")?;
        let mut problems = Vec::new();
        let recovery_s = recover(|| {
            let start = Instant::now();
            let d = Daemon::spawn(&o.daemon, workers, dir)?;
            let answer = d
                .client(0)
                .get(&format!("/jobs/{last}/result"))
                .map_err(|e| format!("recovery query: {e}"))?;
            let took = secs(start.elapsed());
            d.terminate()?;
            if String::from_utf8_lossy(&answer.body) != status_without_id(&status) {
                problems.push(format!("job {last} answered differently after the restart"));
            }
            Ok(took)
        })?;
        Ok(Probe {
            samples: run.samples,
            peak_rss_mb,
            recovery_s,
            problems,
            dir: dir.to_path_buf(),
        })
    };
    let (daemon, setup_s, setup_ops, probe) = setup(o, workers, &mut warm_up, &mut probe)?;

    // 2. Timed phase.
    let first = setup_ops.len();
    let traced = |i: usize| o.trace && (i / period.min(o.scale.probe_ops)).is_multiple_of(2);
    let (cpu0, jiffies0) = (daemon.cpu_seconds()?, cpu_jiffies());
    let seconds = Duration::from_secs_f64(o.seconds);
    let timed = job_loop(
        &daemon,
        clients,
        Stop::After(seconds),
        first,
        t0,
        mix(o.seed, 0x7173),
        &traced,
        &body,
    );
    let cpu_cores_busy = (daemon.cpu_seconds()? - cpu0) / secs(timed.wall);
    let steal = steal_between(jiffies0, cpu_jiffies());
    let scraped = scrape(&daemon)?;
    let mut extra = Tracer::new(t0);
    if o.trace {
        ping(&daemon, &mut extra)?;
    }
    daemon.terminate()?;

    // Digest over the probe's fixed op set; every other output of the
    // same op input must match it byte for byte.
    let mut problems = probe.problems;
    let mut digest = Fnv::default();
    digest.write(o.workload.name().as_bytes());
    let mut reference: HashMap<usize, String> = HashMap::new();
    for s in &probe.samples {
        match &s.outcome {
            Ok(out) => {
                let key = job_key(out);
                digest.write(&(s.op as u64).to_le_bytes());
                digest.write(key.as_bytes());
                match reference.get(&(s.op % period)) {
                    Some(first) if *first != key => problems.push(format!(
                        "probe op {} differs from an earlier op with its input",
                        s.op
                    )),
                    Some(_) => {}
                    None => {
                        reference.insert(s.op % period, key);
                    }
                }
            }
            Err(e) => problems.push(format!("probe op {}: {e}", s.op)),
        }
    }

    // 4. Verification.
    let threads = workers.max(1);
    let mut verified = verify::check_jobs(&timed.samples, threads, &original, &expect);
    for (v, s) in verified.iter_mut().zip(&timed.samples) {
        if let (Ok(_), Ok(out), Some(want)) = (&*v, &s.outcome, reference.get(&(s.op % period))) {
            if &job_key(out) != want {
                *v = Err(format!(
                    "op {} differs from the probe's output for the same input",
                    s.op
                ));
            }
        }
    }
    let outside: Vec<Sample> = setup_ops.iter().chain(&probe.samples).cloned().collect();
    for (s, r) in outside
        .iter()
        .zip(verify::check_jobs(&outside, threads, &original, &expect))
    {
        if let Err(e) = r {
            problems.push(format!("op {} outside the timed phase: {e}", s.op));
        }
    }

    // 5. In-process layer pass.
    if o.trace {
        let (journal, path) = layers::open_journal(&o.work.join("inproc-journal"));
        match &sweep {
            Some(s) => {
                for i in 0..s.ops.len() {
                    let plan = RunPlan {
                        theta: None,
                        max_steps: None,
                    };
                    layers::job_pass(tracer, values, &journal, &path, i as u64, &s.body(i), plan);
                }
            }
            None => {
                for i in 0..FRESH_PASS_OPS {
                    // Fresh jobs take no greedy step; op 0 also times one
                    // budgeted step at θ = 0 on its graph.
                    let plan = match i {
                        0 => RunPlan {
                            theta: Some(0.0),
                            max_steps: Some(1),
                        },
                        _ => RunPlan {
                            theta: None,
                            max_steps: None,
                        },
                    };
                    layers::job_pass(
                        tracer,
                        values,
                        &journal,
                        &path,
                        i as u64,
                        &fresh.body(i),
                        plan,
                    );
                }
            }
        }
        layers::churn_probe(tracer, values, &body(0), CHURN_PROBE_BATCHES, o.seed);
        layers::time_replay(tracer, &probe.dir);
    }

    Ok(Measured {
        timed,
        setup_s,
        setup_ops,
        recovery_s: probe.recovery_s,
        peak_rss_mb: probe.peak_rss_mb,
        cpu_cores_busy,
        scraped,
        verified,
        problems,
        digest: digest.finish(),
        extra,
        repairs: None,
        churn_cells: None,
        steal,
    })
}

/// The value of a report field as a float.
fn report_f64(report: &str, key: &str) -> Option<f64> {
    verify::field(report, key).and_then(|v| v.parse().ok())
}

fn session_of(s: &Sample) -> Result<(u64, String), String> {
    match &s.outcome {
        Ok(Output::Job { id, status, .. }) => Ok((*id, status.clone())),
        Ok(_) => Err("no churn session".to_string()),
        Err(e) => Err(format!("churn session: {e}")),
    }
}

/// `churn`.
fn churn(
    o: &Opts,
    workers: usize,
    t0: Instant,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Measured, String> {
    let inputs = gen::churn(o.seed, &o.scale);
    println!(
        "inputs churn: G(n={}, m={}) L={} θ={} batch={} events delete_share={} method=rem \
         set-up repair steps={} [draws skipped: {}]",
        inputs.graph.num_vertices(),
        inputs.graph.num_edges(),
        inputs.l,
        inputs.theta,
        inputs.batch,
        inputs.delete_share,
        inputs.setup_steps,
        inputs.draws
    );

    // 1. Set-up: the certified session is the warm-up. The recovery probe
    // sends a fixed count of delete-only batches into the first set-up's
    // session.
    let mut warm_up = |d: &Daemon, last: bool, wait: Duration| {
        vec![single_job(
            d,
            0,
            &inputs.spec,
            false,
            wait,
            (last && o.trace).then_some(&mut *tracer),
        )]
    };
    let mut probe = |d: Daemon, dir: &Path, warm: &[Sample]| -> Result<Probe, String> {
        let (session, _) = session_of(&warm[0])?;
        let stop = Stop::Ops(o.scale.probe_batches);
        let run = load::churn_loop(&d, session, &mut inputs.probe_stream(), stop, t0, &|_| {
            false
        });
        let peak_rss_mb = d.peak_rss_mib()?;
        d.terminate()?;
        let last = match run.samples.last().map(|s| &s.outcome) {
            Some(Ok(Output::Batch { report })) => report.clone(),
            _ => return Err("the recovery probe's last batch failed".into()),
        };
        let mut problems = Vec::new();
        let want = report_f64(&last, "repair_max_lo").or(report_f64(&last, "max_lo"));
        let recovery_s = recover(|| {
            let start = Instant::now();
            let d = Daemon::spawn(&o.daemon, workers, dir)?;
            let answer = load::run_batch(&mut d.client(0), session, "", &mut OpTrace::off());
            let took = secs(start.elapsed());
            d.terminate()?;
            match answer {
                Ok(Output::Batch { report }) if report_f64(&report, "max_lo") == want => {}
                other => problems.push(format!(
                    "after the restart the session answered {other:?}, want max_lo {want:?}"
                )),
            }
            Ok(took)
        })?;
        let mut samples = warm.to_vec();
        samples.extend(run.samples);
        Ok(Probe {
            samples,
            peak_rss_mb,
            recovery_s,
            problems,
            dir: dir.to_path_buf(),
        })
    };
    let (daemon, setup_s, setup_ops, probe) = setup(o, workers, &mut warm_up, &mut probe)?;
    let (session, session_status) = session_of(&setup_ops[0])?;

    // 2. Timed phase.
    let traced = |i: usize| o.trace && i.is_multiple_of(2);
    let (cpu0, jiffies0) = (daemon.cpu_seconds()?, cpu_jiffies());
    let seconds = Duration::from_secs_f64(o.seconds);
    let timed = load::churn_loop(
        &daemon,
        session,
        &mut inputs.stream(),
        Stop::After(seconds),
        t0,
        &traced,
    );
    let cpu_cores_busy = (daemon.cpu_seconds()? - cpu0) / secs(timed.wall);
    let steal = steal_between(jiffies0, cpu_jiffies());
    let scraped = scrape(&daemon)?;
    let mut extra = Tracer::new(t0);
    if o.trace {
        ping(&daemon, &mut extra)?;
        let mut client = daemon.client(92);
        for _ in 0..10 {
            extra
                .time("http.fetch", None, u64::MAX, || {
                    client.get(&format!("/jobs/{session}/result"))
                })
                .map_err(|e| e.to_string())?;
        }
    }
    daemon.terminate()?;

    // Digest over the probe: the session set-up and its fixed batches.
    let mut problems = probe.problems;
    let (_, probe_status) = session_of(&probe.samples[0])?;
    if status_without_id(&probe_status) != status_without_id(&session_status) {
        problems.push("the probe's session set-up differs from the timed one".into());
    }
    let mut digest = Fnv::default();
    digest.write(o.workload.name().as_bytes());
    digest.write(status_without_id(&probe_status).as_bytes());
    for (k, s) in probe.samples[1..].iter().enumerate() {
        match &s.outcome {
            Ok(out) => digest.write(job_key(out).as_bytes()),
            Err(e) => problems.push(format!("probe batch {k}: {e}")),
        }
    }

    // 4. Verification: in-process replay (traced, when tracing, as the
    // churn layers' spans).
    let replay = verify::replay_churn(
        &inputs,
        &session_status,
        &timed.samples,
        o.trace.then_some(&mut *tracer),
    );
    problems.extend(replay.setup.clone());
    if let Err(e) = &replay.certify {
        problems.push(format!("replayed session: {e}"));
    }

    // 5. In-process layer pass over the session spec and the batches.
    if o.trace {
        let (journal, path) = layers::open_journal(&o.work.join("inproc-journal"));
        let plan = RunPlan {
            theta: None,
            max_steps: Some(2),
        };
        layers::job_pass(tracer, values, &journal, &path, 0, &inputs.spec, plan);
        for s in &timed.samples {
            if let Some(batch) = &s.batch {
                layers::append_batch(tracer, values, &journal, &path, s.op as u64, batch);
            }
        }
        layers::time_replay(tracer, &probe.dir);
    }

    Ok(Measured {
        verified: replay.results,
        repairs: Some((replay.violated, timed.samples.len())),
        churn_cells: Some((replay.events, replay.changed_cells)),
        timed,
        setup_s,
        setup_ops,
        recovery_s: probe.recovery_s,
        peak_rss_mb: probe.peak_rss_mb,
        cpu_cores_busy,
        scraped,
        problems,
        digest: digest.finish(),
        extra,
        steal,
    })
}

/// Computes the metrics, runs the self-checks, prints everything but the
/// JSON line.
fn finish(
    o: &Opts,
    nproc: usize,
    workers: usize,
    clients: usize,
    m: Measured,
    mut tracer: Tracer,
    values: Values,
) -> Outcome {
    let samples = &m.timed.samples;
    let attempted = samples.len();
    let failures: Vec<&String> = m.verified.iter().filter_map(|r| r.as_ref().err()).collect();
    let failed = failures.len();
    let completed = attempted - failed;
    let lat_ms = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let all = lat_ms(&|_| true);
    let (p50, (p90, beyond)) = (
        median(&all).unwrap_or(0.0),
        percentile(&all, 90.0).unwrap_or((0.0, 0)),
    );
    let edits: f64 = m
        .verified
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|&e| e as f64)
        .sum();
    let per = |x: f64, base: usize| if base == 0 { 0.0 } else { x / base as f64 };
    let op_name = if o.workload == Workload::Churn {
        "batches"
    } else {
        "jobs"
    };

    let end_to_end = vec![
        Metric::new(
            "latency_p50_ms",
            p50,
            "ms",
            format!("(n={attempted} {op_name})"),
        ),
        Metric::new(
            "latency_p90_ms",
            p90,
            "ms",
            match beyond {
                0..=9 => {
                    format!("(n={attempted}, only {beyond} beyond: too few samples for a p90)")
                }
                _ => format!("(n={attempted}, {beyond} beyond)"),
            },
        ),
        Metric::new(
            "ops_per_s",
            completed as f64 / secs(m.timed.wall),
            "ops/s",
            format!(
                "({completed} ops in {:.3} s, closed loop, {clients} client(s))",
                secs(m.timed.wall)
            ),
        ),
        Metric::new(
            "setup_s",
            median(&m.setup_s).unwrap_or(0.0),
            "s",
            format!("(median of {})", listing(&m.setup_s)),
        ),
        Metric::new(
            "recovery_s",
            median(&m.recovery_s).unwrap_or(0.0),
            "s",
            format!(
                "(median of {}; probe journal of {})",
                listing(&m.recovery_s),
                match o.workload {
                    Workload::Sweep =>
                        format!("{} ladder cycles of jobs", o.scale.sweep_probe_cycles),
                    Workload::Fresh => format!("{} jobs", o.scale.probe_ops),
                    Workload::Churn => format!(
                        "a session and {} delete-only batches",
                        o.scale.probe_batches
                    ),
                }
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            m.peak_rss_mb,
            "MiB",
            "(VmHWM of the probe daemon)",
        ),
        Metric::new(
            "edits_per_op",
            per(edits, completed),
            "edits/op",
            format!("({edits} edits / {completed} ops)"),
        ),
        Metric::new(
            "failed_frac",
            per(failed as f64, attempted),
            "ratio",
            format!("({failed} / {attempted} attempted)"),
        ),
    ];
    for metric in &end_to_end {
        println!("{}", metric.line());
    }
    if let Some(steal) = m.steal {
        println!(
            "env cpu_steal_frac={steal:.4} (machine CPU time taken by the hypervisor during the \
             timed phase; timings from a run with a high share are not comparable)"
        );
    }

    // Self-checks.
    let mut checks: Vec<(String, bool)> = Vec::new();
    let counter = |name: &str| {
        m.scraped
            .get(&format!("lopacityd_{name}"))
            .copied()
            .unwrap_or(0)
    };
    let (hits, builds) = (counter("cache_hits"), counter("cache_builds"));
    match o.workload {
        Workload::Sweep => checks.push((
            format!("sweep cache_hit_ratio = (ops-1)/ops: hits {hits} builds {builds} over {} jobs", attempted + 1),
            hits == attempted as u64 && builds == 1,
        )),
        Workload::Fresh => checks.push((
            format!("fresh cache_builds = ops and trials_total = 0: builds {builds} ops {attempted} trials {}", counter("trials_total")),
            builds == attempted as u64 && counter("trials_total") == 0,
        )),
        Workload::Churn => {
            let (violated, batches) = m.repairs.unwrap_or((0, 0));
            let share = per(violated as f64, batches);
            let (lo, hi) = o.scale.repair_band;
            checks.push((
                format!("churn repair_share {share:.4} ({violated}/{batches}) in [{lo}, {hi}]"),
                (lo..=hi).contains(&share),
            ));
        }
    }
    checks.push((
        format!("clients {clients}, connections {clients}, workers {workers} <= nproc {nproc}"),
        clients <= nproc && workers <= nproc,
    ));
    checks.push((
        format!("outputs verified: {failed} of {attempted} ops failed"),
        failed == 0,
    ));
    for e in failures.iter().take(5) {
        println!("fail {e}");
    }
    checks.push((
        format!(
            "set-up, probe and recovery: {} problem(s)",
            m.problems.len()
        ),
        m.problems.is_empty(),
    ));
    for p in m.problems.iter().take(5) {
        println!("fail {p}");
    }
    for (what, ok) in &checks {
        println!("check {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("digest {} {:016x}", o.workload.name(), m.digest);
    let correct = checks.iter().all(|(_, ok)| *ok);

    let metrics = if o.trace {
        tracer.absorb(m.timed.tracer);
        tracer.absorb(m.extra);
        let setup_traced = m.setup_ops;
        per_layer(
            o,
            &tracer,
            &values,
            samples,
            &setup_traced,
            &m.scraped,
            m.cpu_cores_busy,
            m.repairs,
            m.churn_cells,
            &m.recovery_s,
            p50,
            per(edits, completed),
        )
    } else {
        // Printed above, not declared in `BENCHMARK.json` (see the README).
        end_to_end
            .into_iter()
            .filter(|x| !matches!(x.name, "edits_per_op" | "failed_frac" | "recovery_s"))
            .collect()
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// `n: [a, b, ...]` with four decimals.
fn listing(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("{}: [{}]", values.len(), shown.join(", "))
}

fn median_of(tracer: &Tracer, name: &str, scale: f64) -> (f64, usize) {
    let d = tracer.durations_ms(name);
    (median(&d).unwrap_or(0.0) * scale, d.len())
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    o: &Opts,
    tracer: &Tracer,
    values: &Values,
    samples: &[Sample],
    setup_ops: &[Sample],
    scraped: &HashMap<String, u64>,
    cpu_cores_busy: f64,
    repairs: Option<(usize, usize)>,
    churn_cells: Option<(usize, usize)>,
    restarts: &[f64],
    untraced_all_p50: f64,
    edits_per_op: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut span = |name: &'static str, span: &str, unit: &'static str, scale: f64| {
        let (v, n) = median_of(tracer, span, scale);
        out.push(Metric::new(
            name,
            v,
            unit,
            format!("(median of {n} `{span}` spans)"),
        ));
    };
    span("http.rtt_ms", "http.rtt", "ms", 1.0);
    span("http.submit_ms", "http.submit", "ms", 1.0);
    span("http.fetch_ms", "http.fetch", "ms", 1.0);
    span("admit.parse_ms", "admit.parse", "ms", 1.0);
    span("admit.estimate_ms", "admit.estimate", "ms", 1.0);
    span("ingest.parse_ms", "ingest.parse", "ms", 1.0);
    span("ingest.hash_ms", "ingest.hash", "ms", 1.0);
    span("build.ms", "build", "ms", 1.0);
    span("cache.clone_ms", "cache.clone", "ms", 1.0);
    span("step.ms", "step", "ms", 1.0);
    span("step.ms_serial", "step.serial", "ms", 1.0);
    span("commit.apply_us", "commit.apply", "us", 1e3);
    span("forks.replay_us", "forks.replay", "us", 1e3);
    span("render.ms", "render", "ms", 1.0);
    span("churn.parse_us", "churn.parse", "us", 1e3);
    span("churn.repair_ms", "churn.repair", "ms", 1.0);
    span("journal.append_us", "journal.append", "us", 1e3);
    span("journal.replay_ms", "journal.replay", "ms", 1.0);

    let job_ops: Vec<&Sample> = if o.workload == Workload::Churn {
        setup_ops.iter().collect()
    } else {
        samples.iter().collect()
    };
    let polls: Vec<f64> = job_ops.iter().map(|s| s.polls as f64).collect();
    out.push(Metric::new(
        "http.polls_per_op",
        mean(&polls).unwrap_or(0.0),
        "count",
        format!("(mean over {} jobs)", polls.len()),
    ));
    let waits: Vec<f64> = job_ops
        .iter()
        .filter_map(|s| s.queue_wait)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    out.push(Metric::new(
        "daemon.queue_wait_ms",
        median(&waits).unwrap_or(0.0),
        "ms",
        format!(
            "(median of {}; resolution one poll round trip)",
            waits.len()
        ),
    ));

    let value =
        |name: &'static str, unit: &'static str, agg: fn(&[f64]) -> Option<f64>, what: &str| {
            let v = values.get(name);
            Metric::new(
                name,
                agg(v).unwrap_or(0.0),
                unit,
                format!("({what} of {})", v.len()),
            )
        };
    out.push(value("ingest.mb_per_s", "MB/s", median, "median"));
    out.push(value("build.store_bytes", "bytes", median, "median"));
    out.push(value("scan.trial_us", "us", median, "median per-op mean"));
    out.push(value("scan.trials_per_op", "count", mean, "mean"));
    out.push(value("forks.clones_per_op", "count", mean, "mean"));
    out.push(value("journal.bytes_per_op", "bytes", mean, "mean"));

    // Churn layers: the workload's own replay, else the churn probe.
    let (violated, batches) = repairs.unwrap_or((
        values.get("churn.violated").iter().sum::<f64>() as usize,
        values.get("churn.batches").iter().sum::<f64>() as usize,
    ));
    let (events, cells) = churn_cells.unwrap_or((
        values.get("churn.events").iter().sum::<f64>() as usize,
        values.get("churn.changed_cells").iter().sum::<f64>() as usize,
    ));
    let detect_us: f64 = tracer.durations_ms("churn.detect").iter().sum::<f64>() * 1e3;
    let per = |x: f64, base: usize| if base == 0 { 0.0 } else { x / base as f64 };
    out.push(Metric::new(
        "churn.detect_us_per_event",
        per(detect_us, events),
        "us",
        format!("({events} events)"),
    ));
    out.push(Metric::new(
        "churn.changed_cells_per_event",
        per(cells as f64, events),
        "count",
        format!("({cells} cells / {events} events)"),
    ));
    out.push(Metric::new(
        "churn.repair_share",
        per(violated as f64, batches),
        "ratio",
        format!("({violated} violated / {batches} batches)"),
    ));

    let counter = |name: &str| {
        scraped
            .get(&format!("lopacityd_{name}"))
            .copied()
            .unwrap_or(0) as f64
    };
    out.push(Metric::new(
        "daemon.restart_ms",
        median(restarts).unwrap_or(0.0) * 1e3,
        "ms",
        format!("(median of {} probe restarts, spawn to first answer)", restarts.len()),
    ));
    out.push(Metric::new(
        "daemon.cpu_cores_busy",
        cpu_cores_busy,
        "cores",
        "(daemon utime+stime / timed wall)",
    ));
    let (hits, builds) = (counter("cache_hits"), counter("cache_builds"));
    out.push(Metric::new(
        "daemon.cache_hit_ratio",
        if hits + builds > 0.0 {
            hits / (hits + builds)
        } else {
            0.0
        },
        "ratio",
        format!("({hits} hits / {} lookups)", hits + builds),
    ));

    let lat = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let (on, off) = (lat(true), lat(false));
    let (p_on, p_off) = (
        median(&on).unwrap_or(untraced_all_p50),
        median(&off).unwrap_or(untraced_all_p50),
    );
    out.push(Metric::new(
        "trace.overhead_ms",
        p_on - p_off,
        "ms",
        format!(
            "(traced p50 {p_on:.4} over {} ops - untraced p50 {p_off:.4} over {})",
            on.len(),
            off.len()
        ),
    ));
    out.push(Metric::new(
        "edits_per_op",
        edits_per_op,
        "edits/op",
        "(trajectory guard)",
    ));

    for metric in &out {
        println!("{}", metric.line());
    }
    println!("self-time by span name (count, total ms, self ms):");
    for (name, (count, total, own)) in tracer.summary() {
        println!(
            "  {name:<18} {count:>7} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    let path = o
        .trace_dir
        .join(format!("{}-{}.tsv", o.workload.name(), o.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => println!("spans {} written to {}", tracer.spans.len(), path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    out
}

/// `git rev-parse HEAD` when the tree is a git checkout.
fn commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV over the program's sources (`crates/`, the root manifest and
/// lockfile), naming the code under test where no commit id exists.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.write(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}
