//! Spawning, probing and stopping `lopacityd` processes.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lopacity_client::{Client, ClientConfig};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;
/// How long a SIGTERM drain may take before the process is killed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// `lopacityd` installs its SIGTERM handler only after it has announced
/// itself and started serving, so a SIGTERM sent right after a fast first
/// query can still meet the default action. No SIGTERM goes out sooner
/// than this after spawn.
const SIGTERM_SETTLE: Duration = Duration::from_millis(100);

/// A running daemon. Dropping it kills the process (SIGKILL) and waits,
/// so no daemon outlives the benchmark, whatever path it leaves by.
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    spawned: Instant,
    pub addr: String,
    pub pid: u32,
}

impl Daemon {
    /// Spawns `lopacityd` on a free loopback port with `workers` workers
    /// and `state_dir` as its journal directory, and returns once it has
    /// announced its address (the journal replay happens before that).
    pub fn spawn(bin: &Path, workers: usize, state_dir: &Path) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--state-dir",
            ])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        // Read up to the `state-dir` line, the last one printed before the
        // daemon installs its SIGTERM handler (see `SIGTERM_SETTLE`).
        let mut addr = None;
        loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("lopacityd exited before announcing its address".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("lopacityd listening on ") {
                        addr = Some(a.to_string());
                    }
                    if line.starts_with("state-dir ") {
                        break;
                    }
                }
            }
        }
        let addr = addr.ok_or("lopacityd announced no address")?;
        // Keep draining stdout so a late line can never block the daemon.
        let stdout = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Daemon {
            child: Some(child),
            stdout: Some(stdout),
            spawned,
            addr,
            pid,
        })
    }

    /// A client with the default retry policy and its own jitter seed.
    pub fn client(&self, seed: u64) -> Client {
        Client::new(ClientConfig {
            addr: self.addr.clone(),
            seed,
            ..ClientConfig::default()
        })
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("read /proc/{}/status: {e}", self.pid))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kib / 1024.0)
    }

    /// The daemon's CPU time so far (user + system), in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("read /proc/{}/stat: {e}", self.pid))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        let (utime, stime) = (ticks(11).ok_or("no utime")?, ticks(12).ok_or("no stime")?);
        // SAFETY: sysconf takes an integer name and touches no memory of ours.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        Ok((utime + stime) / hz)
    }

    /// Graceful stop: SIGTERM, then wait for the drain to finish.
    pub fn terminate(mut self) -> Result<ExitStatus, String> {
        let mut child = self.child.take().expect("daemon not yet stopped");
        if let Some(rest) = SIGTERM_SETTLE.checked_sub(self.spawned.elapsed()) {
            std::thread::sleep(rest);
        }
        // SAFETY: kill takes two integers and touches no memory of ours;
        // the pid is our own child, not yet reaped, so it names no other
        // process.
        unsafe {
            kill(self.pid as i32, SIGTERM);
        }
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if start.elapsed() > DRAIN_LIMIT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("lopacityd did not drain within {DRAIN_LIMIT:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
        if !status.success() {
            return Err(format!("lopacityd exited with {status} after SIGTERM"));
        }
        Ok(status)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns a daemon and waits until `GET /healthz` answers.
pub fn spawn_healthy(bin: &Path, workers: usize, state_dir: &Path) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(bin, workers, state_dir)?;
    let mut client = daemon.client(0);
    client
        .get("/healthz")
        .map_err(|e| format!("healthz: {e}"))?;
    Ok(daemon)
}
