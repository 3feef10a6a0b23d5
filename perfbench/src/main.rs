//! `perfbench` command line; normally started by `perfbench/run.sh`,
//! which builds the daemon and this binary first and passes their paths.
//!
//! ```text
//! perfbench --workload sweep|fresh|churn --seed N --seconds S --trace 0|1
//!           --daemon PATH --work DIR --trace-dir DIR --root DIR
//!           [--rustc VERSION] [--scale full|smoke]
//! ```
//!
//! Prints human-readable lines, then one JSON object as the last line.
//! Exits 1 when any output fails verification or a self-check fails.

use std::path::PathBuf;

use perfbench::run::{run, Opts};
use perfbench::{report, Scale, Workload};

fn parse() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut get: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    while let Some(key) = args.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        get.insert(name.to_string(), value);
    }
    let need = |k: &str| get.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        need(k)?
            .parse()
            .map_err(|_| format!("--{k} is not a number"))
    };
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = num("seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: Workload::parse(&need("workload")?)?,
        seed: need("seed")?
            .parse()
            .map_err(|_| "--seed is not a u64".to_string())?,
        seconds,
        trace,
        scale: Scale::parse(get.get("scale").map_or("full", String::as_str))?,
        daemon: PathBuf::from(need("daemon")?),
        work: PathBuf::from(need("work")?),
        trace_dir: PathBuf::from(need("trace-dir")?),
        root: PathBuf::from(need("root")?),
        rustc: get
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            println!(
                "{}",
                report::result_json(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(&opts.work);
            std::process::exit(1);
        }
    }
}
