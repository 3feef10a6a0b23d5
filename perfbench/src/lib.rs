//! `perfbench`: the end-to-end benchmark for `lopacityd`.
//!
//! One invocation runs one workload against a freshly spawned release
//! daemon, driven through `lopacity-client` from this process:
//!
//! * [`gen`] turns the `--seed` into the workload's inputs (pure);
//! * [`daemon`] spawns, probes and stops `lopacityd` processes;
//! * [`load`] runs the closed loop and records every op;
//! * [`verify`] re-certifies every output and replays churn in-process;
//! * [`trace`] holds the span recorder and the in-process layer pass;
//! * [`run`] strings the phases together and computes the metrics;
//! * [`report`] prints them (human lines, then one JSON line).
//!
//! See `perfbench/README.md` for the metric, layer and workload tables.

pub mod daemon;
pub mod gen;
pub mod layers;
pub mod load;
pub mod report;
pub mod run;
pub mod trace;
pub mod verify;

/// The three workloads; see the README for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// θ-sweep jobs over one uploaded Gnutella stand-in (cache hits).
    Sweep,
    /// Cache-cold uploads of distinct G(n, 3n) graphs, zero greedy steps.
    Fresh,
    /// Event batches into one held churn session.
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "sweep" => Ok(Workload::Sweep),
            "fresh" => Ok(Workload::Fresh),
            "churn" => Ok(Workload::Churn),
            other => Err(format!("unknown workload {other:?} (sweep, fresh, churn)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Fresh => "fresh",
            Workload::Churn => "churn",
        }
    }
}

/// Input sizes and run shape. [`Scale::full`] is what `BENCHMARK.json`
/// measures; [`Scale::smoke`] is the reduced version the smoke test runs.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// Gnutella stand-in size and L for `sweep`.
    pub sweep_n: usize,
    pub sweep_l: u8,
    /// θ rungs per RNG seed: rung `k` takes exactly `k` greedy steps.
    pub sweep_rungs: usize,
    /// RNG seeds the sweep ladder cycles through.
    pub sweep_rng_seeds: u64,
    /// G(n, 3n) size and L for `fresh`.
    pub fresh_n: usize,
    pub fresh_l: u8,
    /// G(n, m) size, L and θ for `churn`.
    pub churn_n: usize,
    pub churn_m: usize,
    pub churn_l: u8,
    pub churn_theta: f64,
    /// Events per batch and the share of them that are deletes.
    pub churn_batch: usize,
    pub churn_delete_share: f64,
    /// Accepted range of greedy steps for the session's set-up repair.
    pub churn_setup_steps: (usize, usize),
    /// Jobs the recovery probe runs before its restart (`fresh`; `sweep`
    /// runs `sweep_probe_cycles` ladder cycles).
    pub probe_ops: usize,
    pub sweep_probe_cycles: usize,
    /// Delete-only batches the churn recovery probe sends (deletes never
    /// break certification, so the replayed journal holds no repair).
    pub probe_batches: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The churn repair share (violated ÷ batches) must sit inside this
    /// band; its top stays under 0.1 so the p90 is an ordinary batch.
    pub repair_band: (f64, f64),
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            name: "full",
            sweep_n: 1000,
            sweep_l: 2,
            sweep_rungs: 3,
            sweep_rng_seeds: 2,
            fresh_n: 5000,
            fresh_l: 2,
            churn_n: 1000,
            churn_m: 2000,
            churn_l: 2,
            churn_theta: 0.1,
            churn_batch: 40,
            churn_delete_share: 0.5,
            churn_setup_steps: (4, 4),
            probe_ops: 16,
            sweep_probe_cycles: 4,
            probe_batches: 8,
            setup_reps: 9,
            repair_band: (0.0, 0.09),
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            sweep_n: 150,
            sweep_l: 3,
            sweep_rungs: 2,
            sweep_rng_seeds: 2,
            fresh_n: 400,
            fresh_l: 2,
            churn_n: 300,
            churn_m: 600,
            churn_l: 2,
            churn_theta: 0.2,
            churn_batch: 10,
            churn_delete_share: 0.5,
            churn_setup_steps: (0, 12),
            probe_ops: 4,
            sweep_probe_cycles: 1,
            probe_batches: 4,
            setup_reps: 2,
            repair_band: (0.0, 1.0),
        }
    }

    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "full" => Ok(Scale::full()),
            "smoke" => Ok(Scale::smoke()),
            other => Err(format!("unknown scale {other:?} (full, smoke)")),
        }
    }
}

/// FNV-1a, 64-bit: the output digest and the seed mixer's finalizer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Derives an independent sub-seed (splitmix64 of `seed` and `salt`).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ salt
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
