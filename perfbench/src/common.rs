//! What every workload shares: the seeded generator, the expected-checksum
//! table, the per-operation counts and quality samples, and the outcome a
//! workload hands to the report.

use std::collections::BTreeMap;
use std::time::Instant;

use flashram_core::SweepPoint;
use flashram_ir::MachineProgram;
use flashram_mcu::{RunResult, SleepScenario};

/// splitmix64: the benchmark's own generator, so that the inputs depend on
/// the seed alone and not on any generator inside the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The hand-written table of each kernel's correct result.
pub struct Expected(BTreeMap<String, i32>);

impl Expected {
    pub fn load() -> Expected {
        let mut table = BTreeMap::new();
        for line in include_str!("../expected_checksums.txt").lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (Some(kernel), Some(value)) = (fields.next(), fields.next()) else {
                panic!("malformed checksum line: {line}");
            };
            let value = value.parse().expect("checksums are 32-bit integers");
            table.insert(kernel.to_string(), value);
        }
        Expected(table)
    }

    /// Check one simulated result against the table.
    pub fn check(&self, kernel: &str, what: &str, got: i32) -> Result<(), String> {
        match self.0.get(kernel) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!("{kernel}: {what} returned {got}, expected {want}")),
            None => Err(format!("{kernel}: no expected checksum")),
        }
    }
}

/// Deterministic work counts of one or more operations, per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub insts_out: u64,
    pub param_blocks: u64,
    pub model_rows: u64,
    pub model_cols: u64,
    pub solves: u64,
    pub nodes: u64,
    pub lp_pivots: u64,
    pub root_pivots: u64,
    pub warm_pivots: u64,
    pub cold_pivots: u64,
    pub cuts_added: u64,
    pub chained: u64,
    pub unproven: u64,
    pub relocated_bytes: u64,
    pub frontier_steps: u64,
    /// Cycles simulated in total, and the part of them simulated inside
    /// `mcu.run` spans.
    pub sim_cycles: u64,
    pub timed_cycles: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.insts_out += o.insts_out;
        self.param_blocks += o.param_blocks;
        self.model_rows += o.model_rows;
        self.model_cols += o.model_cols;
        self.solves += o.solves;
        self.nodes += o.nodes;
        self.lp_pivots += o.lp_pivots;
        self.root_pivots += o.root_pivots;
        self.warm_pivots += o.warm_pivots;
        self.cold_pivots += o.cold_pivots;
        self.cuts_added += o.cuts_added;
        self.chained += o.chained;
        self.unproven += o.unproven;
        self.relocated_bytes += o.relocated_bytes;
        self.frontier_steps += o.frontier_steps;
        self.sim_cycles += o.sim_cycles;
        self.timed_cycles += o.timed_cycles;
    }

    /// Count one solved placement point.
    pub fn add_point(&mut self, p: &SweepPoint) {
        self.solves += 1;
        self.nodes += p.stats.nodes_explored as u64;
        self.lp_pivots += p.stats.lp_pivots as u64;
        self.root_pivots += p.stats.root_pivots as u64;
        self.warm_pivots += p.stats.warm_pivots as u64;
        self.cold_pivots += p.stats.cold_pivots as u64;
        self.cuts_added += p.stats.cuts_added as u64;
        self.chained += u64::from(p.chained);
        self.unproven += u64::from(!p.proven);
    }
}

/// Instructions in a compiled program, terminators included.
pub fn instruction_count(program: &MachineProgram) -> u64 {
    program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64 + 1)
        .sum()
}

/// Simulated outcome of one placement against its baseline.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub energy: f64,
    pub power: f64,
    pub time: f64,
    pub model_err: f64,
    pub battery: f64,
}

impl Sample {
    /// `predicted` is the model's energy ratio for the placement.
    pub fn new(base: &RunResult, placed: &RunResult, predicted: f64, sleep_mw: f64) -> Sample {
        let energy = placed.energy_mj / base.energy_mj;
        let scenario = SleepScenario {
            period_s: placed.time_s,
            sleep_power_mw: sleep_mw,
        };
        Sample {
            energy,
            power: placed.avg_power_mw / base.avg_power_mw,
            time: placed.time_s / base.time_s,
            model_err: (predicted - energy).abs(),
            battery: scenario.battery_life_extension(
                base.energy_mj,
                base.time_s,
                placed.energy_mj,
                placed.time_s,
            ),
        }
    }
}

/// A placement made with profiled frequencies whose simulated cycles
/// exceed `X_limit` times the baseline.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kernel: &'static str,
    pub level: String,
    pub device: &'static str,
    pub x_limit: f64,
    pub ratio: f64,
}

/// A checked operation's deterministic results.
#[derive(Debug, Clone)]
pub struct OpDone {
    /// (kernel, device) row of the per-pair table.
    pub row: (&'static str, &'static str),
    /// Values every later pass of the same input must reproduce exactly.
    pub fingerprint: Vec<u64>,
    pub counts: Counts,
    pub sample: Sample,
    /// For placements made with profiled frequencies: the `X_limit` check.
    pub profiled: Option<Violation>,
}

/// Everything a workload measured, handed to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failures raised by a simulator run (their reasons start `mcu:`).
    pub run_errors: u64,
    pub failures: Vec<String>,
    /// Latency samples in milliseconds: one per input of a closed loop
    /// (its minimum over the passes, on the reference host), one per
    /// request of the open loop.
    pub latencies_ms: Vec<f64>,
    pub ops_per_s: f64,
    /// Host speed over the whole run, for the traced self times.
    pub host: HostSpeed,
    /// Quality samples of the deterministic part of the run, keyed by
    /// (kernel, device).
    pub samples: Vec<((&'static str, &'static str), Sample)>,
    pub profiled: u64,
    pub violations: Vec<Violation>,
    /// Counts of the deterministic part of the run and its operation count.
    pub counts: Counts,
    pub counted_ops: u64,
    /// Per (kernel, device) latencies, for the per-row table.
    pub rows: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// Whether the counts repeat exactly for a seed (they do for the
    /// closed loops; the service's solver effort depends on its schedule).
    pub deterministic_counts: bool,
    /// Host time of each pass over the deck, in seconds, and the host
    /// speed scale measured during it.
    pub pass_s: Vec<(f64, f64)>,
    /// Operations run with tracing on.
    pub traced_ops: u64,
    /// Per-layer metrics the workload measured itself (traced mode).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.run_errors += u64::from(why.starts_with("mcu:"));
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Record the deterministic results of an input's first pass.
    pub fn record_first(&mut self, done: &OpDone) {
        self.counts.add(&done.counts);
        self.counted_ops += 1;
        self.samples.push((done.row, done.sample));
        if let Some(check) = &done.profiled {
            self.profiled += 1;
            if check.ratio > check.x_limit {
                self.violations.push(check.clone());
            }
        }
    }
}

/// The host's speed, measured with a fixed piece of work that uses none of
/// the program's code.
///
/// A shared 2-core host can change speed by 15–30 % from one minute to the
/// next, which no estimator inside a 20 s run can remove.  Set-up and the closed loops time the same fixed work
/// before every repetition or operation, under the same cache conditions
/// each time, and scale the times measured beside it to a reference host on
/// which that work takes [`HostSpeed::REFERENCE_S`].  A change to the
/// program moves its operations and not the calibration, so it still shows
/// in full.
#[derive(Debug, Default)]
pub struct HostSpeed {
    total_s: f64,
    samples: u64,
}

impl HostSpeed {
    /// Time of one calibration on the reference host (a 2-core host in its
    /// fast phase).
    pub const REFERENCE_S: f64 = 360e-6;

    /// Time one run of the calibration work.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(calibration_work());
        self.total_s += t0.elapsed().as_secs_f64();
        self.samples += 1;
    }

    pub fn absorb(&mut self, other: &HostSpeed) {
        self.total_s += other.total_s;
        self.samples += other.samples;
    }

    /// Reference time per host time: multiply a measured duration by this
    /// (divide a rate) to express it on the reference host.
    pub fn scale(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        Self::REFERENCE_S / (self.total_s / self.samples as f64)
    }
}

/// The calibration work: random read-modify-writes across an 8 MiB table
/// (memory-bound, like the simulator's and the solver's data) and a small
/// branchy bytecode interpreter (like the simulator's dispatch).
fn calibration_work() -> u64 {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(vec![1; 1 << 21]);
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let table_sum = TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let mask = table.len() - 1;
        for i in 0..10_000u32 {
            let slot = step() as usize & mask;
            table[slot] = table[slot].wrapping_add(i);
        }
        u64::from(table[7])
    });
    let code: Vec<u8> = (0..256).map(|_| (step() % 6) as u8).collect();
    let (mut acc, mut pc, mut regs) = (0u64, 0usize, [1u64; 4]);
    for _ in 0..40_000 {
        let op = code[pc];
        let r = pc & 3;
        match op {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 3]),
            1 => regs[r] = regs[r].rotate_left(7) ^ acc,
            2 => acc = acc.wrapping_mul(31).wrapping_add(regs[r]),
            3 if regs[r] & 1 == 0 => pc = (pc + 3) & 255,
            4 => regs[r] = regs[r].wrapping_sub(acc >> 3),
            _ => acc ^= regs[r] >> 11,
        }
        pc = (pc + 1) & 255;
    }
    acc ^ table_sum ^ regs[0]
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail latency: the highest sample with at least ten samples above
/// it, and the percentile that sample sits at.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let rank = n.saturating_sub(11);
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..5]).0, 1.0);
    }

    #[test]
    fn expected_table_covers_every_kernel() {
        let table = Expected::load();
        for b in flashram_beebs::Benchmark::all() {
            assert!(table.0.contains_key(b.name), "{}", b.name);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        assert!((0..16).all(|_| a.next() == b.next()));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }
}
