//! Seeded end-to-end and per-layer benchmark of the flash/RAM placement
//! system.  See `README.md` beside this crate for the workloads, metrics
//! and modes.
//!
//! ```text
//! flashram-perfbench --workload pipeline_suite --seed 1 --seconds 20 --trace 0
//! ```

mod common;
mod frontier;
mod pipeline;
mod report;
mod serve;
mod trace;

use std::time::{Duration, Instant};

use common::{OpDone, Outcome};
use trace::Tracer;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Run `setup` [`SETUP_REPS`] times; return the median time in reference
/// seconds (see [`common::HostSpeed`]) and the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut host = common::HostSpeed::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        host.sample();
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        // Dropping a discarded set-up is not part of set-up time.
        drop(last.replace(value));
    }
    (
        common::median(&times) * host.scale(),
        last.expect("SETUP_REPS > 0"),
    )
}

/// Drive one client in a closed loop over whole passes of `deck` until the
/// run's seconds are spent.  The first pass of each input records its
/// deterministic results; every later pass must reproduce them exactly.
///
/// Every time a pass measures is scaled by the host speed measured during
/// that pass (see [`common::HostSpeed`]).  Each input's latency is then its
/// minimum over the passes, and `ops_per_s` the inverse of their mean, so
/// a pass the host slowed unevenly is discounted too.  In traced mode the
/// first pass warms up untraced, then traced and untraced passes alternate,
/// ending on an untraced one; the tracing overhead compares their median
/// pass times.
pub fn closed_loop<C, R>(
    args: &Args,
    tr: &mut Tracer,
    out: &mut Outcome,
    deck: &[C],
    mut op: impl FnMut(&C, &mut Tracer) -> Result<R, String>,
    mut check: impl FnMut(&C, R) -> Result<OpDone, String>,
) {
    let mut first: Vec<Option<Vec<u64>>> = vec![None; deck.len()];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); deck.len()];
    let mut rows = vec![("", ""); deck.len()];
    let budget = Duration::from_secs(args.seconds);
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    for pass in 0usize.. {
        let traced = args.trace && pass % 2 == 1;
        tr.set_on(traced);
        let mut busy = Duration::ZERO;
        let mut host = common::HostSpeed::default();
        let mut pass_ms = Vec::with_capacity(deck.len());
        for (index, input) in deck.iter().enumerate() {
            host.sample();
            out.attempted += 1;
            tr.op = out.attempted;
            let t0 = Instant::now();
            let result = op(input, tr);
            let elapsed = t0.elapsed();
            busy += elapsed;
            // Output checks are the benchmark's own work, not the program's.
            let done = match result.and_then(|r| check(input, r)) {
                Ok(done) => done,
                Err(why) => {
                    out.fail(why);
                    continue;
                }
            };
            match &first[index] {
                None => {
                    out.record_first(&done);
                    first[index] = Some(done.fingerprint);
                }
                Some(fp) if *fp != done.fingerprint => {
                    out.fail(format!(
                        "{} on {}: pass {pass} differs from pass 0",
                        done.row.0, done.row.1
                    ));
                    continue;
                }
                Some(_) => {}
            }
            pass_ms.push((index, elapsed.as_secs_f64() * 1e3));
            rows[index] = done.row;
        }
        let scale = host.scale();
        for (index, ms) in pass_ms {
            latencies[index].push(ms * scale);
        }
        if pass > 0 {
            pass_s[usize::from(traced)].push(busy.as_secs_f64() * scale);
        }
        out.pass_s.push((busy.as_secs_f64(), scale));
        out.host.absorb(&host);
        if start.elapsed() >= budget && (!args.trace || (pass >= 2 && pass % 2 == 0)) {
            break;
        }
    }
    let mut best_total_ms = 0.0;
    for (lat, row) in latencies.iter().zip(rows) {
        if let Some(ms) = lat.iter().copied().reduce(f64::min) {
            best_total_ms += ms;
            out.latencies_ms.push(ms);
            out.rows.entry(row).or_default().push(ms);
        }
    }
    out.ops_per_s = out.latencies_ms.len() as f64 / (best_total_ms / 1e3);
    out.deterministic_counts = true;
    out.traced_ops = (pass_s[1].len() * deck.len()) as u64;
    if args.trace {
        out.layer.insert(
            "bench.trace_overhead_pct",
            (common::median(&pass_s[1]) / common::median(&pass_s[0]) - 1.0) * 100.0,
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("flashram-perfbench: {why}");
            std::process::exit(2);
        }
    };
    // The calibration's first run allocates its table; keep that out of the
    // samples.
    common::HostSpeed::default().sample();
    let mut tr = Tracer::new(false, Instant::now());
    let outcome = match args.workload.as_str() {
        "pipeline_suite" => pipeline::run(&args, &mut tr),
        "frontier_suite" => frontier::run(&args, &mut tr),
        "serve_mixed" => serve::run(&args, &mut tr),
        other => {
            eprintln!("flashram-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("flashram-perfbench: writing {}: {e}", path.display());
        }
    }
    let correct = report::print(&args, &outcome, &tr);
    if !correct {
        std::process::exit(1);
    }
}
