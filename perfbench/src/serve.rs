//! `serve_mixed`: the placement service under an open loop.
//!
//! One generator thread submits `WorkloadShape::beebs_default()` requests
//! on a fixed schedule and this thread collects the tickets.  The server
//! runs with `ServerConfig::default()`.  The schedule runs on the host's
//! clock, so unlike the closed loops its times are not rescaled to the
//! reference host (see `HostSpeed`).

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use flashram_beebs::Benchmark;
use flashram_core::{
    apply_placement_scoped, evaluate_placement, extract_params_for_timing, relocated_code_bytes,
    FrequencySource, ModelConfig,
};
use flashram_device::DEVICE_DB;
use flashram_ir::MachineProgram;
use flashram_mcu::{Board, RunResult};
use flashram_minicc::OptLevel;
use flashram_serve::{
    Outcome as Answer, PlacementServer, Query, Request, Response, ServeError, ServerConfig,
    WorkloadShape,
};

use crate::common::{percentile, Counts, Expected, Outcome, Rng, Sample};
use crate::trace::Tracer;
use crate::Args;

/// Offered load: about half the closed-loop capacity of a 2-core host,
/// where two clients of the repository's `stress` bin complete 82–91
/// requests per second.
const RATE_PER_S: f64 = 45.0;
/// A request counts towards `ops_per_s` only if answered within this many
/// milliseconds of its due time.
const LATENCY_LIMIT_MS: f64 = 250.0;
const LEVEL: OptLevel = OptLevel::O2;

struct Setup {
    server: PlacementServer,
    programs: BTreeMap<&'static str, Arc<MachineProgram>>,
    requests: Vec<Request>,
}

fn setup(seed: u64, seconds: u64) -> Setup {
    let server = PlacementServer::new(ServerConfig::default());
    let mut programs = BTreeMap::new();
    for bench in Benchmark::all() {
        let program = Arc::new(bench.compile(LEVEL).expect("BEEBS kernels compile"));
        server.register_program(bench.name, Arc::clone(&program));
        programs.insert(bench.name, program);
    }
    let requests = schedule(seed, (RATE_PER_S * seconds as f64).round() as usize);
    Setup {
        server,
        programs,
        requests,
    }
}

/// The request stream: `WorkloadShape::beebs_default()` draws, stratified
/// by (query kind, kernel).  Each stratum receives exactly its expected
/// share of `count`, and the seed picks every other field and the order.
/// A few frontier enumerations cost seconds and block a worker, so left to
/// chance their number alone would set the latency of a whole run.
fn schedule(seed: u64, count: usize) -> Vec<Request> {
    let shape = WorkloadShape::beebs_default();
    let kernels = shape.kernels.len();
    let kinds = [
        1000 - shape.sweep_per_mille - shape.frontier_per_mille,
        shape.sweep_per_mille,
        shape.frontier_per_mille,
    ];
    // The shape draws a kernel as the smaller of two uniform indices.
    let kernel_share = |k: usize| (2 * (kernels - k) - 1) as f64 / (kernels * kernels) as f64;
    let mut quota: Vec<usize> = (0..kinds.len() * kernels)
        .map(|i| {
            let share = kinds[i / kernels] as f64 / 1000.0 * kernel_share(i % kernels);
            (share * count as f64).round() as usize
        })
        .collect();
    let mut state = Rng::new(seed, 3).next() | 1;
    let mut requests = Vec::with_capacity(count);
    while quota.iter().any(|&q| q > 0) {
        let request = shape.next_request(&mut state);
        let kind = match request.query {
            Query::Point { .. } => 0,
            Query::Sweep { .. } => 1,
            Query::Frontier { .. } => 2,
        };
        let kernel = shape
            .kernels
            .iter()
            .position(|k| *k == request.program)
            .expect("the shape draws its own kernels");
        if let Some(q) = quota.get_mut(kind * kernels + kernel).filter(|q| **q > 0) {
            *q -= 1;
            requests.push(request);
        }
    }
    Rng::new(seed, 4).shuffle(&mut requests);
    requests
}

/// One request as the collector saw it.
struct Answered {
    index: usize,
    latency_ms: f64,
    lag_ms: f64,
    admit_ms: f64,
    result: Result<Response, ServeError>,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let (setup_s, s) = crate::timed_setup(|| setup(args.seed, args.seconds));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let answered = drive(&s, args.trace, tr);
    let stats = s.server.stats();
    let schedule_s = s.requests.len() as f64 / RATE_PER_S;

    let mut good = [0u64; 2];
    let mut sent = [0u64; 2];
    let (mut lags, mut queue, mut solve) = (Vec::new(), Vec::new(), Vec::new());
    let (mut admit_ms, mut solve_ms_total) = (0.0, 0.0);
    for a in &answered {
        out.attempted += 1;
        lags.push(a.lag_ms);
        admit_ms += a.admit_ms;
        let class = usize::from(args.trace && a.index % 2 == 1);
        sent[class] += 1;
        let request = &s.requests[a.index];
        let response = match &a.result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("request {}: {e}", a.index));
                continue;
            }
        };
        if let Err(why) = check_budget(request, response, &s.programs[request.program.as_str()]) {
            out.fail(why);
            continue;
        }
        queue.push(response.queue_ms);
        solve.push(response.solve_ms);
        solve_ms_total += response.solve_ms;
        if !response.memo_hit {
            for point in &response.points {
                out.counts.add_point(point);
            }
        }
        out.latencies_ms.push(a.latency_ms);
        out.rows
            .entry((kernel_name(&request.program), device_key(&request.device)))
            .or_default()
            .push(a.latency_ms);
        if a.latency_ms <= LATENCY_LIMIT_MS {
            good[class] += 1;
        }
    }
    out.ops_per_s = (good[0] + good[1]) as f64 / schedule_s;
    out.counted_ops = out.attempted;
    out.traced_ops = sent[1];
    validate_sample(&s, &answered, &mut out);

    for v in [&mut lags, &mut queue, &mut solve] {
        v.sort_by(f64::total_cmp);
    }
    let completed = stats.completed.max(1) as f64;
    let lookups = (stats.session_hits + stats.session_misses).max(1) as f64;
    let requests = out.attempted.max(1) as f64;
    for (name, value) in [
        ("serve.admit_wait_ms", admit_ms / requests),
        ("serve.queue_ms_p95", percentile(&queue, 95.0)),
        ("serve.solve_ms_p95", percentile(&solve, 95.0)),
        (
            "serve.session_hit_rate",
            stats.session_hits as f64 / lookups,
        ),
        ("serve.memo_hit_rate", stats.memo_hits as f64 / completed),
        ("serve.evictions", stats.cache.evictions as f64),
        (
            "serve.degraded_frac",
            (stats.heuristic + stats.timeout) as f64 / completed,
        ),
        ("serve.errors", stats.errors as f64),
        ("bench.generator_lag_ms_p95", percentile(&lags, 95.0)),
        ("ilp.busy_ms", solve_ms_total / requests),
    ] {
        out.layer.insert(name, value);
    }
    if args.trace && sent[0] > 0 && sent[1] > 0 && good[1] > 0 {
        let rate = |i: usize| good[i] as f64 / sent[i] as f64;
        out.layer.insert(
            "bench.trace_overhead_pct",
            (rate(0) / rate(1) - 1.0) * 100.0,
        );
    }
    out
}

/// Submit the schedule from one generator thread and collect on this one.
/// A request's latency runs from its due time: the generator's lag and the
/// time `submit` blocked, plus the server's queue and solve time.
fn drive(s: &Setup, trace: bool, tr: &mut Tracer) -> Vec<Answered> {
    type Sent = (usize, f64, f64, Result<flashram_serve::Ticket, ServeError>);
    let epoch = Instant::now();
    let mut answered = Vec::with_capacity(s.requests.len());
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Sent>();
        let generator = scope.spawn(move || {
            let mut gtr = Tracer::new(false, epoch);
            for (index, request) in s.requests.iter().enumerate() {
                let due = epoch + Duration::from_secs_f64(index as f64 / RATE_PER_S);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let submit = Instant::now();
                gtr.set_on(trace && index % 2 == 1);
                gtr.op = index as u64;
                let ticket = gtr.span("serve.submit", |_| s.server.submit(request.clone()));
                let lag = submit.duration_since(due).as_secs_f64() * 1e3;
                let admit = submit.elapsed().as_secs_f64() * 1e3;
                if tx.send((index, lag, admit, ticket)).is_err() {
                    break;
                }
            }
            gtr
        });
        for (index, lag_ms, admit_ms, ticket) in rx {
            tr.set_on(trace && index % 2 == 1);
            tr.op = index as u64;
            let result = tr.span("serve.wait", |_| ticket.and_then(|t| t.wait()));
            let server_ms = result.as_ref().map_or(0.0, |r| r.queue_ms + r.solve_ms);
            answered.push(Answered {
                index,
                latency_ms: lag_ms + admit_ms + server_ms,
                lag_ms,
                admit_ms,
                result,
            });
        }
        tr.absorb(
            generator
                .join()
                .expect("the generator thread does not panic"),
        );
    });
    answered
}

/// Every answered point must fit the RAM budget it was solved under.
fn check_budget(
    request: &Request,
    response: &Response,
    program: &MachineProgram,
) -> Result<(), String> {
    for point in &response.points {
        let relocated = relocated_code_bytes(&apply_placement_scoped(
            program,
            &point.selected,
            request.scope,
        ));
        if relocated > point.r_spare || point.model_ram_used > point.r_spare {
            return Err(format!(
                "{} on {}: {relocated} relocated bytes over a {} byte budget",
                request.program, request.device, point.r_spare
            ));
        }
    }
    Ok(())
}

/// Simulate the answer to every point request of the schedule.  Each
/// answer is a pure function of its request, so the quality metrics repeat
/// exactly for a seed.
fn validate_sample(s: &Setup, answered: &[Answered], out: &mut Outcome) {
    let expected = Expected::load();
    let mut baselines: BTreeMap<(&str, &str), (Board, RunResult, f64)> = BTreeMap::new();
    let mut sorted: Vec<&Answered> = answered.iter().collect();
    sorted.sort_by_key(|a| a.index);
    let points = sorted.into_iter().filter_map(|a| {
        let request = &s.requests[a.index];
        match (&request.query, &a.result) {
            (Query::Point { .. }, Ok(r)) if r.outcome != Answer::Timeout => Some((request, r)),
            _ => None,
        }
    });
    for (request, response) in points {
        let (kernel, device) = (kernel_name(&request.program), device_key(&request.device));
        let program = &s.programs[kernel];
        let (board, base, base_energy) = baselines.entry((kernel, device)).or_insert_with(|| {
            let board = Board::new(DEVICE_DB.get(device).expect("requests name known devices"));
            let base = board.run(program).expect("registered kernels run");
            let params = extract_params_for_timing(
                program,
                &FrequencySource::default(),
                request.scope,
                &board.timing,
            );
            let (e_flash, e_ram) = board.power.model_coefficients();
            let config = ModelConfig {
                x_limit: 1.0,
                r_spare: 0,
                e_flash,
                e_ram,
            };
            let energy = evaluate_placement(&params, &[], &config).energy;
            (board, base, energy)
        });
        let point = &response.points[0];
        let placed_program = apply_placement_scoped(program, &point.selected, request.scope);
        let checked = expected
            .check(kernel, "baseline", base.return_value)
            .and_then(|()| board.run(&placed_program).map_err(|e| format!("mcu: {e}")))
            .and_then(|placed| {
                expected.check(kernel, "placed program", placed.return_value)?;
                Ok(placed)
            });
        match checked {
            Ok(placed) => {
                let predicted = point.predicted.energy / *base_energy;
                let counts = Counts {
                    sim_cycles: placed.cycles(),
                    ..Counts::default()
                };
                out.counts.add(&counts);
                out.samples.push((
                    (kernel, device),
                    Sample::new(base, &placed, predicted, board.power.sleep_mw),
                ));
            }
            Err(why) => out.fail(why),
        }
    }
}

fn kernel_name(name: &str) -> &'static str {
    Benchmark::by_name(name).map_or("?", |b| b.name)
}

fn device_key(key: &str) -> &'static str {
    DEVICE_DB.get(key).map_or("?", |d| d.key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_stratified() {
        let a = schedule(5, 1400);
        let frontiers = |r: &[Request]| {
            r.iter()
                .filter(|q| matches!(q.query, Query::Frontier { .. }) && q.program == "dijkstra")
                .count()
        };
        assert_eq!(frontiers(&a), frontiers(&schedule(6, 1400)));
        let names = |r: &[Request]| {
            r.iter()
                .map(|q| format!("{:?}", q.query))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&schedule(5, 1400)));
        assert_ne!(names(&a), names(&schedule(6, 1400)));
        assert!(a.len().abs_diff(1400) < 20, "{}", a.len());
    }
}
