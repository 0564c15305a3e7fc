//! `frontier_suite`: the Fig. 6 design-space use, one client in a closed
//! loop.
//!
//! One operation opens a placement session for a precompiled kernel,
//! enumerates the exact energy/RAM staircase under one `X_limit`, and
//! validates every step by simulation.

use flashram_beebs::Benchmark;
use flashram_core::{
    apply_placement_scoped, extract_params_for_timing, relocated_code_bytes, FrequencySource,
    Frontier, ModelConfig, PlacementScope, PlacementSession, ValidatedPoint,
};
use flashram_device::{DeviceDescriptor, DEVICE_DB};
use flashram_ir::MachineProgram;
use flashram_mcu::{Board, RunConfig, RunResult};
use flashram_minicc::OptLevel;

use crate::common::{Counts, Expected, OpDone, Outcome, Rng, Sample};
use crate::pipeline::X_LIMITS;
use crate::trace::Tracer;
use crate::Args;

/// Frontiers are enumerated at O2, the level the paper's design-space
/// figure uses; at O0 and O3 single staircases reach 100–390 steps and
/// 10–50 s, longer than a whole run.
const LEVEL: OptLevel = OptLevel::O2;
/// The RAM budgets a staircase descends from.  Enumeration cost grows with
/// the number of steps below the budget; with these, one pass over the 90
/// inputs takes 10–20 s on a 2-core host.
const MAX_BUDGETS: [u32; 3] = [64, 96, 128];
const SCOPE: PlacementScope = PlacementScope::ApplicationOnly;

#[derive(Debug, Clone)]
struct Cell {
    kernel: usize,
    device: usize,
    x_limit: f64,
    max_budget: u32,
}

/// Every (kernel, device, `X_limit`) once, in seeded order.  Within each
/// (kernel, device) the three `X_limit` values take the three RAM budgets
/// in a seeded order, so every seed's deck enumerates equally long
/// staircases in total.
fn deck(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 2);
    let mut cells = Vec::new();
    for kernel in 0..Benchmark::all().len() {
        for device in 0..DEVICE_DB.all().len() {
            let mut budgets = MAX_BUDGETS;
            rng.shuffle(&mut budgets);
            for (x_limit, max_budget) in X_LIMITS.into_iter().zip(budgets) {
                cells.push(Cell {
                    kernel,
                    device,
                    x_limit,
                    max_budget,
                });
            }
        }
    }
    rng.shuffle(&mut cells);
    cells
}

struct Setup {
    expected: Expected,
    deck: Vec<Cell>,
    kernels: Vec<(Benchmark, MachineProgram)>,
    boards: Vec<(&'static DeviceDescriptor, Board)>,
}

fn setup(seed: u64) -> Setup {
    Setup {
        expected: Expected::load(),
        deck: deck(seed),
        kernels: Benchmark::all()
            .into_iter()
            .map(|b| (b, b.compile(LEVEL).expect("BEEBS kernels compile")))
            .collect(),
        boards: DEVICE_DB
            .all()
            .iter()
            .map(|&d| (d, Board::new(d)))
            .collect(),
    }
}

/// What one operation produced, before it is checked.
struct Op {
    base: RunResult,
    frontier: Frontier,
    validated: Vec<ValidatedPoint>,
    counts: Counts,
}

fn run_op(
    cell: &Cell,
    program: &MachineProgram,
    board: &Board,
    tr: &mut Tracer,
) -> Result<Op, String> {
    tr.span("op", |tr| {
        let decoded = tr
            .span("mcu.decode", |_| board.decode(program))
            .map_err(|e| format!("mcu: decode: {e}"))?;
        let base = tr
            .span("mcu.run", |_| {
                board.run_decoded(&decoded, &RunConfig::default())
            })
            .map_err(|e| format!("mcu: baseline run: {e}"))?;
        let params = tr.span("core.params", |_| {
            extract_params_for_timing(program, &FrequencySource::default(), SCOPE, &board.timing)
        });
        let param_blocks = params.blocks.len() as u64;
        let (e_flash, e_ram) = board.power.model_coefficients();
        let config = ModelConfig {
            x_limit: cell.x_limit,
            r_spare: cell.max_budget,
            e_flash,
            e_ram,
        };
        let mut session = tr.span("core.model", |_| {
            PlacementSession::from_params(params, &config)
        });
        let frontier = tr
            .span("ilp", |_| {
                session.enumerate_frontier(cell.x_limit, cell.max_budget)
            })
            .map_err(|e| format!("frontier: {e}"))?;
        let validated = tr.span("core.frontier.validate", |_| {
            frontier.validate(board, program, SCOPE)
        });
        let problem = &session.model().problem;
        let sweep = session.stats();
        let mut counts = Counts {
            param_blocks,
            model_rows: problem.num_constraints() as u64,
            model_cols: problem.num_vars() as u64,
            frontier_steps: frontier.points.len() as u64,
            ..Counts::default()
        };
        for point in &frontier.points {
            counts.add_point(point);
        }
        // The session's totals also cover the tie steps the staircase drops.
        counts.solves = sweep.points_solved as u64;
        counts.nodes = sweep.nodes_explored as u64;
        counts.lp_pivots = sweep.lp_pivots as u64;
        counts.root_pivots = sweep.root_pivots as u64;
        counts.chained = sweep.chained_roots as u64;
        Ok(Op {
            base,
            frontier,
            validated,
            counts,
        })
    })
}

/// Check every validated step against the expected table and its RAM
/// budget, and summarise the operation.
fn check(
    (name, device): (&'static str, &'static str),
    program: &MachineProgram,
    board: &Board,
    expected: &Expected,
    op: Op,
) -> Result<OpDone, String> {
    let Op {
        base,
        frontier,
        validated,
        mut counts,
    } = op;
    expected.check(name, "baseline", base.return_value)?;
    counts.sim_cycles = base.cycles();
    counts.timed_cycles = base.cycles();
    let mut fingerprint = vec![base.cycles(), counts.lp_pivots];
    let mut model_err = 0.0;
    let mut best = None;
    for (point, step) in frontier.points.iter().zip(&validated) {
        let run = step
            .measured
            .as_ref()
            .map_err(|e| format!("mcu: {name}: step at {} B failed: {e}", step.min_ram_bytes))?;
        expected.check(name, "frontier step", run.return_value)?;
        let relocated =
            relocated_code_bytes(&apply_placement_scoped(program, &point.selected, SCOPE));
        if relocated > point.r_spare || point.model_ram_used > point.r_spare {
            return Err(format!(
                "{name}: step relocates {relocated} bytes over a {} byte budget",
                point.r_spare
            ));
        }
        counts.relocated_bytes += u64::from(relocated);
        counts.sim_cycles += run.cycles();
        fingerprint.extend([
            run.cycles(),
            run.energy_mj.to_bits(),
            point.objective.to_bits(),
        ]);
        let predicted = point.predicted.energy / frontier.baseline.energy;
        model_err += (predicted - run.energy_mj / base.energy_mj).abs();
        best = Some((run, predicted));
    }
    // The quality sample is the staircase's top step: the most energy the
    // budget can save.
    let (best_run, predicted) = best.ok_or_else(|| format!("{name}: empty frontier"))?;
    let mut sample = Sample::new(&base, best_run, predicted, board.power.sleep_mw);
    sample.model_err = model_err / validated.len() as f64;
    Ok(OpDone {
        row: (name, device),
        fingerprint,
        counts,
        sample,
        profiled: None,
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let (setup_s, s) = crate::timed_setup(|| setup(args.seed));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    crate::closed_loop(
        args,
        tr,
        &mut out,
        &s.deck,
        |cell, tr| {
            run_op(
                cell,
                &s.kernels[cell.kernel].1,
                &s.boards[cell.device].1,
                tr,
            )
        },
        |cell, op| {
            let (bench, program) = &s.kernels[cell.kernel];
            let (device, board) = &s.boards[cell.device];
            check((bench.name, device.key), program, board, &s.expected, op)
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_crosses_kernels_devices_and_x_limits() {
        let d = deck(3);
        assert_eq!(d.len(), 10 * DEVICE_DB.all().len() * X_LIMITS.len());
        for kernel in 0..10 {
            let budget: u32 = d
                .iter()
                .filter(|c| c.kernel == kernel)
                .map(|c| c.max_budget)
                .sum();
            assert_eq!(
                budget,
                DEVICE_DB.all().len() as u32 * MAX_BUDGETS.iter().sum::<u32>()
            );
        }
        let order = |d: &[Cell]| {
            d.iter()
                .map(|c| (c.kernel, c.device, c.max_budget))
                .collect::<Vec<_>>()
        };
        assert_ne!(order(&d), order(&deck(4)));
    }
}
