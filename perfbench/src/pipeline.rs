//! `pipeline_suite`: the paper's per-program compiler pass (Fig. 5), one
//! client in a closed loop.
//!
//! One operation compiles a kernel (uncached), simulates the baseline,
//! extracts the model parameters, builds the ILP, solves one placement
//! point, relocates the chosen blocks and simulates the placed program.

use flashram_beebs::Benchmark;
use flashram_core::{
    apply_placement_scoped, extract_params_for_timing, relocated_code_bytes, FrequencySource,
    ModelConfig, PlacementScope, PlacementSession,
};
use flashram_device::{DeviceDescriptor, DEVICE_DB};
use flashram_mcu::{Board, RunConfig, RunResult};
use flashram_minicc::OptLevel;

use crate::common::{instruction_count, Counts, Expected, OpDone, Outcome, Rng, Sample, Violation};
use crate::trace::Tracer;
use crate::Args;

/// The levels compiled: O1 and Os emit the same code as O2.  O3 is left
/// out because it turns dijkstra's placement ILP into a 1–9 s solve (about
/// 200 times any other operation), so throughput would measure that one
/// model alone.
const LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];
pub const X_LIMITS: [f64; 3] = [1.05, 1.1, 1.5];
const TIGHT_RAM: [u32; 4] = [64, 128, 256, 512];
const SCOPE: PlacementScope = PlacementScope::ApplicationOnly;

/// One operation's inputs.
#[derive(Debug, Clone)]
struct Cell {
    kernel: Benchmark,
    level: OptLevel,
    device: &'static DeviceDescriptor,
    x_limit: f64,
    profiled: bool,
    tight_ram: Option<u32>,
}

/// The deck: for every (kernel, device, `X_limit`), the O2 build once with
/// static and once with profiled frequencies, and the O0 build once with a
/// seeded one of the two.  The seed also draws each operation's RAM budget
/// (the board's spare RAM or a tight value) and the order.  Crossing the
/// factors that set an operation's cost keeps every seed's deck equally
/// expensive, so run-to-run spread is timing noise rather than sampling;
/// weighting O2, the level the paper evaluates, two to one keeps the median
/// latency inside one level's cluster instead of in the gap between them.
fn deck(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 1);
    let mut cells = Vec::new();
    for kernel in Benchmark::all() {
        for device in DEVICE_DB.all() {
            for x_limit in X_LIMITS {
                let o0_profiled = rng.below(2) == 0;
                for (level, profiled) in [
                    (OptLevel::O0, o0_profiled),
                    (OptLevel::O2, false),
                    (OptLevel::O2, true),
                ] {
                    let tight_ram =
                        (rng.below(2) == 0).then(|| TIGHT_RAM[rng.below(TIGHT_RAM.len())]);
                    cells.push(Cell {
                        kernel,
                        level,
                        device,
                        x_limit,
                        profiled,
                        tight_ram,
                    });
                }
            }
        }
    }
    rng.shuffle(&mut cells);
    cells
}

/// What one operation produced.
struct Done {
    base: RunResult,
    placed: RunResult,
    predicted_energy: f64,
    r_spare: u32,
    counts: Counts,
    fingerprint: [u64; 5],
}

fn run_op(cell: &Cell, board: &Board, tr: &mut Tracer) -> Result<Done, String> {
    tr.span("op", |tr| {
        let program = tr
            .span("minicc", |_| cell.kernel.compile(cell.level))
            .map_err(|e| format!("compile: {e}"))?;
        let decoded = tr
            .span("mcu.decode", |_| board.decode(&program))
            .map_err(|e| format!("mcu: decode: {e}"))?;
        let base = tr
            .span("mcu.run", |_| {
                board.run_decoded(&decoded, &RunConfig::default())
            })
            .map_err(|e| format!("mcu: baseline run: {e}"))?;
        let spare = board.spare_ram(&program).map_err(|e| e.to_string())?;
        let r_spare = cell.tight_ram.map_or(spare, |t| t.min(spare));
        let frequency = if cell.profiled {
            FrequencySource::Profiled(base.profile.clone())
        } else {
            FrequencySource::default()
        };
        let params = tr.span("core.params", |_| {
            extract_params_for_timing(&program, &frequency, SCOPE, &board.timing)
        });
        let param_blocks = params.blocks.len() as u64;
        let (e_flash, e_ram) = board.power.model_coefficients();
        let config = ModelConfig {
            x_limit: cell.x_limit,
            r_spare,
            e_flash,
            e_ram,
        };
        let mut session = tr.span("core.model", |_| {
            PlacementSession::from_params(params, &config)
        });
        let point = tr
            .span("ilp", |_| session.solve_point(r_spare, cell.x_limit))
            .map_err(|e| format!("solve: {e}"))?;
        let placed_program = tr.span("core.transform", |_| {
            apply_placement_scoped(&program, &point.selected, SCOPE)
        });
        let decoded = tr
            .span("mcu.decode", |_| board.decode(&placed_program))
            .map_err(|e| format!("mcu: decode placed: {e}"))?;
        let placed = tr
            .span("mcu.run", |_| {
                board.run_decoded(&decoded, &RunConfig::default())
            })
            .map_err(|e| format!("mcu: placed run: {e}"))?;

        let problem = &session.model().problem;
        let mut counts = Counts {
            insts_out: instruction_count(&program),
            param_blocks,
            model_rows: problem.num_constraints() as u64,
            model_cols: problem.num_vars() as u64,
            relocated_bytes: u64::from(relocated_code_bytes(&placed_program)),
            sim_cycles: base.cycles() + placed.cycles(),
            timed_cycles: base.cycles() + placed.cycles(),
            ..Counts::default()
        };
        counts.add_point(&point);
        let fingerprint = [
            base.cycles(),
            placed.cycles(),
            placed.energy_mj.to_bits(),
            point.objective.to_bits(),
            counts.lp_pivots,
        ];
        Ok(Done {
            predicted_energy: point.predicted.energy / session.baseline().energy,
            base,
            placed,
            r_spare,
            counts,
            fingerprint,
        })
    })
}

/// Check one operation's output against the expected table and its RAM
/// budget.
fn check(cell: &Cell, done: Done, expected: &Expected) -> Result<OpDone, String> {
    let name = cell.kernel.name;
    expected.check(name, "baseline", done.base.return_value)?;
    expected.check(name, "placed program", done.placed.return_value)?;
    if done.counts.relocated_bytes > u64::from(done.r_spare) {
        return Err(format!(
            "{name}: {} relocated bytes exceed R_spare {}",
            done.counts.relocated_bytes, done.r_spare
        ));
    }
    let sleep_mw = Board::new(cell.device).power.sleep_mw;
    Ok(OpDone {
        row: (name, cell.device.key),
        fingerprint: done.fingerprint.to_vec(),
        counts: done.counts,
        sample: Sample::new(&done.base, &done.placed, done.predicted_energy, sleep_mw),
        profiled: cell.profiled.then(|| Violation {
            kernel: name,
            level: cell.level.to_string(),
            device: cell.device.key,
            x_limit: cell.x_limit,
            ratio: done.placed.cycles() as f64 / done.base.cycles() as f64,
        }),
    })
}

struct Setup {
    expected: Expected,
    deck: Vec<Cell>,
    boards: Vec<Board>,
}

fn setup(seed: u64) -> Setup {
    // Warm-up: compile every (kernel, level) once and discard the result,
    // so the compiler's code and the allocator are warm before timing
    // starts (each operation still compiles uncached).
    for kernel in Benchmark::all() {
        for level in LEVELS {
            std::hint::black_box(kernel.compile(level).expect("BEEBS kernels compile"));
        }
    }
    Setup {
        expected: Expected::load(),
        deck: deck(seed),
        boards: DEVICE_DB.all().iter().map(|d| Board::new(d)).collect(),
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let (setup_s, s) = crate::timed_setup(|| setup(args.seed));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let board_of = |device: &DeviceDescriptor| {
        let index = DEVICE_DB
            .all()
            .iter()
            .position(|d| d.key == device.key)
            .expect("deck devices come from the database");
        &s.boards[index]
    };
    crate::closed_loop(
        args,
        tr,
        &mut out,
        &s.deck,
        |cell, tr| run_op(cell, board_of(cell.device), tr),
        |cell, done| check(cell, done, &s.expected),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_is_balanced_and_seeded() {
        let a = deck(1);
        assert_eq!(a.len(), 10 * 3 * DEVICE_DB.all().len() * X_LIMITS.len());
        let o2 = |profiled| {
            a.iter()
                .filter(|c| c.level == OptLevel::O2 && c.profiled == profiled)
                .count()
        };
        assert_eq!(o2(true), a.len() / 3);
        assert_eq!(o2(false), a.len() / 3);
        for x in X_LIMITS {
            assert_eq!(a.iter().filter(|c| c.x_limit == x).count(), a.len() / 3);
        }
        let key = |d: &[Cell]| -> Vec<String> {
            d.iter()
                .map(|c| {
                    format!(
                        "{}{}{}{}{:?}",
                        c.kernel.name, c.level, c.device.key, c.x_limit, c.tight_ram
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&deck(1)));
        assert_ne!(key(&a), key(&deck(2)));
    }
}
