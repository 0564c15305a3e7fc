//! Differential test for the decoded execution engine at workspace level:
//! for every BEEBS kernel — plain and placement-optimized — the decoded
//! engine behind [`Board::run`] must be observably indistinguishable,
//! bit-for-bit, from the IR-walking reference interpreter.
//!
//! This is the guarantee that lets every harness in `flashram-bench` (and
//! every downstream experiment) run on the decoded engine by default: the
//! numbers they print are exactly the numbers the reference semantics
//! produce.

use flashram_beebs::Benchmark;
use flashram_core::RamOptimizer;
use flashram_mcu::{Board, RunConfig, RunError, RunResult};
use flashram_minicc::OptLevel;

/// Assert a decoded-engine outcome matches the reference interpreter's
/// bitwise, results and errors alike.
fn assert_same(
    decoded: &Result<RunResult, RunError>,
    reference: &Result<RunResult, RunError>,
    what: &str,
) {
    match (decoded, reference) {
        (Ok(a), Ok(b)) => assert!(
            a.bits_eq(b),
            "{what}: results diverge\ndecoded: {a:?}\nreference: {b:?}"
        ),
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors diverge"),
        other => panic!("{what}: engines disagree: {other:?}"),
    }
}

/// Run `program` under `config` on the reference and the decoded engine,
/// asserting bitwise agreement (results and errors alike).
fn assert_engines_match(
    board: &Board,
    program: &flashram_ir::MachineProgram,
    config: &RunConfig,
    what: &str,
) {
    let reference = board.run_reference_with_config(program, config);
    assert_same(&board.run_with_config(program, config), &reference, what);
}

#[test]
fn all_engines_match_reference_on_all_beebs_kernels() {
    let board = Board::stm32vldiscovery();
    for bench in Benchmark::all() {
        for level in [OptLevel::O2, OptLevel::Os] {
            let program = bench.compile_cached(level).expect("kernel compiles");
            assert_engines_match(
                &board,
                &program,
                &RunConfig::default(),
                &format!("{} {level}", bench.name),
            );
        }
    }
}

/// Placement-optimized kernels exercise the paths the plain kernels do
/// not: RAM-resident blocks (contention charges) and the indirect
/// long-range terminators the transformation substitutes.
#[test]
fn all_engines_match_reference_on_optimized_kernels() {
    let board = Board::stm32vldiscovery();
    for name in ["int_matmult", "fdct", "crc32"] {
        let bench = Benchmark::by_name(name).expect("known kernel");
        let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
        let placement = RamOptimizer::new()
            .optimize(&program, &board)
            .expect("placement succeeds");
        assert!(
            !placement.selected.is_empty(),
            "{name}: optimizer should move blocks to RAM"
        );
        assert_engines_match(
            &board,
            &placement.program,
            &RunConfig::default(),
            &format!("{name} optimized"),
        );
    }
}

/// The engines agree on `CycleLimit { limit, executed }` under budgets
/// that fire anywhere in a long-running kernel.
#[test]
fn all_engines_match_reference_cycle_limits_on_beebs() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("crc32").expect("known kernel");
    let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
    let total = board.run(&program).expect("full run").cycles();
    let mut limited = 0;
    // `total - 1` is the interesting edge: the budget check fires only at
    // chunk entry, so a run whose final chunk overshoots by one cycle
    // still completes — in both engines, identically.
    for limit in [
        0,
        1,
        total / 3,
        total / 2,
        total * 2 / 3,
        total * 9 / 10,
        total - 1,
        total,
    ] {
        let config = RunConfig { max_cycles: limit };
        let reference = board.run_reference_with_config(&program, &config);
        if matches!(reference, Err(RunError::CycleLimit { .. })) {
            limited += 1;
        }
        let decoded = board.run_with_config(&program, &config);
        assert_same(&decoded, &reference, &format!("limit {limit}"));
    }
    assert!(limited >= 5, "the tight budgets must actually fire");
}

/// `BatchRunner::run_configs` decodes once and shares the decoded program
/// across the sweep; every slot must still match a per-config reference
/// run bitwise, `CycleLimit` errors included.
#[test]
fn shared_decode_in_run_configs_matches_independent_runs() {
    let board = Board::stm32vldiscovery();
    let runner = flashram_mcu::BatchRunner::new(board.clone());
    let bench = Benchmark::by_name("sha").expect("known kernel");
    let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
    let total = board.run(&program).expect("full run").cycles();
    let configs = vec![
        RunConfig { max_cycles: 100 },
        RunConfig::default(),
        RunConfig {
            max_cycles: total / 2,
        },
        RunConfig { max_cycles: total },
    ];
    let shared = runner.run_configs(&program, &configs);
    for (config, got) in configs.iter().zip(&shared) {
        let reference = board.run_reference_with_config(&program, config);
        assert_same(
            got,
            &reference,
            &format!("sha O2 shared decode, {} cycles", config.max_cycles),
        );
    }
}

/// With several workers, `BatchRunner::run_configs` shares one prepared
/// program across threads; every slot must match a fresh independent
/// decoded run and the reference interpreter.
#[test]
fn shared_prepare_in_run_configs_engine_matches_independent_runs() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("dijkstra").expect("known kernel");
    let program = bench.compile_cached(OptLevel::Os).expect("kernel compiles");
    let total = board.run(&program).expect("full run").cycles();
    let configs = vec![
        RunConfig { max_cycles: 100 },
        RunConfig {
            max_cycles: total / 2,
        },
        RunConfig::default(),
    ];
    let threads = std::num::NonZeroUsize::new(2).expect("non-zero");
    let runner = flashram_mcu::BatchRunner::with_threads(board.clone(), threads);
    let shared = runner.run_configs(&program, &configs);
    for (config, got) in configs.iter().zip(&shared) {
        let what = format!("dijkstra Os shared prepare, {} cycles", config.max_cycles);
        assert_same(got, &board.run_with_config(&program, config), &what);
        assert_same(
            got,
            &board.run_reference_with_config(&program, config),
            &what,
        );
    }
}
