//! The placement ILP against a formulation-independent oracle.
//!
//! Random small `ProgramParams` (up to ten blocks over one or two
//! functions, random successor sets including self-loops and edges leaving
//! the model) are solved with `BranchBound` and compared with exhaustive
//! enumeration of every RAM placement.  The oracle derives instrumentation
//! from Eq. 5 directly (a block is instrumented when an in-model successor
//! sits in the other memory), prices energy and time with
//! [`evaluate_placement`], and charges RAM as the budget row does: block
//! bytes of every relocated block plus instrumentation bytes of every
//! instrumented block.  It never looks at the model's variables or rows, so
//! it checks the formulation itself, not just one solver against another.
//!
//! All coefficients are integers, so every placement's energy is an integer
//! and two distinct energies differ by at least 1.  The data ranges keep
//! every energy below 10^6, inside which the branch-and-bound's relative
//! pruning margin (1e-6) is below 1: its optimum must then be the exact
//! minimum, and the comparison can be at 1e-9.

use std::collections::BTreeMap;

use flashram_core::{evaluate_placement, BlockParams, ModelConfig, PlacementModel, ProgramParams};
use flashram_ilp::BranchBound;
use flashram_ir::{BlockId, BlockRef, FuncId};
use proptest::prelude::*;

/// One block's raw numbers: `(S, C, F, K, T, (L, W, successor count,
/// successor seeds))`.
type RawBlock = (u32, u64, u64, u32, u64, (u64, u64, usize, (u32, u32)));

fn block_strategy() -> impl Strategy<Value = RawBlock> {
    (
        2u32..80, // S_b
        1u64..40, // C_b (before the wait-state overhead is folded in)
        0u64..64, // F_b, never-executed blocks included
        0u32..10, // K_b
        0u64..8,  // T_b
        (
            0u64..5,              // L_b
            0u64..6,              // W_b: RAM moves can shed cycles
            0usize..3,            // number of successors
            (0u32..16, 0u32..16), // successor seeds
        ),
    )
}

/// Blocks are dealt round-robin over `funcs` functions; a successor seed
/// names a block of the same function, possibly itself or one past the last
/// (an edge leaving the model, which Eq. 5 ignores).
fn params_from(raw: &[RawBlock], funcs: u32) -> ProgramParams {
    let per_func = (raw.len() as u32).div_ceil(funcs);
    let mut blocks = BTreeMap::new();
    for (i, &(size_bytes, cycles, frequency, instr_bytes, instr_cycles, rest)) in
        raw.iter().enumerate()
    {
        let (ram_extra, wait, nsucc, (sa, sb)) = rest;
        let i = i as u32;
        let successors = [sa, sb][..nsucc]
            .iter()
            .map(|s| BlockId(s % (per_func + 1)))
            .collect();
        blocks.insert(
            BlockRef {
                func: FuncId(i % funcs),
                block: BlockId(i / funcs),
            },
            BlockParams {
                size_bytes,
                cycles: cycles + wait,
                frequency,
                instr_bytes,
                instr_cycles,
                ram_extra_cycles: ram_extra,
                flash_extra_cycles: wait,
                successors,
                memory_ops: 0,
            },
        );
    }
    ProgramParams { blocks }
}

/// Whether Eq. 5 forces `r`'s terminator to be rewritten under `in_ram`.
fn instrumented(params: &ProgramParams, r: BlockRef, in_ram: &[BlockRef]) -> bool {
    let here = in_ram.contains(&r);
    params.blocks[&r].successors.iter().any(|s| {
        let sr = BlockRef {
            func: r.func,
            block: *s,
        };
        params.blocks.contains_key(&sr) && in_ram.contains(&sr) != here
    })
}

/// The budget-row RAM charge of a placement.
fn ram_charge(params: &ProgramParams, in_ram: &[BlockRef]) -> u32 {
    params
        .blocks
        .iter()
        .map(|(r, p)| {
            let moved = if in_ram.contains(r) { p.size_bytes } else { 0 };
            let instr = if instrumented(params, *r, in_ram) {
                p.instr_bytes
            } else {
                0
            };
            moved + instr
        })
        .sum()
}

/// Whether a placement meets both budgets, with the time bound compared
/// exactly as the model's folded row compares it.
fn feasible(params: &ProgramParams, in_ram: &[BlockRef], config: &ModelConfig) -> bool {
    let base = params.base_weighted_cycles();
    let cycles = evaluate_placement(params, in_ram, config).cycles;
    ram_charge(params, in_ram) <= config.r_spare && cycles - base <= config.x_limit * base - base
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The branch-and-bound optimum of the placement ILP equals the minimum
    /// energy over every feasible RAM placement, and the placement it
    /// returns is itself feasible and has that energy.
    #[test]
    fn branch_and_bound_matches_brute_force_over_placements(
        raw in proptest::collection::vec(block_strategy(), 1..11),
        funcs in 1u32..3,
        powers in (0u32..21, 0u32..21),
        ram_seed in 0u32..1024,
        time_seed in (0u64..1024, 0u32..4),
    ) {
        let params = params_from(&raw, funcs);
        let refs = params.block_refs();
        let bytes: u32 = params.blocks.values().map(|p| p.size_bytes + p.instr_bytes).sum();
        let base = params.base_weighted_cycles();
        // `X_limit` is exactly 1 or puts the time row's right-hand side on
        // a half-integer, which no integer cycle count can meet, so no
        // placement sits on the time boundary up to rounding.
        let x_limit = if time_seed.1 == 0 || base == 0.0 {
            1.0
        } else {
            1.0 + ((time_seed.0 % (base as u64 + 1)) as f64 + 0.5) / base
        };
        let config = ModelConfig {
            x_limit,
            r_spare: ram_seed % (bytes + 8),
            e_flash: powers.0 as f64,
            e_ram: powers.1 as f64,
        };

        let mut best = f64::INFINITY;
        for mask in 0u32..1 << refs.len() {
            let in_ram: Vec<BlockRef> = refs
                .iter()
                .enumerate()
                .filter(|(k, _)| (mask >> k) & 1 == 1)
                .map(|(_, r)| *r)
                .collect();
            if feasible(&params, &in_ram, &config) {
                best = best.min(evaluate_placement(&params, &in_ram, &config).energy);
            }
        }
        prop_assert!(best.is_finite(), "the all-flash placement is always feasible");

        let model = PlacementModel::build(&params, &config);
        let sol = BranchBound::new().solve(&model.problem).expect("feasible model");
        let tol = 1e-9 * best.abs().max(1.0);
        prop_assert!(
            (sol.objective - best).abs() <= tol,
            "ILP optimum {} vs brute-force minimum {}", sol.objective, best
        );
        let chosen = model.selected_blocks(&sol);
        prop_assert!(feasible(&params, &chosen, &config), "returned placement breaks a budget");
        let energy = evaluate_placement(&params, &chosen, &config).energy;
        prop_assert!(
            (energy - best).abs() <= tol,
            "returned placement costs {} against the minimum {}", energy, best
        );
    }
}
