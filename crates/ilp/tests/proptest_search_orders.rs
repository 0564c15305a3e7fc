//! Property-based test for the branch-and-bound search: on random
//! placement-shaped instances the default solver (best-bound order with
//! plunging, pseudo-cost branching, presolve with tightened rows) must agree
//! with exhaustive enumeration on feasibility and on the optimum, so neither
//! the search order nor presolve can cut off the true integer optimum.

use flashram_ilp::{
    BranchBound, Cmp, ExhaustiveSolver, LinearExpr, Problem, Sense, SolveError, Var,
};
use proptest::prelude::*;

/// Build a placement-shaped instance: maximize value subject to one or two
/// binary knapsack rows (the RAM and time budget rows of the placement ILP).
fn build_problem(
    values: &[u16],
    weights: &[u16],
    weights2: &[u16],
    cap_frac: f64,
    use_second: bool,
) -> Problem {
    let n = values.len();
    let mut p = Problem::new(Sense::Maximize);
    let xs: Vec<Var> = (0..n).map(|i| p.add_binary(format!("x{i}"))).collect();
    let total: f64 = weights.iter().map(|w| *w as f64).sum();
    p.add_constraint(
        LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().map(|w| *w as f64))),
        Cmp::Le,
        total * cap_frac,
    );
    if use_second {
        let total2: f64 = weights2.iter().map(|w| *w as f64).sum();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights2.iter().map(|w| *w as f64))),
            Cmp::Le,
            total2 * (1.0 - cap_frac * 0.5),
        );
    }
    p.set_objective(LinearExpr::from_terms(
        xs.iter().copied().zip(values.iter().map(|v| *v as f64)),
    ));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branch_and_bound_matches_exhaustive_search(
        values in prop::collection::vec(1u16..100, 1..10),
        weights in prop::collection::vec(1u16..50, 1..10),
        weights2 in prop::collection::vec(1u16..50, 1..10),
        cap_frac in 0.1f64..0.9,
        use_second in any::<bool>(),
    ) {
        let n = values.len().min(weights.len()).min(weights2.len());
        let p = build_problem(&values[..n], &weights[..n], &weights2[..n], cap_frac, use_second);
        let exact = ExhaustiveSolver::new().solve(&p);
        let bb = BranchBound::new().solve(&p);
        match (exact, bb) {
            (Ok(e), Ok(b)) => {
                prop_assert!(p.is_feasible(&b.values, 1e-6), "branch-and-bound returned infeasible point");
                prop_assert!((e.objective - b.objective).abs() < 1e-5,
                    "optimum differs: exhaustive {} vs branch-and-bound {}", e.objective, b.objective);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (e, b) => prop_assert!(false, "solver disagreement: {e:?} vs {b:?}"),
        }
    }
}
