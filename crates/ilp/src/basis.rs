//! Simplex basis bookkeeping and the warm-start state.
//!
//! The bounded-variable simplex in [`crate::simplex`] works on an [`LpState`]:
//! the tableau `B⁻¹A`, the values of the basic variables, the
//! nonbasic-at-upper flags and the active column bounds.  Branch-and-bound
//! keeps the `LpState` of every solved relaxation and re-solves child nodes
//! from it with the dual simplex instead of a cold two-phase solve — a bound
//! change never disturbs the reduced costs, so the parent's optimal basis
//! stays dual feasible and typically needs only a handful of pivots to
//! restore primal feasibility.
//!
//! The tableau is one row-major `Vec<f64>` with a stride (`Tableau`), so
//! a snapshot copy is a single `memcpy`.  Its buffers are also recycled
//! through a small per-thread free list.  A placement tableau is a few
//! hundred kilobytes, and the allocator returns memory that size to the
//! operating system when it is freed.  A profile of `frontier_suite` found
//! 28–33% of branch-and-bound time spent copying snapshots, mostly
//! faulting fresh pages back in; a recycled buffer is already mapped, and
//! with it copying fell to 13%.

use std::cell::RefCell;
use std::ops::{Index, IndexMut};

/// Bytes of spare tableau buffers kept per thread for [`Tableau::clone`]
/// to reuse.  A search ends by dropping its whole open list and the next
/// one grows a new list of snapshots, so the spares must cover a typical
/// search's live snapshots; the bound caps what an idle thread holds.
const SPARE_BYTES: usize = 16 << 20;

/// Buffers of dropped tableaux, oldest first, and their total size.
struct Spare {
    buffers: Vec<Vec<f64>>,
    bytes: usize,
}

thread_local! {
    static SPARE: RefCell<Spare> = const {
        RefCell::new(Spare {
            buffers: Vec::new(),
            bytes: 0,
        })
    };
}

fn buffer_bytes(buffer: &Vec<f64>) -> usize {
    buffer.capacity() * std::mem::size_of::<f64>()
}

/// The dense tableau `B⁻¹A`: `rows × cols` values in one row-major buffer.
/// Indexing by row yields that row's slice, so `a[r][c]` reads as it would
/// on a vector of rows.
#[derive(Debug, PartialEq)]
pub(crate) struct Tableau {
    data: Vec<f64>,
    cols: usize,
}

impl Tableau {
    /// A `rows × cols` tableau of zeros.
    pub(crate) fn zeroed(rows: usize, cols: usize) -> Tableau {
        Tableau {
            data: vec![0.0; rows * cols],
            cols,
        }
    }

    fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// The rows in order.
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Row `row` for writing, plus every other row in order — the split a
    /// pivot needs to eliminate the entering column.
    pub(crate) fn split_row_mut(
        &mut self,
        row: usize,
    ) -> (&mut [f64], impl Iterator<Item = &mut [f64]>) {
        let width = self.cols.max(1);
        let (before, rest) = self.data.split_at_mut(row * self.cols);
        let (pivot, after) = rest.split_at_mut(self.cols);
        let others = before
            .chunks_exact_mut(width)
            .chain(after.chunks_exact_mut(width));
        (pivot, others)
    }

    /// Append a row of exactly `cols` values.
    pub(crate) fn push_row(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.cols);
        self.data.extend_from_slice(row);
    }

    /// Insert `k` zero columns in front of column `at` in every row.
    pub(crate) fn insert_zero_cols(&mut self, at: usize, k: usize) {
        if k == 0 {
            return;
        }
        let (rows, old) = (self.num_rows(), self.cols);
        let new = old + k;
        self.data.resize(rows * new, 0.0);
        // Last row first: each row only moves towards the end, onto space
        // no unmoved row still occupies.
        for r in (0..rows).rev() {
            let (src, dst) = (r * old, r * new);
            self.data.copy_within(src + at..src + old, dst + at + k);
            self.data.copy_within(src..src + at, dst);
            self.data[dst + at..dst + at + k].fill(0.0);
        }
        self.cols = new;
    }
}

impl Index<usize> for Tableau {
    type Output = [f64];

    fn index(&self, row: usize) -> &[f64] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }
}

impl IndexMut<usize> for Tableau {
    fn index_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }
}

impl Clone for Tableau {
    /// Copy into a recycled buffer when one is large enough.
    fn clone(&self) -> Tableau {
        let len = self.data.len();
        let spare = SPARE.with(|spare| {
            let mut spare = spare.borrow_mut();
            let fit = spare.buffers.iter().rposition(|b| b.capacity() >= len)?;
            let buffer = spare.buffers.remove(fit);
            spare.bytes -= buffer_bytes(&buffer);
            Some(buffer)
        });
        let mut data = spare.unwrap_or_else(|| Vec::with_capacity(len));
        data.clear();
        data.extend_from_slice(&self.data);
        Tableau {
            data,
            cols: self.cols,
        }
    }
}

impl Drop for Tableau {
    /// Hand the buffer to this thread's free list, evicting the oldest
    /// spares beyond [`SPARE_BYTES`] so the list follows the sizes in
    /// current use.  A tableau dropped during thread teardown, after the
    /// list is gone, just frees its buffer.
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        // Empty buffers weigh nothing against the bound, so they would pile up.
        if data.capacity() == 0 {
            return;
        }
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            spare.bytes += buffer_bytes(&data);
            spare.buffers.push(data);
            while spare.bytes > SPARE_BYTES {
                let oldest = spare.buffers.remove(0);
                spare.bytes -= buffer_bytes(&oldest);
            }
        });
    }
}

/// A compact snapshot of a simplex basis: which column is basic in each row,
/// and at which bound every nonbasic column rests.
///
/// Columns `0..num_structural` are the problem's variables; the following
/// columns are the per-constraint slacks, then any phase-1 artificials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// The basic column of each tableau row.
    pub basic_cols: Vec<usize>,
    /// Per column, whether a nonbasic column sits at its upper bound
    /// (meaningless for basic columns).
    pub at_upper: Vec<bool>,
    /// Number of structural (problem) variables.
    pub num_structural: usize,
}

/// The full state of a solved (or in-progress) LP: tableau, basis, bounds.
///
/// Cloning an `LpState` and tightening a variable's bounds, then running the
/// dual simplex, is how branch-and-bound warm-starts child nodes.  The state
/// is opaque outside the crate apart from the size accessors and
/// [`LpState::basis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpState {
    /// The tableau `B⁻¹A`, `rows × cols`.
    pub(crate) a: Tableau,
    /// Current value of the basic variable of each row.
    pub(crate) xb: Vec<f64>,
    /// Basic column per row.
    pub(crate) basis: Vec<usize>,
    /// Row in which a column is basic (`usize::MAX` when nonbasic).
    pub(crate) row_of: Vec<usize>,
    /// Whether a nonbasic column sits at its upper bound.
    pub(crate) at_upper: Vec<bool>,
    /// Lower bound per column (structural, slack and artificial).
    pub(crate) lo: Vec<f64>,
    /// Upper bound per column (`f64::INFINITY` when absent).
    pub(crate) up: Vec<f64>,
    /// Phase-2 reduced costs (minimization form), maintained across pivots.
    pub(crate) d: Vec<f64>,
    /// The constraint right-hand sides this state was last solved against
    /// (one per row, in the problem's row order and original sign).  Kept so
    /// [`crate::SimplexSolver::resolve_with_rhs`] can compute the deltas to a
    /// problem whose right-hand sides were mutated in place.
    pub(crate) rhs: Vec<f64>,
    /// Number of structural variables (columns `0..n`).
    pub(crate) n: usize,
    /// First artificial column (`cols` when the solve needed none).
    pub(crate) artificial_start: usize,
    /// Total number of columns.
    pub(crate) cols: usize,
}

impl LpState {
    /// Number of tableau rows — one per constraint of the source problem:
    /// variable bounds and branch fixings do **not** create rows.
    pub fn num_rows(&self) -> usize {
        self.xb.len()
    }

    /// Number of structural (problem) variables.
    pub fn num_structural(&self) -> usize {
        self.n
    }

    /// Number of phase-1 artificial columns the solve needed.
    pub fn num_artificials(&self) -> usize {
        self.cols - self.artificial_start
    }

    /// Total number of tableau columns (structurals + slacks + artificials).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// The constraint right-hand sides this state was last solved against,
    /// one per row.  After
    /// [`resolve_with_rhs`](crate::SimplexSolver::resolve_with_rhs) this
    /// matches the problem's current right-hand sides.
    pub fn solved_rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// A compact snapshot of the current basis.
    pub fn basis(&self) -> Basis {
        Basis {
            basic_cols: self.basis.clone(),
            at_upper: self.at_upper.clone(),
            num_structural: self.n,
        }
    }

    /// The current value of a column: its basic value if basic, otherwise
    /// the bound it rests at.
    pub(crate) fn value_of(&self, col: usize) -> f64 {
        let row = self.row_of[col];
        if row != usize::MAX {
            self.xb[row]
        } else if self.at_upper[col] {
            self.up[col]
        } else {
            self.lo[col]
        }
    }

    /// Whether a column is basic.
    pub(crate) fn is_basic(&self, col: usize) -> bool {
        self.row_of[col] != usize::MAX
    }

    /// Append constraint rows to a solved state, preserving every layout
    /// invariant the warm-start paths rely on — in particular that the slack
    /// of row `r` is column `n + r`, which
    /// [`resolve_with_rhs`](crate::SimplexSolver::resolve_with_rhs) reads as
    /// `B⁻¹·e_r`.
    ///
    /// Each entry is `(structural coefficients, rhs, slack lower, slack
    /// upper)`.  The new slack columns are spliced in *before* the artificial
    /// block (so they land exactly at `n + old_rows ..`), every basis
    /// reference into the artificial block shifts accordingly, and each new
    /// tableau row is eliminated against the current basic columns so it is
    /// expressed in `B⁻¹A` form like the existing rows.  The new row's slack
    /// enters the basis at value `rhs − a·x` for the current point `x`; when
    /// that violates the slack's bounds (the row cuts the current point off)
    /// the state is primal infeasible but still **dual feasible** — its
    /// reduced costs are untouched because the new slacks cost zero — so a
    /// dual-simplex repair restores optimality.  Branch-and-bound uses this
    /// once per solve, at the root, to add presolve's tightened rows before
    /// any child state exists.
    pub(crate) fn append_rows(&mut self, rows: &[(Vec<f64>, f64, f64, f64)]) {
        let k = rows.len();
        if k == 0 {
            return;
        }
        let insert = self.artificial_start;
        let old_rows = self.num_rows();

        // Splice k zero columns (the new slacks) in front of the artificials.
        self.a.insert_zero_cols(insert, k);
        self.lo
            .splice(insert..insert, rows.iter().map(|&(_, _, slo, _)| slo));
        self.up
            .splice(insert..insert, rows.iter().map(|&(_, _, _, sup)| sup));
        self.at_upper
            .splice(insert..insert, std::iter::repeat_n(false, k));
        self.d.splice(insert..insert, std::iter::repeat_n(0.0, k));
        self.row_of
            .splice(insert..insert, std::iter::repeat_n(usize::MAX, k));
        for b in &mut self.basis {
            if *b >= insert {
                *b += k;
            }
        }
        self.artificial_start += k;
        self.cols += k;
        // Re-point the shifted artificial columns.
        for (row, &b) in self.basis.iter().enumerate() {
            self.row_of[b] = row;
        }

        // Build each new row in B⁻¹A form with its slack basic.
        for (i, (coeffs, rhs, _, _)) in rows.iter().enumerate() {
            debug_assert_eq!(coeffs.len(), self.n);
            let slack_col = insert + i;
            // Slack value at the current point, from the *original* row.
            let dot: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(j, &c)| c * self.value_of(j))
                .sum();
            let xb_new = rhs - dot;

            let mut full = vec![0.0; self.cols];
            full[..self.n].copy_from_slice(coeffs);
            full[slack_col] = 1.0;
            // Eliminate against the existing basic columns: each is a unit
            // column across the old rows, so one pass suffices.  The new
            // rows' own slacks never appear in older rows, so new rows need
            // no elimination against each other.
            for r in 0..old_rows + i {
                let b = self.basis[r];
                let factor = full[b];
                if factor != 0.0 {
                    for (f, p) in full.iter_mut().zip(&self.a[r]) {
                        *f -= factor * p;
                    }
                }
            }
            self.a.push_row(&full);
            self.xb.push(xb_new);
            self.basis.push(slack_col);
            self.row_of[slack_col] = old_rows + i;
            self.rhs.push(*rhs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{LpState, SPARE};
    use crate::expr::{LinearExpr, Var};
    use crate::problem::{Cmp, Problem, Sense, Solution};
    use crate::simplex::{SimplexOutcome, SimplexSolver};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    fn optimal(outcome: SimplexOutcome) -> Solution {
        match outcome {
            SimplexOutcome::Optimal(s) => s,
            other => panic!("expected an optimum, got {other:?}"),
        }
    }

    /// `max x + 3y + z` over `[0, 4]³` with a `≥` row and an `=` row that
    /// both start infeasible, so the build needs two artificials.
    fn artificial_instance() -> (Problem, [Var; 3]) {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, Some(4.0));
        let y = p.add_continuous("y", 0.0, Some(4.0));
        let z = p.add_continuous("z", 0.0, Some(4.0));
        p.add_constraint(
            LinearExpr::from_terms([(x, 1.0), (y, 1.0), (z, 1.0)]),
            Cmp::Ge,
            2.0,
        );
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 2.0)]), Cmp::Le, 6.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (z, -1.0)]), Cmp::Eq, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 3.0), (z, 1.0)]));
        (p, [x, y, z])
    }

    /// A 0-1 knapsack relaxation with `items` variables and `items / 2`
    /// rows, so differently sized instances have differently sized tableaux.
    fn knapsack_state(items: usize) -> (Problem, LpState) {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..items).map(|i| p.add_binary(format!("x{i}"))).collect();
        for r in 0..items / 2 {
            let terms = xs
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, 1.0 + ((i * 7 + r * 3) % 5) as f64));
            p.add_constraint(LinearExpr::from_terms(terms), Cmp::Le, items as f64);
        }
        p.set_objective(LinearExpr::from_terms(
            xs.iter()
                .enumerate()
                .map(|(i, v)| (*v, 2.0 + (i % 3) as f64)),
        ));
        let state = SimplexSolver::new().solve_tracked(&p, &[]).state.unwrap();
        (p, state)
    }

    fn spare_capacities() -> Vec<usize> {
        SPARE.with(|spare| spare.borrow().buffers.iter().map(Vec::capacity).collect())
    }

    fn clear_spare() {
        SPARE.with(|spare| {
            let mut spare = spare.borrow_mut();
            spare.buffers.clear();
            spare.bytes = 0;
        });
    }

    #[test]
    fn state_dimensions_match_the_problem() {
        // Two constraints, two vars with native bounds: 2 rows, 4 columns
        // (2 structural + 2 slacks), no artificials.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, Some(4.0));
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 3.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, -1.0)]), Cmp::Le, 2.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let result = SimplexSolver::new().solve_tracked(&p, &[]);
        let state = result.state.expect("optimal state");
        assert_eq!(state.num_rows(), 2);
        assert_eq!(state.num_structural(), 2);
        assert_eq!(state.num_artificials(), 0);
        assert_eq!(state.num_cols(), 4);
        let basis = state.basis();
        assert_eq!(basis.basic_cols.len(), 2);
        assert_eq!(basis.num_structural, 2);
    }

    #[test]
    fn appended_rows_match_a_cold_solve_and_keep_the_slack_layout() {
        let (mut p, [x, y, z]) = artificial_instance();
        let solver = SimplexSolver::new();
        let root = solver.solve_tracked(&p, &[]);
        let state = root.state.expect("optimal root");
        assert_eq!(state.num_artificials(), 2, "the build needs artificials");
        let before = optimal(root.outcome);
        assert_close(before.objective, 10.0);

        // Both rows cut the root optimum (4, 1, 3) off; the dual repair
        // lands on the unique optimum (1, 2, 0).
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 3.0);
        p.add_constraint(LinearExpr::from_terms([(y, 1.0), (z, 1.0)]), Cmp::Le, 2.5);
        let warm = solver.resolve_appended_owned(&p, state, &[]);
        let state = warm.state.expect("repaired state");
        assert_eq!(state.num_rows(), 5);
        assert_eq!(state.num_artificials(), 2);
        let warm = optimal(warm.outcome);
        let cold = optimal(solver.solve_tracked(&p, &[]).outcome);
        assert_close(warm.objective, cold.objective);
        assert_close(warm.objective, 7.0);
        for (w, c) in warm.values.iter().zip(&cold.values) {
            assert_close(*w, *c);
        }

        // The slack of appended row r is column n + r: moving either row's
        // right-hand side and re-solving from the state agrees with cold.
        for (row, rhs) in [(3, 2.5), (4, 1.0)] {
            let mut q = p.clone();
            q.set_rhs(row, rhs).unwrap();
            let chained = optimal(solver.resolve_with_rhs(&q, &state).outcome);
            let cold = optimal(solver.solve_tracked(&q, &[]).outcome);
            assert_close(chained.objective, cold.objective);
            for (w, c) in chained.values.iter().zip(&cold.values) {
                assert_close(*w, *c);
            }
        }
    }

    #[test]
    fn recycled_buffers_clone_exactly() {
        clear_spare();
        let (p, state) = knapsack_state(16);
        let needed = state.num_rows() * state.num_cols();
        // Free one larger and one smaller tableau: the clone below must take
        // the larger buffer and overwrite its old contents.
        drop(knapsack_state(24).1);
        drop(knapsack_state(8).1);
        let spare = spare_capacities();
        assert_eq!(spare.len(), 2);
        assert!(spare.iter().any(|&c| c > needed) && spare.iter().any(|&c| c < needed));

        let recycled = state.clone();
        assert_eq!(recycled, state);
        assert!(spare_capacities().iter().all(|&c| c < needed));
        clear_spare();
        let fresh = state.clone();
        assert_eq!(fresh, state);

        let solver = SimplexSolver::new();
        // Flip one selected and one unselected item of the root optimum.
        let root = solver.resolve_with_fixings(&p, &state, &[]);
        let root = optimal(root.outcome);
        let pick = |selected: bool| {
            Var((0..16)
                .find(|&i| (root.values[i] > 0.5) == selected)
                .unwrap())
        };
        let fixing = [(pick(true), 0.0), (pick(false), 1.0)];
        let a = solver.resolve_owned(&p, recycled, &fixing);
        let b = solver.resolve_owned(&p, fresh, &fixing);
        assert!(a.pivots > 0, "the fixings must move the basis");
        assert_eq!(a.pivots, b.pivots);
        let (a, b) = (optimal(a.outcome), optimal(b.outcome));
        let bits = |s: &Solution| -> Vec<u64> {
            std::iter::once(s.objective)
                .chain(s.values.iter().copied())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
    }
}
