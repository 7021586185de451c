//! Two-phase dense simplex.
//!
//! Solves `min cᵀx` subject to `aᵢᵀx ⋈ᵢ bᵢ` (⋈ᵢ ∈ {≤, =, ≥}) and `x ≥ 0`.
//! Implementation notes:
//!
//! * rows are normalized to `b ≥ 0`; slack, surplus and artificial variables
//!   are appended as needed;
//! * phase 1 minimizes the sum of artificials to find a basic feasible
//!   point, phase 2 optimizes the real objective;
//! * pivoting uses Bland's rule (smallest eligible index), which is slow but
//!   cannot cycle — the decoding LPs here are small and degenerate, so
//!   termination beats speed;
//! * a single absolute tolerance `EPS = 1e-9` classifies zeros; the decoding
//!   experiments round solutions to {0,1} anyway.

/// Relation of one constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx = b`
    Eq,
    /// `aᵀx ≥ b`
    Ge,
}

/// One constraint `coeffs·x ⋈ rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Coefficient vector (dense, length = number of variables).
    pub coeffs: Vec<f64>,
    /// The relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Convenience constructor.
    pub fn new(coeffs: Vec<f64>, relation: Relation, rhs: f64) -> Self {
        Self { coeffs, relation, rhs }
    }
}

/// A linear program `min cᵀx  s.t.  constraints, x ≥ 0`.
#[derive(Clone, Debug, Default)]
pub struct LinearProgram {
    /// Objective coefficients (minimized).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// Result of [`LinearProgram::solve`].
#[derive(Clone, Debug)]
pub enum SimplexOutcome {
    /// Optimal solution found.
    Optimal {
        /// Optimal variable assignment (structural variables only).
        x: Vec<f64>,
        /// Objective value at `x`.
        objective: f64,
    },
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Adds a constraint; panics if arity differs from the objective.
    pub fn push(&mut self, c: Constraint) -> &mut Self {
        assert_eq!(c.coeffs.len(), self.objective.len(), "constraint arity mismatch");
        self.constraints.push(c);
        self
    }

    /// Solves the program.
    pub fn solve(&self) -> SimplexOutcome {
        let n = self.objective.len();
        let m = self.constraints.len();
        // Normalize rows to b >= 0 and count auxiliary variables.
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
        for c in &self.constraints {
            if c.rhs < 0.0 {
                let flipped: Vec<f64> = c.coeffs.iter().map(|v| -v).collect();
                let rel = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                rows.push((flipped, rel, -c.rhs));
            } else {
                rows.push((c.coeffs.clone(), c.relation, c.rhs));
            }
        }
        let num_slack =
            rows.iter().filter(|(_, r, _)| matches!(r, Relation::Le | Relation::Ge)).count();
        let num_artificial =
            rows.iter().filter(|(_, r, _)| matches!(r, Relation::Eq | Relation::Ge)).count();
        let total = n + num_slack + num_artificial;
        // Tableau: m rows of [coeffs | slack | artificial | rhs].
        let width = total + 1;
        let mut tab = vec![0.0f64; m * width];
        let mut basis = vec![0usize; m];
        let mut slack_idx = n;
        let mut art_idx = n + num_slack;
        let mut artificials = Vec::new();
        for (i, (coeffs, rel, rhs)) in rows.iter().enumerate() {
            let row = &mut tab[i * width..(i + 1) * width];
            row[..n].copy_from_slice(coeffs);
            row[total] = *rhs;
            match rel {
                Relation::Le => {
                    row[slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    row[slack_idx] = -1.0;
                    slack_idx += 1;
                    row[art_idx] = 1.0;
                    basis[i] = art_idx;
                    artificials.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    row[art_idx] = 1.0;
                    basis[i] = art_idx;
                    artificials.push(art_idx);
                    art_idx += 1;
                }
            }
        }

        // ---- Phase 1: minimize sum of artificials.
        if !artificials.is_empty() {
            let mut cost1 = vec![0.0f64; total];
            for &a in &artificials {
                cost1[a] = 1.0;
            }
            match Self::optimize(&mut tab, &mut basis, m, total, &cost1) {
                Phase::Unbounded => unreachable!("phase-1 objective is bounded below by 0"),
                Phase::Optimal(obj) => {
                    if obj > EPS {
                        return SimplexOutcome::Infeasible;
                    }
                }
            }
            // Drive any artificial variables still in the basis out (they sit
            // at value 0; pivot on any nonzero non-artificial column).
            for (i, basis_i) in basis.iter_mut().enumerate().take(m) {
                if artificials.contains(basis_i) {
                    let row_start = i * width;
                    if let Some(j) = (0..n + num_slack).find(|&j| tab[row_start + j].abs() > EPS) {
                        Self::pivot(&mut tab, m, total, i, j);
                        *basis_i = j;
                    }
                    // If no pivot exists the row is all-zero: redundant, keep.
                }
            }
        }

        // ---- Phase 2: minimize the real objective (artificials pinned out).
        let mut cost2 = vec![0.0f64; total];
        cost2[..n].copy_from_slice(&self.objective);
        // Forbid artificial columns from re-entering by costing them heavily
        // is unsound; instead we simply exclude them from pricing below via
        // the allowed-column bound.
        let allowed = n + num_slack;
        match Self::optimize_bounded(&mut tab, &mut basis, m, total, &cost2, allowed) {
            Phase::Unbounded => SimplexOutcome::Unbounded,
            Phase::Optimal(obj) => {
                let mut x = vec![0.0; n];
                for i in 0..m {
                    if basis[i] < n {
                        x[basis[i]] = tab[i * width + total];
                    }
                }
                SimplexOutcome::Optimal { x, objective: obj }
            }
        }
    }

    fn optimize(
        tab: &mut [f64],
        basis: &mut [usize],
        m: usize,
        total: usize,
        cost: &[f64],
    ) -> Phase {
        Self::optimize_bounded(tab, basis, m, total, cost, total)
    }

    /// Simplex iterations restricted to entering columns `< allowed`.
    fn optimize_bounded(
        tab: &mut [f64],
        basis: &mut [usize],
        m: usize,
        total: usize,
        cost: &[f64],
        allowed: usize,
    ) -> Phase {
        let width = total + 1;
        loop {
            // Reduced costs: r_j = c_j - c_B^T B^{-1} A_j, computed directly
            // from the tableau (columns are already B^{-1}A).
            let mut entering = None;
            for j in 0..allowed {
                if basis.contains(&j) {
                    continue;
                }
                let mut r = cost[j];
                for i in 0..m {
                    r -= cost[basis[i]] * tab[i * width + j];
                }
                if r < -EPS {
                    entering = Some(j); // Bland: first (smallest) index
                    break;
                }
            }
            let Some(j) = entering else {
                // Optimal: compute objective.
                let mut obj = 0.0;
                for i in 0..m {
                    obj += cost[basis[i]] * tab[i * width + total];
                }
                return Phase::Optimal(obj);
            };
            // Ratio test (Bland: smallest basis index on ties).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = tab[i * width + j];
                if a > EPS {
                    let ratio = tab[i * width + total] / a;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                    {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return Phase::Unbounded;
            };
            Self::pivot(tab, m, total, i, j);
            basis[i] = j;
        }
    }

    fn pivot(tab: &mut [f64], m: usize, total: usize, pr: usize, pc: usize) {
        let width = total + 1;
        let piv = tab[pr * width + pc];
        debug_assert!(piv.abs() > EPS, "pivot on ~zero element");
        for j in 0..width {
            tab[pr * width + j] /= piv;
        }
        for i in 0..m {
            if i == pr {
                continue;
            }
            let factor = tab[i * width + pc];
            if factor == 0.0 {
                continue;
            }
            for j in 0..width {
                let v = tab[pr * width + j];
                tab[i * width + j] -= factor * v;
            }
        }
    }
}

enum Phase {
    Optimal(f64),
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_optimal(outcome: &SimplexOutcome, expect_x: &[f64], expect_obj: f64) {
        match outcome {
            SimplexOutcome::Optimal { x, objective } => {
                assert!((objective - expect_obj).abs() < 1e-7, "objective {objective}");
                for (a, b) in x.iter().zip(expect_x) {
                    assert!((a - b).abs() < 1e-7, "x = {x:?}");
                }
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative)
        let mut lp = LinearProgram { objective: vec![-3.0, -5.0], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0, 0.0], Relation::Le, 4.0));
        lp.push(Constraint::new(vec![0.0, 2.0], Relation::Le, 12.0));
        lp.push(Constraint::new(vec![3.0, 2.0], Relation::Le, 18.0));
        assert_optimal(&lp.solve(), &[2.0, 6.0], -36.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 2, x - y = 0  -> x = y = 1.
        let mut lp = LinearProgram { objective: vec![1.0, 1.0], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0, 1.0], Relation::Eq, 2.0));
        lp.push(Constraint::new(vec![1.0, -1.0], Relation::Eq, 0.0));
        assert_optimal(&lp.solve(), &[1.0, 1.0], 2.0);
    }

    #[test]
    fn ge_constraints_and_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> x = 4, y = 0? cost 8 vs
        // x=1,y=3 cost 11; optimum x=4.
        let mut lp = LinearProgram { objective: vec![2.0, 3.0], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0, 1.0], Relation::Ge, 4.0));
        lp.push(Constraint::new(vec![1.0, 0.0], Relation::Ge, 1.0));
        assert_optimal(&lp.solve(), &[4.0, 0.0], 8.0);
    }

    #[test]
    fn detects_infeasibility() {
        // x <= 1 and x >= 2.
        let mut lp = LinearProgram { objective: vec![1.0], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0], Relation::Le, 1.0));
        lp.push(Constraint::new(vec![1.0], Relation::Ge, 2.0));
        assert!(matches!(lp.solve(), SimplexOutcome::Infeasible));
    }

    #[test]
    fn detects_unboundedness() {
        // min -x s.t. x >= 0 (no upper bound).
        let mut lp = LinearProgram { objective: vec![-1.0], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0], Relation::Ge, 0.0));
        assert!(matches!(lp.solve(), SimplexOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_normalization() {
        // -x <= -3  (i.e. x >= 3), min x -> 3.
        let mut lp = LinearProgram { objective: vec![1.0], constraints: vec![] };
        lp.push(Constraint::new(vec![-1.0], Relation::Le, -3.0));
        assert_optimal(&lp.solve(), &[3.0], 3.0);
    }

    #[test]
    fn degenerate_program_terminates() {
        // Multiple redundant constraints through the optimum (degeneracy).
        let mut lp = LinearProgram { objective: vec![-1.0, -1.0], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0, 0.0], Relation::Le, 1.0));
        lp.push(Constraint::new(vec![0.0, 1.0], Relation::Le, 1.0));
        lp.push(Constraint::new(vec![1.0, 1.0], Relation::Le, 2.0));
        lp.push(Constraint::new(vec![2.0, 2.0], Relation::Le, 4.0));
        assert_optimal(&lp.solve(), &[1.0, 1.0], -2.0);
    }

    #[test]
    fn feasibility_program() {
        let mut lp = LinearProgram { objective: vec![0.0; 2], constraints: vec![] };
        lp.push(Constraint::new(vec![1.0, 1.0], Relation::Eq, 1.0));
        match lp.solve() {
            SimplexOutcome::Optimal { x, .. } => {
                assert!((x[0] + x[1] - 1.0).abs() < 1e-9);
                assert!(x.iter().all(|&v| v >= -1e-9));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn larger_random_lp_against_bruteforce_vertices() {
        // min cᵀx over a box with one coupling row; optimum sits at a vertex
        // we can enumerate.
        let mut lp = LinearProgram { objective: vec![1.0, -2.0, 0.5], constraints: vec![] };
        for j in 0..3 {
            let mut e = vec![0.0; 3];
            e[j] = 1.0;
            lp.push(Constraint::new(e, Relation::Le, 1.0));
        }
        lp.push(Constraint::new(vec![1.0, 1.0, 1.0], Relation::Le, 2.0));
        // Optimum: y=1 (coef -2), z=0 (coef .5>0), x=0 -> obj -2.
        assert_optimal(&lp.solve(), &[0.0, 1.0, 0.0], -2.0);
    }
}
