//! The continuous-time electricity-cost state-space model (paper Sec. IV-A).
//!
//! State `X = [C̄, E₁, …, E_N]ᵀ` (accumulated total cost and per-IDC
//! accumulated energy), input `U = [λij] ∈ ℝ^{NC}` (IDC-major), exogenous
//! `V = [m₁, …, m_N]ᵀ` (servers ON):
//!
//! ```text
//! Ẋ = A X + B U + F V        Y = W X
//! ```
//!
//! with `A` carrying the regional prices `Pr_j` in its first row (so
//! `C̄̇ = Σ_j Pr_j E_j`), `B` injecting `b₁` into each `Ė_j` for that IDC's
//! portal block, `F` injecting `b₀·m_j`, and `W = [1, 0, …, 0]` reading the
//! cost (paper eq. 19–20). `A` is nilpotent of index 2 (`A² = 0`), so the
//! zero-order hold of paper eq. 21–25 truncates its series exactly:
//!
//! ```text
//! Φ = e^{A·Ts} = I + A·Ts
//! Ḡ = ∫₀^Ts e^{As} ds · B = (Ts·I + A·Ts²/2)·B
//! Γ = ∫₀^Ts e^{As} ds · F = (Ts·I + A·Ts²/2)·F
//! ```

use idc_linalg::Matrix;

/// The quadruple `(A, B, F, W)` of paper eq. 19–20.
#[derive(Debug, Clone, PartialEq)]
pub struct CostStateSpace {
    num_idcs: usize,
    num_portals: usize,
    a: Matrix,
    b: Matrix,
    f: Matrix,
    w: Matrix,
}

impl CostStateSpace {
    /// Builds the model for `N = prices.len()` IDCs and `num_portals`
    /// portals, with per-IDC marginal power `b1[j]` (MW per req/s) and
    /// idle power `b0[j]` (MW per server).
    ///
    /// Returns `None` when the lengths disagree, any array is empty, or
    /// `num_portals == 0`.
    pub fn new(prices: &[f64], b1: &[f64], b0: &[f64], num_portals: usize) -> Option<Self> {
        let n = prices.len();
        if n == 0 || b1.len() != n || b0.len() != n || num_portals == 0 {
            return None;
        }
        let dim = n + 1;
        let mut a = Matrix::zeros(dim, dim);
        for (j, &p) in prices.iter().enumerate() {
            a[(0, j + 1)] = p;
        }
        // B: row 1+j has b1[j] in the portal block of IDC j (IDC-major U).
        let mut b = Matrix::zeros(dim, n * num_portals);
        for j in 0..n {
            for i in 0..num_portals {
                b[(j + 1, j * num_portals + i)] = b1[j];
            }
        }
        let mut f = Matrix::zeros(dim, n);
        for j in 0..n {
            f[(j + 1, j)] = b0[j];
        }
        let mut w = Matrix::zeros(1, dim);
        w[(0, 0)] = 1.0;
        Some(CostStateSpace {
            num_idcs: n,
            num_portals,
            a,
            b,
            f,
            w,
        })
    }

    /// Number of IDCs `N`.
    pub fn num_idcs(&self) -> usize {
        self.num_idcs
    }

    /// Number of portals `C`.
    pub fn num_portals(&self) -> usize {
        self.num_portals
    }

    /// State dimension `N + 1`.
    pub fn state_dim(&self) -> usize {
        self.num_idcs + 1
    }

    /// The `A` matrix.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The `B` matrix.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The `F` matrix.
    pub fn f(&self) -> &Matrix {
        &self.f
    }

    /// The `W` output matrix.
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// The controllability matrix `[B, AB, …, A^N B]` of Sec. IV-C.
    pub fn controllability_matrix(&self) -> Matrix {
        let mut blocks = self.b.clone();
        let mut power = self.b.clone();
        for _ in 0..self.num_idcs {
            power = self.a.mul_mat(&power).expect("shapes fixed at build");
            blocks = Matrix::hstack(&blocks, &power).expect("row counts match");
        }
        blocks
    }

    /// The workload-loop controllability condition of Sec. IV-C:
    /// `rank [B AB … A^N B] = N + 1`, "ensured since Pr_j > 0 and b₁ > 0".
    pub fn is_controllable(&self) -> bool {
        self.controllability_matrix().rank(f64::EPSILON) == self.state_dim()
    }

    /// The exact zero-order-hold discretization over `ts` (paper eq. 21–25),
    /// in closed form because `A² = 0`.
    pub fn discretize(&self, ts: f64) -> DiscreteCostModel {
        let mut phi = Matrix::identity(self.state_dim());
        phi.scaled_add_assign(ts, &self.a).expect("A is square");
        // ∫₀^Ts e^{As} ds = Ts·I + A·Ts²/2, applied to B and to F.
        let held = |m: &Matrix| {
            let mut out = m.scale(ts);
            let am = self.a.mul_mat(m).expect("shapes fixed at build");
            out.scaled_add_assign(ts * ts / 2.0, &am)
                .expect("shapes fixed at build");
            out
        };
        DiscreteCostModel {
            phi,
            g: held(&self.b),
            gamma: held(&self.f),
            ts,
        }
    }
}

/// A discretized cost model `X(k) = Φ X(k−1) + Ḡ U(k−1) + Γ V(k−1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteCostModel {
    /// State transition `Φ = I + A·Ts` (paper eq. 23).
    pub phi: Matrix,
    /// Input matrix `Ḡ = (Ts·I + A·Ts²/2)·B` (paper eq. 24).
    pub g: Matrix,
    /// Exogenous matrix `Γ = (Ts·I + A·Ts²/2)·F` (paper eq. 25).
    pub gamma: Matrix,
    /// Sampling period in the same time unit as `A` (we use hours so that
    /// cost integrates in $/MWh · MW · h).
    pub ts: f64,
}

impl DiscreteCostModel {
    /// Advances the state one sampling period.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the model dimensions.
    pub fn step(&self, x: &[f64], u: &[f64], v: &[f64]) -> Vec<f64> {
        let px = self.phi.mul_vec(x).expect("state dim");
        let gu = self.g.mul_vec(u).expect("input dim");
        let gv = self.gamma.mul_vec(v).expect("exogenous dim");
        px.iter()
            .zip(&gu)
            .zip(&gv)
            .map(|((a, b), c)| a + b + c)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like() -> CostStateSpace {
        // Prices in $/MWh, b1 in MW per req/s, b0 in MW per server.
        CostStateSpace::new(
            &[43.26, 30.26, 19.06],
            &[67.5e-6, 108.0e-6, 77.142857e-6],
            &[150e-6, 150e-6, 150e-6],
            5,
        )
        .expect("valid dimensions")
    }

    #[test]
    fn constructor_validates() {
        assert!(CostStateSpace::new(&[], &[], &[], 5).is_none());
        assert!(CostStateSpace::new(&[1.0], &[1.0, 2.0], &[1.0], 5).is_none());
        assert!(CostStateSpace::new(&[1.0], &[1.0], &[1.0], 0).is_none());
    }

    #[test]
    fn shapes_match_paper_eq_19() {
        let ss = paper_like();
        assert_eq!(ss.a().shape(), (4, 4));
        assert_eq!(ss.b().shape(), (4, 15));
        assert_eq!(ss.f().shape(), (4, 3));
        assert_eq!(ss.w().shape(), (1, 4));
        assert_eq!(ss.state_dim(), 4);
        assert_eq!(ss.num_idcs(), 3);
        assert_eq!(ss.num_portals(), 5);
    }

    #[test]
    fn a_is_nilpotent_of_index_2() {
        let ss = paper_like();
        let a2 = ss.a().mul_mat(ss.a()).unwrap();
        assert_eq!(a2.norm_max(), 0.0);
        assert!(ss.a().norm_max() > 0.0);
    }

    #[test]
    fn structure_of_b_and_f() {
        let ss = paper_like();
        // B row for E_1 (index 1) carries b1[0] over portal block 0.
        for i in 0..5 {
            assert!((ss.b()[(1, i)] - 67.5e-6).abs() < 1e-18);
            assert_eq!(ss.b()[(1, 5 + i)], 0.0);
        }
        // Cost row of B is zero — inputs do not hit the cost directly.
        for c in 0..15 {
            assert_eq!(ss.b()[(0, c)], 0.0);
        }
        assert_eq!(ss.f()[(2, 1)], 150e-6);
        assert_eq!(ss.f()[(2, 0)], 0.0);
    }

    #[test]
    fn paper_fleet_is_controllable() {
        assert!(paper_like().is_controllable());
    }

    #[test]
    fn zero_price_breaks_controllability() {
        // With Pr_j = 0 for every j the cost state is unreachable.
        let ss = CostStateSpace::new(&[0.0, 0.0], &[1e-5, 1e-5], &[1e-6, 1e-6], 2).unwrap();
        assert!(!ss.is_controllable());
    }

    #[test]
    fn paper_model_discretization_is_exact() {
        // An exact ZOH composes: one step of 2·Ts equals two steps of Ts
        // under a held input. A truncated series of a non-nilpotent `A`
        // would not.
        let ss = paper_like();
        let ts = 1.0 / 120.0; // 30 s in hours
        let one = ss.discretize(ts);
        let two = ss.discretize(2.0 * ts);
        let x0 = [3.0, 0.4, 0.7, 0.2];
        let u: Vec<f64> = (0..15).map(|c| 1_000.0 * (c + 1) as f64).collect();
        let v = [8_000.0, 10_000.0, 9_000.0];
        let halves = one.step(&one.step(&x0, &u, &v), &u, &v);
        let whole = two.step(&x0, &u, &v);
        for (h, w) in halves.iter().zip(&whole) {
            assert!((h - w).abs() <= 1e-12 * w.abs().max(1.0), "{h} vs {w}");
        }
    }

    #[test]
    fn discrete_step_accumulates_cost_and_energy() {
        // Single IDC, single portal: prices 50 $/MWh, b1 = 1e-4 MW/(req/s),
        // b0 = 1.5e-4 MW/server.
        let ss = CostStateSpace::new(&[50.0], &[1e-4], &[1.5e-4], 1).unwrap();
        let d = ss.discretize(0.1);
        // Start at zero state; 1000 req/s on 10 servers.
        let x1 = d.step(&[0.0, 0.0], &[1000.0], &[10.0]);
        // Energy after one step: P·Ts.
        let p = 1e-4 * 1000.0 + 1.5e-4 * 10.0;
        assert!((x1[1] - p * 0.1).abs() < 1e-12);
        // Cost grows quadratically (the paper's double-integrator):
        // C̄(Ts) = Pr·P·Ts²/2.
        assert!((x1[0] - 50.0 * p * 0.01 / 2.0).abs() < 1e-9);
        // A second step keeps integrating.
        let x2 = d.step(&x1, &[1000.0], &[10.0]);
        assert!(x2[0] > x1[0] && x2[1] > x1[1]);
    }
}
