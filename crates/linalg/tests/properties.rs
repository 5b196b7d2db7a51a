//! Property-based tests for the dense linear-algebra kernels.

use idc_linalg::cholesky::{ArrowheadCholesky, Cholesky, UpdatableCholesky};
use idc_linalg::{lu::Lu, vec_ops, Matrix};
use proptest::prelude::*;

/// Strategy: an `n × n` matrix with entries in [-1, 1] and a diagonal boost
/// that makes it strictly diagonally dominant (hence nonsingular).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_fn(n, n, |i, j| data[i * n + j]);
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_has_small_residual((a, b) in dominant_matrix(6).prop_flat_map(|a| {
        let n = a.rows();
        (Just(a), vector(n))
    })) {
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let r = vec_ops::sub(&a.mul_vec(&x).unwrap(), &b);
        prop_assert!(vec_ops::norm_inf(&r) < 1e-9);
    }

    #[test]
    fn lu_det_sign_consistent_under_row_swap(a in dominant_matrix(4)) {
        let d = Lu::factor(&a).unwrap().det();
        let mut swapped = a.clone();
        swapped.swap_rows(0, 1);
        let d2 = Lu::factor(&swapped).unwrap().det();
        prop_assert!((d + d2).abs() <= 1e-8 * d.abs().max(1.0));
    }

    #[test]
    fn transpose_reverses_products(a in dominant_matrix(4), b in dominant_matrix(4)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.mul_mat(&b).unwrap().transpose();
        let rhs = b.transpose().mul_mat(&a.transpose()).unwrap();
        prop_assert!((&lhs - &rhs).unwrap().norm_max() < 1e-10);
    }

    #[test]
    fn rank_of_outer_product_is_at_most_one(u in vector(5), v in vector(5)) {
        let outer = Matrix::from_fn(5, 5, |i, j| u[i] * v[j]);
        prop_assert!(outer.rank(f64::EPSILON) <= 1);
    }

    /// The Cholesky inverse of a symmetric diagonally dominant matrix
    /// inverts it and is exactly symmetric.
    #[test]
    fn cholesky_inverse_inverts_and_is_symmetric(
        n in 1usize..12,
        data in prop::collection::vec(-1.0f64..1.0, 144),
    ) {
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = data[i.max(j) * 12 + i.min(j)];
            if i == j { v + n as f64 + 1.0 } else { v }
        });
        let inv = Cholesky::factor(&a).unwrap().inverse();
        prop_assert!(inv == inv.transpose());
        let err = (&a.mul_mat(&inv).unwrap() - &Matrix::identity(n)).unwrap().norm_max();
        prop_assert!(err < 1e-12, "err = {err}");
    }
}

/// Strategy: a symmetric strictly diagonally dominant (hence SPD) matrix.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = (data[i * n + j] + data[j * n + i]) / 2.0;
            }
        }
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An incrementally up/downdated factor must agree with a factor built
    /// fresh over the final index set, for arbitrary add/drop sequences —
    /// the invariant behind the active-set solvers' working-set factors.
    #[test]
    fn updatable_cholesky_add_drop_matches_fresh(
        s in spd_matrix(6),
        ops in prop::collection::vec((0usize..2, 0usize..6), 1..14),
        b in vector(6),
    ) {
        let n = 6;
        let mut fac = UpdatableCholesky::new();
        let mut active: Vec<usize> = Vec::new();
        for (add, pick) in ops {
            if add == 0 && active.len() < n {
                let unused: Vec<usize> = (0..n).filter(|g| !active.contains(g)).collect();
                let g = unused[pick % unused.len()];
                let col: Vec<f64> = active
                    .iter()
                    .chain(std::iter::once(&g))
                    .map(|&a| s[(g, a)])
                    .collect();
                fac.append(&col).unwrap();
                active.push(g);
            } else if !active.is_empty() {
                let pos = pick % active.len();
                fac.remove(pos);
                active.remove(pos);
            }
        }
        prop_assume!(!active.is_empty());
        let mut fresh = UpdatableCholesky::new();
        for (r, &gr) in active.iter().enumerate() {
            let col: Vec<f64> = active[..=r].iter().map(|&gq| s[(gr, gq)]).collect();
            fresh.append(&col).unwrap();
        }
        let mut x_inc = b[..active.len()].to_vec();
        let mut x_fresh = x_inc.clone();
        fac.solve_in_place(&mut x_inc);
        fresh.solve_in_place(&mut x_fresh);
        for (xi, xf) in x_inc.iter().zip(&x_fresh) {
            prop_assert!(
                (xi - xf).abs() <= 1e-8 * (1.0 + xf.abs()),
                "up/downdated {xi} vs fresh {xf}"
            );
        }
    }
}

/// Row vectors whose Gram matrix has arrowhead structure: chain `j`'s rows
/// live on chain `j`'s three shared coordinates plus one private coordinate
/// each, tail rows on every shared coordinate plus a private one. The
/// private coordinates keep the Gram matrix well conditioned. A rank-1
/// change `A ± v·vᵀ` with `v` on one chain's rows and the tail is a
/// coordinate added to or cleared from those rows.
struct ArrowRows {
    /// `chains[j][r]`: pool row `r` of chain `j`.
    chains: Vec<Vec<Vec<f64>>>,
    tail: Vec<Vec<f64>>,
}

impl ArrowRows {
    const SHARED: usize = 3;
    const POOL: usize = 6;

    fn new(nchains: usize, ntail: usize, data: &[f64]) -> Self {
        let width = nchains * (Self::SHARED + Self::POOL) + ntail;
        let mut next = data.iter().cycle();
        let mut draw = || *next.next().expect("cycled");
        let mut private = nchains * Self::SHARED;
        let mut row = |shared: std::ops::Range<usize>, draw: &mut dyn FnMut() -> f64| {
            let mut v = vec![0.0; width];
            for x in &mut v[shared] {
                *x = draw();
            }
            v[private] = 1.5 + draw().abs();
            private += 1;
            v
        };
        let chains = (0..nchains)
            .map(|j| {
                (0..Self::POOL)
                    .map(|_| row(j * Self::SHARED..(j + 1) * Self::SHARED, &mut draw))
                    .collect()
            })
            .collect();
        let tail = (0..ntail)
            .map(|_| row(0..nchains * Self::SHARED, &mut draw))
            .collect();
        ArrowRows { chains, tail }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Chain `j`'s append column for pool row `r` behind `held`, and its
    /// tail couplings.
    fn column(&self, j: usize, held: &[usize], r: usize) -> (Vec<f64>, Vec<f64>) {
        let v = &self.chains[j][r];
        let mut col: Vec<f64> = held
            .iter()
            .map(|&q| Self::dot(v, &self.chains[j][q]))
            .collect();
        col.push(Self::dot(v, v));
        (col, self.tail.iter().map(|t| Self::dot(v, t)).collect())
    }

    /// Adds a coordinate that is `draw()` on chain `j`'s rows and the tail
    /// rows and zero elsewhere; returns its index.
    fn add_coordinate(&mut self, j: usize, draw: &mut dyn FnMut() -> f64) -> usize {
        let x = self.chains[0][0].len();
        for (c, rows) in self.chains.iter_mut().enumerate() {
            for v in rows {
                v.push(if c == j { draw() } else { 0.0 });
            }
        }
        for t in &mut self.tail {
            t.push(draw());
        }
        x
    }

    /// Coordinate `x` on chain `j`'s held rows and on the tail rows.
    fn coordinate(&self, j: usize, held: &[usize], x: usize) -> (Vec<f64>, Vec<f64>) {
        (
            held.iter().map(|&r| self.chains[j][r][x]).collect(),
            self.tail.iter().map(|t| t[x]).collect(),
        )
    }

    /// Zeroes coordinate `x` on every row.
    fn clear_coordinate(&mut self, x: usize) {
        for v in self.chains.iter_mut().flatten().chain(&mut self.tail) {
            v[x] = 0.0;
        }
    }

    /// The Gram matrix of the held rows in factor order.
    fn gram(&self, held: &[Vec<usize>]) -> Matrix {
        let mut rows: Vec<&[f64]> = Vec::new();
        for (j, h) in held.iter().enumerate() {
            rows.extend(h.iter().map(|&r| self.chains[j][r].as_slice()));
        }
        rows.extend(self.tail.iter().map(Vec::as_slice));
        Matrix::from_fn(rows.len(), rows.len(), |a, b| Self::dot(rows[a], rows[b]))
    }
}

/// Builds an arrowhead factor from scratch (chain `j` holding its first
/// `init[j]` pool rows), applies `ops` — appends, interior and last-row
/// removes, whole chains emptied, and rank-1 updates and downdates on one
/// chain and the tail — and checks one solve against a dense LU of the
/// same matrix.
fn check_arrowhead_ops(
    nchains: usize,
    ntail: usize,
    init: &[usize],
    data: &[f64],
    ops: &[(usize, usize, usize)],
    b: &[f64],
) {
    let mut rows = ArrowRows::new(nchains, ntail, data);
    let mut f = ArrowheadCholesky::new();
    f.reset(nchains, ntail);
    let mut g = Vec::new();
    for (e, t) in rows.tail.iter().enumerate() {
        g.extend(rows.tail[..=e].iter().map(|u| ArrowRows::dot(t, u)));
    }
    let diag: Vec<f64> = (0..rows.tail.len())
        .map(|e| g[e * (e + 1) / 2 + e])
        .collect();
    f.build_tail(&g, &diag).unwrap();
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); nchains];
    for (j, &k) in init[..nchains].iter().enumerate() {
        for r in 0..k {
            let (col, c) = rows.column(j, &held[j], r);
            f.append(j, &col, &c, col[col.len() - 1]).unwrap();
            held[j].push(r);
        }
    }
    // Rank-1 terms in force: (chain, coordinate).
    let mut terms: Vec<(usize, usize)> = Vec::new();
    let mut draws = data.iter().rev().cycle().map(|x| 0.5 * x);
    for &(op, a, pick) in ops {
        let j = a % nchains;
        let len = held[j].len();
        match op {
            0 => {
                if let Some(r) = (0..ArrowRows::POOL).find(|r| !held[j].contains(r)) {
                    let (col, c) = rows.column(j, &held[j], r);
                    f.append(j, &col, &c, col[col.len() - 1]).unwrap();
                    held[j].push(r);
                }
            }
            1 if len > 0 => {
                f.remove(j, pick % len);
                held[j].remove(pick % len);
            }
            2 if len > 0 => {
                f.remove(j, len - 1);
                held[j].pop();
            }
            3 => {
                for k in (0..len).rev() {
                    f.remove(j, if pick % 2 == 0 { k } else { 0 });
                }
                held[j].clear();
            }
            4 => {
                let x = rows.add_coordinate(j, &mut || draws.next().expect("cycled"));
                let (v, v_tail) = rows.coordinate(j, &held[j], x);
                f.update(j, &v, &v_tail);
                terms.push((j, x));
            }
            5 if !terms.is_empty() => {
                let (j, x) = terms.remove(pick % terms.len());
                let (v, v_tail) = rows.coordinate(j, &held[j], x);
                f.downdate(j, &v, &v_tail, 1e-12).unwrap();
                rows.clear_coordinate(x);
            }
            _ => {}
        }
        prop_assert_eq!(f.chain_dim(j), held[j].len());
    }
    let a = rows.gram(&held);
    let m = a.rows();
    if m == 0 {
        return;
    }
    let mut x = b[..m].to_vec();
    f.solve_in_place(&mut x);
    let expect = Lu::factor(&a).unwrap().solve(&b[..m]).unwrap();
    for (xi, ei) in x.iter().zip(&expect) {
        prop_assert!(
            (xi - ei).abs() <= 1e-9 * (1.0 + ei.abs()),
            "arrowhead {xi} vs dense LU {ei}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arrowhead factor after a from-scratch build and random
    /// interleaved appends, removes — interior rows, the last row of a
    /// chain, whole chains emptied and refilled — and rank-1 updates and
    /// downdates solves like a dense LU of the same matrix.
    #[test]
    fn arrowhead_updates_match_dense_solve(
        nchains in 1usize..4,
        ntail in 0usize..4,
        init in prop::collection::vec(0usize..4, 3),
        data in prop::collection::vec(-1.0f64..1.0, 64),
        ops in prop::collection::vec((0usize..6, 0usize..8, 0usize..8), 1..40),
        b in vector(40),
    ) {
        check_arrowhead_ops(nchains, ntail, &init, &data, &ops, &b);
    }
}

proptest! {
    // Every case runs each of the controller's tail sizes (the equality
    // rows of the 3×5, 8×16 and 12×24 fleets) and factors tails of up to
    // 72 rows, so the case count stays small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// As `arrowhead_updates_match_dense_solve`, at the tail dimensions
    /// the QP loop runs: each rank-1 change sweeps the whole tail.
    #[test]
    fn arrowhead_updates_match_dense_solve_at_controller_tails(
        nchains in 1usize..4,
        init in prop::collection::vec(0usize..4, 3),
        data in prop::collection::vec(-1.0f64..1.0, 64),
        ops in prop::collection::vec((0usize..6, 0usize..8, 0usize..8), 1..40),
        b in vector(100),
    ) {
        for ntail in [15, 48, 72] {
            check_arrowhead_ops(nchains, ntail, &init, &data, &ops, &b);
        }
    }
}
