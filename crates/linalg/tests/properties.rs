//! Property-based tests for the dense linear-algebra kernels.

use idc_linalg::banded::{BlockTridiag, BlockTridiagChol};
use idc_linalg::cholesky::{ArrowheadCholesky, UpdatableCholesky};
use idc_linalg::gemm::{gemm, gemm_ws};
use idc_linalg::workspace::Workspace;
use idc_linalg::{expm::expm, lu::Lu, vec_ops, Matrix};
use proptest::prelude::*;

/// Strategy: an `n × n` matrix with entries in [-1, 1] and a diagonal boost
/// that makes it strictly diagonally dominant (hence nonsingular).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).expect("sized by construction");
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
    fn expm_inverse_property(data in prop::collection::vec(-0.8f64..0.8, 9)) {
        let a = Matrix::from_vec(3, 3, data).unwrap();
        let e = expm(&a).unwrap();
        let einv = expm(&a.scale(-1.0)).unwrap();
        let prod = e.mul_mat(&einv).unwrap();
        let err = (&prod - &Matrix::identity(3)).unwrap().norm_max();
        prop_assert!(err < 1e-9, "err = {err}");
    }

    #[test]
    fn expm_semigroup_property(data in prop::collection::vec(-0.5f64..0.5, 9)) {
        let a = Matrix::from_vec(3, 3, data).unwrap();
        let e1 = expm(&a).unwrap();
        let e2 = expm(&a.scale(2.0)).unwrap();
        let prod = e1.mul_mat(&e1).unwrap();
        let rel = (&e2 - &prod).unwrap().norm_max() / e2.norm_max().max(1.0);
        prop_assert!(rel < 1e-9, "rel = {rel}");
    }

    #[test]
    fn rank_of_outer_product_is_at_most_one(u in vector(5), v in vector(5)) {
        let outer = Matrix::from_fn(5, 5, |i, j| u[i] * v[j]);
        prop_assert!(outer.rank(f64::EPSILON) <= 1);
    }

    /// The packed SIMD GEMM agrees with the blocked `mul_mat` reference on
    /// arbitrary shapes, specifically shapes that are NOT multiples of the
    /// 4×8 microkernel tile (partial edge tiles exercise the masked
    /// write-back path).
    #[test]
    fn gemm_matches_mul_mat_on_arbitrary_shapes(
        m in 1usize..18,
        n in 1usize..21,
        k in 1usize..15,
        seed in prop::collection::vec(-3.0f64..3.0, 18 * 21),
    ) {
        let a: Vec<f64> = (0..m * k).map(|i| seed[i % seed.len()] + 0.1 * i as f64).collect();
        let b: Vec<f64> = (0..k * n).map(|i| seed[(i * 7) % seed.len()] - 0.05 * i as f64).collect();
        let am = Matrix::from_vec(m, k, a.clone()).unwrap();
        let bm = Matrix::from_vec(k, n, b.clone()).unwrap();
        let oracle = am.mul_mat(&bm).unwrap();

        let mut c = vec![f64::NAN; m * n]; // beta = 0 must not read C
        gemm(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        for i in 0..m {
            for j in 0..n {
                let got = c[i * n + j];
                let want = oracle[(i, j)];
                prop_assert!(
                    (got - want).abs() <= 1e-10 * want.abs().max(1.0),
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    /// `C ← α·A·B + β·C` semantics hold, and a long-lived workspace gives
    /// bit-identical results to the allocating wrapper.
    #[test]
    fn gemm_accumulates_and_workspace_reuse_is_exact(
        m in 1usize..10,
        n in 1usize..12,
        k in 1usize..9,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.71).cos()).collect();
        let c0: Vec<f64> = (0..m * n).map(|i| 0.5 - (i % 5) as f64 * 0.25).collect();

        let mut expect = c0.clone();
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0;
                for l in 0..k {
                    dot += a[i * k + l] * b[l * n + j];
                }
                expect[i * n + j] = alpha * dot + beta * c0[i * n + j];
            }
        }

        let mut c = c0.clone();
        gemm(m, n, k, alpha, &a, k, &b, n, beta, &mut c, n);
        let mut ws = Workspace::new();
        let mut c_ws = c0.clone();
        // Warm the workspace on an unrelated shape first, then reuse it.
        let wa = vec![1.0; 6];
        let wb = vec![2.0; 8];
        let mut scratch = vec![0.0; 12];
        gemm_ws(3, 4, 2, 1.0, &wa, 2, &wb, 4, 0.0, &mut scratch, 4, &mut ws);
        gemm_ws(m, n, k, alpha, &a, k, &b, n, beta, &mut c_ws, n, &mut ws);

        for (idx, (&got, &want)) in c.iter().zip(&expect).enumerate() {
            prop_assert!(
                (got - want).abs() <= 1e-10 * want.abs().max(1.0),
                "idx {idx}: {got} vs {want}"
            );
        }
        prop_assert_eq!(c, c_ws); // allocation strategy must not change bits
    }

    /// Padded leading dimensions (submatrix views) read and write only the
    /// in-bounds parts of each row.
    #[test]
    fn gemm_honours_leading_dimensions(
        m in 1usize..7,
        n in 1usize..10,
        k in 1usize..6,
        pad in 1usize..4,
    ) {
        let (lda, ldb, ldc) = (k + pad, n + pad, n + pad);
        let a: Vec<f64> = (0..m * lda).map(|i| (i as f64 * 0.13).sin()).collect();
        let b: Vec<f64> = (0..k * ldb).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut c: Vec<f64> = vec![7.5; m * ldc];
        gemm(m, n, k, 1.0, &a, lda, &b, ldb, 0.0, &mut c, ldc);
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0;
                for l in 0..k {
                    dot += a[i * lda + l] * b[l * ldb + j];
                }
                let got = c[i * ldc + j];
                prop_assert!(
                    (got - dot).abs() <= 1e-10 * dot.abs().max(1.0),
                    "({i},{j}): {got} vs {dot}"
                );
            }
            // The padding tail of each row is untouched.
            for j in n..ldc.min(c.len() - i * ldc) {
                prop_assert_eq!(c[i * ldc + j], 7.5);
            }
        }
    }

    #[test]
    fn norm_inequalities_hold(data in prop::collection::vec(-100.0f64..100.0, 16)) {
        let a = Matrix::from_vec(4, 4, data).unwrap();
        // ‖A‖_max ≤ ‖A‖_1, ‖A‖_∞ and ‖A‖_F ≤ sqrt(rank)·‖A‖_2 style bounds.
        prop_assert!(a.norm_max() <= a.norm_1() + 1e-12);
        prop_assert!(a.norm_max() <= a.norm_inf() + 1e-12);
        prop_assert!(a.norm_fro() <= 4.0 * a.norm_max() + 1e-12);
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

    /// The blocked multi-row append (batched pivoting's bulk admission)
    /// must agree with row-by-row appends at any split point.
    #[test]
    fn cholesky_append_block_matches_row_appends(
        s in spd_matrix(7),
        split in 0usize..7,
        b in vector(7),
    ) {
        let n = 7;
        let col_of = |r: usize| -> Vec<f64> { (0..=r).map(|q| s[(r, q)]).collect() };
        let mut rowwise = UpdatableCholesky::new();
        for r in 0..n {
            rowwise.append(&col_of(r)).unwrap();
        }
        let mut blocked = UpdatableCholesky::new();
        for r in 0..split {
            blocked.append(&col_of(r)).unwrap();
        }
        let packed: Vec<f64> = (split..n).flat_map(col_of).collect();
        let mut ws = Workspace::new();
        blocked.append_block(n - split, &packed, &mut ws).unwrap();
        let mut x_row = b.clone();
        let mut x_blk = b;
        rowwise.solve_in_place(&mut x_row);
        blocked.solve_in_place(&mut x_blk);
        for (xr, xb) in x_row.iter().zip(&x_blk) {
            prop_assert!(
                (xr - xb).abs() <= 1e-8 * (1.0 + xr.abs()),
                "row-by-row {xr} vs blocked {xb}"
            );
        }
    }
}

/// Row vectors whose Gram matrix has arrowhead structure: chain `j`'s rows
/// live on chain `j`'s three shared coordinates plus one private coordinate
/// each, tail rows on every shared coordinate plus a private one. The
/// private coordinates keep the Gram matrix well conditioned.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arrowhead factor after a from-scratch build and random
    /// interleaved appends and removes — interior rows, the last row of a
    /// chain, whole chains emptied and refilled — solves like a dense LU of
    /// the same matrix.
    #[test]
    fn arrowhead_updates_match_dense_solve(
        nchains in 1usize..4,
        ntail in 0usize..4,
        init in prop::collection::vec(0usize..4, 3),
        data in prop::collection::vec(-1.0f64..1.0, 64),
        ops in prop::collection::vec((0usize..4, 0usize..8, 0usize..8), 1..40),
        b in vector(40),
    ) {
        let rows = ArrowRows::new(nchains, ntail, &data);
        let mut f = ArrowheadCholesky::new();
        f.reset(nchains, ntail);
        let mut held: Vec<Vec<usize>> = init[..nchains].iter().map(|&k| (0..k).collect()).collect();
        for (j, h) in held.iter().enumerate() {
            let mut cols = Vec::new();
            let mut coupling = Vec::new();
            for (a, &r) in h.iter().enumerate() {
                let (col, c) = rows.column(j, &h[..a], r);
                cols.extend(col);
                coupling.extend(c);
            }
            f.build_chain(j, h.len(), &cols, &coupling).unwrap();
        }
        let mut g = Vec::new();
        for (e, t) in rows.tail.iter().enumerate() {
            g.extend(rows.tail[..=e].iter().map(|u| ArrowRows::dot(t, u)));
        }
        f.build_tail(&g).unwrap();
        for (op, a, pick) in ops {
            let j = a % nchains;
            let len = held[j].len();
            match op {
                0 => {
                    if let Some(r) = (0..ArrowRows::POOL).find(|r| !held[j].contains(r)) {
                        let (col, c) = rows.column(j, &held[j], r);
                        f.append(j, &col, &c).unwrap();
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
                _ => {}
            }
            prop_assert_eq!(f.chain_dim(j), held[j].len());
        }
        let a = rows.gram(&held);
        let m = a.rows();
        prop_assume!(m > 0);
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
}

proptest! {
    // The blocked path factors 128-wide blocks; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The parallel blocked banded factorization must be bitwise identical
    /// for every thread count (deterministic static partitioning).
    #[test]
    fn blocked_banded_refactor_is_bitwise_thread_independent(
        seed in 0u64..u64::MAX,
        t in 2usize..4,
    ) {
        // BLOCK_MIN-sized blocks engage the blocked/parallel path; filling
        // t·nb² entries through proptest strategies would dwarf the test,
        // so the content comes from a seeded LCG instead.
        let nb = 128;
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = BlockTridiag::new(nb, t);
        for bt in 0..t {
            for i in 0..nb {
                for j in 0..=i {
                    let v = 0.5 * next();
                    a.diag_mut(bt)[i * nb + j] = v;
                    a.diag_mut(bt)[j * nb + i] = v;
                }
                a.diag_mut(bt)[i * nb + i] += 2.0 * nb as f64;
            }
        }
        for bt in 0..t - 1 {
            for k in 0..nb * nb {
                a.sub_mut(bt)[k] = 0.25 * next();
            }
        }
        let rhs: Vec<f64> = (0..nb * t).map(|_| next()).collect();
        let mut ws = Workspace::new();
        let mut serial = BlockTridiagChol::new();
        serial.refactor_with_threads(&a, &mut ws, 1).unwrap();
        let mut x_serial = rhs.clone();
        serial.solve_in_place(&mut x_serial);
        for threads in [2usize, 3, 8] {
            let mut par = BlockTridiagChol::new();
            par.refactor_with_threads(&a, &mut ws, threads).unwrap();
            let mut x = rhs.clone();
            par.solve_in_place(&mut x);
            prop_assert!(x == x_serial, "threads={threads} diverged from serial");
        }
    }
}
