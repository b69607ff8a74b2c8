//! Property tests for the zero-term skip in the accumulating GEMMs:
//! `Matrix::matmul` and `Matrix::matmul_at_b` must equal a plain dense
//! i-k-j loop bit for bit, whatever the density of the left operand, at
//! 1, 2 and 4 worker threads and in both `simd` flavours.
//!
//! The oracle walks every term in increasing `k` through `simd::axpy`,
//! which is exactly the dense kernel's arithmetic. Operand values stay
//! well away from underflow, where the kernels' documented `-0` case
//! lives (that case has its own unit test next to the kernels).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sane_autodiff::parallel::with_threads;
use sane_autodiff::simd;
use sane_autodiff::Matrix;

/// Entries nonzero with probability `density`, uniform in `±[0.01, 2)`;
/// zeros are `-0.0` with probability one half.
fn operand(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        if rng.gen_bool(density) {
            sign * rng.gen_range(0.01f32..2.0)
        } else {
            sign * 0.0
        }
    })
}

/// Dense `a * b`: every output row accumulates all of `a`'s terms.
fn oracle(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for kk in 0..a.cols() {
            simd::axpy(a.get(i, kk), b.row(kk), out.row_mut(i));
        }
    }
    bits(&out)
}

/// Dense `aᵀ * b`: rank-1 updates from every row of `a`, in row order.
fn oracle_at_b(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for kk in 0..a.rows() {
        for i in 0..a.cols() {
            simd::axpy(a.get(kk, i), b.row(kk), out.row_mut(i));
        }
    }
    bits(&out)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` in the vectorised or the scalar reference flavour.
fn in_flavour<R>(scalar: bool, f: impl FnOnce() -> R) -> R {
    if scalar {
        simd::with_scalar(f)
    } else {
        f()
    }
}

fn check(a: &Matrix, b: &Matrix, b_at: &Matrix) -> Result<(), String> {
    for scalar in [false, true] {
        let (want, want_at) = in_flavour(scalar, || (oracle(a, b), oracle_at_b(a, b_at)));
        for threads in [1, 2, 4] {
            let (got, got_at) =
                with_threads(threads, || in_flavour(scalar, || (a.matmul(b), a.matmul_at_b(b_at))));
            if bits(&got) != want {
                return Err(format!("matmul differs at {threads} threads, scalar={scalar}"));
            }
            if bits(&got_at) != want_at {
                return Err(format!("matmul_at_b differs at {threads} threads, scalar={scalar}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Densities from cora-syn's input (about 1%, 0.5% after dropout)
    /// through both sides of the more-than-half-zero switch to dense.
    #[test]
    fn gemms_equal_the_dense_loop_at_any_density(
        seed in 0u64..100_000,
        density_pick in 0usize..7,
        m in 2usize..40,
        k in 1usize..90,
        n in 1usize..20,
    ) {
        let density = [0.005, 0.0126, 0.1, 0.45, 0.5, 0.55, 1.0][density_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = operand(m, k, density, &mut rng);
        let b = operand(k, n, 1.0, &mut rng);
        let b_at = operand(m, n, 1.0, &mut rng);
        prop_assert_eq!(check(&a, &b, &b_at), Ok(()));
    }

    /// A non-finite right operand: `0 * inf` and `0 * NaN` must still
    /// reach the output as NaN, exactly as in the dense loop.
    #[test]
    fn gemms_equal_the_dense_loop_with_non_finite_b(
        seed in 0u64..100_000,
        m in 2usize..30,
        k in 2usize..60,
        n in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = operand(m, k, 0.05, &mut rng);
        let mut b = operand(k, n, 1.0, &mut rng);
        let mut b_at = operand(m, n, 1.0, &mut rng);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let special = specials[rng.gen_range(0..specials.len())];
        b.set(rng.gen_range(0..k), rng.gen_range(0..n), special);
        b_at.set(rng.gen_range(0..m), rng.gen_range(0..n), special);
        prop_assert_eq!(check(&a, &b, &b_at), Ok(()));
        prop_assert!(a.matmul(&b).has_non_finite());
        prop_assert!(a.matmul_at_b(&b_at).has_non_finite());
    }
}
