//! Differential tests for the single-column kernels and for zeros in the
//! blocked kernels.
//!
//! The scoring head's products — `m x k @ k x 1` forward, `(m x k)^T @
//! m x 1` weight gradient and `m x 1 @ (k x 1)^T` input gradient — run
//! dedicated narrow kernels, and every production kernel computes the
//! terms of exact zeros in A instead of skipping them. Neither may change
//! a bit: every result here is compared bitwise against the retained
//! naive oracle in `metadpa_tensor::reference` (which skips zero rows
//! whenever B is finite), with exact zeros, `-0.0`, NaN and ±∞ planted in
//! either operand, at 1 and 2 pool threads under the forced-scalar and the
//! default SIMD policy. The counters must keep describing the work
//! honestly: one call and the nominal `2·m·k·n` FLOPs per product whatever
//! the kernel.

use std::sync::Arc;

use metadpa_obs::metrics::{snapshot, MetricSnapshot};
use metadpa_obs::recorder::MemoryRecorder;
use metadpa_tensor::pool::with_threads;
use metadpa_tensor::simd::{self, Policy};
use metadpa_tensor::{reference, Matrix, SeededRng};

const ROWS: [usize; 5] = [1, 2, 23, 100, 700];
const THREADS: [usize; 2] = [1, 2];
const POLICIES: [Policy; 2] = [Policy::ForcedScalar, Policy::Auto];

/// Where a non-finite value is planted, if anywhere.
#[derive(Clone, Copy, Debug)]
enum Plant {
    Clean,
    NanInA,
    InfInA,
    NanInB,
    InfInB,
    NegInfInB,
}

const PLANTS: [Plant; 6] =
    [Plant::Clean, Plant::NanInA, Plant::InfInA, Plant::NanInB, Plant::InfInB, Plant::NegInfInB];

/// A seeded normal matrix with exact `0.0` and `-0.0` entries planted.
fn zeroed(rng: &mut SeededRng, rows: usize, cols: usize) -> Matrix {
    let mut m = rng.normal_matrix(rows, cols);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = 0.0;
        } else if i % 7 == 3 {
            *v = -0.0;
        }
    }
    m
}

/// Operands for one case: both carry signed zeros, and `plant` puts one
/// non-finite value into the middle of A or B.
fn operands(
    plant: Plant,
    seed: u64,
    a_shape: (usize, usize),
    b_shape: (usize, usize),
) -> (Matrix, Matrix) {
    let mut rng = SeededRng::new(seed);
    let mut a = zeroed(&mut rng, a_shape.0, a_shape.1);
    let mut b = zeroed(&mut rng, b_shape.0, b_shape.1);
    let set_mid = |m: &mut Matrix, v: f32| {
        let n = m.as_slice().len();
        m.as_mut_slice()[n / 2] = v;
    };
    match plant {
        Plant::Clean => {}
        Plant::NanInA => set_mid(&mut a, f32::NAN),
        Plant::InfInA => set_mid(&mut a, f32::INFINITY),
        Plant::NanInB => set_mid(&mut b, f32::NAN),
        Plant::InfInB => set_mid(&mut b, f32::INFINITY),
        Plant::NegInfInB => set_mid(&mut b, f32::NEG_INFINITY),
    }
    (a, b)
}

fn counter(name: &str) -> u64 {
    snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, snap)| match snap {
            MetricSnapshot::Counter(v) => v,
            other => panic!("{name}: expected a counter, got {other:?}"),
        })
        .unwrap_or(0)
}

const COUNTERS: [&str; 3] =
    ["tensor.matmul.calls", "tensor.matmul.flops", "tensor.matmul.dispatch.narrow"];

fn counters() -> [u64; 3] {
    COUNTERS.map(counter)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Form {
    Nn,
    Tn,
    Nt,
}

/// Runs one product through the production API and the oracle; checks
/// bits and counter deltas. `a`/`b` are the operands as stored.
fn check(form: Form, a: &Matrix, b: &Matrix, ctx: &str) {
    let (want, (m, k, n)) = match form {
        Form::Nn => (reference::matmul(a, b), (a.rows(), a.cols(), b.cols())),
        Form::Tn => (reference::matmul_tn(a, b), (a.cols(), a.rows(), b.cols())),
        Form::Nt => (reference::matmul_nt(a, b), (a.rows(), a.cols(), b.rows())),
    };
    let narrow = match form {
        Form::Nn | Form::Tn => n == 1,
        Form::Nt => k == 1,
    };
    for threads in THREADS {
        for policy in POLICIES {
            let before = counters();
            let got = with_threads(threads, || {
                simd::with_policy(policy, || match form {
                    Form::Nn => a.matmul(b),
                    Form::Tn => a.matmul_tn(b),
                    Form::Nt => a.matmul_nt(b),
                })
            });
            let after = counters();
            let delta: Vec<u64> = after.iter().zip(before).map(|(x, y)| x - y).collect();
            let ctx = format!("{form:?} {m}x{k}x{n} {ctx} threads={threads} {policy:?}");
            assert_eq!(want.shape(), got.shape(), "{ctx}: shape");
            for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "{ctx}: element {i}: {w} vs {g}");
            }
            assert_eq!(delta[0], 1, "{ctx}: one call");
            assert_eq!(delta[1], 2 * (m * k * n) as u64, "{ctx}: nominal flops");
            assert_eq!(delta[2], u64::from(narrow), "{ctx}: narrow dispatch");
        }
    }
}

/// Enables a recorder for the duration of one test, under the process-wide
/// observability lock (the counters are global).
fn with_obs(f: impl FnOnce()) {
    let _guard = metadpa_obs::test_lock();
    metadpa_obs::enable(Arc::new(MemoryRecorder::default()));
    f();
    metadpa_obs::disable();
}

#[test]
fn narrow_kernels_are_bit_identical_to_the_reference() {
    with_obs(|| {
        let mut seed = 1;
        for rows in ROWS {
            for width in [1usize, 12, 32] {
                for plant in PLANTS {
                    seed += 1;
                    let ctx = format!("{plant:?}");
                    let (a, b) = operands(plant, seed, (rows, width), (width, 1));
                    check(Form::Nn, &a, &b, &ctx);
                    let (a, b) = operands(plant, seed, (rows, width), (rows, 1));
                    check(Form::Tn, &a, &b, &ctx);
                    let (a, b) = operands(plant, seed, (rows, 1), (width, 1));
                    check(Form::Nt, &a, &b, &ctx);
                }
            }
        }
    });
}

#[test]
fn computing_through_zeros_is_bit_identical_to_the_reference() {
    // 32-wide hidden layers: naive kernels at 1 and 2 rows, blocked
    // kernels from 23 rows up, in every form.
    with_obs(|| {
        let mut seed = 1000;
        for rows in ROWS {
            for plant in PLANTS {
                seed += 1;
                let ctx = format!("{plant:?}");
                let (a, b) = operands(plant, seed, (rows, 32), (32, 24));
                check(Form::Nn, &a, &b, &ctx);
                let (a, b) = operands(plant, seed, (rows, 32), (rows, 24));
                check(Form::Tn, &a, &b, &ctx);
                let (a, b) = operands(plant, seed, (rows, 32), (24, 32));
                check(Form::Nt, &a, &b, &ctx);
            }
        }
    });
}

#[test]
fn fused_policy_keeps_wide_single_column_products_on_the_fused_kernels() {
    // The narrow kernels round twice per multiply-add; under the fused
    // policy a product big enough for the blocked path must keep its
    // single-rounding kernel, while a tiny one runs exact either way.
    with_obs(|| {
        let (a, b) = operands(Plant::Clean, 7, (700, 12), (12, 1));
        let (small, _) = operands(Plant::Clean, 8, (23, 12), (12, 1));
        let before = counter("tensor.matmul.dispatch.narrow");
        simd::with_policy(Policy::Fused, || {
            let _ = a.matmul(&b);
            let _ = small.matmul(&b);
        });
        let wide_narrow = u64::from(!simd::available());
        assert_eq!(counter("tensor.matmul.dispatch.narrow") - before, 1 + wide_narrow);
    });
}
