//! Runtime-dispatched AVX2/FMA microkernels for the blocked matmul path.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! root carries `#![deny(unsafe_code)]`; the intrinsic calls below are the
//! single exception). Everything observable stays safe:
//!
//! * **Detection is cached once.** [`available`] probes
//!   `is_x86_feature_detected!("avx2")` + `"fma"` through a `OnceLock`, so
//!   the hot dispatch never re-runs CPUID. Non-x86_64 builds compile the
//!   probe out and always report `false`.
//! * **`METADPA_SIMD=off` forces the scalar kernels.** The environment
//!   variable is read once per process (same contract as
//!   `METADPA_THREADS`); [`with_policy`] overrides it for the current
//!   thread only, which is what the differential tests use to compare
//!   paths inside one process.
//! * **The exact path is bit-identical to the scalar kernels.** The AVX2
//!   microkernel below performs, per output element, the *same* operation
//!   sequence as [`crate::matrix`]'s scalar register tile: round the
//!   product, then round the sum (`_mm256_mul_ps` + `_mm256_add_ps`, never
//!   `fmadd`), over `p` in ascending order from `+0.0`, computing every
//!   term as the scalar kernel does. Lanes are independent, so vectorising the `j` loop cannot change a
//!   single bit — SIMD on/off and every `METADPA_THREADS` setting all
//!   agree.
//! * **The fused path is opt-in and self-consistent.** [`Policy::Fused`]
//!   swaps in `_mm256_fmadd_ps` (one rounding per multiply-add). Like the
//!   exact path it has no zero-skip branch: on post-ReLU activations
//!   (~half the left operand exactly `0.0`) such a branch mispredicts per
//!   element and erases the SIMD win. Each output
//!   element is still one ascending-`p` chain of fused multiply-adds, so
//!   fused results are bit-identical at any thread count and any tiling;
//!   they only differ from the exact path by the documented epsilon
//!   (DESIGN §14). Hosts without AVX2 run fused requests through the
//!   exact scalar kernels (a correct member of the same error bound).
//!
//! Dispatch is resolved once per matmul call on the dispatching thread
//! ([`resolve_and_count`]) and handed to the row tasks as a value, so a
//! pool worker can never disagree with its dispatcher about which kernel
//! runs. [`crate::pool`] additionally propagates the thread-local policy
//! into spawned workers so nested matmuls inside pool tasks (per-user
//! evaluation scoring) observe the caller's [`with_policy`] scope.
//!
//! ## Panel layout
//!
//! The SIMD kernels do not reuse the scalar path's row-major column
//! panels: the right operand is repacked into 64-byte-aligned *lane
//! tiles* ([`Tile`], 16 columns wide, zero-padded at the right edge), laid
//! out tile-major so the two 8-lane loads per `p` step are one aligned
//! cache line. [`with_b_tiles`] is the one packer for all three product
//! forms; `matrix.rs`'s single matmul driver picks it or the scalar panel
//! packer per call.

#![allow(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// How matmul dispatch should treat the SIMD kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Use the exact AVX2 kernels when the host supports them (default).
    Auto,
    /// Never use SIMD — run the scalar blocked kernels even on AVX2 hosts
    /// (what `METADPA_SIMD=off` installs process-wide).
    ForcedScalar,
    /// Use the FMA-fused kernels: fastest, within the DESIGN §14 epsilon
    /// of the exact path instead of bit-identical to it. Opt-in per scope
    /// (the f32-precision serving path).
    Fused,
}

thread_local! {
    /// Per-thread override installed by [`with_policy`]; `None` = process
    /// default from `METADPA_SIMD`.
    static POLICY_OVERRIDE: Cell<Option<Policy>> = const { Cell::new(None) };

    /// Reused tile-packing buffer, one per thread (the pool's row tasks
    /// never pack — packing happens on the dispatching thread).
    static PACK_TILES: RefCell<Vec<Tile>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide default policy: [`Policy::ForcedScalar`] when
/// `METADPA_SIMD` is set to `off`/`0`/`false`/`scalar` (case-insensitive),
/// otherwise [`Policy::Auto`]. Read once, like `METADPA_THREADS`.
fn env_policy() -> Policy {
    static ENV: OnceLock<Policy> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("METADPA_SIMD") {
        Ok(v)
            if matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "off" | "0" | "false" | "scalar"
            ) =>
        {
            Policy::ForcedScalar
        }
        _ => Policy::Auto,
    })
}

/// The policy matmul dispatch on this thread observes: the innermost
/// [`with_policy`] override, else the `METADPA_SIMD` default.
pub fn current_policy() -> Policy {
    POLICY_OVERRIDE.with(Cell::get).unwrap_or_else(env_policy)
}

/// Runs `f` with the SIMD policy for this thread pinned to `policy`,
/// restoring the previous value afterwards (also on panic). Mirrors
/// [`crate::pool::with_threads`]: the differential tests compare kernels
/// inside one process with it, and the serving layer wraps f32-precision
/// catalogue ranking in a [`Policy::Fused`] scope.
pub fn with_policy<R>(policy: Policy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Policy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POLICY_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = POLICY_OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(Some(policy));
        prev
    });
    let _restore = Restore(prev);
    f()
}

/// Whether the host can run the AVX2/FMA microkernels. Probed once.
pub fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// Human-readable description of the detected kernel feature set, surfaced
/// in the serve `/health` document: `"avx2+fma"` or `"scalar"`.
pub fn feature_string() -> &'static str {
    if available() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

/// Whether matmul dispatch on this thread would pick the FMA-fused
/// kernels: [`Policy::Fused`] on an AVX2+FMA host. Bumps no counter, so
/// the narrow-kernel dispatch can ask before committing to a path.
pub(crate) fn fused_selected() -> bool {
    current_policy() == Policy::Fused && available()
}

/// The kernel family one matmul call will run, resolved on the
/// dispatching thread and passed by value into the row tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Path {
    /// Scalar blocked kernels (no AVX2, or SIMD disabled).
    Scalar,
    /// Exact AVX2 kernels: mul-round-add-round per lane, bit-identical to
    /// [`Path::Scalar`].
    SimdExact,
    /// FMA-fused kernels: one rounding per multiply-add.
    SimdFused,
}

impl Path {
    /// Whether the fused kernel family was selected.
    #[inline]
    pub(crate) fn fused(self) -> bool {
        self == Path::SimdFused
    }
}

/// Resolves the kernel path for one blocked matmul call and bumps the
/// dispatch counters: `tensor.matmul.dispatch.simd` when a SIMD kernel
/// will run, `tensor.matmul.dispatch.scalar_forced` when the host *could*
/// run SIMD but policy said no. (Plain scalar on a non-AVX2 host bumps
/// neither — there was no choice to record.)
pub(crate) fn resolve_and_count() -> Path {
    let avx2 = available();
    match current_policy() {
        Policy::ForcedScalar => {
            if avx2 {
                metadpa_obs::counter_add!("tensor.matmul.dispatch.scalar_forced", 1u64);
            }
            Path::Scalar
        }
        Policy::Auto => {
            if avx2 {
                metadpa_obs::counter_add!("tensor.matmul.dispatch.simd", 1u64);
                Path::SimdExact
            } else {
                Path::Scalar
            }
        }
        Policy::Fused => {
            if avx2 {
                metadpa_obs::counter_add!("tensor.matmul.dispatch.simd", 1u64);
                Path::SimdFused
            } else {
                Path::Scalar
            }
        }
    }
}

/// One 16-column row of a packed lane tile, aligned so an aligned pair of
/// 8-lane loads covers it. Zero-padded when the operand's right edge is
/// narrower than 16 columns.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Tile(pub(crate) [f32; 16]);

const TILE_ZERO: Tile = Tile([0.0; 16]);

/// Lane width of the packed tiles (two `ymm` registers).
pub(crate) const TILE_W: usize = 16;

/// Rows per register strip: 6 rows x 2 lanes = 12 accumulators, leaving
/// registers for the two B lanes and the broadcast.
const MR_SIMD: usize = 6;

/// Hands `f` the `k x n` right operand packed as zero-padded lane tiles:
/// tile `t` holds columns `t*16 .. t*16+16`, rows contiguous
/// (`tiles[t*k + q]` is row `q` of tile `t`). With `transposed`, `b` is
/// stored `n x k` and its transpose is packed. Packed once per matmul call
/// on the dispatching thread into a reused thread-local buffer and shared
/// read-only across all row tasks.
pub(crate) fn with_b_tiles(
    b: &[f32],
    k: usize,
    n: usize,
    transposed: bool,
    f: impl FnOnce(&[Tile]),
) {
    let ntiles = n.div_ceil(TILE_W);
    PACK_TILES.with(|buf| {
        let mut packed = buf.borrow_mut();
        packed.clear();
        packed.resize(ntiles * k, TILE_ZERO);
        for t in 0..ntiles {
            let j0 = t * TILE_W;
            let wj = TILE_W.min(n - j0);
            for q in 0..k {
                let dst = &mut packed[t * k + q].0[..wj];
                if transposed {
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = b[(j0 + j) * k + q];
                    }
                } else {
                    dst.copy_from_slice(&b[q * n + j0..q * n + j0 + wj]);
                }
            }
        }
        metadpa_obs::counter_add!("tensor.matmul.packed_tiles", ntiles as u64);
        f(&packed);
    });
}

/// The SIMD counterpart of the scalar `blocked_rows`: runs `n_rows x n`
/// outputs from a contiguous row-major `n_rows x k` left operand and a
/// lane-tile packed right operand (see [`with_b_tiles`]).
///
/// Traversal is strip-major — `MR_SIMD` output rows at a time, all tiles
/// per strip — and every output element is one register accumulator
/// summed over the full `k` range in ascending order, so results do not
/// depend on the strip/tile traversal or on how threads partition rows.
///
/// # Panics
/// Panics if called on a host without AVX2+FMA (dispatch guarantees it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn blocked_rows_simd(
    arows: &[f32],
    n_rows: usize,
    k: usize,
    tiles: &[Tile],
    n: usize,
    fused: bool,
    out: &mut [f32],
) {
    assert!(available(), "SIMD kernels dispatched on a non-AVX2 host");
    #[cfg(target_arch = "x86_64")]
    x86::driver(arows, n_rows, k, tiles, n, fused, out);
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (arows, n_rows, k, tiles, n, fused, out);
        unreachable!("available() is false off x86_64");
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_load_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    use super::{Tile, MR_SIMD, TILE_W};

    /// Strip-major driver: for each strip of up to `MR_SIMD` rows, sweep
    /// every lane tile. Monomorphic kernels per residual strip height keep
    /// the register tiling exact for remainders.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn driver(
        arows: &[f32],
        n_rows: usize,
        k: usize,
        tiles: &[Tile],
        n: usize,
        fused: bool,
        out: &mut [f32],
    ) {
        let ntiles = n.div_ceil(TILE_W);
        debug_assert!(tiles.len() >= ntiles * k, "tile panel too small");
        debug_assert!(arows.len() >= n_rows * k, "left operand too small");
        debug_assert!(out.len() >= n_rows * n, "output too small");
        let mut i0 = 0;
        while i0 < n_rows {
            let ib = MR_SIMD.min(n_rows - i0);
            for t in 0..ntiles {
                let ocol = t * TILE_W;
                let wj = TILE_W.min(n - ocol);
                let tile = &tiles[t * k..(t + 1) * k];
                // SAFETY: AVX2+FMA presence was checked by the caller
                // (`blocked_rows_simd`); in-bounds access is the
                // debug-asserted invariant above plus `ib`/`wj` clamping.
                unsafe { strip(arows, i0, ib, k, tile, out, n, ocol, wj, fused) }
            }
            i0 += ib;
        }
    }

    /// Dispatches one `(strip, tile)` pair to the monomorphic kernel for
    /// its height and op family.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn strip(
        arows: &[f32],
        i0: usize,
        ib: usize,
        k: usize,
        tile: &[Tile],
        out: &mut [f32],
        n: usize,
        ocol: usize,
        wj: usize,
        fused: bool,
    ) {
        macro_rules! call {
            ($ib:literal) => {
                if fused {
                    tile_k::<$ib, true>(arows, i0, k, tile, out, n, ocol, wj)
                } else {
                    tile_k::<$ib, false>(arows, i0, k, tile, out, n, ocol, wj)
                }
            };
        }
        match ib {
            6 => call!(6),
            5 => call!(5),
            4 => call!(4),
            3 => call!(3),
            2 => call!(2),
            1 => call!(1),
            _ => unreachable!("strip height {ib} out of range"),
        }
    }

    /// One register tile: `IB` output rows x 16 lanes, accumulated over
    /// the full `k` range in ascending order. `FUSED` selects one
    /// rounding per multiply-add (`fmadd`) vs the exact mul-round/add-round
    /// sequence; const so each instantiation compiles branch-free.
    #[target_feature(enable = "avx2,fma")]
    // The r-indexed loop reads A and writes acc in lockstep; the index
    // form keeps the measured codegen (12 live ymm accumulators) intact.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    unsafe fn tile_k<const IB: usize, const FUSED: bool>(
        arows: &[f32],
        i0: usize,
        k: usize,
        tile: &[Tile],
        out: &mut [f32],
        n: usize,
        ocol: usize,
        wj: usize,
    ) {
        debug_assert!(tile.len() >= k, "tile rows out of bounds");
        debug_assert!(k == 0 || (i0 + IB) * k <= arows.len(), "A rows out of bounds");
        debug_assert!(
            wj <= TILE_W && (i0 + IB - 1) * n + ocol + wj <= out.len(),
            "output out of bounds"
        );
        let ap = arows.as_ptr();
        let bp = tile.as_ptr() as *const f32;
        // acc[r] holds the low/high 8 lanes of output row i0+r.
        let mut acc = [[_mm256_setzero_ps(); 2]; IB];
        for q in 0..k {
            let b0 = _mm256_load_ps(bp.add(q * TILE_W));
            let b1 = _mm256_load_ps(bp.add(q * TILE_W + 8));
            for r in 0..IB {
                let a = _mm256_set1_ps(*ap.add((i0 + r) * k + q));
                if FUSED {
                    acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
                    acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
                } else {
                    // Two roundings, exactly like the scalar `+= av * bv`.
                    acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(a, b0));
                    acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(a, b1));
                }
            }
        }
        let op = out.as_mut_ptr();
        if wj == TILE_W {
            for (r, a) in acc.iter().enumerate() {
                let o = op.add((i0 + r) * n + ocol);
                _mm256_storeu_ps(o, a[0]);
                _mm256_storeu_ps(o.add(8), a[1]);
            }
        } else {
            // Right edge: the padded lanes hold garbage products of the
            // zero padding; spill and store only the real columns.
            for (r, a) in acc.iter().enumerate() {
                let mut spill = [0.0f32; TILE_W];
                _mm256_storeu_ps(spill.as_mut_ptr(), a[0]);
                _mm256_storeu_ps(spill.as_mut_ptr().add(8), a[1]);
                let base = (i0 + r) * n + ocol;
                out[base..base + wj].copy_from_slice(&spill[..wj]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_policy_overrides_and_restores() {
        let ambient = current_policy();
        let seen = with_policy(Policy::Fused, current_policy);
        assert_eq!(seen, Policy::Fused);
        assert_eq!(current_policy(), ambient);
        with_policy(Policy::ForcedScalar, || {
            assert_eq!(current_policy(), Policy::ForcedScalar);
            with_policy(Policy::Auto, || assert_eq!(current_policy(), Policy::Auto));
            assert_eq!(current_policy(), Policy::ForcedScalar);
        });
    }

    #[test]
    fn forced_scalar_never_resolves_to_simd() {
        with_policy(Policy::ForcedScalar, || {
            assert_eq!(resolve_and_count(), Path::Scalar);
        });
    }

    #[test]
    fn resolution_is_consistent_with_detection() {
        with_policy(Policy::Auto, || {
            let path = resolve_and_count();
            if available() {
                assert_eq!(path, Path::SimdExact);
            } else {
                assert_eq!(path, Path::Scalar);
            }
        });
        with_policy(Policy::Fused, || {
            let path = resolve_and_count();
            if available() {
                assert_eq!(path, Path::SimdFused);
                assert!(path.fused());
            } else {
                assert_eq!(path, Path::Scalar);
            }
        });
    }

    #[test]
    fn feature_string_matches_detection() {
        assert_eq!(feature_string(), if available() { "avx2+fma" } else { "scalar" });
    }

    #[test]
    fn tile_packing_pads_the_right_edge_with_zeros() {
        // 2x19 operand: two tiles, the second 3 columns wide + 13 zeros.
        let b: Vec<f32> = (0..38).map(|v| v as f32 + 1.0).collect();
        with_b_tiles(&b, 2, 19, false, |tiles| {
            assert_eq!(tiles.len(), 2 * 2);
            assert_eq!(tiles[0].0[0], 1.0, "tile 0 row 0 col 0");
            assert_eq!(tiles[1].0[0], 20.0, "tile 0 row 1 col 0");
            assert_eq!(tiles[2].0[..3], [17.0, 18.0, 19.0], "tile 1 row 0");
            assert_eq!(tiles[2].0[3..], [0.0; 13], "tile 1 row 0 padding");
            assert_eq!(tiles[3].0[..3], [36.0, 37.0, 38.0], "tile 1 row 1");
        });
        // The same operand stored transposed (19x2) packs to the same tiles.
        let bt: Vec<f32> = (0..38).map(|i| b[(i % 2) * 19 + i / 2]).collect();
        let plain: Vec<[f32; 16]> = with_tiles_copy(&b, false);
        assert_eq!(with_tiles_copy(&bt, true), plain);
    }

    fn with_tiles_copy(b: &[f32], transposed: bool) -> Vec<[f32; 16]> {
        let mut copy = Vec::new();
        with_b_tiles(b, 2, 19, transposed, |tiles| copy = tiles.iter().map(|t| t.0).collect());
        copy
    }
}
