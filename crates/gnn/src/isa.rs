//! One kernel body, compiled for two instruction sets, picked at run time.
//!
//! The release build targets baseline x86-64, so every kernel is compiled
//! for SSE2: four `f32` lanes per instruction. [`kernel!`] compiles the
//! same `#[inline(always)]` body a second time inside a
//! `#[target_feature(enable = "avx2")]` function (eight lanes, three-operand
//! forms) and calls that instance when the running CPU has AVX2. On
//! targets other than x86_64 only the baseline instance exists.
//!
//! The two instances are the same Rust code, so they perform the same IEEE
//! operations on every element in the same order: the widening changes how
//! many independent elements one instruction carries, never what an
//! element sums or in which order. No intrinsics, no `mul_add`, and no
//! `fma` feature (a fused multiply-add rounds once and would change bits).
//! The instances are pinned to each other bitwise by one proptest per
//! kernel, on ±0, subnormals, NaN payloads, ±∞ and tail widths.
//!
//! The dispatched kernels:
//!
//! * forward: `tanh_slice`'s run kernel, `propagate_matmul_into` (GC
//!   1–3), `plan_matmul_into` (GC 0), `strided_gemm_into` (conv1, conv2,
//!   and the backward's input gradients of the GC and dense layers) and
//!   `Matrix::matmul_into` (dense1, dense2, conv1's input gradient);
//! * backward: `Matrix::t_matmul_into` / `t_matmul_rows_into` (the weight
//!   gradients of GC 1–3, conv1, dense1 and dense2), `conv2_weight_grads`,
//!   `conv2_input_grads` and `propagate_back_into`;
//! * the optimiser: Adam's element-wise update.
//!
//! `plan_t_matmul_rows_into` (GC 0's weight gradient) stays baseline
//! only: its AVX2 instance measured about three times slower at fig7's
//! shapes.
//!
//! This module holds the crate's only `unsafe`: calling a
//! `#[target_feature]` function, right after the feature check.

/// Defines the kernel `fn $name(args)` from one body, plus a module of the
/// same name holding its instances:
///
/// * `$name::baseline(args)` — the body compiled for the build target;
/// * `$name::avx2(args) -> bool` — the body compiled with AVX2 enabled,
///   run only when the CPU has AVX2; returns whether it ran.
///
/// `$name(args)` runs the AVX2 instance where it can and the baseline
/// instance otherwise. The attributes (doc comment, `#[inline(never)]`)
/// go on `$name`. Arguments must be usable twice (references, views and
/// other `Copy` values), and the signature must name no lifetime (`'_`
/// is fine), since the body becomes a nested function.
macro_rules! kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) {
            if !$name::avx2($($arg),*) {
                $name::baseline($($arg),*);
            }
        }

        pub(crate) mod $name {
            use super::*;

            #[inline(always)]
            fn body($($arg: $ty),*) $body

            /// The instance compiled for the build target.
            #[inline]
            pub(crate) fn baseline($($arg: $ty),*) {
                body($($arg),*);
            }

            /// Runs the AVX2 instance and returns `true`, or returns
            /// `false` without running anything when the CPU has no AVX2.
            #[allow(unsafe_code, unused_variables)]
            pub(crate) fn avx2($($arg: $ty),*) -> bool {
                #[cfg(target_arch = "x86_64")]
                {
                    #[target_feature(enable = "avx2")]
                    fn instance($($arg: $ty),*) {
                        body($($arg),*);
                    }
                    // The standard library caches the `cpuid` answer, so
                    // after the first call this is one load and a test.
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: `instance` only requires the AVX2
                        // instructions, and the CPU was just found to
                        // support them.
                        unsafe { instance($($arg),*) };
                        return true;
                    }
                }
                false
            }
        }
    };
}

pub(crate) use kernel;

#[cfg(test)]
pub(crate) mod tests {
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::matrix::tests::SPECIAL_BITS;
    use crate::matrix::Matrix;

    /// A `rows × cols` oracle input: one entry in four a zero of either
    /// sign (the skip-zero branch), one in eight from [`SPECIAL_BITS`],
    /// one in eight ±1 or ±0.5 (sums that cancel exactly), the rest in
    /// (−1, 1).
    pub(crate) fn oracle_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(SPECIAL_BITS[rng.gen_range(0..SPECIAL_BITS.len())]),
                3 => [1.0f32, -1.0, 0.5, -0.5][rng.gen_range(0..4usize)],
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `ran`, after saying on stderr that nothing was compared when the
    /// AVX2 instance did not run (the CPU has no AVX2).
    pub(crate) fn avx2_ran(ran: bool) -> bool {
        if !ran {
            eprintln!("this CPU has no AVX2: the AVX2 instance did not run, nothing was compared");
        }
        ran
    }
}
