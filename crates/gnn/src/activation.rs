//! The `tanh` activation of the graph convolutions, computed in-repo.
//!
//! [`tanhf`] and [`expm1f`] are safe-Rust ports of the fdlibm-derived
//! single-precision routines glibc ships (`sysdeps/ieee754/flt-32`,
//! glibc 2.36): same constants, same branch thresholds, same operation
//! order, no fused multiply-add. On a host with glibc 2.36 they return
//! the host libm's bits for every input, and they return those same bits
//! on every other platform, so the activation no longer depends on the C
//! library.
//!
//! [`tanh_slice`] is the production entry point. A chunk of eight whose
//! values all have `|x| < 0.52` (almost every chunk of a trained model's
//! activations) goes through a branch-free lane kernel: both `expm1f`
//! reconstructions such a value can reach are evaluated for every
//! element and the element's own result is selected by bit mask, so the
//! loop over a slice vectorises (four lanes per SSE2 instruction on the
//! default x86-64 target). Each lane performs the scalar port's
//! operations on its branch (one exception, shown exact, is noted at
//! `tanh_near_lane`), so the kernel is bit-identical to [`tanhf`]. Any
//! other chunk goes through the scalar port.

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;

/// `eˣ − 1`, bit-identical to glibc 2.36's `expm1f`.
#[must_use]
pub fn expm1f(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits >> 31 != 0;
    let hx = bits & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln2
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if neg {
            return TINY - 1.0;
        }
    }

    // Argument reduction: x = k·ln2 + (hi − lo), c the rounding error.
    let (x, k, c) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, k, (hi - r) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: the answer is x itself.
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0, 0.0)
    };

    // x is now in the primary range.
    let (hxs, e) = expm1_core(x);
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        let y = 1.0 - (e - x);
        return add_exponent(y, k) - 1.0;
    }
    let y = if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        t - (e - x)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        (x - (e + t)) + 1.0
    };
    add_exponent(y, k)
}

/// `tanh(x)`, bit-identical to glibc 2.36's `tanhf`.
#[must_use]
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2⁻⁵⁵
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// Adds `k` to the binary exponent of `y` by integer arithmetic on its
/// bit pattern (`SET_FLOAT_WORD(y, i + (k << 23))`).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// Chunk width of [`tanh_slice`]: the unit that is classified (see
/// [`is_near`]) and padded at the tail.
const LANES: usize = 8;

/// Largest `|x|` bit pattern (exclusive) whose `expm1f(−2|x|)` reduces
/// with `k = −1` at most: `2|x| < 1.5·ln2`, the bits `0x3f85_1592` with
/// the exponent one lower.
const NEAR: u32 = 0x3f05_1592;

/// All-ones where `cond` holds, zero elsewhere.
#[inline(always)]
fn mask(cond: bool) -> u32 {
    0u32.wrapping_sub(u32::from(cond))
}

/// `m ? a : b` on bit patterns (`m` is all-ones or zero).
#[inline(always)]
fn select(m: u32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// `expm1f`'s primary-range core on the reduced argument `x`: `(hxs, e)`
/// with `hxs = x²/2` and `e` the correction term before reconstruction.
#[inline(always)]
fn expm1_core(x: f32) -> (f32, f32) {
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    (hxs, hxs * ((r1 - t) / (6.0 - x * t)))
}

/// [`expm1f`] without branches, for `a = −2|x|` with `|x|` below
/// [`NEAR`]: `k` is 0 or −1, so only those two reconstructions (and the
/// `|a| < 2⁻²⁵` shortcut) are computed, and the one [`expm1f`] would
/// take is selected. Each performs exactly [`expm1f`]'s operations.
#[inline(always)]
fn expm1_near_lane(a: f32) -> f32 {
    let hx = a.to_bits() & 0x7fff_ffff;
    let reduce = mask(hx > 0x3eb1_7218); // k = −1
    let (hi, lo) = (a + LN2_HI, -LN2_LO);
    let r = hi - lo;
    let c = select(reduce, (hi - r) - lo, 0.0);
    let x = select(reduce, r, a);
    let (hxs, e) = expm1_core(x);
    let r_k0 = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let r_km1 = 0.5 * (x - e) - 0.5;
    // |a| < 2⁻²⁵: a itself (`expm1f`'s x − (t − (huge + x)) is exactly x).
    select(mask(hx < 0x3300_0000), a, select(reduce, r_km1, r_k0))
}

/// [`tanhf`] without branches, for `|x|` below [`NEAR`] (the `|x| < 1`
/// branch, `−t/(t+2)` with `t = expm1f(−2|x|)`, its sign from `x`).
///
/// `tanhf`'s `|x| < 2⁻⁵⁵` branch (±0 included), which returns `x`,
/// needs no select: there `t = −2|x|` exactly, `t + 2` rounds to 2, and
/// `2|x|/2` is `|x|` exactly, so this formula returns `x` too.
#[inline(always)]
fn tanh_near_lane(x: f32) -> f32 {
    let t = expm1_near_lane(-2.0 * x.abs());
    let z = -t / (t + 2.0);
    f32::from_bits(z.to_bits() ^ (x.to_bits() & 0x8000_0000))
}

/// Whether every `|x|` of a chunk is below [`NEAR`] (NaN and ±∞ are
/// not). No early exit, so it vectorises.
#[inline(always)]
fn is_near(chunk: &[f32]) -> bool {
    chunk
        .iter()
        .fold(0, |m: u32, v| m.max(v.to_bits() & 0x7fff_ffff))
        < NEAR
}

/// Applies [`tanhf`] to a run of chunks that are all near (the lane
/// kernel) or all not (the scalar port). Not inlined, so the lane loop
/// keeps a run-time trip count and the compiler vectorises it instead of
/// unrolling it.
#[inline(never)]
fn tanh_run(near: bool, xs: &mut [f32]) {
    if near {
        for v in xs {
            *v = tanh_near_lane(*v);
        }
    } else {
        for v in xs {
            *v = tanhf(*v);
        }
    }
}

/// Applies [`tanhf`] to every element in place.
///
/// Bit-identical to mapping [`tanhf`] over the slice. The slice is
/// split into chunks of eight (the short tail zero-padded), and each run
/// of chunks whose values all have `|x| < 0.52` (on the benchmark
/// workloads, over 99.5 % of a trained model's activation chunks) goes
/// through a vectorised branch-free lane kernel; every other run goes
/// through the scalar port.
pub fn tanh_slice(xs: &mut [f32]) {
    let whole = xs.len() - xs.len() % LANES;
    let (mut rest, tail) = xs.split_at_mut(whole);
    while !rest.is_empty() {
        let near = is_near(&rest[..LANES]);
        let run = rest
            .chunks_exact(LANES)
            .take_while(|c| is_near(c) == near)
            .count()
            * LANES;
        let (run, after) = rest.split_at_mut(run);
        tanh_run(near, run);
        rest = after;
    }
    if !tail.is_empty() {
        let mut pad = [0.0; LANES];
        pad[..tail.len()].copy_from_slice(tail);
        tanh_run(is_near(&pad), &mut pad);
        tail.copy_from_slice(&pad[..tail.len()]);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `tanhf` input → output bit pairs, one or more per branch: ±0,
    /// subnormals, |x| < 2⁻⁵⁵, then through `expm1f(∓2|x|)` with k = 0,
    /// −1, ≤ −2 (|x| < 1) and 2..22, 23..56, > 56 (|x| ≥ 1), the ±22
    /// saturation edge, huge values and ±∞.
    const TANH_GOLDEN: &[(u32, u32)] = &[
        (0x0000_0000, 0x0000_0000), // +0
        (0x8000_0000, 0x8000_0000), // -0
        (0x0000_0001, 0x0000_0001), // smallest subnormal
        (0x807f_ffff, 0x807f_ffff), // largest negative subnormal
        (0x2380_0000, 0x2380_0000), // 2^-56
        (0x23ff_ffff, 0x23ff_ffff), // just below 2^-55
        (0x2400_0000, 0x2400_0000), // 2^-55: expm1 returns its argument
        (0xa400_0000, 0xa400_0000), // -2^-55
        (0x3280_0000, 0x3280_0000), // 2^-26
        (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1: k = 0
        (0xbdcc_cccd, 0xbdcc_1ebc), // -0.1
        (0x3e4c_cccd, 0x3e4a_1cc2), // 0.2: k = -1
        (0x3f00_0000, 0x3eec_9a9f), // 0.5: k = -1
        (0xbf00_0000, 0xbeec_9a9f), // -0.5
        (0x3f19_999a, 0x3f09_7c15), // 0.6: k = -2
        (0x3f66_6666, 0x3f37_5f4c), // 0.9: k = -3
        (0x3f7f_ffff, 0x3f42_f7d5), // just below 1
        (0x3f80_0000, 0x3f42_f7d6), // 1: k = 3
        (0xbf80_0000, 0xbf42_f7d6), // -1
        (0x40a0_0000, 0x3f7f_fa0d), // 5: k = 14
        (0xc0a0_0000, 0xbf7f_fa0d), // -5
        (0x4108_0000, 0x3f7f_ffff), // 8.5: k = 25
        (0x4120_0000, 0x3f80_0000), // 10: k = 29
        (0xc120_0000, 0xbf80_0000), // -10
        (0x41af_3333, 0x3f80_0000), // 21.9: k = 63
        (0xc1af_3333, 0xbf80_0000), // -21.9
        (0x41af_ffff, 0x3f80_0000), // just below 22
        (0x41b0_0000, 0x3f80_0000), // 22
        (0xc1b0_0000, 0xbf80_0000), // -22
        (0x7149_f2ca, 0x3f80_0000), // 1e30
        (0x7f7f_ffff, 0x3f80_0000), // f32::MAX
        (0xff7f_ffff, 0xbf80_0000), // f32::MIN
        (0x7f80_0000, 0x3f80_0000), // +inf
        (0xff80_0000, 0xbf80_0000), // -inf
    ];

    /// `expm1f` input → output bit pairs over the branches `tanh` cannot
    /// reach too: k = ±1 (both `k == 1` reconstructions), the 27·ln2
    /// saturation, the overflow edge and ±∞.
    const EXPM1_GOLDEN: &[(u32, u32)] = &[
        (0x0000_0000, 0x0000_0000), // +0
        (0x8000_0000, 0x8000_0000), // -0
        (0x0000_0001, 0x0000_0001), // smallest subnormal
        (0x8000_0100, 0x8000_0100), // negative subnormal
        (0x32ff_ffff, 0x32ff_ffff), // just below 2^-25
        (0x3300_0000, 0x3300_0000), // 2^-25: k = 0
        (0x3e99_999a, 0x3eb3_20b2), // 0.3: k = 0
        (0xbe99_999a, 0xbe84_b37a), // -0.3
        (0x3f00_0000, 0x3f26_1299), // 0.5: k = 1, reduced x >= -0.25
        (0x3eb8_51ec, 0x3edd_dd5b), // 0.36: k = 1, reduced x < -0.25
        (0xbf00_0000, 0xbec9_74d0), // -0.5: k = -1
        (0xbeb8_51ec, 0xbe9a_ca2c), // -0.36: k = -1
        (0x3f80_0000, 0x3fdb_f0a8), // 1: k = 1
        (0xc000_0000, 0xbf5d_5aab), // -2: k = -3
        (0x4000_0000, 0x40cc_7326), // 2: k = 3
        (0xc190_0000, 0xbf80_0000), // -18: k = -26
        (0xc195_999a, 0xbf80_0000), // -18.7: k = -27
        (0xc1a0_0000, 0xbf80_0000), // -20: below -27·ln2, saturates
        (0x41a0_0000, 0x4de7_5844), // 20: k = 29
        (0x4218_0000, 0x5ae2_599a), // 38: k = 55
        (0x4220_0000, 0x5c51_106a), // 40: k = 58
        (0x4270_0000, 0x6abc_ede5), // 60
        (0x42b0_0000, 0x7ef8_82b7), // 88
        (0x42b1_7180, 0x7f7f_b40f), // the overflow threshold constant
        (0x42b1_7217, 0x7f7f_ff84), // largest finite result
        (0x42b1_7218, 0x7f80_0000), // overflows
        (0x42b2_0000, 0x7f80_0000), // 89
        (0xc2b2_0000, 0xbf80_0000), // -89
        (0xf149_f2ca, 0xbf80_0000), // -1e30
        (0x7f7f_ffff, 0x7f80_0000), // f32::MAX
        (0x7f80_0000, 0x7f80_0000), // +inf
        (0xff80_0000, 0xbf80_0000), // -inf
    ];

    /// [`grid_checksum`] of `tanhf` and of `expm1f`.
    const TANH_GRID: u64 = 8_684_531_449_763_965_703;
    const EXPM1_GRID: u64 = 8_631_206_953_408_237_499;

    fn check_golden(name: &str, f: impl Fn(f32) -> f32, table: &[(u32, u32)]) {
        for &(x, want) in table {
            let got = f(f32::from_bits(x)).to_bits();
            assert_eq!(
                got, want,
                "{name}({x:#010x}) = {got:#010x}, want {want:#010x}"
            );
        }
    }

    #[test]
    fn scalar_ports_match_golden_bits() {
        check_golden("tanhf", tanhf, TANH_GOLDEN);
        check_golden("expm1f", expm1f, EXPM1_GOLDEN);
        for x in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
            assert!(tanhf(x).is_nan() && expm1f(x).is_nan());
        }
    }

    #[test]
    fn lane_kernel_matches_golden_bits() {
        // Each input alone (a padded one-element chunk below 0.52 takes
        // the lane kernel) and all of them in one slice, so the same
        // values also run through mixed chunks.
        check_golden(
            "tanh_slice",
            |x| {
                let mut v = [x];
                tanh_slice(&mut v);
                v[0]
            },
            TANH_GOLDEN,
        );
        let mut xs: Vec<f32> = TANH_GOLDEN
            .iter()
            .map(|&(x, _)| f32::from_bits(x))
            .collect();
        tanh_slice(&mut xs);
        for (y, &(x, want)) in xs.iter().zip(TANH_GOLDEN) {
            assert_eq!(y.to_bits(), want, "tanh_slice at {x:#010x}");
        }
        let mut nan = [0.5, f32::NAN, -0.0];
        tanh_slice(&mut nan);
        assert_eq!(nan[0].to_bits(), 0x3eec_9a9f);
        assert!(nan[1].is_nan());
        assert_eq!(nan[2].to_bits(), 0x8000_0000);
    }

    /// FNV-1a over the output bits of `f` on 2¹⁶ inputs spread evenly
    /// over every bit pattern (NaN outputs hashed as one canonical NaN).
    fn grid_checksum(f: impl Fn(&mut [f32])) -> u64 {
        let mut xs: Vec<f32> = (0..1u32 << 16)
            .map(|i| f32::from_bits(i.wrapping_mul(65_537)))
            .collect();
        f(&mut xs);
        xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, y| {
            let bits = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
            (h ^ u64::from(bits)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The golden tables pin single points; these checksums pin a dense
    /// grid, so a one-ulp change to a polynomial coefficient shows too.
    #[test]
    fn dense_grid_checksums_are_pinned() {
        let map = |g: fn(f32) -> f32| move |xs: &mut [f32]| xs.iter_mut().for_each(|v| *v = g(*v));
        assert_eq!(grid_checksum(tanh_slice), TANH_GRID);
        assert_eq!(grid_checksum(map(tanhf)), TANH_GRID);
        assert_eq!(grid_checksum(map(expm1f)), EXPM1_GRID);
    }

    /// An input from 64 random bits: a uniform bit pattern (every
    /// branch, NaN and ±∞ included), a value in the activation's working
    /// range (−30, 30), one in (−1, 1), or one in (−0.6, 0.6), around
    /// the edge of the short kernel's domain.
    fn input(bits: u64, kind: u32) -> f32 {
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        match kind {
            0 => f32::from_bits(bits as u32),
            1 => (unit * 60.0 - 30.0) as f32,
            2 => (unit * 2.0 - 1.0) as f32,
            _ => (unit * 1.2 - 0.6) as f32,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every prefix length 0..=17 of a mixed slice, so chunks and
        /// padded tails of every class and length occur; a third of the
        /// cases draw every value from (−0.6, 0.6), where most chunks
        /// take the short kernel and some straddle its edge.
        #[test]
        fn tanh_slice_matches_scalar_port_for_every_length(
            (raw, near) in (
                proptest::collection::vec((proptest::num::u64::ANY, 0u32..4), 17..18),
                0u32..3,
            ),
        ) {
            let xs: Vec<f32> = raw
                .iter()
                .map(|&(bits, kind)| input(bits, if near == 0 { 3 } else { kind }))
                .collect();
            for n in 0..=xs.len() {
                let mut ys = xs[..n].to_vec();
                tanh_slice(&mut ys);
                for (&x, &y) in xs.iter().zip(&ys) {
                    let want = tanhf(x);
                    prop_assert!(
                        same(y, want),
                        "len {}: tanh({:#010x}) = {:#010x}, scalar {:#010x}",
                        n, x.to_bits(), y.to_bits(), want.to_bits()
                    );
                }
            }
        }
    }

    /// Runs `check` over every `f32` bit pattern in blocks of 4096 on two
    /// threads; returns the total it reports (the mismatch count).
    fn sweep_all_bits(check: impl Fn(&[f32]) -> usize + Sync) -> u64 {
        const BLOCK: u64 = 4096;
        const THREADS: u64 = 2;
        let blocks = (1u64 << 32) / BLOCK;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let check = &check;
                    scope.spawn(move || {
                        let mut xs = vec![0.0f32; BLOCK as usize];
                        let mut bad = 0u64;
                        for b in (t..blocks).step_by(THREADS as usize) {
                            for (j, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits((b * BLOCK + j as u64) as u32);
                            }
                            bad += check(&xs) as u64;
                        }
                        bad
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    }

    /// Same bits, or both NaN (payloads are not part of the contract).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The lane kernel against the scalar port, which the golden tables
    /// and the grid checksum pin: a host-independent check.
    #[test]
    #[ignore = "exhaustive 2^32 sweep (~1 min in release on 2 threads)"]
    fn tanh_slice_matches_scalar_port_on_every_f32() {
        // A block holds neighbouring bit patterns, so every value below
        // 0.52 sits in a chunk that takes the lane kernel.
        let bad = sweep_all_bits(|xs| {
            let mut ys = xs.to_vec();
            tanh_slice(&mut ys);
            xs.iter()
                .zip(&ys)
                .filter(|&(&x, &y)| !same(y, tanhf(x)))
                .count()
        });
        assert_eq!(
            bad, 0,
            "inputs where tanh_slice and the scalar port disagree"
        );
    }

    /// The port against the host's `tanhf`: holds on hosts whose libm is
    /// bit-equal to glibc 2.36's fdlibm routine (the reference host).
    #[test]
    #[ignore = "exhaustive 2^32 sweep against host libm (~1.5 min in release on 2 threads)"]
    fn tanh_matches_host_libm_on_every_f32() {
        let bad = sweep_all_bits(|xs| {
            let mut ys = xs.to_vec();
            tanh_slice(&mut ys);
            xs.iter()
                .zip(&ys)
                .filter(|&(&x, &y)| {
                    let host = x.tanh();
                    !same(y, host) || !same(tanhf(x), host)
                })
                .count()
        });
        assert_eq!(
            bad, 0,
            "inputs where the port and the host's tanhf disagree"
        );
    }

    #[test]
    #[ignore = "exhaustive 2^32 sweep (~1 min in release on 2 threads)"]
    fn expm1_matches_host_libm_on_every_f32() {
        let bad = sweep_all_bits(|xs| xs.iter().filter(|&&x| !same(expm1f(x), x.exp_m1())).count());
        assert_eq!(
            bad, 0,
            "inputs where the port and the host's expm1f disagree"
        );
    }
}
