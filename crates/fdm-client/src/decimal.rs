//! Decimal text for the numbers of an entry, without `core::fmt`.
//!
//! [`push_f64`] appends exactly the bytes `format!("{x}")` writes: the
//! shortest digit string that reads back as `x`, laid out without an
//! exponent. The digits come from Ryu's `d2d` (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): three 64×128-bit
//! multiplications by a power of five, then trailing-digit removal.
//! [`push_usize`] writes an integer's digits.
//!
//! One deliberate departure from reference Ryu: when the digits removed are
//! exactly half a unit of the last kept digit, `Display` rounds **up** and
//! reference Ryu rounds to even. 2⁻²⁵ = 2.98023223876953125e-8 is such a
//! tie; `Display` spells it `0.000000029802322387695313`. This writer keeps
//! `Display`'s rule, so Ryu's round-to-even step is left out, and with it
//! the bookkeeping of whether the removed digits were all zero.

use std::sync::OnceLock;

/// Significand bits stored in an `f64`.
const MANTISSA_BITS: i32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each power of five (and of each inverse) in the tables.
const POW5_BITS: i32 = 125;
/// Entries of the table of `5^i` (for `e2 < 0`).
const POW5_ENTRIES: usize = 326;
/// Entries of the table of `2^k / 5^q` (for `e2 ≥ 0`).
const POW5_INV_ENTRIES: usize = 342;

/// Appends `x` to `out` exactly as `format!("{x}")` spells it: `NaN`,
/// `inf`, `-inf`, `0`, `-0`, or the shortest round-trip digits with the
/// decimal point placed in full (`1e21` is 22 digits, `5e-324` is `0.`,
/// 323 zeros and `5`).
pub(crate) fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str(if x.is_nan() {
            "NaN"
        } else if x < 0.0 {
            "-inf"
        } else {
            "inf"
        });
        return;
    }
    if x == 0.0 {
        out.push_str(if x.is_sign_negative() { "-0" } else { "0" });
        return;
    }
    let (digits, exp) = shortest(x.to_bits());
    let mut buf = [0u8; 20];
    let start = write_digits(digits, &mut buf);
    let digits = &buf[start..];
    let len = digits.len();
    // The decimal point sits `point` digits into the digit string.
    let point = len as i32 + exp;
    // The text is assembled here and appended in one piece. It starts as
    // zeros, so a run of padding zeros is only skipped over.
    let mut text = [b'0'; 64];
    let mut at = 0;
    if x < 0.0 {
        text[0] = b'-';
        at = 1;
    }
    if point > 0 && (point as usize) < len {
        let int = point as usize;
        text[at..at + int].copy_from_slice(&digits[..int]);
        text[at + int] = b'.';
        text[at + int + 1..at + len + 1].copy_from_slice(&digits[int..]);
        at += len + 1;
    } else if point <= 0 && -point <= MAX_PAD {
        text[at + 1] = b'.';
        at += 2 + (-point) as usize;
        text[at..at + len].copy_from_slice(digits);
        at += len;
    } else if point > 0 && point - (len as i32) <= MAX_PAD {
        text[at..at + len].copy_from_slice(digits);
        at += point as usize;
    } else {
        // Longer runs of zeros: up to 323 before the digits of a
        // subnormal, up to 308 after those of a large number. `text` holds
        // only the sign so far.
        out.push_str(ascii(&text[..at]));
        if point <= 0 {
            out.push_str("0.");
            push_zeros(out, -point);
            out.push_str(ascii(digits));
        } else {
            out.push_str(ascii(digits));
            push_zeros(out, point - len as i32);
        }
        return;
    }
    out.push_str(ascii(&text[..at]));
}

/// The most padding zeros [`push_f64`] writes in its stack buffer.
const MAX_PAD: i32 = 40;

/// Appends the decimal digits of `n` to `out` (what `format!("{n}")`
/// writes).
pub(crate) fn push_usize(out: &mut String, n: usize) {
    let mut buf = [0u8; 20];
    let start = write_digits(n as u64, &mut buf);
    out.push_str(ascii(&buf[start..]));
}

/// Writes the digits of `n` right-aligned into `buf`; returns the index of
/// the first digit.
#[inline]
fn write_digits(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    // Eight digits at a time in 32-bit arithmetic while `n` needs 64 bits.
    while n >> 32 != 0 {
        let low = (n % 100_000_000) as u32;
        n /= 100_000_000;
        at -= 8;
        let (high, low) = (low / 10_000, low % 10_000);
        for (quad, at) in [(high, at), (low, at + 4)] {
            put_pair(buf, at, quad / 100);
            put_pair(buf, at + 2, quad % 100);
        }
    }
    let mut n = n as u32;
    while n >= 100 {
        at -= 2;
        put_pair(buf, at, n % 100);
        n /= 100;
    }
    if n >= 10 {
        at -= 2;
        put_pair(buf, at, n);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Writes the two digits of `pair < 100` at `buf[at..at + 2]`.
#[inline]
fn put_pair(buf: &mut [u8; 20], at: usize, pair: u32) {
    let pair = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
}

/// `"00" "01" … "99"`: two digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The digit bytes [`write_digits`] produced, as text.
#[inline]
fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("decimal digits are ASCII")
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat_n('0', n as usize));
}

/// The shortest `(digits, exp)` with `digits × 10^exp` reading back as the
/// positive, finite, non-zero `f64` whose bits are `bits`; of equally short
/// candidates, the one nearest the exact value, an exact tie rounded up.
/// Ryu's `d2d`: `vr`, `vp` and `vm` are the value and the upper and lower
/// ends of its rounding interval, scaled by `10^-e10` and floored.
fn shortest(bits: u64) -> (u64, i32) {
    let tables = tables();
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // The value is m2 · 2^e2, with two extra bits of room for the interval
    // ends 4·m2 ± 2 (the lower one closer when m2 is a power of two).
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing reads the interval ends back as `x` when the
    // significand is even, so they count as inside.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);
    // Whether `vm` is exact (no nonzero digits floored away), so the lower
    // end itself may be the answer.
    let mut vm_exact = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let shift = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        let mul = tables.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // At most one of mp, mv and mm is a multiple of 5. Ryu's analysis
        // shows an end's exactness cannot change the answer beyond q = 21;
        // the tests' power-of-five grid checks q up to 23, the largest
        // power of five below 2^55.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let shift = q - (pow5_bits(i) - POW5_BITS);
        let mul = tables.pow5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if q <= 1 {
            // mp and mm have at least q trailing zero bits.
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let output = if vm_exact {
        // The rare general case: the lower end may itself be the answer,
        // so its trailing zeros are removed as long as they last.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_exact) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `⌊m · mul / 2^shift⌋` for a 125-bit `mul` and `shift ≥ 64`.
#[inline]
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// `⌈log2 5^e⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

fn multiple_of_pow5(mut value: u64, q: i32) -> bool {
    let mut factors = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        factors += 1;
    }
    factors >= q
}

/// The two power-of-five tables, each entry the top 125 bits of its exact
/// value.
struct Tables {
    /// `5^i`, shifted to 125 bits.
    pow5: Vec<u128>,
    /// `⌊2^(bitlen(5^q) − 1 + 125) / 5^q⌋ + 1`.
    pow5_inv: Vec<u128>,
}

/// The tables, computed once per process, on first use, with exact integer
/// arithmetic (about 1.5 ms in a release build).
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut pow5 = Vec::with_capacity(POW5_ENTRIES);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_ENTRIES);
        // 5^q in little-endian 64-bit limbs.
        let mut power = vec![1u64];
        for q in 0..POW5_INV_ENTRIES {
            let len = bit_len(&power);
            if q < POW5_ENTRIES {
                pow5.push(top_bits(&power, len));
            }
            pow5_inv.push(inverse(&power, len) + 1);
            let mut carry = 0u64;
            for limb in power.iter_mut() {
                let wide = u128::from(*limb) * 5 + u128::from(carry);
                *limb = wide as u64;
                carry = (wide >> 64) as u64;
            }
            if carry != 0 {
                power.push(carry);
            }
        }
        Tables { pow5, pow5_inv }
    })
}

fn bit_len(n: &[u64]) -> usize {
    let top = n.len() - 1;
    64 * top + (64 - n[top].leading_zeros() as usize)
}

/// The `POW5_BITS` bits of `n` (of bit length `len`) from its top bit down,
/// zeros below its least significant bit.
fn top_bits(n: &[u64], len: usize) -> u128 {
    let mut bits = 0u128;
    for k in (len as i64 - POW5_BITS as i64..len as i64).rev() {
        let bit = k >= 0 && (n[k as usize / 64] >> (k % 64)) & 1 == 1;
        bits = bits << 1 | u128::from(bit);
    }
    bits
}

/// `⌊2^(len − 1 + POW5_BITS) / d⌋` for `d` of bit length `len`, by binary
/// long division: the remainder starts at `2^(len − 1)` and each of the
/// `POW5_BITS` steps doubles it.
fn inverse(d: &[u64], len: usize) -> u128 {
    let divisor = |i: usize| d.get(i).copied().unwrap_or(0);
    let mut rem = vec![0u64; d.len() + 1];
    rem[(len - 1) / 64] = 1 << ((len - 1) % 64);
    let mut quotient = 0u128;
    for step in 0..=POW5_BITS {
        if step > 0 {
            let mut carry = 0;
            for limb in rem.iter_mut() {
                (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
            }
        }
        let at_least_d = (0..rem.len())
            .rev()
            .map(|i| (rem[i], divisor(i)))
            .find(|(r, d)| r != d)
            .is_none_or(|(r, d)| r > d);
        quotient = quotient << 1 | u128::from(at_least_d);
        if at_least_d {
            let mut borrow = false;
            for (i, limb) in rem.iter_mut().enumerate() {
                let (diff, b1) = limb.overflowing_sub(divisor(i));
                let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
                (*limb, borrow) = (diff, b1 || b2);
            }
        }
    }
    quotient
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(x: f64) {
        let mut out = String::from("#");
        push_f64(&mut out, x);
        assert_eq!(&out[1..], format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    /// Deterministic 64-bit patterns (SplitMix64).
    fn patterns(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    /// Bit patterns whose significand makes `4·m2 + t` a multiple of `5^q`
    /// for `t ∈ {−2, −1, 0, 2}` (the interval ends and the value exact at
    /// `10^q`), the cases the trailing-zero bookkeeping decides: `per`
    /// significands per `(q, t)` at each biased exponent in `exponents`.
    fn power_of_five_cases(exponents: impl Iterator<Item = u64>, per: u64) -> Vec<u64> {
        let mut cases = Vec::new();
        for exponent in exponents {
            for q in 1..=23u32 {
                let p = 5u64.pow(q);
                // 4 · inv4 ≡ 1 (mod 5^q).
                let inv4 = (3 * u128::from(p) + 1) / 4;
                // 4·m2 ≡ t: mm = 4·m2 − 1 or 4·m2 − 2, mp = 4·m2 + 2, mv.
                for t in [1, 2, p - 2, 0] {
                    let residue = (u128::from(t) * inv4 % u128::from(p)) as u64;
                    let (lo, hi) = if exponent == 0 {
                        (1, 1u64 << 52)
                    } else {
                        (1u64 << 52, 1u64 << 53)
                    };
                    let first = lo.div_ceil(p) * p + residue;
                    let mut m = first.checked_sub(p).filter(|&m| m >= lo).unwrap_or(first);
                    for _ in 0..per {
                        if m >= hi {
                            break;
                        }
                        cases.push(exponent << 52 | (m & ((1 << 52) - 1)));
                        m += p;
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn tables_match_their_definitions_where_u128_holds_them() {
        let tables = tables();
        assert_eq!(tables.pow5.len(), POW5_ENTRIES);
        assert_eq!(tables.pow5_inv.len(), POW5_INV_ENTRIES);
        // 5^q < 2^125 up to q = 53: the entry is 5^q shifted up to 125 bits.
        let mut power = 1u128;
        for q in 0..=53 {
            let len = 128 - power.leading_zeros() as i32;
            assert_eq!(tables.pow5[q], power << (POW5_BITS - len), "5^{q}");
            assert_eq!(len, pow5_bits(q as i32), "bits of 5^{q}");
            power *= 5;
        }
        assert_eq!(tables.pow5_inv[0], (1 << 125) + 1);
        // ⌊2^127 / 5⌋ + 1, as Ryu's own table holds it.
        assert_eq!(
            tables.pow5_inv[1],
            u128::from(1_844_674_407_370_955_161u64) << 64 | 11_068_046_444_225_730_970
        );
        for (q, &inv) in tables.pow5_inv.iter().enumerate() {
            assert!(inv > 1 << 124 && inv <= (1 << 125) + 1, "inverse {q}");
        }
        for (q, &p) in tables.pow5.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros(), 125, "power {q}");
        }
    }

    #[test]
    fn matches_display_on_edge_cases() {
        // An exact tie between two 17-digit spellings: Display rounds up,
        // reference Ryu would round to the even …312.
        let tie = 2f64.powi(-25);
        let mut out = String::new();
        push_f64(&mut out, tie);
        assert_eq!(out, "0.000000029802322387695313");
        let mut cases = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::from_bits(0x0010_0000_0000_0001),
            f64::MIN_POSITIVE - f64::from_bits(1),
            1e21,
            1e-7,
            0.1,
            0.3,
            2.5,
            1.0 / 3.0,
        ];
        // Every power of two, normal and subnormal.
        cases.extend((1..2047u64).map(|e| f64::from_bits(e << 52)));
        cases.extend((0..52).map(|k| f64::from_bits(1 << k)));
        // Every power of ten in range, and its two neighbours.
        for e in -323..=308 {
            let ten: f64 = format!("1e{e}").parse().unwrap();
            let bits = ten.to_bits();
            cases.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        // Every exponent with the extreme and a few middle significands.
        for e in 0..2047u64 {
            for m in [
                1,
                2,
                3,
                0x8_0000_0000_0000,
                0xf_ffff_ffff_fffe,
                0xf_ffff_ffff_ffff,
            ] {
                cases.push(f64::from_bits(e << 52 | m));
            }
        }
        for x in cases {
            check(x);
            check(-x);
        }
    }

    #[test]
    fn matches_display_where_interval_ends_are_exact() {
        // Every 16th exponent, normal and subnormal.
        for bits in power_of_five_cases((0..2047).step_by(16), 2) {
            check(f64::from_bits(bits));
        }
    }

    #[test]
    fn matches_display_on_random_bit_patterns() {
        for bits in patterns(0x5eed_f64d_ec1a_0001, 120_000) {
            check(f64::from_bits(bits));
        }
    }

    /// The same oracle over 2^24 (16.8 M) further patterns and every
    /// exponent of the power-of-five grid. Run in release mode:
    /// `cargo test --release -p fdm-client --lib decimal -- --ignored`.
    #[test]
    #[ignore = "release-mode sweep; minutes in a debug build"]
    fn matches_display_on_a_wide_sweep() {
        for bits in patterns(0x5eed_f64d_ec1a_0002, 16 << 20) {
            check(f64::from_bits(bits));
        }
        for bits in power_of_five_cases(0..2047, 8) {
            check(f64::from_bits(bits));
            check(-f64::from_bits(bits));
        }
    }

    #[test]
    fn integers_match_display() {
        let mut cases = vec![0, 1, 9, 10, 99, 100, 101, 999, 1000, usize::MAX];
        cases.extend((0..20).map(|k| 10usize.pow(k)));
        cases.extend((1..20).map(|k| 10usize.pow(k) - 1));
        cases.extend(patterns(7, 10_000).map(|b| (b >> (b % 64)) as usize));
        for n in cases {
            let mut out = String::new();
            push_usize(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }
}
