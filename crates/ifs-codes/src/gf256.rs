//! Arithmetic in GF(2⁸) = GF(2)\[x\]/(x⁸+x⁴+x³+x²+1).
//!
//! The reduction polynomial `0x11D` is primitive with α = 2 as a generator,
//! the standard choice for Reed–Solomon over bytes. Multiplication and
//! inversion go through log/antilog tables built once at startup.

/// The reduction polynomial (x⁸+x⁴+x³+x²+1), including the x⁸ term.
pub const POLY: u16 = 0x11D;

/// Field order.
pub const ORDER: usize = 256;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Duplicate so exp[(a+b) mod 255] can be read without the mod.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Addition = subtraction = XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication via log tables; 0 annihilates.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse. Panics on 0.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "0 has no inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Division `a / b`. Panics when `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert_ne!(b, 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] as usize + 255 - t.log[b as usize] as usize) % 255]
}

/// `α^e` for the generator α = 2 (exponent taken mod 255).
#[inline]
pub fn alpha_pow(e: i64) -> u8 {
    let t = tables();
    let e = e.rem_euclid(255) as usize;
    t.exp[e]
}

/// `a^e` for arbitrary field element a.
pub fn pow(a: u8, e: u64) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let la = t.log[a as usize] as u64;
    t.exp[((la * e) % 255) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(add(0x53, 0xCA), 0x53 ^ 0xCA);
        assert_eq!(add(7, 7), 0);
    }

    #[test]
    fn multiplication_agrees_with_carryless_reference() {
        // Reference: schoolbook carry-less multiply then reduce by POLY.
        fn slow_mul(mut a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            let mut bb: u16 = b as u16;
            while a != 0 {
                if a & 1 != 0 {
                    acc ^= bb;
                }
                a >>= 1;
                bb <<= 1;
            }
            // Reduce.
            for bit in (8..16).rev() {
                if acc & (1 << bit) != 0 {
                    acc ^= POLY << (bit - 8);
                }
            }
            acc as u8
        }
        for a in 0..=255u8 {
            for b in [0u8, 1, 2, 3, 0x53, 0x8E, 0xFF] {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in [1u8, 5, 100, 200, 255] {
            for b in [1u8, 2, 37, 254] {
                assert_eq!(div(mul(a, b), b), a);
            }
        }
        assert_eq!(div(0, 7), 0);
    }

    #[test]
    fn alpha_is_generator() {
        let mut seen = [false; 256];
        for e in 0..255 {
            let v = alpha_pow(e);
            assert!(!seen[v as usize], "alpha^{e} repeats");
            seen[v as usize] = true;
        }
        assert!(!seen[0], "generator never hits zero");
        assert_eq!(alpha_pow(255), 1, "order of alpha is 255");
        assert_eq!(alpha_pow(-1), inv(2));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [2u8, 3, 0x1D, 200] {
            let mut acc = 1u8;
            for e in 0..20u64 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn log_exp_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(alpha_pow(tables().log[a as usize] as i64), a);
        }
    }
}
