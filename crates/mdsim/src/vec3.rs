//! Minimal 3-vector math for the MD engine.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component vector of `f64` (positions, velocities, forces).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub(crate) const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Construct from components.
    #[inline]
    pub(crate) const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub(crate) fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Squared Euclidean norm.
    #[inline]
    pub(crate) fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Component-wise minimum image under a cubic box of side `l`
    /// (finite, positive): maps each component to
    /// `d - l * (d / l).round()`, i.e. into `[-l/2, l/2]`.
    ///
    /// Components with `|d| <= l` — every difference of two wrapped
    /// positions — take the divide-free form of
    /// `min_image_within_box` (crate-private), which returns the same bits.
    #[inline]
    pub(crate) fn minimum_image(self, l: f64) -> Vec3 {
        let half = 0.5 * l;
        let one = |d: f64| {
            if d.abs() <= l {
                min_image_within_box(d, l, half)
            } else {
                d - l * (d / l).round()
            }
        };
        Vec3 { x: one(self.x), y: one(self.y), z: one(self.z) }
    }

    /// Wrap a position into `[0, l)` per component (periodic boundary).
    #[inline]
    pub(crate) fn wrap(self, l: f64) -> Vec3 {
        Vec3 { x: wrap1(self.x, l), y: wrap1(self.y, l), z: wrap1(self.z, l) }
    }
}

/// Minimum image of one component `d` with `|d| <= l` and `half == l/2`,
/// without the divide and the round: bit-identical to
/// `d - l * (d / l).round()` on that range (NaN stays NaN).
///
/// `round` is half-away-from-zero, so for `|d| <= l` it yields `1` iff
/// the computed quotient is `>= 0.5`, `-1` iff `<= -0.5`, else `±0`.
/// `d >= l/2` puts the exact quotient at or above `0.5`, and rounding is
/// monotone. Conversely the largest double under `l/2` sits at least
/// `l·2⁻⁵⁴` below it, so its exact quotient is under `0.5 - 2⁻⁵⁵` — the
/// midpoint between `0.5` and its predecessor — and cannot round up to
/// `0.5`. The three cases then compute `d - l`, `d + l` (as
/// `d - (-l)`) and `d - ±0`; the trailing `+ 0.0` reproduces the `+0.0`
/// the old expression returns for `d == -0.0`.
#[inline(always)]
pub(crate) fn min_image_within_box(d: f64, l: f64, half: f64) -> f64 {
    d - (if d >= half { l } else { 0.0 }) + (if d <= -half { l } else { 0.0 })
}

#[inline]
fn wrap1(x: f64, l: f64) -> f64 {
    let w = x - l * (x / l).floor();
    // Guard the x == l edge caused by rounding.
    if w >= l {
        w - l
    } else {
        w
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
impl Vec3 {
    /// Euclidean norm.
    pub(crate) fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The divide-and-round expression [`Vec3::minimum_image`] replaced,
    /// kept as the oracle for it and for the neighbor sweep.
    pub(crate) fn minimum_image_reference(v: Vec3, l: f64) -> Vec3 {
        Vec3 {
            x: v.x - l * (v.x / l).round(),
            y: v.y - l * (v.y / l).round(),
            z: v.z - l * (v.z / l).round(),
        }
    }

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn minimum_image_wraps_to_half_box() {
        let l = 10.0;
        let d = Vec3::new(9.0, -9.0, 4.0).minimum_image(l);
        assert!((d.x - -1.0).abs() < 1e-12);
        assert!((d.y - 1.0).abs() < 1e-12);
        assert!((d.z - 4.0).abs() < 1e-12);
    }

    /// Box sides the property test sweeps: the dim-1 and dim-2 benchmark
    /// cells (not exactly representable), an odd decimal, two powers of two.
    fn box_sides() -> [f64; 5] {
        let dim1 = (1568.0f64 / 0.85).cbrt();
        [dim1, 7.3, 2.0 * dim1, 8.0, 16.0]
    }

    fn assert_same_bits(d: f64, l: f64) {
        let v = Vec3::new(d, -d, d);
        let (new, old) = (v.minimum_image(l), minimum_image_reference(v, l));
        assert_eq!(
            [new.x.to_bits(), new.y.to_bits(), new.z.to_bits()],
            [old.x.to_bits(), old.y.to_bits(), old.z.to_bits()],
            "d = {d:e} ({:#x}), l = {l}",
            d.to_bits()
        );
    }

    #[test]
    fn minimum_image_is_bit_identical_to_divide_and_round() {
        let mut rng = des::Rng::seed_from_u64(15);
        for l in box_sides() {
            // Differences of wrapped positions: |d| < l, the sweep's domain.
            for _ in 0..200_000 {
                let a = Vec3::new(rng.uniform(-l, 2.0 * l), 0.0, 0.0).wrap(l).x;
                let b = Vec3::new(rng.uniform(-l, 2.0 * l), 0.0, 0.0).wrap(l).x;
                assert_same_bits(a - b, l);
            }
            // Every double within 64 ulps of the two decision points.
            for centre in [0.5 * l, l] {
                let bits = centre.to_bits();
                for b in bits - 64..=bits + 64 {
                    assert_same_bits(f64::from_bits(b), l);
                }
            }
            // Beyond the box the divide-and-round fallback takes over.
            for _ in 0..10_000 {
                assert_same_bits(rng.uniform(l, 40.0 * l), l);
            }
            for d in [0.0, -0.0, f64::MIN_POSITIVE, 1e300, f64::INFINITY, f64::NAN] {
                assert_same_bits(d, l);
            }
        }
    }

    #[test]
    fn wrap_into_box() {
        let l = 10.0;
        let p = Vec3::new(12.0, -0.5, 10.0).wrap(l);
        assert!((p.x - 2.0).abs() < 1e-12);
        assert!((p.y - 9.5).abs() < 1e-12);
        assert!(p.z >= 0.0 && p.z < l);
    }

    #[test]
    fn minimum_image_never_exceeds_half_box() {
        let l = 7.3;
        for i in -20..20 {
            let d = Vec3::new(i as f64 * 0.9, 0.0, 0.0).minimum_image(l);
            assert!(d.x.abs() <= l / 2.0 + 1e-12, "{d:?}");
        }
    }
}
