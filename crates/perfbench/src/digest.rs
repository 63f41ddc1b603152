//! FNV-1a-64 over the canonical bytes of simulated results.
//!
//! Simulated results are exact: two commits whose digests agree on equal
//! seeds differ only in host time, which certifies a pure speed-up.

/// An incremental FNV-1a-64 hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash the exact bit pattern (so `-0.0`, NaN payloads and the last
    /// ulp all count).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(Fnv::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn float_bits_and_string_framing_count() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a, b);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.str("ab");
        a.str("c");
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
    }
}
