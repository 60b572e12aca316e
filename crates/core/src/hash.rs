//! The workspace's one stable (non-cryptographic) hash.
//!
//! FNV-1a, 64-bit. Used wherever a value must map to the **same** 64-bit
//! word across runs, processes, and refactors: instance fingerprints
//! ([`CanonicalKey`](crate::CanonicalKey)), workload-family seed
//! derivation, and the determinism regression tests that pin generator
//! output. Keeping one implementation means a change to the construction
//! is a single, loud, deliberate event (it invalidates every pinned
//! fingerprint) instead of three copies silently diverging.

/// An incremental 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use dsq_core::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write_u64(7);
/// h.write_str("stable");
/// let first = h.finish();
/// let mut again = Fnv1a::new();
/// again.write_u64(7);
/// again.write_str("stable");
/// assert_eq!(first, again.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Absorbs raw bytes.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Absorbs a word as its little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a signed word as its little-endian bytes.
    pub fn write_i64(&mut self, value: i64) {
        self.write_u64(value as u64)
    }

    /// Absorbs a float's exact bit pattern (so `-0.0 != 0.0`; callers
    /// hashing semantically rather than bytewise should normalize first).
    pub fn write_f64_bits(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Absorbs a string's UTF-8 bytes.
    pub fn write_str(&mut self, value: &str) {
        self.write_bytes(value.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Classic FNV-1a test vectors.
        let mut empty = Fnv1a::new();
        assert_eq!(empty.finish(), 0xcbf29ce484222325);
        empty.write_str("a");
        assert_eq!(empty.finish(), 0xaf63dc4c8601ec8c);
        let mut foobar = Fnv1a::new();
        foobar.write_str("foobar");
        assert_eq!(foobar.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn write_views_agree_with_write_bytes() {
        let mut via_u64 = Fnv1a::new();
        via_u64.write_u64(0x0807060504030201);
        let mut via_bytes = Fnv1a::new();
        via_bytes.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(via_u64.finish(), via_bytes.finish());
        let mut via_f64 = Fnv1a::new();
        via_f64.write_f64_bits(1.5);
        let mut via_word = Fnv1a::new();
        via_word.write_u64(1.5f64.to_bits());
        assert_eq!(via_f64.finish(), via_word.finish());
        let mut negative = Fnv1a::new();
        negative.write_i64(-1);
        let mut wrapped = Fnv1a::new();
        wrapped.write_u64(u64::MAX);
        assert_eq!(negative.finish(), wrapped.finish());
    }
}
