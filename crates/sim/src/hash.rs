//! FNV-1a, the one content hash of the workspace: page-frame dedup keys,
//! image, class-file, archive and runtime-state checksums, result-cache
//! keys, tail-sampling draws and seeds derived from names.

/// FNV-1a 64-bit hash of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, so
/// `fnv1a_continue(fnv1a(a), b)` is `fnv1a` of `a` followed by `b`.
#[inline]
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuing_equals_hashing_the_concatenation() {
        assert_eq!(fnv1a_continue(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }
}
