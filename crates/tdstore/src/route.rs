//! Key routing: a key's data instance is its hash modulo the instance
//! count. The instance count is fixed when the store is built, so a key
//! never moves.

/// The key hash routing and [`crate::MdbEngine`] sharding both start
/// from: the key folded eight bytes at a time, then avalanched so the
/// router (`hash % instances`) and the engine (high bits) draw on bits
/// that do not determine each other.
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = key.len() as u64;
    let mut rest = key;
    while let Some((w, after)) = rest.split_first_chunk::<8>() {
        h = (h.rotate_left(5) ^ u64::from_le_bytes(*w)).wrapping_mul(K);
        rest = after;
    }
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    // murmur3's 64-bit finalizer.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The data instance `key` lives in, out of `instances`.
pub(crate) fn instance_for(key: &[u8], instances: usize) -> usize {
    (key_hash(key) % instances as u64) as usize
}

/// Hashes byte-string map keys with [`key_hash`], so the crate has one key
/// hash: the router takes it `% instances`, MDB takes its high bits for
/// the shard, and the shard's map takes it — remixed, because every key of
/// one shard agrees on exactly the bits the other two consumed, and a
/// table indexed by those would fill a sliver of its buckets.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHashBuilder;

/// Hasher of [`KeyHashBuilder`]; for `[u8]`-like keys only (one `write`).
#[derive(Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = key_hash(bytes);
    }

    /// The slice length prefix: `key_hash` already folds the length in.
    fn write_usize(&mut self, _: usize) {}

    fn finish(&self) -> u64 {
        // High product bits depend on every bit below them; folding them
        // down gives the table's low index bits and its top tag bits a
        // full-width source whatever the router and the engine fixed.
        let m = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        m ^ (m >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_stable_and_in_range() {
        let a = instance_for(b"user:42", 16);
        assert_eq!(a, instance_for(b"user:42", 16));
        assert!(a < 16);
        // Pinned: placement, scan order and checkpoint bytes all follow
        // from these values, so a changed hash moves every stored key.
        for (key, hash) in [
            (&b"hist:7"[..], 0xa1e2_55ce_3849_d828),
            (b"user:42", 0x5a9d_cc8c_fe3e_5e65),
            (b"pc:12345678:87654321", 0xbf24_7163_6e4a_c3ba),
            (
                b"a key longer than the thirty inline bytes",
                0xb41c_24f1_076a_79d6,
            ),
        ] {
            assert_eq!(key_hash(key), hash, "{key:?}");
        }
    }
}
