//! Shared hashing utilities for the hot maps of the batch and
//! incremental-analysis paths.

use std::hash::{BuildHasherDefault, Hasher};

/// Pass-through hasher for keys that are already high-quality hashes
/// (the precomputed 128-bit content hash). Folding the halves is enough;
/// running FNV output through SipHash again would only burn cycles on
/// the hottest maps in the batch path.
#[derive(Default)]
pub(crate) struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Keys are u128 hashes, alone or with a small tag (an enum
        // discriminant); fold whatever arrives here.
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_le_bytes(b);
        }
    }
    fn write_u128(&mut self, i: u128) {
        self.0 = (i as u64) ^ ((i >> 64) as u64);
    }
}

/// `BuildHasher` for maps keyed by precomputed 128-bit hashes.
pub(crate) type Prehashed = BuildHasherDefault<PrehashedHasher>;
