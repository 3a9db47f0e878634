//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! The SERO heat operation stores a SHA-256 digest of a line's blocks and
//! physical addresses in write-once Manchester cells. This module provides
//! both an incremental [`Sha256`] hasher and a one-shot [`sha256`] helper.
//!
//! No external cryptography crate is used: the offline dependency allow-list
//! excludes one, and a self-contained implementation validated against the
//! NIST CAVS vectors is itself part of the reproduced substrate.
//!
//! # Examples
//!
//! ```
//! use sero_crypto::sha256::{sha256, Sha256};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! let mut hasher = Sha256::new();
//! hasher.update(b"ab");
//! hasher.update(b"c");
//! assert_eq!(hasher.finalize(), digest);
//! ```

use core::fmt;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in one SHA-256 message block.
pub const BLOCK_LEN: usize = 64;

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 digest.
///
/// Wraps the raw 32 bytes so that digests are distinguishable from arbitrary
/// byte buffers in APIs (`C-NEWTYPE`), while still converting cheaply via
/// [`Digest::into_bytes`] and [`AsRef`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// A digest of all zero bytes, useful as a sentinel for "no hash yet".
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Consumes the digest and returns the raw bytes.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Builds a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Digest {
        Digest(bytes)
    }

    /// Renders the digest as lowercase hexadecimal.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parses a digest from a 64-character hexadecimal string.
    ///
    /// # Errors
    ///
    /// Returns [`crate::hex::ParseHexError`] when the input is not exactly 64
    /// hex characters.
    pub fn from_hex(s: &str) -> Result<Digest, crate::hex::ParseHexError> {
        let bytes = crate::hex::decode(s)?;
        if bytes.len() != DIGEST_LEN {
            return Err(crate::hex::ParseHexError::BadLength {
                expected: DIGEST_LEN * 2,
                actual: s.len(),
            });
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&bytes);
        Ok(Digest(out))
    }

    /// Constant-time equality comparison.
    ///
    /// The SERO verify operation compares recomputed digests against digests
    /// read back from the medium; constant-time comparison is standard
    /// hygiene even though the threat model here is physical tampering.
    pub fn ct_eq(&self, other: &Digest) -> bool {
        let mut acc = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            acc |= a ^ b;
        }
        acc == 0
    }

    /// Returns an iterator over the 256 bits of the digest, most significant
    /// bit of byte 0 first. This is the order in which the heat operation
    /// lays Manchester cells onto the medium (Figure 3 of the paper).
    pub fn bits(&self) -> impl Iterator<Item = bool> + '_ {
        self.0
            .iter()
            .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Digest {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use sero_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, sero_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes processed so far.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("bytes_processed", &self.len)
            .field("buffered", &self.buf_len)
            .finish()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Top up a partially filled buffer first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input.
        while input.len() >= BLOCK_LEN {
            let (block, rest) = input.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Absorbs `data` and returns `self`, for call chaining.
    pub fn chain(mut self, data: &[u8]) -> Sha256 {
        self.update(data);
        self
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);

        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        self.update(&[0x80]);
        // `update` changed self.len but the recorded bit_len is already fixed.
        if self.buf_len > BLOCK_LEN - 8 {
            let fill = BLOCK_LEN - self.buf_len;
            self.update(&[0u8; BLOCK_LEN][..fill]);
        }
        let fill = BLOCK_LEN - 8 - self.buf_len;
        self.update(&[0u8; BLOCK_LEN][..fill]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// The FIPS 180-4 compression function applied to one 64-byte block.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = sero_crypto::sha256::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST CAVS / FIPS 180-4 example vectors plus boundary-length messages.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    #[test]
    fn nist_vectors() {
        for (msg, expected) in VECTORS {
            assert_eq!(sha256(msg).to_hex(), *expected, "message {msg:?}");
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 long vector: 1,000,000 repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_all_split_points() {
        let msg: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expected = sha256(&msg);
        for split in 0..msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries must all
        // round-trip through the incremental API identically.
        for len in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129,
        ] {
            let msg = vec![0xa5u8; len];
            let one = sha256(&msg);
            let mut h = Sha256::new();
            for b in &msg {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "length {len}");
        }
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = sha256(b"round trip");
        let parsed = Digest::from_hex(&d.to_hex()).unwrap();
        assert_eq!(d, parsed);
    }

    #[test]
    fn digest_bits_order_msb_first() {
        let d = Digest::from_bytes({
            let mut b = [0u8; DIGEST_LEN];
            b[0] = 0b1010_0000;
            b
        });
        let bits: Vec<bool> = d.bits().take(4).collect();
        assert_eq!(bits, vec![true, false, true, false]);
        assert_eq!(d.bits().count(), 256);
    }

    #[test]
    fn ct_eq_matches_eq() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
    }

    #[test]
    fn chain_builds_same_digest() {
        let d = Sha256::new().chain(b"he").chain(b"llo").finalize();
        assert_eq!(d, sha256(b"hello"));
    }

    #[test]
    fn debug_display_nonempty() {
        let d = sha256(b"x");
        assert!(!format!("{d:?}").is_empty());
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(!format!("{:?}", Sha256::new()).is_empty());
    }
}
