//! Cryptographic and error-detecting hashes, implemented from scratch.
//!
//! * [`Sha256`] — FIPS 180-4 SHA-256, incremental and one-shot, validated
//!   against the published NIST test vectors in the unit tests below.
//!   Blocks are compressed with the x86 SHA extensions when runtime
//!   feature detection finds them, and with portable code otherwise; the
//!   tests pin the two to each other byte for byte.
//! * [`crc32c`] — CRC-32C (Castagnoli polynomial, the variant used by iSCSI
//!   and most storage systems). It runs on the SSE4.2 `crc32` instruction,
//!   eight bytes at a time, when runtime feature detection finds it, and on
//!   a byte-at-a-time lookup table otherwise; the tests pin the two to each
//!   other and to the RFC 3720 check values.
//!
//! Archival fixity conventionally uses SHA-256 (e.g. PREMIS `fixity`
//! elements); CRC32C is used only for cheap per-frame corruption detection
//! inside the WAL, never as a content address.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 256-bit content digest. The canonical identity of every object stored
/// in `trustdb`, and the identity component of archival records upstream.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digest of the empty byte string — useful as a sentinel for "no
    /// predecessor" in hash chains.
    pub fn zero() -> Self {
        Digest([0u8; 32])
    }

    /// Render as lowercase hex (the interchange form used in manifests).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            for nibble in [b >> 4, b & 0xf] {
                s.extend(char::from_digit(u32::from(nibble), 16));
            }
        }
        s
    }

    /// Parse from lowercase or uppercase hex. Returns `None` on malformed
    /// input (wrong length or non-hex characters).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, &[hi, lo]) in out.iter_mut().zip(s.as_bytes().as_chunks::<2>().0) {
            let hi = (hi as char).to_digit(16)?;
            let lo = (lo as char).to_digit(16)?;
            *byte = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// A short prefix for human-readable logs (8 hex chars).
    pub fn short(&self) -> String {
        let mut s = self.to_hex();
        s.truncate(8);
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The SHA-256 compression function in use: the x86 SHA extensions when
/// the CPU has them, the portable implementation otherwise. Both produce
/// the same state for the same blocks (pinned by the tests below).
#[derive(Clone, Copy)]
enum Compressor {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::ShaNi),
}

impl Compressor {
    /// The fastest compressor this CPU supports, chosen by runtime feature
    /// detection alone.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = shani::ShaNi::detect() {
            return Compressor::ShaNi(hw);
        }
        Compressor::Portable
    }

    /// Fold `blocks`, in order, into `state`.
    #[inline]
    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        if blocks.is_empty() {
            return;
        }
        match self {
            Compressor::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Compressor::ShaNi(hw) => hw.compress(state, blocks),
        }
    }
}

/// FIPS 180-4 §6.2.2 on plain `u32` arithmetic, for any target.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            // itrust-lint: allow(panic-reachable) — i runs over 16..64, so i-16..=i stays inside the [u32; 64] schedule
            let (w15, w2) = (w[i - 15], w[i - 2]);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for (&k, &wi) in K.iter().zip(&w) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(k).wrapping_add(wi);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 compression on the x86 SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`). The message schedule is expanded four
/// words at a time inside the rounds, so a block never round-trips through
/// memory as a 64-word schedule.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Proof that this CPU has the features [`compress_blocks`] enables:
    /// only [`ShaNi::detect`] builds one, and only after checking them.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        pub(super) fn detect() -> Option<Self> {
            let present = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse4.1")
                && is_x86_feature_detected!("ssse3");
            present.then_some(ShaNi(()))
        }

        #[inline]
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
            // SAFETY: a `ShaNi` exists only once `detect` has seen sha,
            // sse4.1 and ssse3 at run time; sse2 is part of x86_64. Those
            // are exactly the features `compress_blocks` enables.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Load 16 bytes of message and byte-swap each word to big-endian
    /// order (lane 0 holds the first word).
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn load_be(bytes: &[u8; 16]) -> __m128i {
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `bytes` is a `[u8; 16]`, so the unaligned 16-byte load
        // reads exactly that array and nothing past it.
        let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        _mm_shuffle_epi8(raw, swap)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // `sha256rnds2` keeps the working variables as two vectors, ABEF
        // and CDGH, with A and C in the top lane.
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Each block as four 16-byte quarters (the split leaves no remainder).
        let quarters = blocks.as_flattened().as_chunks::<16>().0.as_chunks::<4>().0;
        for [m0, m1, m2, m3] in quarters {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Rolling window of the next 16 schedule words, 4 per vector.
            let (mut w0, mut w1, mut w2, mut w3) =
                (load_be(m0), load_be(m1), load_be(m2), load_be(m3));
            for (i, &[k0, k1, k2, k3]) in K.as_chunks::<4>().0.iter().enumerate() {
                let k = _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32);
                let wk = _mm_add_epi32(w0, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
                if i < 12 {
                    // W[t+16..t+20] from W[t..t+16] (FIPS 180-4 σ0/σ1).
                    let w4 = _mm_sha256msg2_epu32(
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
                        w3,
                    );
                    (w0, w1, w2, w3) = (w1, w2, w3, w4);
                } else {
                    (w0, w1, w2) = (w1, w2, w3);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

/// Incremental SHA-256 hasher (FIPS 180-4).
///
/// ```
/// use trustdb::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    compressor: Compressor,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher in the initial state, on the fastest
    /// compressor this CPU supports.
    pub fn new() -> Self {
        Self::with_compressor(Compressor::detect())
    }

    fn with_compressor(compressor: Compressor) -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0, compressor }
    }

    /// Absorb `data`. Whole blocks go to the compressor in one call,
    /// straight from `data`; only a partial block is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            let (head, rest) = data.split_at(take);
            if let Some(free) = self.buf.get_mut(self.buf_len..self.buf_len + take) {
                free.copy_from_slice(head);
            }
            self.buf_len += take;
            if self.buf_len < 64 {
                return;
            }
            self.compressor.compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
            data = rest;
        }
        let (blocks, rem) = data.as_chunks::<64>();
        self.compressor.compress(&mut self.state, blocks);
        if let Some(free) = self.buf.get_mut(..rem.len()) {
            free.copy_from_slice(rem);
        }
        self.buf_len = rem.len();
    }

    /// Finish the computation and produce the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros until the block is 56 bytes full, then the
        // 64-bit big-endian bit length. `buf_len` is below 64, so the zero
        // count is too.
        let zeros = (119 - self.buf_len) % 64;
        self.update(&[0x80]);
        self.update([0u8; 64].get(..zeros).unwrap_or_default());
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        Digest(out)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Same digest as [`sha256`], which it calls. Hashing is not split across
/// threads (parallelism runs across objects instead); this name stays only
/// because the repository benchmark's FIPS self-test and its
/// `trustdb.hash.par_sha256_1m_mib_s` probe import it.
pub fn par_sha256(data: &[u8]) -> Digest {
    sha256(data)
}

/// SHA-256 over the concatenation of two digests — the node combiner used by
/// [`crate::merkle::MerkleTree`] and the audit hash chain. Domain-separated
/// from leaf hashing by a prefix byte (second-preimage hardening, as in
/// RFC 6962).
pub fn sha256_pair(left: &Digest, right: &Digest) -> Digest {
    pair_with(Sha256::new(), left, right)
}

fn pair_with(mut h: Sha256, left: &Digest, right: &Digest) -> Digest {
    h.update(&[0x01]);
    h.update(&left.0);
    h.update(&right.0);
    h.finalize()
}

/// Leaf hash with RFC 6962-style domain separation.
pub fn sha256_leaf(data: &[u8]) -> Digest {
    leaf_with(Sha256::new(), data)
}

fn leaf_with(mut h: Sha256, data: &[u8]) -> Digest {
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// CRC-32C of `data` (Castagnoli polynomial, reflected, init/xorout all-ones):
/// on SSE4.2 when the CPU has it, by lookup table otherwise. Both give the
/// same value for the same bytes (pinned by the tests below).
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = sse42::Sse42::detect() {
        return hw.crc32c(data);
    }
    crc32c_portable(data)
}

/// CRC-32C (Castagnoli) lookup table, generated at first use.
fn crc32c_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        // Reflected polynomial for CRC-32C.
        const POLY: u32 = 0x82f6_3b78;
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    })
}

/// CRC-32C one byte at a time through the lookup table, for any target.
fn crc32c_portable(data: &[u8]) -> u32 {
    let table = crc32c_table();
    let mut crc = !0u32;
    for &b in data {
        // A `u8` index into a 256-entry table is always present.
        let entry = table.get(usize::from(crc as u8 ^ b)).copied().unwrap_or_default();
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

/// CRC-32C on the SSE4.2 `crc32` instruction, which computes exactly the
/// reflected Castagnoli CRC that the table does. One dependency chain over
/// 8-byte words is enough: at ~10 GiB/s (2-core Xeon host) a 700-byte WAL
/// frame's CRC is about a tenth of its append.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse42 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Proof that this CPU has SSE4.2: only [`Sse42::detect`] builds one,
    /// and only after checking for it.
    #[derive(Clone, Copy)]
    pub(super) struct Sse42(());

    impl Sse42 {
        pub(super) fn detect() -> Option<Self> {
            is_x86_feature_detected!("sse4.2").then_some(Sse42(()))
        }

        #[inline]
        pub(super) fn crc32c(self, data: &[u8]) -> u32 {
            // SAFETY: a `Sse42` exists only once `detect` has seen sse4.2 at
            // run time, the one feature `crc32c_words` enables.
            unsafe { crc32c_words(data) }
        }
    }

    #[target_feature(enable = "sse4.2")]
    fn crc32c_words(data: &[u8]) -> u32 {
        let (words, tail) = data.as_chunks::<8>();
        let mut crc = u64::from(!0u32);
        for word in words {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(*word));
        }
        // The instruction leaves the upper 32 bits zero.
        let mut crc = crc as u32;
        for &b in tail {
            crc = _mm_crc32_u8(crc, b);
        }
        !crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `msg` hashes to the published digest `want` through [`sha256`] and
    /// through every compressor this CPU can run.
    fn assert_vector(msg: &[u8], want: &str) {
        assert_eq!(sha256(msg).to_hex(), want, "sha256, len {}", msg.len());
        for (name, c) in compressors() {
            assert_eq!(sha256_on(c, msg).to_hex(), want, "{name}, len {}", msg.len());
        }
    }

    // NIST FIPS 180-4 / well-known reference vectors.
    #[test]
    fn sha256_empty() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn sha256_abc() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn sha256_two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn sha256_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn sha256_exact_block_boundary() {
        // A 64-byte input leaves the padding a whole block of its own.
        let data = [0x42u8; 64];
        let whole = sha256(&data);
        let mut inc = Sha256::new();
        inc.update(&data[..64]);
        assert_eq!(inc.finalize(), whole);
    }

    #[test]
    fn sha256_incremental_matches_oneshot_at_many_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn sha256_byte_at_a_time() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(
            h.finalize().to_hex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    /// Every compressor this CPU can run: the portable one always, SHA-NI
    /// when detected. When the hardware leg cannot run, say so on stderr
    /// rather than pass in silence.
    fn compressors() -> Vec<(&'static str, Compressor)> {
        let mut all = vec![("portable", Compressor::Portable)];
        #[cfg(target_arch = "x86_64")]
        match shani::ShaNi::detect() {
            Some(hw) => all.push(("sha-ni", Compressor::ShaNi(hw))),
            None => eprintln!("SHA-NI not detected on this CPU: hardware SHA-256 leg not run"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("not x86_64: hardware SHA-256 leg not run");
        all
    }

    fn sha256_on(c: Compressor, data: &[u8]) -> Digest {
        let mut h = Sha256::with_compressor(c);
        h.update(data);
        h.finalize()
    }

    /// The portable digest of `data`, checked against every other
    /// compressor on the way.
    fn agreed(data: &[u8]) -> Digest {
        let want = sha256_on(Compressor::Portable, data);
        for (name, c) in compressors() {
            assert_eq!(sha256_on(c, data), want, "{name}, len {}", data.len());
        }
        want
    }

    #[test]
    fn compressors_agree_on_every_length_up_to_1024() {
        let data: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for len in 0..=data.len() {
            agreed(&data[..len]);
        }
    }

    #[test]
    fn pair_and_leaf_agree_across_compressors() {
        let (left, right) = (sha256(b"left"), sha256(b"right"));
        let mut node = vec![0x01];
        node.extend_from_slice(&left.0);
        node.extend_from_slice(&right.0);
        let want_pair = agreed(&node);
        let want_leaf = agreed(b"\x00leaf bytes");
        assert_eq!(sha256_pair(&left, &right), want_pair);
        assert_eq!(sha256_leaf(b"leaf bytes"), want_leaf);
        for (name, c) in compressors() {
            assert_eq!(pair_with(Sha256::with_compressor(c), &left, &right), want_pair, "{name}");
            assert_eq!(leaf_with(Sha256::with_compressor(c), b"leaf bytes"), want_leaf, "{name}");
        }
    }

    proptest::proptest! {
        /// Feeding a message in arbitrary pieces gives every compressor the
        /// portable one-shot digest.
        #[test]
        fn compressors_agree_at_random_split_points(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..6),
        ) {
            let want = sha256_on(Compressor::Portable, &data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for (name, c) in compressors() {
                let mut h = Sha256::with_compressor(c);
                let mut prev = 0;
                for &cut in &cuts {
                    h.update(&data[prev..cut]);
                    prev = cut;
                }
                h.update(&data[prev..]);
                proptest::prop_assert_eq!(h.finalize(), want, "{}", name);
            }
        }

        /// Every CRC-32C path gives the table's value on arbitrary bytes.
        #[test]
        fn crc_paths_agree_on_random_buffers(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
        ) {
            let want = crc32c_portable(&data);
            for (name, crc) in crc_paths() {
                proptest::prop_assert_eq!(crc(&data), want, "{}", name);
            }
        }
    }

    #[test]
    fn par_sha256_nist_vectors() {
        // The compatibility name must keep giving the published digests.
        assert_eq!(
            par_sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            par_sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = sha256(b"round trip");
        let parsed = Digest::from_hex(&d.to_hex()).unwrap();
        assert_eq!(d, parsed);
    }

    #[test]
    fn digest_from_hex_rejects_malformed() {
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"g".repeat(64)).is_none());
        let valid = "0".repeat(64);
        assert!(Digest::from_hex(&valid).is_some());
    }

    #[test]
    fn domain_separation_distinguishes_leaf_and_pair() {
        // A leaf whose content happens to be two concatenated digests must not
        // collide with the interior node over those digests.
        let a = sha256(b"a");
        let b = sha256(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(&a.0);
        concat.extend_from_slice(&b.0);
        assert_ne!(sha256_leaf(&concat), sha256_pair(&a, &b));
    }

    type CrcPath = (&'static str, Box<dyn Fn(&[u8]) -> u32>);

    /// Every CRC-32C path this CPU can run: the table always, SSE4.2 when
    /// detected. When the hardware leg cannot run, say so on stderr rather
    /// than pass in silence.
    fn crc_paths() -> Vec<CrcPath> {
        let mut all: Vec<CrcPath> = vec![("table", Box::new(crc32c_portable))];
        #[cfg(target_arch = "x86_64")]
        match sse42::Sse42::detect() {
            Some(hw) => all.push(("sse4.2", Box::new(move |data| hw.crc32c(data)))),
            None => eprintln!("SSE4.2 not detected on this CPU: hardware CRC-32C leg not run"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("not x86_64: hardware CRC-32C leg not run");
        all
    }

    #[test]
    fn crc32c_reference_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            // "123456789" → 0xE3069283 is the canonical CRC-32C check value.
            (b"123456789", 0xE306_9283),
            (b"", 0),
            // RFC 3720 (iSCSI) §B.4: 32 bytes of zeros, of 0xFF, ascending
            // 0x00..=0x1F and descending 0x1F..=0x00.
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "crc32c, len {}", data.len());
            for (name, crc) in crc_paths() {
                assert_eq!(crc(data), want, "{name}, len {}", data.len());
            }
        }
    }

    #[test]
    fn crc_paths_agree_on_every_length_and_offset() {
        // The start offset moves the 8-byte words against the buffer, so
        // every head alignment reaches the word loop.
        let data: Vec<u8> =
            (0..1032u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                let want = crc32c_portable(slice);
                for (name, crc) in crc_paths() {
                    assert_eq!(crc(slice), want, "{name}, offset {offset}, len {len}");
                }
            }
        }
    }

    #[test]
    fn crc32c_detects_single_bit_flip() {
        let mut data = b"archival record".to_vec();
        let before = crc32c(&data);
        data[3] ^= 0x01;
        assert_ne!(before, crc32c(&data));
    }

    #[test]
    fn digest_ordering_is_lexicographic() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[0] = 1;
        b[0] = 2;
        assert!(Digest(a) < Digest(b));
    }
}
