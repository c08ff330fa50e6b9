//! CRC-32 (IEEE 802.3, the `zlib`/`cksum -o 3` polynomial).
//!
//! Tracefs offers optional checksumming of its binary trace output
//! (paper §4.2 "Binary, with optional checksumming, compression,
//! encryption, or buffering"); this is that checksum, and it also guards
//! every journal segment, collector frame and binary block. Implemented
//! in-repo because no checksum crate is in the allowed dependency set.
//!
//! Two kernels compute the same function. On x86_64 CPUs with
//! PCLMULQDQ and SSE4.1 (checked once per call with
//! `is_x86_feature_detected!`, a cached load), buffers of 64 bytes or
//! more take the carry-less-multiply folding kernel: four 128-bit lanes
//! folded 64 bytes per step, then a Barrett reduction to 32 bits. Everything else — other targets, older CPUs,
//! short buffers and the sub-16-byte tail of a long one — runs the
//! slicing-by-8 table kernel. The property tests pin the two against
//! each other on every length and alignment.

/// Reflected polynomial for IEEE CRC-32.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, which lets `update` fold 8 input bytes per
/// iteration — journal segments checksum their whole payload, so this is
/// on the hot path of every journal encode and decode.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-32 hasher.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Shortest buffer the folding kernel takes: its four 128-bit lanes
/// load 64 bytes before the first fold.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 64;

/// Advance the raw (pre-inversion) CRC register over `data` with the
/// fastest kernel this CPU runs.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN && clmul::available() {
        // SAFETY: `available` has just confirmed that this CPU executes
        // the PCLMULQDQ and SSE4.1 instructions `clmul::update` is
        // compiled for; it is the only precondition of the call.
        return unsafe { clmul::update(crc, data) };
    }
    update_table(crc, data)
}

/// Slicing-by-8 over the raw register: 8 input bytes per step, then
/// byte-at-a-time for the tail.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply folding kernel (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009), in its bit-reflected form for the IEEE polynomial.
///
/// The message is viewed as a polynomial over GF(2). Four 128-bit
/// accumulators each absorb every fourth 16-byte block: folding an
/// accumulator forward by 512 bits is two 64×64 carry-less multiplies by
/// the constants `x^(512±32) mod P`. The four lanes then fold into one
/// (constants for 128 bits), single blocks fold in while 16 bytes
/// remain, the 128-bit remainder shrinks to 64 bits, and a Barrett
/// reduction yields the 32-bit register. The tail goes to the table
/// kernel. Loads are plain little-endian `u64` reads, so the only
/// `unsafe` is the guarded call in [`update`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32) mod P` and `x^(4·128-32) mod P`, bit-reflected and
    /// shifted left by one: fold a lane forward by four blocks.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// The same for one block: fold lane into lane, block into lane.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: the 96-to-64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) with its `x^32` term, and μ = ⌊x^64 / P(x)⌋, both reflected.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// Advance the raw register over `data`. Any length is correct;
    /// below [`super::CLMUL_MIN_LEN`] it is the table kernel.
    ///
    /// # Safety
    ///
    /// The CPU must execute PCLMULQDQ and SSE4.1: call it only after
    /// [`available`] returned true.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        if data.len() < super::CLMUL_MIN_LEN {
            return super::update_table(crc, data);
        }
        let (head, mut rest) = data.split_at(64);
        let mut x3 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&head[16..32]);
        let mut x1 = load(&head[32..48]);
        let mut x0 = load(&head[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= 64 {
            x3 = fold(x3, load(&rest[..16]), k1k2);
            x2 = fold(x2, load(&rest[16..32]), k1k2);
            x1 = fold(x1, load(&rest[32..48]), k1k2);
            x0 = fold(x0, load(&rest[48..64]), k1k2);
            rest = &rest[64..];
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while rest.len() >= 16 {
            x = fold(x, load(&rest[..16]), k3k4);
            rest = &rest[16..];
        }

        // 128 → 96 bits: fold the low half onto the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the upper half of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_table(crc, rest)
    }

    /// `acc · k` (low and high 64-bit halves against their constants)
    /// folded onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// A 16-byte block as a vector, little-endian halves.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(block[8..16].try_into().unwrap());
        _mm_set_epi64x(hi as i64, lo as i64)
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Streaming FNV-1a 64 hasher — the content-digest primitive shared by
/// the journal's record digests and the IOT2 section digests. Not
/// collision-resistant against adversaries; it detects corruption, not
/// tampering (that is what the XTEA field encryption is for).
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.state;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a buffer.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

/// Lane-folded 64-bit FNV over whole words — the wide content digest
/// for multi-megabyte sections.
///
/// Plain FNV-1a is strictly serial (one xor + one multiply *per byte*,
/// each depending on the last), which caps it near 1 GB/s and made the
/// body digest the dominant cost of IOT2 encode. This variant runs four
/// independent FNV-1a chains over interleaved little-endian `u64` words
/// (lane `j` folds words `j, j+4, j+8, …`), so the four multiplies
/// pipeline; the tail (< 32 bytes) and the total length are folded
/// byte-/word-wise into a finishing FNV-1a pass together with the four
/// lane states. ~8x the serial throughput at the same error-detection
/// strength for random corruption. **Not** standard FNV — the value is
/// defined by this implementation (both IOT2 encode and verify call it,
/// so the format stays self-consistent).
pub fn fnv1a64_wide(data: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        FNV_OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
        FNV_OFFSET ^ 0x1656_67b1_9e37_79f9,
    ];
    let mut chunks = data.chunks_exact(32);
    for block in &mut chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[j * 8..j * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut fin = Fnv64::new();
    for lane in lanes {
        fin.update(&lane.to_le_bytes());
    }
    fin.update(chunks.remainder());
    fin.update(&(data.len() as u64).to_le_bytes());
    fin.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for IEEE CRC-32.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"hello world, this is a trace block";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"sensitive trace bytes".to_vec();
        let good = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), good);
    }

    #[test]
    fn wide_detects_flips_everywhere() {
        // Cover all block/tail positions: one flip per byte of a buffer
        // spanning several 32-byte blocks plus a ragged tail.
        let data: Vec<u8> = (0..100u8).collect();
        let good = fnv1a64_wide(&data);
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x40;
            assert_ne!(fnv1a64_wide(&bad), good, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn wide_length_sensitive() {
        // Trailing zeros must change the digest (length is folded in).
        let a = vec![0u8; 32];
        let b = vec![0u8; 33];
        let c = vec![0u8; 64];
        assert_ne!(fnv1a64_wide(&a), fnv1a64_wide(&b));
        assert_ne!(fnv1a64_wide(&a), fnv1a64_wide(&c));
        assert_ne!(fnv1a64_wide(&[]), fnv1a64_wide(&a));
    }

    proptest! {
        #[test]
        fn wide_is_deterministic_and_spreads(data in prop::collection::vec(any::<u8>(), 0..200)) {
            let h = fnv1a64_wide(&data);
            prop_assert_eq!(h, fnv1a64_wide(&data));
            let mut extended = data.clone();
            extended.push(0);
            prop_assert_ne!(h, fnv1a64_wide(&extended));
        }
    }

    proptest! {
        #[test]
        fn chunking_is_irrelevant(
            seed in any::<u64>(),
            len in 0usize..=4096,
            a in 0usize..=4096,
            b in 0usize..=4096,
        ) {
            // Splits land on both sides of the folding kernel's 64-byte
            // threshold, so streamed updates mix the two kernels.
            let data = shifted(seed, 0, len);
            let (a, b) = (a.min(len), b.min(len));
            let (a, b) = (a.min(b), a.max(b));
            let mut h = Crc32::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            prop_assert_eq!(h.finish(), crc32(&data));
            prop_assert_eq!(h.finish(), !update_table(0xFFFF_FFFF, &data));
        }

        #[test]
        fn fnv_chunking_is_irrelevant(data in prop::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Fnv64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finish(), fnv1a64(&data));
        }
    }

    /// `len` pseudo-random bytes at byte offset `off` of a fresh buffer,
    /// so every alignment of the kernel's 16-byte loads is exercised.
    fn shifted(seed: u64, off: usize, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..off + len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    /// The dispatching `update` and, where this CPU runs it, the folding
    /// kernel called directly, both against the table kernel.
    fn assert_kernels_agree(crc: u32, data: &[u8]) {
        let table = update_table(crc, data);
        assert_eq!(update(crc, data), table, "dispatch, len {}", data.len());
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` confirmed the CPU features the kernel
            // is compiled for.
            let folded = unsafe { clmul::update(crc, data) };
            assert_eq!(folded, table, "clmul, len {}", data.len());
        }
    }

    #[test]
    fn kernels_agree_on_every_short_length_and_alignment() {
        // Every length across the kernel's thresholds (64-byte head,
        // 64-byte main loop, 16-byte single folds, table tail) at every
        // start offset.
        for len in 0..=300 {
            for off in 0..16 {
                let buf = shifted(len as u64 * 16 + off as u64, off, len);
                assert_kernels_agree(0xFFFF_FFFF, &buf[off..]);
                assert_kernels_agree(len as u32 ^ 0x5A5A_0000, &buf[off..]);
            }
        }
    }

    #[test]
    fn long_buffers_match_zlib() {
        // zlib.crc32 values, computed independently of this crate.
        assert_eq!(crc32(&b"123456789".repeat(100)), 0x09FD_0FD7);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
        assert_eq!(crc32(&[0u8; 65]), 0x1DCD_F777);
        assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xA738_EA1C);
    }

    proptest! {
        #[test]
        fn clmul_matches_table(
            seed in any::<u64>(),
            len in 0usize..=4096,
            off in 0usize..16,
            crc in any::<u32>(),
        ) {
            let buf = shifted(seed, off, len);
            assert_kernels_agree(crc, &buf[off..]);
        }

    }

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
