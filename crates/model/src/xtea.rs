//! XTEA block cipher in CBC mode with PKCS#7 padding.
//!
//! Tracefs anonymizes selected trace fields with "secret key encryption
//! using Cipher Block Chaining (CBC)" (paper §4.2). The allowed dependency
//! set has no crypto crate, so we implement the compact, well-known XTEA
//! cipher (Needham & Wheeler, 64-bit block, 128-bit key, 64 rounds).
//!
//! **This is a simulation artifact, not production cryptography** — which
//! is itself faithful to the paper: the authors downgrade Tracefs's
//! anonymization from "very advanced" precisely because encryption may be
//! subverted years later, unlike true randomization.

const DELTA: u32 = 0x9E37_79B9;
const ROUNDS: u32 = 32; // 32 cycles = 64 Feistel rounds

/// A 128-bit key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key(pub [u32; 4]);

impl Key {
    /// Derive a key from a passphrase (FNV-1a-based stretching; again:
    /// simulation-grade).
    pub fn from_passphrase(pass: &str) -> Key {
        let mut k = [0u32; 4];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, slot) in k.iter_mut().enumerate() {
            for b in pass.bytes().chain([i as u8 + 1]) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            *slot = (h >> 16) as u32;
        }
        Key(k)
    }
}

fn encrypt_block(k: &Key, block: [u32; 2]) -> [u32; 2] {
    let [mut v0, mut v1] = block;
    let mut sum: u32 = 0;
    for _ in 0..ROUNDS {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(k.0[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(DELTA);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(k.0[((sum >> 11) & 3) as usize])),
        );
    }
    [v0, v1]
}

fn decrypt_block(k: &Key, block: [u32; 2]) -> [u32; 2] {
    let [mut v0, mut v1] = block;
    let mut sum: u32 = DELTA.wrapping_mul(ROUNDS);
    for _ in 0..ROUNDS {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(k.0[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(DELTA);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(k.0[(sum & 3) as usize])),
        );
    }
    [v0, v1]
}

fn to_block(b: &[u8]) -> [u32; 2] {
    [
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
    ]
}

fn from_block(v: [u32; 2]) -> [u8; 8] {
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&v[0].to_le_bytes());
    out[4..].copy_from_slice(&v[1].to_le_bytes());
    out
}

/// Encrypt with CBC + PKCS#7. Output is `ceil((len+1)/8)*8` bytes.
pub fn encrypt_cbc(key: &Key, iv: u64, plain: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(cbc_len(plain.len()));
    encrypt_cbc_into(key, iv, plain, &mut out);
    out
}

/// Ciphertext length of a `plain_len`-byte message under CBC + PKCS#7.
pub(crate) fn cbc_len(plain_len: usize) -> usize {
    (plain_len / 8 + 1) * 8
}

/// Append the [`encrypt_cbc`] ciphertext of `plain` to `out`. Full
/// blocks are read straight from `plain` and the padded last block is
/// built on the stack, so nothing is allocated beyond `out`'s growth.
pub fn encrypt_cbc_into(key: &Key, iv: u64, plain: &[u8], out: &mut Vec<u8>) {
    out.reserve(cbc_len(plain.len()));
    let mut chain = [(iv & 0xFFFF_FFFF) as u32, (iv >> 32) as u32];
    let mut seal = |block: &[u8]| {
        let b = to_block(block);
        chain = encrypt_block(key, [b[0] ^ chain[0], b[1] ^ chain[1]]);
        out.extend_from_slice(&from_block(chain));
    };
    let full = plain.chunks_exact(8);
    let tail = full.remainder();
    full.for_each(&mut seal);
    let mut last = [(8 - tail.len()) as u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    seal(&last);
}

/// CBC decryption error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CipherError {
    /// Ciphertext length not a positive multiple of 8.
    BadLength,
    /// Padding bytes are inconsistent (wrong key or corrupt data).
    BadPadding,
}

/// Decrypt and strip PKCS#7 padding.
pub fn decrypt_cbc(key: &Key, iv: u64, cipher: &[u8]) -> Result<Vec<u8>, CipherError> {
    if cipher.is_empty() || !cipher.len().is_multiple_of(8) {
        return Err(CipherError::BadLength);
    }
    let mut out = Vec::with_capacity(cipher.len());
    let mut chain = [(iv & 0xFFFF_FFFF) as u32, (iv >> 32) as u32];
    for chunk in cipher.chunks(8) {
        let c = to_block(chunk);
        let p = decrypt_block(key, c);
        out.extend_from_slice(&from_block([p[0] ^ chain[0], p[1] ^ chain[1]]));
        chain = c;
    }
    let pad = *out.last().unwrap() as usize;
    if pad == 0 || pad > 8 || out.len() < pad {
        return Err(CipherError::BadPadding);
    }
    if !out[out.len() - pad..].iter().all(|&b| b as usize == pad) {
        return Err(CipherError::BadPadding);
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> Key {
        Key([0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210])
    }

    #[test]
    fn block_roundtrip() {
        let k = key();
        let p = [0xDEAD_BEEF, 0x0BAD_F00D];
        let c = encrypt_block(&k, p);
        assert_ne!(c, p);
        assert_eq!(decrypt_block(&k, c), p);
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let k = key();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 100] {
            let plain: Vec<u8> = (0..len as u8).collect();
            let c = encrypt_cbc(&k, 42, &plain);
            assert_eq!(c.len() % 8, 0);
            assert!(c.len() > plain.len().saturating_sub(1));
            assert_eq!(decrypt_cbc(&k, 42, &c).unwrap(), plain);
        }
    }

    #[test]
    fn wrong_key_fails_or_garbles() {
        let c = encrypt_cbc(&key(), 7, b"uid=1000 gid=100 owner=jdoe");
        let wrong = Key([1, 2, 3, 4]);
        match decrypt_cbc(&wrong, 7, &c) {
            Err(CipherError::BadPadding) => {}
            Ok(p) => assert_ne!(p, b"uid=1000 gid=100 owner=jdoe".to_vec()),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn wrong_iv_garbles_first_block_only() {
        let k = key();
        let plain = vec![7u8; 24];
        let c = encrypt_cbc(&k, 1, &plain);
        if let Ok(p) = decrypt_cbc(&k, 2, &c) {
            assert_ne!(&p[..8], &plain[..8]);
            assert_eq!(&p[8..], &plain[8..p.len()]);
        }
    }

    #[test]
    fn identical_blocks_encrypt_differently_under_cbc() {
        let k = key();
        let plain = vec![0xAAu8; 32];
        let c = encrypt_cbc(&k, 5, &plain);
        assert_ne!(&c[0..8], &c[8..16]);
        assert_ne!(&c[8..16], &c[16..24]);
    }

    #[test]
    fn bad_lengths_rejected() {
        assert_eq!(decrypt_cbc(&key(), 0, &[]), Err(CipherError::BadLength));
        assert_eq!(
            decrypt_cbc(&key(), 0, &[1, 2, 3]),
            Err(CipherError::BadLength)
        );
    }

    #[test]
    fn passphrase_keys_differ() {
        assert_ne!(Key::from_passphrase("a"), Key::from_passphrase("b"));
        assert_eq!(Key::from_passphrase("x"), Key::from_passphrase("x"));
    }

    /// `encrypt_cbc` as it was before `encrypt_cbc_into`: pad into a
    /// copy, then encrypt into a second buffer.
    fn encrypt_cbc_oracle(key: &Key, iv: u64, plain: &[u8]) -> Vec<u8> {
        let pad = 8 - plain.len() % 8;
        let mut data = plain.to_vec();
        data.extend(std::iter::repeat_n(pad as u8, pad));
        let mut out = Vec::with_capacity(data.len());
        let mut chain = [(iv & 0xFFFF_FFFF) as u32, (iv >> 32) as u32];
        for chunk in data.chunks(8) {
            let b = to_block(chunk);
            let x = [b[0] ^ chain[0], b[1] ^ chain[1]];
            chain = encrypt_block(key, x);
            out.extend_from_slice(&from_block(chain));
        }
        out
    }

    proptest! {
        #[test]
        fn encrypt_into_matches_the_oracle(
            prefix in prop::collection::vec(any::<u8>(), 0..16),
            data in prop::collection::vec(any::<u8>(), 0..64),
            iv: u64,
            k in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let key = Key([k.0, k.1, k.2, k.3]);
            let want = encrypt_cbc_oracle(&key, iv, &data);
            prop_assert_eq!(encrypt_cbc(&key, iv, &data), want.clone());
            prop_assert_eq!(want.len(), cbc_len(data.len()));
            let mut out = prefix.clone();
            encrypt_cbc_into(&key, iv, &data, &mut out);
            prop_assert_eq!(&out[..prefix.len()], prefix.as_slice());
            prop_assert_eq!(&out[prefix.len()..], want.as_slice());
        }

        #[test]
        fn cbc_roundtrip_arbitrary(data in prop::collection::vec(any::<u8>(), 0..256), iv: u64) {
            let k = key();
            let c = encrypt_cbc(&k, iv, &data);
            prop_assert_eq!(decrypt_cbc(&k, iv, &c).unwrap(), data);
        }
    }
}
