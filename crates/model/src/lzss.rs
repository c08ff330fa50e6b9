//! LZSS compression for the binary trace format's optional compression
//! (paper §4.2). A 4 KiB sliding window with 3..=130 byte matches; flags
//! are packed eight-to-a-byte. Self-contained because no compression
//! crate is in the allowed dependency set — and trace text compresses
//! extremely well (repeated call names, paths, monotone timestamps), so
//! even this simple scheme routinely reaches 3–5×.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 127; // length field is 7 bits

/// Hash-chain sentinel: no earlier position.
const NIL: u32 = u32::MAX;

/// Length of the common prefix of `a[..max]` and `b[..max]`, compared
/// eight bytes at a time.
#[inline(always)]
fn match_len(a: &[u8], b: &[u8], max: usize) -> usize {
    let (a, b) = (&a[..max], &b[..max]);
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(word(a, l)) ^ u64::from_le_bytes(word(b, l));
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && a[l] == b[l] {
        l += 1;
    }
    l
}

#[inline(always)]
fn word(s: &[u8], at: usize) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(&s[at..at + 8]);
    w
}

/// Compress `input` (shorter than 4 GiB: hash-chain positions are
/// `u32`). Output format: `[flags byte][8 items]...` where each
/// item is either a literal byte (flag bit 0) or a 2-byte match
/// `offset:12 | length-MIN_MATCH:7` packed big-endian-ish into 19 bits —
/// stored as 3 bytes for simplicity of a 12-bit offset + 7-bit length.
///
/// Each position tries up to 32 earlier positions with the same 3-byte
/// hash, newest first, and keeps the first longest match. A candidate
/// that differs from the input at the current best length cannot beat
/// it and is skipped without a full compare; the rest compare a word
/// at a time. Neither shortcut changes which match wins.
pub fn compress(input: &[u8]) -> Vec<u8> {
    assert!(
        input.len() < NIL as usize,
        "lzss::compress takes blocks under 4 GiB"
    );
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Chain of previous positions per 3-byte hash for fast match search.
    let mut head = vec![NIL; 1 << 13];
    let mut prev = vec![NIL; input.len().max(1)];

    let hash = |p: usize| -> usize {
        let a = input[p] as usize;
        let b = input[p + 1] as usize;
        let c = input[p + 2] as usize;
        (a.wrapping_mul(506_832_829) ^ b.wrapping_mul(2_654_435_761) ^ c) & ((1 << 13) - 1)
    };

    let mut i = 0;
    let mut flags_pos = usize::MAX;
    let mut flags = 0u8;
    let mut nitems = 0u8;

    macro_rules! begin_item {
        () => {
            if nitems == 8 || flags_pos == usize::MAX {
                flags_pos = out.len();
                out.push(0);
                flags = 0;
                nitems = 0;
            }
        };
    }

    while i < input.len() {
        let mut best_len = 0;
        let mut best_off = 0;
        if i + MIN_MATCH <= input.len() {
            let max = (input.len() - i).min(MAX_MATCH);
            let mut cand = head[hash(i)];
            let mut tries = 32;
            while cand != NIL && tries > 0 && i - cand as usize <= WINDOW {
                let c = cand as usize;
                // best_len < max here, so both indices are in bounds.
                if input[c + best_len] == input[i + best_len] {
                    let l = match_len(&input[c..], &input[i..], max);
                    if l > best_len {
                        best_len = l;
                        best_off = i - c;
                        if l == max {
                            break;
                        }
                    }
                }
                cand = prev[c];
                tries -= 1;
            }
        }

        begin_item!();
        if best_len >= MIN_MATCH {
            flags |= 1 << nitems;
            // offset (1..=4096) fits in 12 bits as offset-1; length-3 in 7.
            let off = (best_off - 1) as u16;
            let len = (best_len - MIN_MATCH) as u8;
            out.push((off >> 4) as u8);
            out.push(((off & 0xF) as u8) << 4 | (len >> 3));
            out.push((len & 0x7) << 5);
            // insert hash entries for all covered positions
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash(i);
                    prev[i] = head[h];
                    head[h] = i as u32;
                }
                i += 1;
            }
        } else {
            out.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash(i);
                prev[i] = head[h];
                head[h] = i as u32;
            }
            i += 1;
        }
        nitems += 1;
        out[flags_pos] = flags;
    }
    out
}

/// Decompression error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LzssError {
    Truncated,
    BadOffset,
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, LzssError> {
    let mut out = Vec::with_capacity(input.len() * 3);
    let mut i = 0;
    while i < input.len() {
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if i >= input.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 3 > input.len() {
                    return Err(LzssError::Truncated);
                }
                let b0 = input[i] as u16;
                let b1 = input[i + 1] as u16;
                let b2 = input[i + 2] as u16;
                i += 3;
                let off = ((b0 << 4) | (b1 >> 4)) as usize + 1;
                let len = (((b1 & 0xF) << 3) | (b2 >> 5)) as usize + MIN_MATCH;
                if off > out.len() {
                    return Err(LzssError::BadOffset);
                }
                let start = out.len() - off;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            } else {
                out.push(input[i]);
                i += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
    }

    #[test]
    fn short_literal_roundtrip() {
        let d = b"ab";
        assert_eq!(decompress(&compress(d)).unwrap(), d);
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = b"SYS_write(5, 65536) = 65536 <0.000124>\n"
            .iter()
            .cycle()
            .take(16 * 1024)
            .copied()
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 3,
            "expected 3x+ compression, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        let data = vec![b'x'; 1000];
        let c = compress(&data);
        assert!(c.len() < 50);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // pseudo-random bytes: no matches, modest expansion is fine
        let mut x: u32 = 12345;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() <= data.len() + data.len() / 8 + 8);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![b'x'; 100];
        let c = compress(&data);
        assert!(matches!(
            decompress(&c[..c.len() - 1]),
            Err(LzssError::Truncated) | Ok(_)
        ));
        // A match token cut mid-way must error, not panic.
        let mut bad = vec![0x01]; // flags: first item is a match
        bad.push(0xFF); // only 1 of 3 match bytes
        assert_eq!(decompress(&bad), Err(LzssError::Truncated));
    }

    #[test]
    fn bad_offset_errors() {
        // flags=1 (match), offset pointing before start of output
        let bad = vec![0x01, 0x00, 0x00, 0x00];
        assert_eq!(decompress(&bad), Err(LzssError::BadOffset));
    }

    /// The compressor as it was before word compares and `u32` chains:
    /// a byte-at-a-time compare of every candidate. The oracle
    /// [`compress`] must match byte for byte.
    fn compress_oracle(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << 13];
        let mut prev = vec![usize::MAX; input.len().max(1)];
        let hash = |p: usize| -> usize {
            let a = input[p] as usize;
            let b = input[p + 1] as usize;
            let c = input[p + 2] as usize;
            (a.wrapping_mul(506_832_829) ^ b.wrapping_mul(2_654_435_761) ^ c) & ((1 << 13) - 1)
        };
        let mut i = 0;
        let mut flags_pos = usize::MAX;
        let mut flags = 0u8;
        let mut nitems = 0u8;
        while i < input.len() {
            let mut best_len = 0;
            let mut best_off = 0;
            if i + MIN_MATCH <= input.len() {
                let mut cand = head[hash(i)];
                let mut tries = 32;
                while cand != usize::MAX && tries > 0 && i - cand <= WINDOW {
                    let max = (input.len() - i).min(MAX_MATCH);
                    let mut l = 0;
                    while l < max && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - cand;
                        if l == max {
                            break;
                        }
                    }
                    cand = prev[cand];
                    tries -= 1;
                }
            }
            if nitems == 8 || flags_pos == usize::MAX {
                flags_pos = out.len();
                out.push(0);
                flags = 0;
                nitems = 0;
            }
            if best_len >= MIN_MATCH {
                flags |= 1 << nitems;
                let off = (best_off - 1) as u16;
                let len = (best_len - MIN_MATCH) as u8;
                out.push((off >> 4) as u8);
                out.push(((off & 0xF) as u8) << 4 | (len >> 3));
                out.push((len & 0x7) << 5);
                let end = i + best_len;
                while i < end {
                    if i + MIN_MATCH <= input.len() {
                        let h = hash(i);
                        prev[i] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            } else {
                out.push(input[i]);
                if i + MIN_MATCH <= input.len() {
                    let h = hash(i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
            nitems += 1;
            out[flags_pos] = flags;
        }
        out
    }

    /// Trace-like text: lines from a small vocabulary with varying
    /// numbers, so matches of every length and long chains both occur.
    fn trace_text(seed: u64, lines: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut out = Vec::new();
        for _ in 0..lines {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let call =
                ["SYS_write", "SYS_read", "MPI_File_write_at", "SYS_lseek"][(x % 4) as usize];
            out.extend_from_slice(
                format!(
                    "1159808385.{:06} {call}(5, {}) = 65536 <0.000{:03}>\n",
                    x % 999_999,
                    x % 7 * 65536,
                    x % 1000
                )
                .as_bytes(),
            );
        }
        out
    }

    #[test]
    fn compress_matches_the_byte_loop_oracle_on_trace_text() {
        for seed in 1..6 {
            let data = trace_text(seed, 400 * seed as usize);
            assert_eq!(compress(&data), compress_oracle(&data), "seed {seed}");
        }
        let runs = [vec![b'x'; 5000], vec![0u8; 131], vec![7u8; 3], Vec::new()];
        for data in runs {
            assert_eq!(compress(&data), compress_oracle(&data));
        }
    }

    proptest! {
        #[test]
        fn compress_matches_the_byte_loop_oracle(data in prop::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(compress(&data), compress_oracle(&data));
        }

        #[test]
        fn compress_matches_the_byte_loop_oracle_low_entropy(
            data in prop::collection::vec(0u8..3, 0..6000),
        ) {
            prop_assert_eq!(compress(&data), compress_oracle(&data));
        }

        #[test]
        fn roundtrip_arbitrary(data in prop::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn roundtrip_low_entropy(data in prop::collection::vec(0u8..4, 0..4096)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }
    }
}
