//! LEB128 variable-length integers and zigzag encoding — the primitive
//! the binary trace format (Tracefs-style output) is built on.

/// Append `v` as unsigned LEB128.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_u64`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append `v` as zigzag-encoded signed LEB128.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, zigzag(v));
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decode error for the binary format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended mid-value.
    Truncated,
    /// More than 10 continuation bytes (malformed).
    Overlong,
}

/// A cursor reading varint-encoded data from a byte slice.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn get_u64(&mut self) -> Result<u64, VarintError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let byte = *self.buf.get(self.pos).ok_or(VarintError::Truncated)?;
            self.pos += 1;
            if shift >= 64 {
                return Err(VarintError::Overlong);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn get_i64(&mut self) -> Result<i64, VarintError> {
        Ok(unzigzag(self.get_u64()?))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], VarintError> {
        let len = self.get_u64()? as usize;
        if self.remaining() < len {
            return Err(VarintError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    pub fn get_str(&mut self) -> Result<String, VarintError> {
        Ok(self.get_str_ref()?.to_string())
    }

    /// Borrowing variant of [`Cursor::get_str`]: the returned `&str`
    /// points into the underlying buffer, so hot decode loops can hand
    /// it straight to an interner without an intermediate allocation.
    pub fn get_str_ref(&mut self) -> Result<&'a str, VarintError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| VarintError::Truncated)
    }

    /// Consume exactly `n` raw (unprefixed) bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], VarintError> {
        if self.remaining() < n {
            return Err(VarintError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_single_bytes() {
        let mut out = Vec::new();
        put_u64(&mut out, 0);
        put_u64(&mut out, 127);
        assert_eq!(out, vec![0, 127]);
    }

    #[test]
    fn boundary_values() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            assert_eq!(varint_len(v), out.len());
            let mut c = Cursor::new(&out);
            assert_eq!(c.get_u64().unwrap(), v);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
    }

    #[test]
    fn truncated_input_errors() {
        let mut out = Vec::new();
        put_u64(&mut out, 1 << 40);
        let cut = &out[..out.len() - 1];
        assert_eq!(Cursor::new(cut).get_u64(), Err(VarintError::Truncated));
    }

    #[test]
    fn overlong_input_errors() {
        let bad = [0x80u8; 11];
        assert_eq!(Cursor::new(&bad).get_u64(), Err(VarintError::Overlong));
    }

    #[test]
    fn bytes_and_strings_roundtrip() {
        let mut out = Vec::new();
        put_str(&mut out, "héllo");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut c = Cursor::new(&out);
        assert_eq!(c.get_str().unwrap(), "héllo");
        assert_eq!(c.get_bytes().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn bytes_length_beyond_buffer_errors() {
        let mut out = Vec::new();
        put_u64(&mut out, 100); // claims 100 bytes
        out.extend_from_slice(b"short");
        assert_eq!(Cursor::new(&out).get_bytes(), Err(VarintError::Truncated));
    }

    proptest! {
        #[test]
        fn u64_roundtrip(v: u64) {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            prop_assert_eq!(Cursor::new(&out).get_u64().unwrap(), v);
        }

        #[test]
        fn i64_roundtrip(v: i64) {
            let mut out = Vec::new();
            put_i64(&mut out, v);
            prop_assert_eq!(Cursor::new(&out).get_i64().unwrap(), v);
        }

        #[test]
        fn mixed_sequence_roundtrip(vals in prop::collection::vec(any::<i64>(), 0..50)) {
            let mut out = Vec::new();
            for &v in &vals {
                put_i64(&mut out, v);
            }
            let mut c = Cursor::new(&out);
            for &v in &vals {
                prop_assert_eq!(c.get_i64().unwrap(), v);
            }
            prop_assert!(c.is_empty());
        }
    }
}
