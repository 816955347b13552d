//! Little-endian binary encoding helpers shared by the persistent summary
//! store and the `safeflow serve` socket protocol.
//!
//! Both consumers face untrusted bytes (a disk file another process may
//! have damaged, a socket an arbitrary client writes to), so the decoding
//! side is a [`ByteReader`]: a bounded cursor whose every accessor returns
//! `None` past the end of the buffer — decoders built on it never panic on
//! garbage, truncation, or overlong length fields.

/// Bounded cursor over an untrusted byte buffer. Every accessor returns
/// `None` past the end — readers built on this never panic on garbage.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        self.str_ref().map(str::to_string)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn str_ref(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok()
    }

    /// A `u32` length that must be plausible against the remaining buffer,
    /// for pre-allocating collections without trusting the wire.
    pub fn seq_len(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        Some(n)
    }

    /// Bytes consumed so far: where the next read starts.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// `true` once the cursor has consumed the whole buffer.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.str().as_deref(), Some("héllo"));
        assert!(r.done());
    }

    #[test]
    fn truncation_yields_none_not_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(r.str().is_none(), "cut at {cut} must fail cleanly");
        }
    }

    #[test]
    fn overlong_length_is_rejected_by_len() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000); // claims a million entries
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.seq_len(), None, "length beyond the buffer is implausible");
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(ByteReader::new(&buf).str(), None);
    }
}
