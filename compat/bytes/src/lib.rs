//! Offline shim for the `bytes` crate: the cursor-style [`Buf`] reader over
//! `&[u8]`, the [`BufMut`] writer, and a `Vec<u8>`-backed [`BytesMut`].
//! Multi-byte integers use big-endian byte order, matching the real crate.

/// Sequential big-endian reader (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// True if any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read one byte and advance.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is exhausted.
    fn get_u8(&mut self) -> u8;

    /// Read a big-endian `u16` and advance.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two bytes remain.
    fn get_u16(&mut self) -> u16;

    /// Read a big-endian `u32` and advance.
    ///
    /// # Panics
    ///
    /// Panics if fewer than four bytes remain.
    fn get_u32(&mut self) -> u32;

    /// Read a big-endian `u64` and advance.
    ///
    /// # Panics
    ///
    /// Panics if fewer than eight bytes remain.
    fn get_u64(&mut self) -> u64;

    /// Fill `dst` from the buffer and advance.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Skip `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let b = self[0];
        *self = &self[1..];
        b
    }

    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes([self[0], self[1]]);
        *self = &self[2..];
        v
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self[..4]);
        *self = &self[4..];
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self[..8]);
        *self = &self[8..];
        u64::from_be_bytes(b)
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Sequential big-endian writer (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16);

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32);

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64);

    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// Growable byte buffer (subset of `bytes::BytesMut`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Copy out as a plain `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Self {
        b.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut w = BytesMut::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_slice(&[1, 2, 3]);
        let bytes = w.to_vec();
        let mut r: &[u8] = &bytes;
        assert_eq!(r.remaining(), 6);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16(), 0x1234);
        let mut out = [0u8; 3];
        r.copy_to_slice(&mut out);
        assert_eq!(out, [1, 2, 3]);
        assert!(!r.has_remaining());
    }

    #[test]
    fn u16_is_big_endian() {
        let mut w = BytesMut::new();
        w.put_u16(0x0102);
        assert_eq!(w.as_ref(), &[0x01, 0x02]);
    }

    #[test]
    fn wide_integers_round_trip_big_endian() {
        let mut w = BytesMut::new();
        w.put_u32(0x0102_0304);
        w.put_u64(0x0506_0708_090A_0B0C);
        assert_eq!(
            w.as_ref(),
            &[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C]
        );
        let mut r: &[u8] = w.as_ref();
        assert_eq!(r.get_u32(), 0x0102_0304);
        assert_eq!(r.get_u64(), 0x0506_0708_090A_0B0C);
        assert!(!r.has_remaining());
    }

    #[test]
    fn advance_skips() {
        let bytes = [1u8, 2, 3, 4];
        let mut r: &[u8] = &bytes;
        r.advance(2);
        assert_eq!(r.get_u8(), 3);
    }
}
