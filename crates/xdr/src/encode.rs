//! The XDR encoder.

use crate::padded_len;

/// Serializes values into an XDR byte stream.
///
/// All writes are infallible; the encoder owns a growable buffer that is
/// handed back by [`XdrEncoder::finish`].
///
/// # Examples
///
/// ```
/// let mut enc = base_xdr::XdrEncoder::new();
/// enc.put_u64(42);
/// assert_eq!(enc.finish(), vec![0, 0, 0, 0, 0, 0, 0, 42]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates an encoder with `cap` bytes of pre-allocated space.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Creates an empty encoder that writes into `buf`'s allocation:
    /// `buf` is cleared, its capacity kept. Passing the `Vec` a previous
    /// encoder's [`XdrEncoder::finish`] returned encodes message after
    /// message without allocating.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends an unsigned 32-bit integer (big-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an unsigned 64-bit "hyper" integer.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 64-bit "hyper" integer.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as a 32-bit 0/1 value.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Appends fixed-length opaque data (no length prefix), zero-padded to a
    /// four-byte boundary.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad(data.len());
    }

    /// Appends variable-length opaque data: a `u32` length prefix, the
    /// bytes, and zero padding to a four-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` exceeds `u32::MAX`, which cannot be
    /// represented in the length prefix.
    pub fn put_opaque(&mut self, data: &[u8]) {
        let len = u32::try_from(data.len()).expect("opaque data longer than u32::MAX");
        self.put_u32(len);
        self.put_opaque_fixed(data);
    }

    /// Appends a UTF-8 string as variable-length opaque data.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Appends an already-encoded XDR fragment verbatim.
    ///
    /// The caller must ensure `raw` is itself a well-formed, four-byte
    /// aligned XDR stream; this is checked only by a debug assertion.
    pub fn put_raw(&mut self, raw: &[u8]) {
        debug_assert_eq!(raw.len() % 4, 0, "raw XDR fragment must be 4-byte aligned");
        self.buf.extend_from_slice(raw);
    }

    fn pad(&mut self, written: usize) {
        for _ in written..padded_len(written) {
            self.buf.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(0x0102_0304);
        enc.put_i32(-1);
        assert_eq!(enc.finish(), vec![1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn opaque_is_length_prefixed_and_padded() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&[0xaa, 0xbb, 0xcc, 0xdd, 0xee]);
        assert_eq!(
            enc.finish(),
            vec![0, 0, 0, 5, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0, 0, 0]
        );
    }

    #[test]
    fn fixed_opaque_has_no_prefix() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque_fixed(&[1, 2]);
        assert_eq!(enc.finish(), vec![1, 2, 0, 0]);
    }

    #[test]
    fn string_round_trips_as_bytes() {
        let mut enc = XdrEncoder::new();
        enc.put_string("hi");
        assert_eq!(enc.finish(), vec![0, 0, 0, 2, b'h', b'i', 0, 0]);
    }

    #[test]
    fn reusing_clears_the_bytes_and_keeps_the_allocation() {
        let mut first = XdrEncoder::with_capacity(64);
        first.put_u64(7);
        let buf = first.finish();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let mut second = XdrEncoder::reusing(buf);
        assert!(second.is_empty());
        second.put_u32(9);
        let buf = second.finish();
        assert_eq!(buf, vec![0, 0, 0, 9]);
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
    }

    #[test]
    fn bool_encodes_as_word() {
        let mut enc = XdrEncoder::new();
        enc.put_bool(true);
        enc.put_bool(false);
        assert_eq!(enc.finish(), vec![0, 0, 0, 1, 0, 0, 0, 0]);
    }
}
