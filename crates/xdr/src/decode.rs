//! The XDR decoder, hardened against hostile input.

use crate::{padded_len, XdrError};
use std::sync::Arc;

/// Cap on any single variable-length item (16 MiB).
///
/// Replication-protocol messages are far smaller; the cap prevents a
/// Byzantine sender from forcing a huge allocation with a forged length
/// prefix before the real bounds check against the input runs.
const MAX_ITEM_LEN: usize = 16 * 1024 * 1024;

/// Deserializes values from an XDR byte stream.
///
/// Every read is bounds-checked; declared lengths are validated both against
/// the remaining input and against an allocation cap, and padding bytes are
/// required to be zero.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared frame `buf` is, when the decoder was built over one:
    /// [`SharedBytes`](crate::SharedBytes) fields then borrow ranges of it.
    frame: Option<&'a Arc<[u8]>>,
}

impl<'a> XdrDecoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, frame: None }
    }

    /// Creates a decoder over a shared frame. It reads exactly what
    /// [`XdrDecoder::new`] over the same bytes reads, with the same errors;
    /// only a [`SharedBytes`](crate::SharedBytes) field differs, holding a
    /// range of `frame` where it would otherwise hold a copy.
    pub fn over_frame(frame: &'a Arc<[u8]>) -> Self {
        Self { buf: frame, pos: 0, frame: Some(frame) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The shared frame the input is, when the decoder was built over one.
    pub(crate) fn frame(&self) -> Option<&'a Arc<[u8]>> {
        self.frame
    }

    /// Succeeds only if the entire input has been consumed.
    pub fn finish(&self) -> Result<(), XdrError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(XdrError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a signed 32-bit integer.
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads an unsigned 64-bit "hyper" integer.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a signed 64-bit "hyper" integer.
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a boolean, rejecting any value other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    /// Reads `len` bytes of fixed-length opaque data plus padding.
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(len)?;
        let pad = self.take(padded_len(len) - len)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(data)
    }

    /// Reads variable-length opaque data as a borrowed slice.
    pub fn get_opaque_ref(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()? as usize;
        if len > MAX_ITEM_LEN {
            return Err(XdrError::LengthTooLarge { declared: len, max: MAX_ITEM_LEN });
        }
        self.get_opaque_fixed(len)
    }

    /// Reads variable-length opaque data into an owned vector.
    pub fn get_opaque(&mut self) -> Result<Vec<u8>, XdrError> {
        Ok(self.get_opaque_ref()?.to_vec())
    }

    /// Reads a UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        let bytes = self.get_opaque_ref()?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| XdrError::InvalidUtf8)
    }

    /// Reads a `u32` element count for an array, validating it against the
    /// remaining input so a forged count cannot trigger a huge
    /// pre-allocation.
    ///
    /// `min_elem_size` is the smallest possible encoding of one element
    /// (four bytes for anything in XDR).
    pub fn get_count(&mut self, min_elem_size: usize) -> Result<usize, XdrError> {
        let n = self.get_u32()? as usize;
        let floor = n.saturating_mul(min_elem_size.max(1));
        if floor > self.remaining() {
            return Err(XdrError::UnexpectedEof { needed: floor, remaining: self.remaining() });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XdrEncoder;

    #[test]
    fn round_trip_all_primitives() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX);
        enc.put_i32(i32::MIN);
        enc.put_u64(u64::MAX);
        enc.put_i64(i64::MIN);
        enc.put_bool(true);
        let bytes = enc.finish();
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_u32().unwrap(), u32::MAX);
        assert_eq!(dec.get_i32().unwrap(), i32::MIN);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_i64().unwrap(), i64::MIN);
        assert!(dec.get_bool().unwrap());
        dec.finish().unwrap();
    }

    #[test]
    fn eof_is_detected() {
        let mut dec = XdrDecoder::new(&[0, 0]);
        assert!(matches!(dec.get_u32(), Err(XdrError::UnexpectedEof { .. })));
    }

    #[test]
    fn forged_length_is_rejected_before_allocation() {
        // Length prefix claims 4 GiB with only 4 bytes of payload behind it.
        let bytes = [0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4];
        let mut dec = XdrDecoder::new(&bytes);
        assert!(matches!(dec.get_opaque(), Err(XdrError::LengthTooLarge { .. })));
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        // "A" encoded with a corrupted padding byte.
        let bytes = [0, 0, 0, 1, b'A', 0, 1, 0];
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_opaque(), Err(XdrError::NonZeroPadding));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let bytes = [0, 0, 0, 2];
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_bool(), Err(XdrError::InvalidBool(2)));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&[0xff, 0xfe]);
        let bytes = enc.finish();
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_string(), Err(XdrError::InvalidUtf8));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let bytes = [0, 0, 0, 1, 0, 0, 0, 2];
        let mut dec = XdrDecoder::new(&bytes);
        dec.get_u32().unwrap();
        assert_eq!(dec.finish(), Err(XdrError::TrailingBytes(4)));
    }

    #[test]
    fn forged_array_count_is_rejected() {
        let bytes = [0x7f, 0xff, 0xff, 0xff];
        let mut dec = XdrDecoder::new(&bytes);
        assert!(matches!(dec.get_count(4), Err(XdrError::UnexpectedEof { .. })));
    }
}
