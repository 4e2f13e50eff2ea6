//! XDR — External Data Representation (RFC 1014).
//!
//! The BASE paper encodes every entry of the abstract file-service state
//! using XDR, and this reproduction additionally uses XDR as the wire codec
//! for all replication-protocol messages. The format is simple and strict:
//! every item occupies a multiple of four bytes, integers are big-endian,
//! and variable-length data carries an explicit length prefix followed by
//! zero padding to the next four-byte boundary.
//!
//! Because protocol messages may arrive from Byzantine replicas, decoding is
//! hardened: all lengths are bounds-checked against the remaining input and
//! against a configurable allocation cap, padding bytes are required to be
//! zero, and booleans/enum discriminants are validated.
//!
//! # Examples
//!
//! ```
//! use base_xdr::{XdrDecode, XdrEncode, XdrEncoder, XdrDecoder};
//!
//! let mut enc = XdrEncoder::new();
//! enc.put_u32(7);
//! enc.put_string("hello");
//! enc.put_opaque(&[1, 2, 3]);
//! let bytes = enc.finish();
//!
//! let mut dec = XdrDecoder::new(&bytes);
//! assert_eq!(dec.get_u32().unwrap(), 7);
//! assert_eq!(dec.get_string().unwrap(), "hello");
//! assert_eq!(dec.get_opaque().unwrap(), vec![1, 2, 3]);
//! dec.finish().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod decode;
mod encode;
mod error;
mod traits;

pub use decode::XdrDecoder;
pub use encode::XdrEncoder;
pub use error::XdrError;
pub use traits::{decode_vec, encode_vec, from_bytes, to_bytes, XdrDecode, XdrEncode};

/// Pads `len` up to the next multiple of four, per RFC 1014.
#[inline]
pub fn padded_len(len: usize) -> usize {
    (len + 3) & !3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_len_rounds_to_four() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), 4);
        assert_eq!(padded_len(3), 4);
        assert_eq!(padded_len(4), 4);
        assert_eq!(padded_len(5), 8);
        assert_eq!(padded_len(8), 8);
    }
}
