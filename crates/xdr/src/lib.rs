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
//!
//! # Declaring a wire type
//!
//! RFC 1014 is a data *description* language, and a wire type here is
//! declared the same way rather than programmed: [`xdr_struct!`] and
//! [`xdr_union!`] emit the Rust type as written plus its
//! [`XdrEncode`]/[`XdrDecode`] pair, which visits the fields in declaration
//! order. An `.x` specification such as
//!
//! ```text
//! struct handle { unsigned int index; unsigned int gen; };
//!
//! union reply switch (unsigned int kind) {
//!     case 0: handle  created;
//!     case 1: opaque  data<>;
//!     case 2: struct { unsigned hyper capacity; handle entries<>; } listing;
//!     case 7: void;
//! };
//! ```
//!
//! is spelled
//!
//! ```
//! use base_xdr::{from_bytes, to_bytes, xdr_struct, xdr_union, XdrError};
//!
//! xdr_struct! {
//!     /// A file handle.
//!     #[derive(Clone, Copy, Debug, PartialEq)]
//!     pub struct Handle {
//!         /// Array index.
//!         pub index: u32,
//!         /// Generation number.
//!         pub gen: u32,
//!     }
//! }
//!
//! xdr_union! {
//!     /// A reply: the explicit tag, then the variant's fields.
//!     #[derive(Clone, Debug, PartialEq)]
//!     pub enum Reply {
//!         /// A tuple variant; `handle` only names the position.
//!         0 => Created(handle: Handle),
//!         /// `Vec<u8>` is XDR opaque.
//!         1 => Data(bytes: Vec<u8>),
//!         /// Any other `Vec<T>` is a counted array.
//!         2 => Listing {
//!             /// Capacity.
//!             capacity: u64,
//!             /// Entries.
//!             entries: Vec<Handle>,
//!         },
//!         /// Tags need not be contiguous; a unit variant is four bytes.
//!         7 => Done,
//!     }
//! }
//!
//! let reply = Reply::Listing { capacity: 9, entries: vec![Handle { index: 1, gen: 2 }] };
//! let bytes = to_bytes(&reply);
//! assert_eq!(bytes, [0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2]);
//! assert_eq!(from_bytes::<Reply>(&bytes).unwrap(), reply);
//! assert_eq!(to_bytes(&Reply::Done), [0, 0, 0, 7]);
//! assert_eq!(
//!     from_bytes::<Reply>(&[0, 0, 0, 3]),
//!     Err(XdrError::InvalidDiscriminant { type_name: "Reply", value: 3 })
//! );
//! ```
//!
//! # Decoding without copying
//!
//! [`SharedBytes`] is the other opaque field kind: the same bytes on the
//! wire as `Vec<u8>`, but [`from_frame`] decodes it as a range of the
//! shared frame it reads, where [`from_bytes`] copies it out of the slice.
//!
//! ```
//! use base_xdr::{from_bytes, from_frame, to_bytes, SharedBytes};
//! use std::sync::Arc;
//!
//! let frame: Arc<[u8]> = to_bytes(&b"payload".to_vec()).into();
//! let borrowed: SharedBytes = from_frame(&frame).unwrap();
//! assert_eq!(&*borrowed, b"payload");
//! assert_eq!(Arc::strong_count(&frame), 2);
//! assert_eq!(from_bytes::<SharedBytes>(&frame).unwrap(), borrowed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod decode;
mod encode;
mod error;
mod shared;
mod spec;
mod traits;

pub use decode::XdrDecoder;
pub use encode::XdrEncoder;
pub use error::XdrError;
pub use shared::SharedBytes;
pub use traits::{decode_vec, encode_vec, from_bytes, from_frame, to_bytes, XdrDecode, XdrEncode};

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
