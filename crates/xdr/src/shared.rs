//! Variable-length opaque data held once: an owned buffer, or a range of
//! the frame it was decoded from.

use crate::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// XDR opaque data (`opaque data<>`) that a receiver need not copy.
///
/// A sender builds one from the `Vec<u8>` it owns. A decoder built with
/// [`XdrDecoder::over_frame`] instead hands out a range of that frame,
/// which costs a refcount bump and no allocation: every field decoded from
/// one frame, and every clone of those fields, keeps the one frame alive,
/// so a value that outlives its message should be copied out with
/// [`SharedBytes::into_vec`]. An empty field never holds a frame. The wire
/// form is [`Vec<u8>`]'s, and equality and `Debug` see the bytes only,
/// never where they are kept.
#[derive(Clone)]
pub struct SharedBytes(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Vec<u8>),
    Frame(Arc<[u8]>, Range<usize>),
}

impl SharedBytes {
    /// The bytes as an owned vector: moved out if they are owned, copied
    /// out of the frame (which this handle then stops holding) if not.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Owned(v) => v,
            Repr::Frame(frame, range) => frame[range].to_vec(),
        }
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        SharedBytes(Repr::Owned(v))
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Frame(frame, range) => &frame[range.clone()],
        }
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl XdrEncode for SharedBytes {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(self);
    }
}

impl XdrDecode for SharedBytes {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        // The bytes start after the four-byte length word.
        let start = dec.position() + 4;
        let bytes = dec.get_opaque_ref()?;
        Ok(match dec.frame() {
            Some(frame) if !bytes.is_empty() => {
                SharedBytes(Repr::Frame(Arc::clone(frame), start..start + bytes.len()))
            }
            _ => SharedBytes(Repr::Owned(bytes.to_vec())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, from_frame, to_bytes};

    fn frame_of(value: &[u8]) -> Arc<[u8]> {
        to_bytes(&value.to_vec()).into()
    }

    #[test]
    fn decoding_a_frame_borrows_it_and_decoding_a_slice_copies() {
        let frame = frame_of(b"abcde");
        let borrowed: SharedBytes = from_frame(&frame).unwrap();
        assert_eq!(&*borrowed, b"abcde");
        assert_eq!(Arc::strong_count(&frame), 2, "the field holds the frame");
        let copied: SharedBytes = from_bytes(&frame).unwrap();
        assert_eq!(copied, borrowed);
        assert_eq!(Arc::strong_count(&frame), 2, "a slice decode holds nothing");
        assert_eq!(borrowed.into_vec(), b"abcde");
        assert_eq!(Arc::strong_count(&frame), 1, "copied out, the frame is let go");
    }

    #[test]
    fn a_cut_or_dirty_field_is_refused_as_from_a_slice() {
        // "A" with a nonzero padding byte, then cut inside the bytes.
        let dirty: Arc<[u8]> = [0, 0, 0, 1, b'A', 0, 1, 0][..].into();
        let cut: Arc<[u8]> = [0, 0, 0, 5, 1, 2][..].into();
        for frame in [dirty, cut] {
            let refused = from_frame::<SharedBytes>(&frame).unwrap_err();
            assert_eq!(Err(refused), from_bytes::<SharedBytes>(&frame));
            assert_eq!(Arc::strong_count(&frame), 1);
        }
    }

    #[test]
    fn an_empty_field_holds_no_frame() {
        let frame = frame_of(b"");
        let empty: SharedBytes = from_frame(&frame).unwrap();
        assert!(empty.is_empty());
        assert_eq!(Arc::strong_count(&frame), 1);
    }

    #[test]
    fn the_wire_form_is_the_opaque_one() {
        let owned = SharedBytes::from(b"xyz".to_vec());
        assert_eq!(to_bytes(&owned), to_bytes(&b"xyz".to_vec()));
        assert_eq!(format!("{owned:?}"), format!("{:?}", b"xyz".to_vec()));
    }
}
