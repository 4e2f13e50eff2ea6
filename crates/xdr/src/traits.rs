//! Encode/decode traits and implementations for common types.

use crate::{XdrDecoder, XdrEncoder, XdrError};
use std::sync::Arc;

/// A type that can be serialized to XDR.
pub trait XdrEncode {
    /// Appends this value's XDR encoding to `enc`.
    fn encode(&self, enc: &mut XdrEncoder);
}

/// A type that can be deserialized from XDR.
pub trait XdrDecode: Sized {
    /// Reads one value of this type from `dec`.
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError>;
}

/// Encodes `value` into a fresh byte vector.
pub fn to_bytes<T: XdrEncode>(value: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::new();
    value.encode(&mut enc);
    enc.finish()
}

/// Decodes a single value of type `T`, requiring the input to be fully
/// consumed.
pub fn from_bytes<T: XdrDecode>(bytes: &[u8]) -> Result<T, XdrError> {
    let mut dec = XdrDecoder::new(bytes);
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

/// Decodes a single value of type `T` from a shared frame, requiring the
/// frame to be fully consumed. The verdict and the value are
/// [`from_bytes`]'s; its [`SharedBytes`](crate::SharedBytes) fields borrow
/// ranges of `frame` instead of copying them.
pub fn from_frame<T: XdrDecode>(frame: &Arc<[u8]>) -> Result<T, XdrError> {
    let mut dec = XdrDecoder::over_frame(frame);
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

impl XdrEncode for u32 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(*self);
    }
}

impl XdrDecode for u32 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u32()
    }
}

impl XdrEncode for i32 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_i32(*self);
    }
}

impl XdrDecode for i32 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_i32()
    }
}

impl XdrEncode for u64 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u64(*self);
    }
}

impl XdrDecode for u64 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u64()
    }
}

impl XdrEncode for i64 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_i64(*self);
    }
}

impl XdrDecode for i64 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_i64()
    }
}

impl XdrEncode for bool {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_bool(*self);
    }
}

impl XdrDecode for bool {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_bool()
    }
}

impl XdrEncode for String {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(self);
    }
}

impl XdrDecode for String {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_string()
    }
}

impl XdrEncode for Vec<u8> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(self);
    }
}

impl XdrDecode for Vec<u8> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_opaque()
    }
}

/// Encodes a slice of values as a counted XDR array.
pub fn encode_vec<T: XdrEncode>(items: &[T], enc: &mut XdrEncoder) {
    let len = u32::try_from(items.len()).expect("array longer than u32::MAX");
    enc.put_u32(len);
    for item in items {
        item.encode(enc);
    }
}

/// Decodes a counted XDR array of values.
pub fn decode_vec<T: XdrDecode>(dec: &mut XdrDecoder<'_>) -> Result<Vec<T>, XdrError> {
    let n = dec.get_count(4)?;
    // `get_count` bounds `n` by four *wire* bytes an element; an element in
    // memory can be far larger, so reserve no more than there are bytes
    // left to decode. The vector still grows to `n` if the elements arrive.
    let mut out = Vec::with_capacity(n.min(dec.remaining() / std::mem::size_of::<T>().max(1)));
    for _ in 0..n {
        out.push(T::decode(dec)?);
    }
    Ok(out)
}

// A `Vec` of anything with a codec is a counted array. `Vec<u8>` stays the
// opaque above, and the two impls cannot overlap: `u8` does not implement
// the traits, and no other crate can make it (the traits live here).
impl<T: XdrEncode> XdrEncode for Vec<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        encode_vec(self, enc);
    }
}

impl<T: XdrDecode> XdrDecode for Vec<T> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        decode_vec(dec)
    }
}

impl<T: XdrEncode> XdrEncode for Option<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
            None => enc.put_bool(false),
        }
    }
}

impl<T: XdrDecode> XdrDecode for Option<T> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: XdrEncode, B: XdrEncode> XdrEncode for (A, B) {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: XdrDecode, B: XdrDecode> XdrDecode for (A, B) {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<const N: usize> XdrEncode for [u8; N] {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(self);
    }
}

impl<const N: usize> XdrDecode for [u8; N] {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let bytes = dec.get_opaque_fixed(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_round_trip() {
        let some: Option<u32> = Some(9);
        let none: Option<u32> = None;
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&some)).unwrap(), some);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&none)).unwrap(), none);
    }

    #[test]
    fn tuple_round_trip() {
        let v = (3u32, String::from("x"));
        assert_eq!(from_bytes::<(u32, String)>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn fixed_array_round_trip() {
        let v = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(from_bytes::<[u8; 8]>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn counted_vec_round_trip() {
        let v = vec![1u64, 2, 3];
        let mut enc = XdrEncoder::new();
        encode_vec(&v, &mut enc);
        let bytes = enc.finish();
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(decode_vec::<u64>(&mut dec).unwrap(), v);
        dec.finish().unwrap();
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = to_bytes(&7u32);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }
}
