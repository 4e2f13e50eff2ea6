//! What a Byzantine peer can do to the bytes of a wire type. Not a test
//! target of its own: the suites that fuzz a codec include it by `#[path]`
//! — this crate's `proptest_roundtrip`, and the NFS and OODB property
//! suites for the bytes their wrappers and clients decode.

use base_xdr::{from_bytes, to_bytes, XdrDecode, XdrEncode, XdrError};
use std::fmt::Debug;

/// Holds one well-formed `sample` and one string of `noise` to what a
/// decoder of hostile input owes its caller. `union_name` names the
/// discriminated union whose tag is the word at byte `tag_at` of the
/// sample's encoding.
pub fn hostile<T>(sample: &T, noise: &[u8], union_name: &'static str, tag_at: usize)
where
    T: XdrEncode + XdrDecode + PartialEq + Debug,
{
    let bytes = to_bytes(sample);
    assert_eq!(&from_bytes::<T>(&bytes).expect("round trip"), sample);

    // Random bytes never panic, and a byte string has at most one parse:
    // whatever decodes re-encodes to exactly the bytes it came from.
    if let Ok(value) = from_bytes::<T>(noise) {
        assert_eq!(to_bytes(&value), noise, "{value:?} has a second encoding");
    }

    for cut in 0..bytes.len() {
        assert!(from_bytes::<T>(&bytes[..cut]).is_err(), "the {cut}-byte prefix of {sample:?}");
    }

    for extra in [&[0][..], noise].into_iter().filter(|extra| !extra.is_empty()) {
        let long = [&bytes, extra].concat();
        assert!(from_bytes::<T>(&long).is_err(), "{sample:?} followed by {extra:?}");
    }

    let mut forged = bytes;
    forged[tag_at..tag_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        from_bytes::<T>(&forged),
        Err(XdrError::InvalidDiscriminant { type_name: union_name, value: u32::MAX })
    );
}
