//! Property tests: XDR round-trips for arbitrary values, and decoder
//! robustness on arbitrary byte soup.

#[path = "support/hostile.rs"]
mod support;

use base_xdr::{from_bytes, to_bytes, xdr_union, XdrDecoder, XdrEncoder};
use proptest::prelude::*;

xdr_union! {
    /// A declared union over every field shape the codec has.
    #[derive(Clone, Debug, PartialEq)]
    enum Declared {
        1 => Record { flag: bool, word: Option<u64>, name: String },
        2 => Arrays(opaque: Vec<u8>, counted: Vec<(u32, String)>, fixed: [u8; 5]),
        9 => Nothing,
    }
}

proptest! {
    #[test]
    fn u32_round_trip(v: u32) {
        prop_assert_eq!(from_bytes::<u32>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn i64_round_trip(v: i64) {
        prop_assert_eq!(from_bytes::<i64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn opaque_round_trip(v: Vec<u8>) {
        prop_assert_eq!(from_bytes::<Vec<u8>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn string_round_trip(s in "\\PC*") {
        prop_assert_eq!(from_bytes::<String>(&to_bytes(&s.clone())).unwrap(), s);
    }

    #[test]
    fn option_round_trip(v: Option<u64>) {
        prop_assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&v)).unwrap(), v);
    }

    /// Encoded length is always a multiple of four.
    #[test]
    fn encoding_is_word_aligned(v: Vec<u8>, s in "\\PC*", n: u32) {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&v);
        enc.put_string(&s);
        enc.put_u32(n);
        prop_assert_eq!(enc.len() % 4, 0);
    }

    /// The decoder never panics on arbitrary input; it either yields a value
    /// or a structured error.
    #[test]
    fn decoder_never_panics(bytes: Vec<u8>) {
        let mut dec = XdrDecoder::new(&bytes);
        let _ = dec.get_u32();
        let _ = dec.get_opaque();
        let _ = dec.get_string();
        let _ = dec.get_bool();
        let _ = dec.finish();
    }

    /// A mixed record round-trips through a single buffer.
    #[test]
    fn mixed_record_round_trip(a: u32, b: bool, data: Vec<u8>, s in "[a-z]{0,32}") {
        let mut enc = XdrEncoder::new();
        enc.put_u32(a);
        enc.put_bool(b);
        enc.put_opaque(&data);
        enc.put_string(&s);
        let bytes = enc.finish();

        let mut dec = XdrDecoder::new(&bytes);
        prop_assert_eq!(dec.get_u32().unwrap(), a);
        prop_assert_eq!(dec.get_bool().unwrap(), b);
        prop_assert_eq!(dec.get_opaque().unwrap(), data);
        prop_assert_eq!(dec.get_string().unwrap(), s);
        dec.finish().unwrap();
    }

    /// A type declared with the macros decodes hostile bytes strictly.
    #[test]
    fn declared_union_is_strict(
        kind in 0u8..3,
        (flag, word, name) in any::<(bool, Option<u64>, String)>(),
        (opaque, counted, fixed) in any::<(Vec<u8>, Vec<(u32, String)>, [u8; 5])>(),
        noise: Vec<u8>,
    ) {
        let sample = match kind {
            0 => Declared::Record { flag, word, name },
            1 => Declared::Arrays(opaque, counted, fixed),
            _ => Declared::Nothing,
        };
        support::hostile(&sample, &noise, "Declared", 0);
    }
}
