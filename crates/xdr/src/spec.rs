//! A wire type is declared once: [`xdr_struct!`](crate::xdr_struct) and
//! [`xdr_union!`](crate::xdr_union) are RFC 1014's `struct` and
//! `union … switch` as Rust declarations. Each emits the type exactly as
//! written plus the [`XdrEncode`](crate::XdrEncode) /
//! [`XdrDecode`](crate::XdrDecode) pair that visits the fields in
//! declaration order, so the field order of a wire type has one home.

/// Declares a struct and its codec: the fields' encodings, concatenated in
/// declaration order. Attributes, docs and visibilities pass through.
#[macro_export]
macro_rules! xdr_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::XdrEncode for $name {
            fn encode(&self, enc: &mut $crate::XdrEncoder) {
                $( $crate::XdrEncode::encode(&self.$field, enc); )*
            }
        }

        impl $crate::XdrDecode for $name {
            fn decode(dec: &mut $crate::XdrDecoder<'_>) -> Result<Self, $crate::XdrError> {
                Ok(Self { $( $field: $crate::XdrDecode::decode(dec)?, )* })
            }
        }
    };
}

/// Declares an enum and its codec as a discriminated union: the variant's
/// explicit `u32` tag, then its fields in declaration order. A variant is
/// `tag => Name { field: T, .. }`, `tag => Name(binder: T, ..)` (a tuple
/// variant; the binders only name the positions) or `tag => Name`. Tags
/// need not be contiguous; an unknown tag decodes to
/// [`InvalidDiscriminant`](crate::XdrError::InvalidDiscriminant) naming
/// the enum.
#[macro_export]
macro_rules! xdr_union {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
                    $( ( $( $binder:ident : $bty:ty ),* $(,)? ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( { $( $(#[$fmeta])* $field: $fty, )* } )? $( ( $( $bty, )* ) )?,
            )*
        }

        impl $crate::XdrEncode for $name {
            fn encode(&self, enc: &mut $crate::XdrEncoder) {
                match self {
                    $(
                        $name::$variant $( { $( $field, )* } )? $( ( $( $binder, )* ) )? => {
                            enc.put_u32($tag);
                            $( $( $crate::XdrEncode::encode($field, enc); )* )?
                            $( $( $crate::XdrEncode::encode($binder, enc); )* )?
                        }
                    )*
                }
            }
        }

        impl $crate::XdrDecode for $name {
            fn decode(dec: &mut $crate::XdrDecoder<'_>) -> Result<Self, $crate::XdrError> {
                match dec.get_u32()? {
                    $(
                        $tag => Ok($name::$variant
                            $( { $( $field: $crate::XdrDecode::decode(dec)?, )* } )?
                            $( ( $( <$bty as $crate::XdrDecode>::decode(dec)?, )* ) )?),
                    )*
                    value => Err($crate::XdrError::InvalidDiscriminant {
                        type_name: stringify!($name),
                        value,
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    // Throwaway types. That derives pass through is held by this module
    // compiling (`assert_eq!` needs them); that docs do, by the crates
    // that declare their public wire types this way and build quietly
    // under `#![warn(missing_docs)]`.
    use crate::{from_bytes, to_bytes, XdrEncoder, XdrError};

    xdr_struct! {
        /// Mixed visibilities, an opaque and a counted array side by side.
        #[derive(Clone, Debug, PartialEq, Eq, Default)]
        pub struct Sample {
            /// Private field.
            id: u64,
            /// `Vec<u8>` is XDR opaque: length, bytes, padding.
            pub blob: Vec<u8>,
            /// `Vec<u32>` is a counted array: count, then each element.
            pub words: Vec<u32>,
            /// Nested declared type.
            pub status: Option<Status>,
        }
    }

    xdr_union! {
        /// Non-contiguous tags, in the shape of `NfsStatus`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Status {
            /// Tag 2.
            2 => NoEnt,
            /// Tag 5.
            5 => Io,
            /// Tag 17.
            17 => Exist,
            /// Tag 70.
            70 => Stale,
        }
    }

    xdr_union! {
        /// All three variant shapes.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum Shape {
            /// Struct variant.
            0 => Named {
                /// First on the wire.
                a: u32,
                /// Second on the wire.
                b: String,
            },
            /// Tuple variant.
            1 => Pair(left: u64, right: bool),
            /// Unit variant.
            14 => Unit,
        }
    }

    #[test]
    fn a_struct_is_its_fields_in_declaration_order() {
        let s = Sample { id: 7, blob: vec![1, 2, 3], words: vec![8, 9], status: Some(Status::Io) };
        let mut enc = XdrEncoder::new();
        enc.put_u64(7);
        enc.put_opaque(&[1, 2, 3]);
        enc.put_u32(2);
        enc.put_u32(8);
        enc.put_u32(9);
        enc.put_bool(true);
        enc.put_u32(5);
        let bytes = enc.finish();
        assert_eq!(to_bytes(&s), bytes);
        assert_eq!(from_bytes::<Sample>(&bytes).unwrap(), s);
    }

    #[test]
    fn opaque_and_counted_array_differ_in_the_same_struct() {
        let s = Sample { blob: vec![1, 2, 3], words: vec![1, 2, 3], ..Default::default() };
        let bytes = to_bytes(&s);
        // id (8) | len 3, three bytes, one of padding (8) | count 3, three words (16) | None (4)
        assert_eq!(bytes.len(), 36);
        assert_eq!(bytes[8..16], [0, 0, 0, 3, 1, 2, 3, 0]);
        assert_eq!(bytes[16..32], [0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]);
    }

    #[test]
    fn a_union_is_its_explicit_tag_then_its_fields() {
        let named = Shape::Named { a: 3, b: "x".into() };
        assert_eq!(to_bytes(&named), [0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, b'x', 0, 0, 0]);
        let pair = Shape::Pair(9, true);
        assert_eq!(to_bytes(&pair), [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1]);
        assert_eq!(to_bytes(&Shape::Unit), [0, 0, 0, 14], "a unit variant is exactly its tag");
        for shape in [named, pair, Shape::Unit] {
            assert_eq!(from_bytes::<Shape>(&to_bytes(&shape)).unwrap(), shape);
        }
    }

    #[test]
    fn non_contiguous_tags_round_trip_and_gaps_name_the_type() {
        for (status, tag) in [(Status::NoEnt, 2), (Status::Io, 5), (Status::Exist, 17), (Status::Stale, 70)] {
            assert_eq!(to_bytes(&status), [0, 0, 0, tag]);
            assert_eq!(from_bytes::<Status>(&[0, 0, 0, tag]).unwrap(), status);
        }
        assert_eq!(
            from_bytes::<Status>(&[0, 0, 0, 3]),
            Err(XdrError::InvalidDiscriminant { type_name: "Status", value: 3 })
        );
        assert_eq!(
            from_bytes::<Shape>(&[0, 0, 0, 2]),
            Err(XdrError::InvalidDiscriminant { type_name: "Shape", value: 2 })
        );
    }
}
