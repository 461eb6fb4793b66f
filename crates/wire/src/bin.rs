//! The compact binary payload encoding: one [`Wire`] trait, two
//! declarative macros, one bounds-checking [`Reader`].
//!
//! Little-endian, tag-prefixed, no self-description. A message type
//! states its layout exactly once, as a [`wire_struct!`](crate::wire_struct)
//! or [`wire_enum!`](crate::wire_enum) declaration listing its fields
//! (and explicit `u8` tags) in wire order; `put`, `get` and `MIN_LEN`
//! are all generated from that one list.
//!
//! | value | on the wire |
//! |---|---|
//! | enum variant | one `u8` tag (the first payload byte, so a reader can classify a response — error or not — without decoding it), then the variant's fields |
//! | struct | its fields, in declaration order |
//! | `u8` | one byte |
//! | `u32` / `u64` | fixed-width little-endian |
//! | `usize` | as `u64`; values over the platform width are rejected |
//! | `f64` | IEEE-754 bits, little-endian |
//! | `bool` | one byte, `0`/`1` only |
//! | `String` | `u32` byte length + UTF-8 bytes |
//! | `Vec<T>` | `u32` element count + elements |
//! | `Option<T>` | presence `bool` + value |
//! | `IrisError` | a `u8` sub-tag in declaration order + the variant's fields |
//!
//! Encoding is infallible; [`Reader`] is where all the bounds
//! discipline lives: every length/count is checked against the bytes
//! actually remaining in the payload *before* any allocation, so a
//! hostile 4 GiB string header inside a 1 MiB frame is rejected without
//! reserving memory. Decoding also demands the payload be fully
//! consumed ([`Reader::finish`]) — trailing bytes are a decode error,
//! same as JSON garbage.

#[doc(hidden)]
pub use iris_errors::{IrisError, IrisResult};

fn decode_err(detail: impl Into<String>) -> IrisError {
    IrisError::Decode {
        detail: detail.into(),
    }
}

/// A value with a binary layout.
pub trait Wire: Sized {
    /// Smallest possible encoding, bytes. `Vec<T>::get` rejects a count
    /// `n` unless `n * T::MIN_LEN` bytes remain, before reserving
    /// anything.
    const MIN_LEN: usize;

    /// Append the encoding of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decode one value from the front of `rd`. `what` names the field
    /// being read in error text; structs and enums name their own
    /// fields (`Type.field`, `Type::Variant.field`) and ignore it.
    ///
    /// # Errors
    ///
    /// [`IrisError::Decode`] on truncation, an impossible length or
    /// count, invalid UTF-8, a bool byte other than `0`/`1`, or an
    /// unknown tag.
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self>;
}

/// How a field of type `T` travels. Every [`Wire`] type is its own
/// layout; a declaration names another with `field: T as L` when the
/// field's bytes are not `T`'s own (JSON text nested in a string, say).
/// The items are named apart from [`Wire`]'s so both traits can be in
/// scope at once.
pub trait Layout<T> {
    /// See [`Wire::MIN_LEN`].
    const MIN: usize;

    /// See [`Wire::put`].
    fn encode(value: &T, buf: &mut Vec<u8>);

    /// See [`Wire::get`].
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn decode(rd: &mut Reader<'_>, what: &str) -> IrisResult<T>;
}

impl<T: Wire> Layout<T> for T {
    const MIN: usize = T::MIN_LEN;

    #[inline]
    fn encode(value: &T, buf: &mut Vec<u8>) {
        value.put(buf);
    }

    #[inline]
    fn decode(rd: &mut Reader<'_>, what: &str) -> IrisResult<T> {
        T::get(rd, what)
    }
}

/// Cursor over a payload, and the only place bounds are checked: every
/// read goes through `take`, and a length or count header is validated
/// against the bytes remaining before any buffer is reserved.
pub struct Reader<'a> {
    b: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start decoding `payload`.
    #[must_use]
    pub fn new(payload: &'a [u8]) -> Self {
        Self { b: payload }
    }

    /// Reject trailing bytes once a value has been decoded.
    ///
    /// # Errors
    ///
    /// [`IrisError::Decode`] when bytes remain.
    pub fn finish(&self, what: &str) -> IrisResult<()> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(decode_err(format!(
                "binary {what}: {} trailing bytes after value",
                self.b.len()
            )))
        }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> IrisResult<&'a [u8]> {
        if self.b.len() < n {
            return Err(truncated(what, n, self.b.len()));
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    /// The next `N` bytes (a fixed-width value).
    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> IrisResult<[u8; N]> {
        let raw = self.take(N, what)?;
        Ok(raw.try_into().expect("take returned N bytes"))
    }

    /// Read an element count, rejecting counts whose minimum encoding
    /// could not fit the remaining payload (so `Vec` capacity is never
    /// reserved off attacker-controlled numbers).
    fn count(&mut self, min_item: usize, what: &str) -> IrisResult<usize> {
        let n = u32::get(self, what)? as usize;
        if n.saturating_mul(min_item) > self.b.len() {
            return Err(decode_err(format!(
                "binary {what}: {n} elements cannot fit {} remaining bytes",
                self.b.len()
            )));
        }
        Ok(n)
    }
}

/// Out of line, so the inlined happy path of every field read carries no
/// formatting code.
#[cold]
#[inline(never)]
fn truncated(what: &str, need: usize, have: usize) -> IrisError {
    decode_err(format!(
        "binary payload truncated reading {what}: need {need} bytes, have {have}"
    ))
}

/// The error for a tag byte that no variant of `what` declares.
#[doc(hidden)]
#[must_use]
pub fn unknown_tag(what: &str, tag: u8) -> IrisError {
    decode_err(format!("unknown binary {what} tag {tag}"))
}

/// Fixed-width little-endian integers.
macro_rules! wire_le_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
                rd.array(what).map(<$ty>::from_le_bytes)
            }
        }
    )+};
}

wire_le_int!(u8, u32, u64);

impl Wire for usize {
    const MIN_LEN: usize = u64::MIN_LEN;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }

    #[inline]
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
        let v = u64::get(rd, what)?;
        usize::try_from(v).map_err(|_| decode_err(format!("binary {what}: {v} exceeds usize")))
    }
}

impl Wire for f64 {
    const MIN_LEN: usize = u64::MIN_LEN;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }

    #[inline]
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
        u64::get(rd, what).map(f64::from_bits)
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    #[inline]
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
        match u8::get(rd, what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(decode_err(format!(
                "binary {what}: invalid bool byte {other}"
            ))),
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        // Frame payloads are capped at 1 MiB, far below u32::MAX; the
        // cast cannot truncate anything that fits a frame.
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    #[inline]
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
        let len = u32::get(rd, what)? as usize;
        // `take` is the pre-allocation bounds check: a length larger
        // than the remaining payload fails here, before the String is
        // built.
        let raw = rd.take(len, what)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|e| decode_err(format!("binary {what}: invalid UTF-8: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }

    #[inline]
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
        let n = rd.count(T::MIN_LEN, what)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(rd, what)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    #[inline]
    fn get(rd: &mut Reader<'_>, what: &str) -> IrisResult<Self> {
        Ok(if bool::get(rd, what)? {
            Some(T::get(rd, what)?)
        } else {
            None
        })
    }
}

/// Picks a field's [`Layout`]: the field type itself unless the
/// declaration names one with `as`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_layout {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $layout:ty) => {
        $layout
    };
}

/// Declare a struct's binary layout: its fields in wire order.
///
/// ```
/// use iris_wire::bin::{Reader, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Hop { node: usize, km: f64 }
/// iris_wire::wire_struct!(Hop { node: usize, km: f64 });
///
/// let mut buf = Vec::new();
/// Hop { node: 3, km: 1.5 }.put(&mut buf);
/// assert_eq!(buf.len(), Hop::MIN_LEN);
/// let back = Hop::get(&mut Reader::new(&buf), "hop").unwrap();
/// assert_eq!(back, Hop { node: 3, km: 1.5 });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident : $ty:ty $(as $layout:ty)?),+ $(,)? }) => {
        impl $crate::bin::Wire for $name {
            const MIN_LEN: usize = 0 $(
                + <$crate::__wire_layout!($ty $(, $layout)?) as $crate::bin::Layout<$ty>>::MIN
            )+;

            #[inline]
            fn put(&self, buf: &mut ::std::vec::Vec<u8>) {
                $(
                    <$crate::__wire_layout!($ty $(, $layout)?) as $crate::bin::Layout<$ty>>::encode(
                        &self.$field,
                        buf,
                    );
                )+
            }

            #[inline]
            fn get(
                rd: &mut $crate::bin::Reader<'_>,
                _what: &str,
            ) -> $crate::bin::IrisResult<Self> {
                Ok(Self {
                    $(
                        $field: <$crate::__wire_layout!($ty $(, $layout)?)
                            as $crate::bin::Layout<$ty>>::decode(
                            rd,
                            concat!(stringify!($name), ".", stringify!($field)),
                        )?,
                    )+
                })
            }
        }
    };
}

/// Declare an enum's binary layout: each variant's `u8` tag, then its
/// fields in wire order. A variant is a unit (`3 => Health`), a struct
/// (`2 => QueryPath { a: usize, b: usize }`) or a newtype with a name
/// for its payload (`0 => Plan(plan: PlanSummary)`). A tag is a literal
/// or a `u8` constant in scope; `"label"` names the type in error text.
///
/// `MIN_LEN` is the tag alone — a lower bound, which is all the
/// pre-allocation count check needs.
///
/// ```
/// use iris_wire::bin::{Reader, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Op { Ping, Move { to: u32 } }
/// iris_wire::wire_enum!(Op: "op" { 0 => Ping, 7 => Move { to: u32 } });
///
/// let mut buf = Vec::new();
/// Op::Move { to: 9 }.put(&mut buf);
/// assert_eq!(buf, [7, 9, 0, 0, 0]);
/// assert_eq!(Op::get(&mut Reader::new(&buf), "op").unwrap(), Op::Move { to: 9 });
/// assert!(Op::get(&mut Reader::new(&[1]), "op").is_err());
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident : $label:literal {
        $(
            $tag:tt => $variant:ident
                $({ $($field:ident : $ty:ty $(as $layout:ty)?),+ $(,)? })?
                $(( $inner:ident : $inner_ty:ty ))?
        ),+ $(,)?
    }) => {
        impl $crate::bin::Wire for $name {
            const MIN_LEN: usize = 1;

            #[inline]
            fn put(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(
                        Self::$variant $({ $($field),+ })? $(( $inner ))? => {
                            buf.push($tag);
                            $($(
                                <$crate::__wire_layout!($ty $(, $layout)?)
                                    as $crate::bin::Layout<$ty>>::encode($field, buf);
                            )+)?
                            $( $crate::bin::Wire::put($inner, buf); )?
                        }
                    )+
                }
            }

            #[inline]
            fn get(
                rd: &mut $crate::bin::Reader<'_>,
                _what: &str,
            ) -> $crate::bin::IrisResult<Self> {
                match <u8 as $crate::bin::Wire>::get(rd, concat!($label, " tag"))? {
                    $(
                        $tag => Ok(Self::$variant
                            $({
                                $(
                                    $field: <$crate::__wire_layout!($ty $(, $layout)?)
                                        as $crate::bin::Layout<$ty>>::decode(
                                        rd,
                                        concat!(
                                            stringify!($name), "::",
                                            stringify!($variant), ".", stringify!($field),
                                        ),
                                    )?,
                                )+
                            })?
                            $((
                                <$inner_ty as $crate::bin::Wire>::get(
                                    rd,
                                    concat!(stringify!($name), "::", stringify!($variant)),
                                )?
                            ))?
                        ),
                    )+
                    other => Err($crate::bin::unknown_tag($label, other)),
                }
            }
        }
    };
}

// Sub-tags in `IrisError` declaration order.
wire_enum!(IrisError: "error" {
    0 => PortOutOfRange { device: String, input: usize, output: usize, ports: usize },
    1 => ChannelOutOfRange { device: String, channel: u32, count: u32 },
    2 => Unreachable { what: String },
    3 => Decode { detail: String },
    4 => VerifyFailed { device: String, detail: String },
    5 => RetriesExhausted { phase: String, attempts: u32, last_error: String },
    6 => Quarantined { device: String },
    7 => Infeasible { detail: String },
    8 => Overloaded { retry_after_ms: u64 },
    9 => InvalidInput { detail: String },
    10 => Io { detail: String },
    11 => Corrupt { what: String, detail: String },
    12 => ReplayFailed { detail: String },
    13 => Timeout { what: String, after_ms: u64 },
    14 => NotPrimary { region: u64 },
});

#[cfg(test)]
mod tests {
    //! Round trips, truncations and trailing bytes of every layout are
    //! checked by `tests/hostile_bytes.rs`.

    use super::*;

    #[test]
    fn hostile_lengths_fail_before_allocation() {
        // String header claiming u32::MAX bytes inside a tiny payload.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(b"hi");
        let mut rd = Reader::new(&buf);
        assert_eq!(String::get(&mut rd, "s").unwrap_err().code(), "decode");

        // Vec count claiming 500M elements.
        let mut buf = 500_000_000u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let mut rd = Reader::new(&buf);
        let err = Vec::<usize>::get(&mut rd, "v").unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn bad_bool_bytes_are_rejected() {
        let mut rd = Reader::new(&[2u8]);
        let err = bool::get(&mut rd, "flag").unwrap_err();
        assert!(err.to_string().contains("bool"), "{err}");
    }

    #[test]
    fn truncation_names_the_field() {
        let mut rd = Reader::new(&[1u8, 2]);
        let err = u32::get(&mut rd, "epoch").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("epoch"), "{msg}");
        assert!(msg.contains("need 4"), "{msg}");
    }
}
