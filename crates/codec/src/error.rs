//! Error type shared by the GraftBin serializer and deserializer.

use std::fmt;

/// Result alias for codec operations.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced while encoding or decoding GraftBin data.
#[derive(Debug)]
pub enum Error {
    /// Input ended before a complete value was decoded.
    UnexpectedEof,
    /// A varint ran past its maximum width, or was longer than its value
    /// needs (corrupt input).
    VarintOverflow,
    /// A declared length did not fit in `usize` or overflowed arithmetic.
    LengthOverflow,
    /// A byte that must be `0` or `1` (bool / option tag) held another value.
    InvalidTag(u8),
    /// A decoded scalar was not a valid `char`.
    InvalidChar(u32),
    /// String bytes were not valid UTF-8.
    InvalidUtf8(std::str::Utf8Error),
    /// Bytes remained in the input after the value was fully decoded.
    TrailingBytes(usize),
    /// Sequences must know their length ahead of time in this format.
    UnknownLength,
    /// GraftBin does not support `deserialize_any`; the format carries no
    /// type information.
    NotSelfDescribing,
    /// An enum variant index was out of range for the target enum.
    InvalidVariant(u32),
    /// A custom error raised by a `Serialize` or `Deserialize` impl.
    Message(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of input"),
            Error::VarintOverflow => write!(f, "varint is over-long or exceeds maximum width"),
            Error::LengthOverflow => write!(f, "declared length overflows usize"),
            Error::InvalidTag(b) => write!(f, "invalid tag byte {b:#04x} (expected 0 or 1)"),
            Error::InvalidChar(c) => write!(f, "scalar {c:#x} is not a valid char"),
            Error::InvalidUtf8(e) => write!(f, "invalid utf-8 in string: {e}"),
            Error::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after value"),
            Error::UnknownLength => write!(f, "sequence length must be known up front"),
            Error::NotSelfDescribing => {
                write!(f, "GraftBin is not self-describing; deserialize_any unsupported")
            }
            Error::InvalidVariant(v) => write!(f, "variant index {v} out of range"),
            Error::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::InvalidUtf8(e) => Some(e),
            _ => None,
        }
    }
}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::Message(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::Message(msg.to_string())
    }
}
