//! The GraftBin `serde::Deserializer`.

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};

use crate::error::{Error, Result};
use crate::varint;

/// Deserializes a value of type `T` from `input`, requiring the entire
/// slice to be consumed.
pub fn from_slice<T: DeserializeOwned>(input: &[u8]) -> Result<T> {
    let mut de = Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    if de.rest.is_empty() {
        Ok(value)
    } else {
        Err(Error::TrailingBytes(de.rest.len()))
    }
}

/// Streaming GraftBin decoder over a borrowed input slice.
pub struct Deserializer<'de> {
    rest: &'de [u8],
}

impl<'de> Deserializer<'de> {
    /// Creates a deserializer over `input`.
    pub fn new(input: &'de [u8]) -> Self {
        Self { rest: input }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn read_u64(&mut self) -> Result<u64> {
        let (v, n) = varint::read_u64(self.rest)?;
        self.rest = &self.rest[n..];
        Ok(v)
    }

    #[inline]
    fn read_i64(&mut self) -> Result<i64> {
        let (v, n) = varint::read_i64(self.rest)?;
        self.rest = &self.rest[n..];
        Ok(v)
    }

    #[inline]
    fn read_len(&mut self) -> Result<usize> {
        usize::try_from(self.read_u64()?).map_err(|_| Error::LengthOverflow)
    }

    fn read_exact(&mut self, n: usize) -> Result<&'de [u8]> {
        let bytes = self.rest.get(..n).ok_or(Error::UnexpectedEof)?;
        self.rest = &self.rest[n..];
        Ok(bytes)
    }

    fn read_tag(&mut self) -> Result<bool> {
        let byte = *self.rest.first().ok_or(Error::UnexpectedEof)?;
        self.rest = &self.rest[1..];
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::InvalidTag(other)),
        }
    }

    fn read_str(&mut self) -> Result<&'de str> {
        let len = self.read_len()?;
        let bytes = self.read_exact(len)?;
        std::str::from_utf8(bytes).map_err(Error::InvalidUtf8)
    }
}

macro_rules! deserialize_signed {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let v = self.read_i64()?;
            let narrowed =
                <$ty>::try_from(v).map_err(|_| Error::Message(format!("{v} out of range")))?;
            visitor.$visit(narrowed)
        }
    };
}

macro_rules! deserialize_unsigned {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let v = self.read_u64()?;
            let narrowed =
                <$ty>::try_from(v).map_err(|_| Error::Message(format!("{v} out of range")))?;
            visitor.$visit(narrowed)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_bool(self.read_tag()?)
    }

    deserialize_signed!(deserialize_i8, visit_i8, i8);
    deserialize_signed!(deserialize_i16, visit_i16, i16);
    deserialize_signed!(deserialize_i32, visit_i32, i32);

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let v = self.read_i64()?;
        visitor.visit_i64(v)
    }

    deserialize_unsigned!(deserialize_u8, visit_u8, u8);
    deserialize_unsigned!(deserialize_u16, visit_u16, u16);
    deserialize_unsigned!(deserialize_u32, visit_u32, u32);

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let v = self.read_u64()?;
        visitor.visit_u64(v)
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let bytes: [u8; 4] = self.read_exact(4)?.try_into().expect("slice of length 4");
        visitor.visit_f32(f32::from_le_bytes(bytes))
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let bytes: [u8; 8] = self.read_exact(8)?.try_into().expect("slice of length 8");
        visitor.visit_f64(f64::from_le_bytes(bytes))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let raw = self.read_u64()?;
        let raw = u32::try_from(raw).map_err(|_| Error::InvalidChar(u32::MAX))?;
        let c = char::from_u32(raw).ok_or(Error::InvalidChar(raw))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_borrowed_str(self.read_str()?)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        visitor.visit_borrowed_bytes(self.read_exact(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        if self.read_tag()? {
            visitor.visit_some(self)
        } else {
            visitor.visit_none()
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        visitor.visit_map(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for CountedAccess<'_, 'de> {
    type Error = Error;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for CountedAccess<'_, 'de> {
    type Error = Error;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = Error;
    type Variant = VariantAccess<'a, 'de>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant)> {
        let index = self.de.read_u64()?;
        let index = u32::try_from(index).map_err(|_| Error::InvalidVariant(u32::MAX))?;
        let value =
            seed.deserialize(<u32 as IntoDeserializer<'de, Error>>::into_deserializer(index))?;
        Ok((value, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de> de::VariantAccess<'de> for VariantAccess<'_, 'de> {
    type Error = Error;

    fn unit_variant(self) -> Result<()> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        visitor.visit_seq(CountedAccess { de: self.de, remaining: len })
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_seq(CountedAccess { de: self.de, remaining: fields.len() })
    }
}
