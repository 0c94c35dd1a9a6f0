//! [`ParamBuf`]: a weight tensor that is either owned or mmap-backed.
//!
//! Every layer stores its parameters in a `ParamBuf` instead of a
//! bare `Vec<f32>`. Inference only ever reads (`Deref<Target = [f32]>`
//! makes that transparent), so a model loaded from a CATI1 v2
//! container can point its buffers straight into the mapped file —
//! zero copies, zero parse. The first mutable access
//! ([`ParamBuf::to_mut`], used by the optimizer) silently promotes a
//! mapped buffer to an owned copy, so training a loaded model still
//! works and never writes through the map.
//!
//! Serialization is format-transparent: a `ParamBuf` serializes as a
//! plain float array and deserializes as owned, so the embedder
//! checkpoint's JSON is byte-identical to what `Vec<f32>` produced.

use crate::mmap::MapSlice;
use serde::{DeError, Deserialize, Serialize, Value};
use std::ops::Deref;

/// A parameter tensor: owned floats, or a read-only window into a
/// memory-mapped model container.
#[derive(Clone, Debug)]
pub struct ParamBuf(Repr);

#[derive(Clone, Debug)]
enum Repr {
    Owned(Vec<f32>),
    Mapped(MapSlice),
}

impl ParamBuf {
    /// A buffer viewing `slice`'s floats in place (zero-copy).
    pub fn from_map(slice: MapSlice) -> ParamBuf {
        ParamBuf(Repr::Mapped(slice))
    }

    /// The values as a slice (no copy in either representation).
    pub fn as_slice(&self) -> &[f32] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped(s) => s.as_f32s(),
        }
    }

    /// Mutable access, promoting a mapped buffer to an owned copy
    /// first (copy-on-write; the map itself is never written).
    pub fn to_mut(&mut self) -> &mut Vec<f32> {
        if let Repr::Mapped(s) = &self.0 {
            self.0 = Repr::Owned(s.as_f32s().to_vec());
        }
        match &mut self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped(_) => unreachable!("mapped repr replaced above"),
        }
    }

    /// Whether the buffer still points into a real file mapping.
    pub fn is_mapped(&self) -> bool {
        match &self.0 {
            Repr::Owned(_) => false,
            Repr::Mapped(s) => s.is_mapped(),
        }
    }
}

impl Deref for ParamBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl From<Vec<f32>> for ParamBuf {
    fn from(v: Vec<f32>) -> ParamBuf {
        ParamBuf(Repr::Owned(v))
    }
}

impl FromIterator<f32> for ParamBuf {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> ParamBuf {
        ParamBuf(Repr::Owned(iter.into_iter().collect()))
    }
}

impl Default for ParamBuf {
    fn default() -> ParamBuf {
        ParamBuf(Repr::Owned(Vec::new()))
    }
}

impl PartialEq for ParamBuf {
    fn eq(&self, other: &ParamBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Serialize for ParamBuf {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for ParamBuf {
    fn from_value(v: &Value) -> Result<ParamBuf, DeError> {
        Ok(ParamBuf(Repr::Owned(Vec::<f32>::from_value(v)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmap::{MapSlice, MappedFile};

    #[test]
    fn owned_buffer_round_trips_and_compares_by_contents() {
        let a: ParamBuf = vec![1.0f32, -2.5, 3.25].into();
        let b: ParamBuf = vec![1.0f32, -2.5, 3.25].into();
        assert_eq!(a, b);
        assert_eq!(&a[1..], &[-2.5, 3.25]);
        assert!(!a.is_mapped());
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "[1.0,-2.5,3.25]");
        let back: ParamBuf = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn mapped_buffer_reads_in_place_and_promotes_on_write() {
        let floats = [4.0f32, 5.5, -6.0, 7.0];
        let mut bytes = Vec::new();
        for v in floats {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path =
            std::env::temp_dir().join(format!("cati-nn-parambuf-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let map = MappedFile::open(&path).unwrap();
        let mut p = ParamBuf::from_map(MapSlice::new(map.clone(), 0, 4).unwrap());
        assert_eq!(p.as_slice(), &floats);
        assert_eq!(p.is_mapped(), map.is_mapped());
        // Compares equal to an owned buffer with the same contents.
        assert_eq!(p, ParamBuf::from(floats.to_vec()));
        p.to_mut()[0] = 9.0;
        assert!(!p.is_mapped(), "first write promotes to owned");
        assert_eq!(p[0], 9.0);
        assert_eq!(map.bytes(), &bytes[..], "the map itself is untouched");
        std::fs::remove_file(&path).ok();
    }
}
