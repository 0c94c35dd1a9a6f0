//! Source-level C type model.
//!
//! This mirrors what DWARF `DW_TAG_*_type` DIEs describe: base types,
//! typedef chains, pointers, arrays, enums, structs and unions. CATI's
//! labeling stage resolves typedefs recursively to base types (paper
//! §IV-A) before mapping a type onto one of the 19 predicted classes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Signedness of an integer base type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signedness {
    /// `signed` (the default for `int`, `short`, `long`, ...).
    Signed,
    /// `unsigned`.
    Unsigned,
}

impl Signedness {
    /// Returns `true` for [`Signedness::Signed`].
    pub fn is_signed(self) -> bool {
        matches!(self, Signedness::Signed)
    }
}

/// Width of an integer base type, named after the C keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntWidth {
    /// `char` — 1 byte.
    Char,
    /// `short int` — 2 bytes.
    Short,
    /// `int` — 4 bytes.
    Int,
    /// `long int` — 8 bytes on x86-64 (LP64).
    Long,
    /// `long long int` — 8 bytes.
    LongLong,
}

impl IntWidth {
    /// Size in bytes under the x86-64 System V ABI (LP64).
    pub fn size(self) -> u32 {
        match self {
            IntWidth::Char => 1,
            IntWidth::Short => 2,
            IntWidth::Int => 4,
            IntWidth::Long | IntWidth::LongLong => 8,
        }
    }
}

/// Width of a floating-point base type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloatWidth {
    /// `float` — 4 bytes, SSE scalar single.
    Float,
    /// `double` — 8 bytes, SSE scalar double.
    Double,
    /// `long double` — x87 80-bit extended, 16-byte slot.
    LongDouble,
}

impl FloatWidth {
    /// Size in bytes of the in-memory representation.
    pub fn size(self) -> u32 {
        match self {
            FloatWidth::Float => 4,
            FloatWidth::Double => 8,
            FloatWidth::LongDouble => 16,
        }
    }
}

/// A member of a [`StructDef`] or union definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Member {
    /// Member name as written in source.
    pub name: String,
    /// Member type.
    pub ty: CType,
    /// Byte offset of the member from the start of the aggregate.
    pub offset: u32,
}

/// A struct or union definition referenced by [`CType::Struct`] /
/// [`CType::Union`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructDef {
    /// Tag name (`struct <name>`), possibly synthetic for anonymous types.
    pub name: String,
    /// Ordered members with resolved offsets.
    pub members: Vec<Member>,
    /// Total size in bytes including trailing padding.
    pub size: u32,
    /// Alignment in bytes.
    pub align: u32,
}

impl StructDef {
    /// Lays out `members` sequentially with natural alignment, the way a
    /// C compiler would, and returns the finished definition.
    pub fn layout(name: impl Into<String>, members: Vec<(String, CType)>) -> StructDef {
        let mut out = Vec::with_capacity(members.len());
        let mut offset = 0u32;
        let mut align = 1u32;
        for (mname, ty) in members {
            let a = ty.align().max(1);
            align = align.max(a);
            offset = offset.div_ceil(a) * a;
            out.push(Member {
                name: mname,
                ty: ty.clone(),
                offset,
            });
            offset += ty.size();
        }
        let size = offset.div_ceil(align) * align;
        StructDef {
            name: name.into(),
            members: out,
            size: size.max(1),
            align,
        }
    }

    /// Looks up a member by byte offset, returning the member that
    /// contains `offset` if any.
    pub fn member_at(&self, offset: u32) -> Option<&Member> {
        self.members
            .iter()
            .rev()
            .find(|m| m.offset <= offset && offset < m.offset + m.ty.size())
    }
}

/// An enum definition: named constants over an `int`-sized storage.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EnumDef {
    /// Tag name.
    pub name: String,
    /// Enumerator names; discriminants are their indices.
    pub variants: Vec<String>,
}

/// A source-level C type, as described by debug information.
///
/// `Struct`/`Union`/`Enum` carry an index into the program's type
/// definition tables (see [`crate::debuginfo::DebugInfo`]) rather than an
/// inline definition, mirroring how DWARF DIEs reference each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CType {
    /// `void` — only meaningful behind a pointer.
    Void,
    /// `_Bool`.
    Bool,
    /// Integer base type of a given width and signedness.
    Integer(IntWidth, Signedness),
    /// Floating-point base type.
    Float(FloatWidth),
    /// `enum <tag>` — index into the enum table.
    Enum(u32),
    /// `struct <tag>` — index into the struct table.
    Struct(u32),
    /// `union <tag>` — index into the struct table (unions share it).
    Union(u32),
    /// Pointer to another type.
    Pointer(Box<CType>),
    /// Fixed-length array.
    Array(Box<CType>, u32),
    /// `typedef <name> = <aliased>`; chains may nest.
    Typedef(String, Box<CType>),
}

impl CType {
    /// Convenience constructor for `int`.
    pub fn int() -> CType {
        CType::Integer(IntWidth::Int, Signedness::Signed)
    }

    /// Convenience constructor for `char`.
    pub fn char() -> CType {
        CType::Integer(IntWidth::Char, Signedness::Signed)
    }

    /// Convenience constructor for a pointer to `self`'s clone.
    pub fn ptr_to(inner: CType) -> CType {
        CType::Pointer(Box::new(inner))
    }

    /// Recursively resolves typedef chains to the underlying type,
    /// the way CATI's labeling stage does (paper §IV-A: "If we found
    /// that the type has been redefined by typedef, we would
    /// recursively find its base type").
    pub fn resolve(&self) -> &CType {
        let mut t = self;
        while let CType::Typedef(_, inner) = t {
            t = inner;
        }
        t
    }

    /// Number of typedef hops until the base type.
    pub fn typedef_depth(&self) -> usize {
        let mut t = self;
        let mut n = 0;
        while let CType::Typedef(_, inner) = t {
            t = inner;
            n += 1;
        }
        n
    }

    /// Size in bytes under the x86-64 System V ABI. Struct/union/enum
    /// sizes require the definition tables, so this returns the size
    /// recorded in the type itself for scalars and pointers and a
    /// placeholder for aggregates; prefer
    /// [`crate::debuginfo::TypeTable::size_of`] when tables are at hand.
    pub fn size(&self) -> u32 {
        match self.resolve() {
            CType::Void => 1,
            CType::Bool => 1,
            CType::Integer(w, _) => w.size(),
            CType::Float(w) => w.size(),
            CType::Enum(_) => 4,
            // Without the table we only know aggregates are >= 1 byte;
            // generator code paths always go through TypeTable::size_of.
            CType::Struct(_) | CType::Union(_) => 8,
            CType::Pointer(_) => 8,
            CType::Array(elem, n) => elem.size() * n.max(&1),
            CType::Typedef(..) => unreachable!("resolve() strips typedefs"),
        }
    }

    /// Natural alignment in bytes.
    pub fn align(&self) -> u32 {
        match self.resolve() {
            CType::Void | CType::Bool => 1,
            CType::Integer(w, _) => w.size(),
            CType::Float(w) => w.size().min(16),
            CType::Enum(_) => 4,
            CType::Struct(_) | CType::Union(_) => 8,
            CType::Pointer(_) => 8,
            CType::Array(elem, _) => elem.align(),
            CType::Typedef(..) => unreachable!("resolve() strips typedefs"),
        }
    }

    /// Whether the resolved type is a pointer.
    pub fn is_pointer(&self) -> bool {
        matches!(self.resolve(), CType::Pointer(_))
    }

    /// Whether the resolved type is a C arithmetic type (bool, char,
    /// integer, float or enum).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self.resolve(),
            CType::Bool | CType::Integer(..) | CType::Float(_) | CType::Enum(_)
        )
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CType::Void => write!(f, "void"),
            CType::Bool => write!(f, "_Bool"),
            CType::Integer(w, s) => {
                let base = match w {
                    IntWidth::Char => "char",
                    IntWidth::Short => "short int",
                    IntWidth::Int => "int",
                    IntWidth::Long => "long int",
                    IntWidth::LongLong => "long long int",
                };
                if s.is_signed() {
                    write!(f, "{base}")
                } else if *w == IntWidth::Char {
                    write!(f, "unsigned char")
                } else {
                    write!(f, "{} unsigned int", base.trim_end_matches(" int"))
                }
            }
            CType::Float(FloatWidth::Float) => write!(f, "float"),
            CType::Float(FloatWidth::Double) => write!(f, "double"),
            CType::Float(FloatWidth::LongDouble) => write!(f, "long double"),
            CType::Enum(id) => write!(f, "enum#{id}"),
            CType::Struct(id) => write!(f, "struct#{id}"),
            CType::Union(id) => write!(f, "union#{id}"),
            CType::Pointer(inner) => write!(f, "{inner}*"),
            CType::Array(inner, n) => write!(f, "{inner}[{n}]"),
            CType::Typedef(name, _) => write!(f, "{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typedef_resolution_is_recursive() {
        let t = CType::Typedef(
            "size_t".into(),
            Box::new(CType::Typedef(
                "__u64".into(),
                Box::new(CType::Integer(IntWidth::Long, Signedness::Unsigned)),
            )),
        );
        assert_eq!(
            t.resolve(),
            &CType::Integer(IntWidth::Long, Signedness::Unsigned)
        );
        assert_eq!(t.typedef_depth(), 2);
    }

    #[test]
    fn struct_layout_respects_alignment() {
        let def = StructDef::layout(
            "pair",
            vec![
                ("flag".into(), CType::Bool),
                (
                    "value".into(),
                    CType::Integer(IntWidth::Long, Signedness::Signed),
                ),
            ],
        );
        assert_eq!(def.members[0].offset, 0);
        assert_eq!(def.members[1].offset, 8);
        assert_eq!(def.size, 16);
        assert_eq!(def.align, 8);
    }

    #[test]
    fn member_at_finds_containing_member() {
        let def = StructDef::layout(
            "s",
            vec![("a".into(), CType::int()), ("b".into(), CType::int())],
        );
        assert_eq!(def.member_at(0).unwrap().name, "a");
        assert_eq!(def.member_at(5).unwrap().name, "b");
        assert!(def.member_at(8).is_none());
    }

    #[test]
    fn display_matches_c_spelling() {
        assert_eq!(CType::int().to_string(), "int");
        assert_eq!(
            CType::Integer(IntWidth::Long, Signedness::Unsigned).to_string(),
            "long unsigned int"
        );
        assert_eq!(
            CType::Integer(IntWidth::Char, Signedness::Unsigned).to_string(),
            "unsigned char"
        );
        assert_eq!(CType::ptr_to(CType::Void).to_string(), "void*");
    }

    #[test]
    fn sizes_follow_lp64() {
        assert_eq!(CType::Integer(IntWidth::Long, Signedness::Signed).size(), 8);
        assert_eq!(CType::ptr_to(CType::int()).size(), 8);
        assert_eq!(CType::Array(Box::new(CType::int()), 10).size(), 40);
        assert_eq!(CType::Float(FloatWidth::LongDouble).size(), 16);
    }

    #[test]
    fn arithmetic_predicate() {
        assert!(CType::Bool.is_arithmetic());
        assert!(CType::Enum(0).is_arithmetic());
        assert!(!CType::ptr_to(CType::int()).is_arithmetic());
        assert!(!CType::Struct(0).is_arithmetic());
    }
}
