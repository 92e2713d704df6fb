//! Runtime values and the fat-pointer memory model.

use ir::FuncId;
use std::fmt;

/// Index of a runtime memory object in the VM store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A runtime pointer: an object plus a cell offset.
///
/// Pointer arithmetic moves the offset and may go out of bounds as an
/// intermediate value (like C one-past-the-end pointers); bounds are checked
/// only when the pointer is dereferenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ptr {
    /// The object pointed into.
    pub obj: ObjId,
    /// Allocation generation of the object slot; a mismatch with the live
    /// object's generation means the pointer dangles.
    pub gen: u32,
    /// Cell offset within the object.
    pub off: i64,
}

/// A dynamically typed VM value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Pointer into a memory object.
    Ptr(Ptr),
    /// A function address (for function pointers).
    Func(FuncId),
    /// Undefined contents (uninitialized register or memory cell).
    ///
    /// `Uninit` may be copied, loaded, and stored freely — the promoter's
    /// landing-pad loads may legitimately read not-yet-written memory — but
    /// any *computation* on it is a VM error.
    #[default]
    Uninit,
}

impl Value {
    /// The integer payload.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The float payload.
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The pointer payload.
    pub fn as_ptr(self) -> Option<Ptr> {
        match self {
            Value::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// A short type name for diagnostics.
    pub fn kind_name(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Ptr(_) => "ptr",
            Value::Func(_) => "func",
            Value::Uninit => "uninit",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Ptr(p) => write!(f, "&obj{}+{}", p.obj.0, p.off),
            Value::Func(id) => write!(f, "@{id}"),
            Value::Uninit => write!(f, "<uninit>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(3).as_float(), None);
        assert_eq!(Value::default(), Value::Uninit);
        let p = Ptr {
            obj: ObjId(1),
            gen: 0,
            off: 2,
        };
        assert_eq!(Value::Ptr(p).as_ptr(), Some(p));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Uninit.to_string(), "<uninit>");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }
}
