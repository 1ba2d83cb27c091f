//! The top-level program arena: classes, methods, fields, and lookups.

use crate::body::Body;
use crate::flags::{ClassFlags, FieldFlags, MethodFlags};
use crate::hash::FxHashMap;
use crate::intern::{Interner, Symbol};
use crate::types::Type;
use std::fmt;

/// Identifier of a class within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a method: the declaring class plus its index therein.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MethodId {
    /// Declaring class.
    pub class: ClassId,
    /// Index within the class's method table.
    pub index: u32,
}

/// Identifier of a field: the declaring class plus its index therein.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FieldId {
    /// Declaring class.
    pub class: ClassId,
    /// Index within the class's field table.
    pub index: u32,
}

/// A field declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Field {
    /// Interned field name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Type,
    /// Access flags.
    pub flags: FieldFlags,
}

/// A method declaration, possibly with a body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Method {
    /// Interned method name.
    pub name: Symbol,
    /// Parameter types, excluding the implicit receiver.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Access and attribute flags.
    pub flags: MethodFlags,
    /// The body; `None` for `native` and `abstract` methods.
    pub body: Option<Body>,
}

impl Method {
    /// Returns `true` for JNI methods — the paper's primary
    /// security-sensitive events.
    pub fn is_native(&self) -> bool {
        self.flags.contains(MethodFlags::NATIVE)
    }

    /// Number of explicit parameters.
    pub fn argc(&self) -> u32 {
        self.params.len() as u32
    }
}

/// A class or interface declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Class {
    /// Interned fully-qualified name.
    pub name: Symbol,
    /// Superclass name; `None` only for the hierarchy root.
    pub superclass: Option<Symbol>,
    /// Implemented interface names.
    pub interfaces: Vec<Symbol>,
    /// Class flags.
    pub flags: ClassFlags,
    /// Declared fields.
    pub fields: Vec<Field>,
    /// Declared methods.
    pub methods: Vec<Method>,
}

impl Class {
    /// Returns `true` if declared with `interface`.
    pub fn is_interface(&self) -> bool {
        self.flags.contains(ClassFlags::INTERFACE)
    }
}

/// Errors raised when assembling a [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// Two classes share a fully-qualified name.
    DuplicateClass(String),
    /// Two methods in one class share a `(name, arity)` key.
    DuplicateMethod {
        /// Class name.
        class: String,
        /// Method name.
        method: String,
        /// Shared arity.
        argc: u32,
    },
    /// Two fields in one class share a name.
    DuplicateField {
        /// Class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// A body failed structural validation.
    InvalidBody {
        /// Class name.
        class: String,
        /// Method name.
        method: String,
        /// Violation description.
        detail: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateClass(c) => write!(f, "duplicate class `{c}`"),
            ProgramError::DuplicateMethod {
                class,
                method,
                argc,
            } => {
                write!(f, "duplicate method `{class}.{method}/{argc}`")
            }
            ProgramError::DuplicateField { class, field } => {
                write!(f, "duplicate field `{class}.{field}`")
            }
            ProgramError::InvalidBody {
                class,
                method,
                detail,
            } => {
                write!(f, "invalid body in `{class}.{method}`: {detail}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete JIR program: an arena of classes with interned names and
/// dense lookup tables.
///
/// Programs are built by parsing the textual format with
/// [`parse_program`](crate::parse_program) or
/// [`parse_into`](crate::parse_into), which adds each class through
/// [`Program::add_class`].
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub(crate) interner: Interner,
    pub(crate) classes: Vec<Class>,
    pub(crate) class_by_name: FxHashMap<Symbol, ClassId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The string interner backing all names in this program.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Interns a string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves a symbol to its string.
    pub fn str(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Resolves a symbol to a handle on the interner's shared string (see
    /// [`Interner::resolve_shared`]): a reference count, no copy.
    pub fn shared_str(&self, sym: Symbol) -> std::sync::Arc<str> {
        std::sync::Arc::clone(self.interner.resolve_shared(sym))
    }

    /// All classes, in declaration order.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &Class)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The class with the given id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks a class up by interned name.
    pub fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.class_by_name.get(&name).copied()
    }

    /// Looks a class up by string name.
    pub fn class_by_str(&self, name: &str) -> Option<ClassId> {
        let sym = self.interner.get(name)?;
        self.class_by_name(sym)
    }

    /// The method with the given id.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.classes[id.class.index()].methods[id.index as usize]
    }

    /// The field with the given id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.classes[id.class.index()].fields[id.index as usize]
    }

    /// All methods of a class.
    pub fn methods_of(&self, class: ClassId) -> impl Iterator<Item = (MethodId, &Method)> {
        self.classes[class.index()]
            .methods
            .iter()
            .enumerate()
            .map(move |(i, m)| {
                (
                    MethodId {
                        class,
                        index: i as u32,
                    },
                    m,
                )
            })
    }

    /// All methods in the program.
    pub fn all_methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.classes().flat_map(move |(id, _)| self.methods_of(id))
    }

    /// Finds a method declared *directly* on `class` by name and arity
    /// (no superclass search — see `spo-resolve` for hierarchy lookup).
    pub fn find_method(&self, class: ClassId, name: Symbol, argc: u32) -> Option<MethodId> {
        self.classes[class.index()]
            .methods
            .iter()
            .position(|m| m.name == name && m.argc() == argc)
            .map(|i| MethodId {
                class,
                index: i as u32,
            })
    }

    /// Finds a field declared directly on `class` by name.
    pub fn find_field(&self, class: ClassId, name: Symbol) -> Option<FieldId> {
        self.classes[class.index()]
            .fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId {
                class,
                index: i as u32,
            })
    }

    /// Human-readable `Class.method` name of a method.
    pub fn method_name(&self, id: MethodId) -> String {
        format!(
            "{}.{}",
            self.str(self.class(id.class).name),
            self.str(self.method(id).name)
        )
    }

    /// The signature string of a method: `Class.name(ty1,ty2)`.
    ///
    /// This is the key used to match API entry points across independent
    /// implementations of the same library.
    pub fn method_signature(&self, id: MethodId) -> String {
        use std::fmt::Write as _;
        let m = self.method(id);
        // One buffer, no per-parameter strings: warm cached runs format
        // every entry point's signature to look it up.
        let mut sig = String::with_capacity(64);
        sig.push_str(self.str(self.class(id.class).name));
        sig.push('.');
        sig.push_str(self.str(m.name));
        sig.push('(');
        for (i, t) in m.params.iter().enumerate() {
            if i > 0 {
                sig.push(',');
            }
            let _ = write!(sig, "{}", t.display(&self.interner));
        }
        sig.push(')');
        sig
    }

    /// Adds a fully-formed class, validating name/member uniqueness and
    /// method bodies.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on duplicate class/member names or a body
    /// that fails [`Body::validate`].
    pub fn add_class(&mut self, class: Class) -> Result<ClassId, ProgramError> {
        if self.class_by_name.contains_key(&class.name) {
            return Err(ProgramError::DuplicateClass(
                self.str(class.name).to_owned(),
            ));
        }
        let cname = || self.str(class.name).to_owned();
        for (i, m) in class.methods.iter().enumerate() {
            for m2 in &class.methods[i + 1..] {
                if m.name == m2.name && m.argc() == m2.argc() {
                    return Err(ProgramError::DuplicateMethod {
                        class: cname(),
                        method: self.str(m.name).to_owned(),
                        argc: m.argc(),
                    });
                }
            }
            if let Some(body) = &m.body {
                body.validate()
                    .map_err(|detail| ProgramError::InvalidBody {
                        class: cname(),
                        method: self.str(m.name).to_owned(),
                        detail,
                    })?;
            }
        }
        for (i, fl) in class.fields.iter().enumerate() {
            if class.fields[i + 1..].iter().any(|f2| f2.name == fl.name) {
                return Err(ProgramError::DuplicateField {
                    class: cname(),
                    field: self.str(fl.name).to_owned(),
                });
            }
        }
        let id = ClassId(self.classes.len() as u32);
        self.class_by_name.insert(class.name, id);
        self.classes.push(class);
        Ok(id)
    }

    /// Total number of statements across all bodies — the "size" metric used
    /// in library-characteristics reporting.
    pub fn stmt_count(&self) -> usize {
        self.all_methods()
            .filter_map(|(_, m)| m.body.as_ref())
            .map(|b| b.stmts.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_class(p: &mut Program, name: &str) -> Class {
        let n = p.intern(name);
        Class {
            name: n,
            superclass: None,
            interfaces: vec![],
            flags: ClassFlags::PUBLIC,
            fields: vec![],
            methods: vec![],
        }
    }

    #[test]
    fn add_and_lookup_class() {
        let mut p = Program::new();
        let c = simple_class(&mut p, "a.B");
        let id = p.add_class(c).unwrap();
        assert_eq!(p.class_by_str("a.B"), Some(id));
        assert_eq!(p.class_by_str("a.C"), None);
        assert_eq!(p.class_count(), 1);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut p = Program::new();
        let c1 = simple_class(&mut p, "a.B");
        let c2 = simple_class(&mut p, "a.B");
        p.add_class(c1).unwrap();
        assert!(matches!(
            p.add_class(c2),
            Err(ProgramError::DuplicateClass(_))
        ));
    }

    #[test]
    fn duplicate_method_rejected() {
        let mut p = Program::new();
        let mut c = simple_class(&mut p, "a.B");
        let m = p.intern("m");
        let mk = |name| Method {
            name,
            params: vec![Type::Int],
            ret: Type::Void,
            flags: MethodFlags::PUBLIC | MethodFlags::NATIVE,
            body: None,
        };
        c.methods.push(mk(m));
        c.methods.push(mk(m));
        assert!(matches!(
            p.add_class(c),
            Err(ProgramError::DuplicateMethod { .. })
        ));
    }

    #[test]
    fn overload_by_arity_allowed() {
        let mut p = Program::new();
        let mut c = simple_class(&mut p, "a.B");
        let m = p.intern("m");
        c.methods.push(Method {
            name: m,
            params: vec![],
            ret: Type::Void,
            flags: MethodFlags::NATIVE,
            body: None,
        });
        c.methods.push(Method {
            name: m,
            params: vec![Type::Int],
            ret: Type::Void,
            flags: MethodFlags::NATIVE,
            body: None,
        });
        let id = p.add_class(c).unwrap();
        assert!(p.find_method(id, m, 0).is_some());
        assert!(p.find_method(id, m, 1).is_some());
        assert!(p.find_method(id, m, 2).is_none());
    }

    #[test]
    fn signature_string() {
        let mut p = Program::new();
        let mut c = simple_class(&mut p, "java.net.Socket");
        let m = p.intern("connect");
        let addr = p.intern("java.net.SocketAddress");
        c.methods.push(Method {
            name: m,
            params: vec![Type::Ref(addr), Type::Int],
            ret: Type::Void,
            flags: MethodFlags::PUBLIC | MethodFlags::NATIVE,
            body: None,
        });
        let cid = p.add_class(c).unwrap();
        let mid = p.find_method(cid, m, 2).unwrap();
        assert_eq!(
            p.method_signature(mid),
            "java.net.Socket.connect(java.net.SocketAddress,int)"
        );
    }

    #[test]
    fn invalid_body_rejected() {
        let mut p = Program::new();
        let mut c = simple_class(&mut p, "a.B");
        let m = p.intern("m");
        c.methods.push(Method {
            name: m,
            params: vec![],
            ret: Type::Void,
            flags: MethodFlags::PUBLIC,
            body: Some(Body {
                locals: vec![],
                n_params: 0,
                stmts: vec![crate::Stmt::Goto { target: 42 }],
            }),
        });
        assert!(matches!(
            p.add_class(c),
            Err(ProgramError::InvalidBody { .. })
        ));
    }
}
