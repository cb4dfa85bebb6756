//! Abstract syntax tree for the C-like language (§V-A, Fig 8).

/// A data type: arbitrary-width integers, `bool`, or a user struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `unsigned int (N)`.
    UInt(usize),
    /// `int (N)` — two's-complement signed.
    Int(usize),
    /// `bool` (one bit).
    Bool,
    /// A named struct (custom data type, §V-A).
    Struct(String),
}

impl Type {
    /// Bit width of scalar types (`None` for structs; resolve via the
    /// program's struct table).
    pub fn scalar_width(&self) -> Option<usize> {
        match self {
            Type::UInt(w) | Type::Int(w) => Some(*w),
            Type::Bool => Some(1),
            Type::Struct(_) => None,
        }
    }

    /// Is this a signed type?
    pub fn is_signed(&self) -> bool {
        matches!(self, Type::Int(_))
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `~`
    Not,
    /// `!`
    LNot,
    /// `-`
    Neg,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Lit(u64),
    /// Variable reference.
    Var(String),
    /// Struct member access `base.field`.
    Member(Box<Expr>, String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Builtin call: `sqrt(x)`, `exp(x)` (fixed point), `abs(x)`,
    /// `min(a, b)`, `max(a, b)`.
    Call(String, Vec<Expr>),
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Plain variable.
    Var(String),
    /// Struct member.
    Member(String, String),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declaration with optional initializer.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment (compound operators are desugared by the parser).
    Assign {
        /// Target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// Conditional; both branches are executed and results selected
    /// (Fig 13b).
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch.
        else_body: Vec<Stmt>,
    },
    /// Counted loop, unrolled at compile time (§V-A constraint 1).
    For {
        /// Induction variable name.
        var: String,
        /// Inclusive start (constant).
        start: u64,
        /// Exclusive end (constant).
        end: u64,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Function return.
    Return(Expr),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Ordered fields: (name, scalar type).
    pub fields: Vec<(String, Type)>,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Return type.
    pub ret: Type,
    /// Name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(Type, String)>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Functions (`main` is the kernel entry).
    pub functions: Vec<Function>,
}

impl Program {
    /// Find a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_widths() {
        assert_eq!(Type::UInt(5).scalar_width(), Some(5));
        assert_eq!(Type::Int(9).scalar_width(), Some(9));
        assert_eq!(Type::Bool.scalar_width(), Some(1));
        assert_eq!(Type::Struct("p".into()).scalar_width(), None);
        assert!(Type::Int(4).is_signed());
        assert!(!Type::UInt(4).is_signed());
    }
}
