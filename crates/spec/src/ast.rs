//! Untyped syntax trees for the guard/effect language.
//!
//! The parser resolves nothing: `Field(Var("CacheState"), "I")` may be an
//! enum literal, `Index(Var("DirState"), e)` an enum cast, `Call("send", …)`
//! a spec-level fn or a builtin. The compiler in [`crate::interp`] resolves
//! names against the declared types and produces typed, offset-resolved IR.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `!`
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The `none` option literal.
    None_,
    /// The directory/home agent id (`DIR` = the pid just past the scalarset).
    Dir,
    /// A bare name: variable, local, const, or type/lib prefix.
    Var(String),
    /// `base.field` (also `Enum.Variant`, `lib.action`).
    Field(Box<Expr>, String),
    /// `base[index]` (also `Enum[expr]` casts).
    Index(Box<Expr>, Box<Expr>),
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `e in [a, b, c]` membership sugar.
    InList(Box<Expr>, Vec<Expr>),
    /// `name(args…)`: builtin, expression fn, or record constructor.
    Call(String, Vec<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `require expr;` — guard; a false value disables the rule.
    Require(Expr),
    /// `let name = expr;` — bind a local.
    Let(String, Expr),
    /// `choose name = hole("hole-name");` — consult a synthesis hole.
    Choose(String, String),
    /// `lvalue = expr;` — assign to state or to a local.
    Assign(LValue, Expr),
    /// `if … { } elif … { } else { }`.
    If(Vec<(Expr, Vec<Stmt>)>, Vec<Stmt>),
    /// `for name in pids { … }`.
    ForPids(String, Vec<Stmt>),
    /// `name(args…);` — statement fn or builtin (`add`, `remove`).
    Call(String, Vec<Expr>),
}

/// An assignment target: a base name plus field/index path.
#[derive(Debug, Clone, PartialEq)]
pub struct LValue {
    /// The base variable or local name.
    pub base: String,
    /// The access path.
    pub path: Vec<PathSeg>,
}

/// One step of an lvalue path.
#[derive(Debug, Clone, PartialEq)]
pub enum PathSeg {
    /// `.field`
    Field(String),
    /// `[index]`
    Index(Expr),
}
