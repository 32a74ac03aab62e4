//! Structured load-time errors.
//!
//! Everything that can go wrong while reading a spec — malformed TOML, a
//! syntax error in an expression, an unknown variable, a duplicate hole, a
//! non-equivariant symmetry annotation — is reported as an [`InvalidSpec`]
//! value. Loading never panics: panics are reserved for failed *runtime*
//! checks inside a candidate evaluation (an index out of range, `get` on
//! `none`, int overflow), which the checker's panic-isolation layer
//! already quarantines.

use std::fmt;

/// A validation error produced while loading a protocol spec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidSpec {
    /// The TOML document itself is malformed.
    Toml {
        /// 1-based source line of the offence.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An embedded expression or statement block failed to parse.
    Syntax {
        /// Which block (rule/fn/property name) was being parsed.
        context: String,
        /// What went wrong.
        message: String,
    },
    /// A name (variable, field, variant, type, hole, lib, fn…) is not
    /// declared.
    UnknownName {
        /// Which block referenced the name.
        context: String,
        /// The undeclared name.
        name: String,
    },
    /// A name is declared twice where uniqueness is required.
    DuplicateName {
        /// Which section contains the duplicate.
        context: String,
        /// The duplicated name.
        name: String,
    },
    /// The `symmetry = true` annotation is not justified by the state
    /// layout (see the crate-level equivariance contract).
    NonEquivariant {
        /// Why the layout cannot be canonicalized soundly.
        reason: String,
    },
    /// An expression or statement is ill-typed.
    Type {
        /// Which block was being compiled.
        context: String,
        /// What went wrong.
        message: String,
    },
    /// A section or key is missing, has the wrong TOML shape, or holds an
    /// out-of-range value.
    Schema {
        /// Which section/key is at fault.
        context: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for InvalidSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidSpec::Toml { line, message } => {
                write!(f, "TOML error at line {line}: {message}")
            }
            InvalidSpec::Syntax { context, message } => {
                write!(f, "syntax error in {context}: {message}")
            }
            InvalidSpec::UnknownName { context, name } => {
                write!(f, "unknown name `{name}` in {context}")
            }
            InvalidSpec::DuplicateName { context, name } => {
                write!(f, "duplicate name `{name}` in {context}")
            }
            InvalidSpec::NonEquivariant { reason } => {
                write!(f, "symmetry annotation is not equivariant: {reason}")
            }
            InvalidSpec::Type { context, message } => {
                write!(f, "type error in {context}: {message}")
            }
            InvalidSpec::Schema { context, message } => {
                write!(f, "schema error in {context}: {message}")
            }
        }
    }
}

impl std::error::Error for InvalidSpec {}
