//! Compiler and evaluator: raw declarations → offset-resolved IR →
//! [`SpecModel`], a [`TransitionSystem`] over [`SpecState`].
//!
//! # Compilation
//!
//! The compiler resolves every name statically — variables and record
//! fields to byte offsets in the [layout](crate::layout), locals to offsets
//! in a per-rule byte frame, enum variants and library actions to constants,
//! holes to registry positions — and reports unresolvable or ill-typed
//! constructs as structured [`InvalidSpec`] errors. A place compiles to a
//! static offset plus index × stride steps; only a place behind a
//! variable-size value needs a dynamic skip. A local bound to a bare
//! `none` takes the type that the first later assignment to it, or typed
//! use of it, gives. After a spec loads, the evaluator can only fail a
//! runtime check — an array index ≥ n, an enum cast out of range, int
//! arithmetic outside `0..=255`, a pidset pid past `DIR`, `get(none)` —
//! and those panic; the checker's panic isolation quarantines such
//! candidates instead of crashing the run.
//!
//! # Execution semantics
//!
//! A rule body runs against a copy-on-write next state: reads go to the
//! current state until the first write copies it (one memcpy into a reused
//! buffer). A body that completes without writing yields a self-loop
//! (`Next(current)`), matching hand-written terminal rules. Locals and
//! temporaries live in a per-thread byte frame that is reused, not
//! reallocated or cleared, between calls: every local is written before it
//! is read.
//!
//! `require` with a false operand disables the rule. `choose` consults its
//! hole; a wildcard sets a *blocked* flag but execution continues through
//! any immediately following `choose` statements — so every hole the rule
//! consults is discovered/recorded, exactly like hand-written models that
//! resolve all holes before aborting — and the rule aborts with
//! [`RuleOutcome::Blocked`] at the first non-`choose` statement (or at the
//! end of the body).

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use verc3_mck::eval::{Choice, HoleResolver, HoleSpec};
use verc3_mck::scalarset::Symmetric;
use verc3_mck::{Property, Rule, RuleOutcome, TransitionSystem};

use crate::ast::{BinOp, Expr, LValue, PathSeg, Stmt, UnOp};
use crate::error::InvalidSpec;
use crate::layout::{
    multi_count, multi_search, pidset_width, push_word, read_word, write_word, Kind, Laid, Link,
    PermProgram, Records, Shape, SpecState,
};
use crate::spec::{Binder, BinderDomain, FnBody, PropKind, RawRule, RawSpec, TypeRef};

// ---- Compiled form ---------------------------------------------------------

/// A synthesis hole with its prebuilt [`HoleSpec`].
pub(crate) struct CHole {
    pub name: String,
    pub spec: HoleSpec,
}

/// A compiled statement body with its frame size in bytes.
pub(crate) struct CBody {
    pub frame: usize,
    pub stmts: Vec<CStmt>,
}

/// One expanded rule instance: an interpolated name, a shared body, and the
/// binder values to preload into the first bytes of the body's frame.
pub(crate) struct CRuleInstance {
    pub name: String,
    pub body: usize,
    pub prelude: Vec<u8>,
}

/// A compiled property predicate.
pub(crate) struct CProp {
    pub kind: PropKind,
    pub name: String,
    pub frame: usize,
    pub expr: CExpr,
}

/// The fully compiled protocol: everything [`SpecModel`] needs at runtime.
pub(crate) struct CompiledSpec {
    pub name: String,
    /// The largest frame any body or property needs; temporaries go
    /// after it.
    pub max_frame: usize,
    pub pids: usize,
    pub symmetry: bool,
    pub holes: Vec<CHole>,
    pub initial: SpecState,
    pub perm: PermProgram,
    pub bodies: Vec<CBody>,
    pub rules: Vec<CRuleInstance>,
    pub props: Vec<CProp>,
    /// Every record's layout: keeps the targets of [`Link`]s alive.
    pub _records: Arc<Records>,
}

/// Quantifier flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Quant {
    Count,
    Forall,
    Exists,
}

/// How an operand's value is carried.
#[derive(Debug, Clone)]
pub(crate) enum Width {
    /// A scalar this many bytes wide, evaluated to a word.
    Word(usize),
    /// A composite of this many bytes, evaluated to an address.
    Fixed(usize),
    /// A composite whose size depends on a multiset inside it.
    Var(Box<Shape>),
}

/// An operand together with how its value is carried.
#[derive(Debug, Clone)]
pub(crate) struct CArg {
    pub expr: CExpr,
    pub width: Width,
}

/// Typed, offset-resolved expressions. Scalar nodes evaluate to a word;
/// composite nodes (`Place`, `Record`, `Some_`, `Zeros`, `Find`) to the
/// address of their bytes.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    /// A scalar constant (bool, int, pid, enum variant, pidset bits).
    Lit(u32),
    /// A scalar of the given width at a computed address.
    Load(CAddr, usize),
    EnumCast(u32, Box<CExpr>),
    Not(Box<CExpr>),
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    /// `==`, `!=` or an ordering on two words.
    Cmp(BinOp, Box<CExpr>, Box<CExpr>),
    /// Byte equality of two composites (`ne` negates).
    SameBytes {
        l: Box<CArg>,
        r: Box<CArg>,
        ne: bool,
    },
    InList(Box<CArg>, Vec<CArg>),
    Len(Box<CExpr>, Box<Shape>),
    Card(Box<CExpr>),
    Contains(Box<CExpr>, Box<CExpr>),
    With(Box<CExpr>, Box<CExpr>),
    Without(Box<CExpr>, Box<CExpr>),
    SatSub(Box<CExpr>, Box<CExpr>),
    Quantifier {
        quant: Quant,
        off: usize,
        body: Box<CExpr>,
    },
    /// A composite read in place.
    Place(Box<CAddr>),
    /// A record constructor; `size` is `None` for variable-size records.
    Record(Vec<CArg>, Option<usize>),
    Some_(Box<CArg>),
    /// `none`: a zero tag and any zero fill, this many bytes in all.
    Zeros(usize),
    Find(Box<CFind>),
}

/// `find(ms, to, kind, rank)`: the rank-th element of a multiset of
/// records whose `to` and `kind` fields match.
#[derive(Debug, Clone)]
pub(crate) struct CFind {
    ms: CExpr,
    /// The element record's layout.
    elem: Shape,
    to: CArg,
    kind: CArg,
    rank: CExpr,
    to_at: FieldAt,
    kind_at: FieldAt,
    /// Length of the zero fill behind a `none` result.
    fill: usize,
}

/// Where a field starts inside its record: a static displacement over the
/// fixed-size fields up to the first variable-size one, then a skip over
/// each field from there on.
#[derive(Debug, Clone)]
pub(crate) struct FieldAt {
    off: usize,
    over: Vec<Shape>,
}

impl FieldAt {
    fn new(fields: &[Shape], idx: usize) -> Self {
        let fixed = fields[..idx].iter().take_while(|f| f.size.is_some());
        let first_var = fields[..idx].iter().position(|f| f.size.is_none());
        FieldAt {
            off: fixed.filter_map(|f| f.size).sum(),
            over: first_var.map_or_else(Vec::new, |v| fields[v..idx].to_vec()),
        }
    }

    /// The field's offset in the record starting at `start`.
    fn at(&self, buf: &[u8], start: usize) -> usize {
        self.over
            .iter()
            .fold(start + self.off, |o, f| f.skip(buf, o))
    }
}

/// An address: a root, a static displacement, then any dynamic steps.
#[derive(Debug, Clone)]
pub(crate) struct CAddr {
    pub root: Root,
    pub off: usize,
    pub steps: Vec<Step>,
}

impl CAddr {
    fn at(root: Root) -> Self {
        CAddr {
            root,
            off: 0,
            steps: Vec::new(),
        }
    }

    /// Adds a static displacement: to `off` while no dynamic step precedes
    /// it, so static places need no step list.
    fn push_off(&mut self, k: usize) {
        match self.steps.last_mut() {
            None => self.off += k,
            Some(Step::Off(j)) => *j += k,
            Some(_) if k > 0 => self.steps.push(Step::Off(k)),
            Some(_) => {}
        }
    }

    /// Steps from the start of a record (or of the state) to field `idx`.
    fn field(&mut self, fields: &[Shape], idx: usize) {
        for f in &fields[..idx] {
            match f.size {
                Some(s) => self.push_off(s),
                None => self.steps.push(Step::Over(f.clone())),
            }
        }
    }
}

/// Where an address starts.
#[derive(Debug, Clone)]
pub(crate) enum Root {
    /// Offset 0 of the state.
    State,
    /// A fixed-size local at this frame offset.
    Local(usize),
    /// A variable-size local: the frame offset of a `u32` pointing at its
    /// bytes further up the frame.
    LocalVar(usize, Box<Shape>),
    /// A constructed composite, built into the frame.
    Value(Box<CExpr>),
}

/// One step of an address.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// A static displacement.
    Off(usize),
    /// `index × stride`, with `index < n` checked.
    Index(CExpr, usize),
    /// Skip `index` variable-size elements, with `index < n` checked.
    IndexVar(CExpr, Box<Shape>),
    /// Skip one variable-size value.
    Over(Shape),
    /// Step into an option's payload, which must be `some`.
    Unwrap,
}

/// Compiled statements.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Require(CExpr),
    /// Store into a fixed-size local at this frame offset.
    SetLocal(usize, CArg),
    /// Store into a variable-size local whose pointer sits at this offset.
    SetLocalVar(usize, CArg),
    Choose {
        off: usize,
        hole: usize,
    },
    Assign {
        place: CAddr,
        value: CArg,
    },
    Insert {
        place: CAddr,
        elem: Box<Shape>,
        value: CArg,
    },
    Remove {
        place: CAddr,
        elem: Box<Shape>,
        value: CArg,
    },
    If(Vec<(CExpr, Vec<CStmt>)>, Vec<CStmt>),
    /// An inlined statement fn.
    Block(Vec<CStmt>),
    ForPids {
        off: usize,
        body: Vec<CStmt>,
    },
}

// ---- Compiler --------------------------------------------------------------

/// Compiles validated raw declarations into executable form.
pub(crate) fn compile(raw: RawSpec) -> Result<CompiledSpec, InvalidSpec> {
    let n = raw.pids;
    let shapes = Shapes::new(&raw)?;
    let holes: Vec<CHole> = raw
        .holes
        .iter()
        .map(|h| CHole {
            name: h.name.clone(),
            spec: HoleSpec::new(h.name.clone(), raw.libs[h.lib].actions.iter().cloned()),
        })
        .collect();

    let initial = SpecState::from_bytes(vec![0; shapes.vars.iter().map(Shape::zero_len).sum()]);
    let perm = PermProgram::new(&shapes.vars, n);

    let mut bodies = Vec::new();
    let mut rules = Vec::new();
    for rs in &raw.rulesets {
        let binder_frame: Vec<(String, usize, TypeRef)> = rs
            .binds
            .iter()
            .enumerate()
            .map(|(i, b)| (b.name.clone(), i, binder_type(&b.domain)))
            .collect();
        let body_base = bodies.len();
        for rule in &rs.rules {
            bodies.push(compile_rule_body(
                &raw,
                &shapes,
                &holes,
                rule,
                &binder_frame,
            )?);
        }
        let patterns: Vec<String> = rs.binds.iter().map(|b| format!("{{{}}}", b.name)).collect();
        for combo in binder_combos(&rs.binds, n) {
            for (ri, rule) in rs.rules.iter().enumerate() {
                rules.push(CRuleInstance {
                    name: interpolate(&rule.name_template, &rs.binds, &patterns, &combo, &raw),
                    body: body_base + ri,
                    prelude: combo.clone(),
                });
            }
        }
    }

    let mut props = Vec::new();
    for p in &raw.props {
        let mut c = Compiler::new(&raw, &shapes, &holes, format!("property {}", p.name));
        c.scopes.push(Vec::new());
        let (expr, ty) = c.expr(&p.expr)?;
        if !ty.compatible(&TypeRef::Bool) {
            return Err(c.type_err("property expression must be boolean"));
        }
        props.push(CProp {
            kind: p.kind,
            name: p.name.clone(),
            frame: c.frame,
            expr,
        });
    }

    let max_frame = bodies
        .iter()
        .map(|b| b.frame)
        .chain(props.iter().map(|p| p.frame))
        .max()
        .unwrap_or(0);
    Ok(CompiledSpec {
        name: raw.name.clone(),
        max_frame,
        pids: n,
        symmetry: raw.symmetry,
        holes,
        initial,
        perm,
        bodies,
        rules,
        props,
        _records: shapes.records,
    })
}

/// Declared-type layouts, computed once: records, state variables, and the
/// scalarset size.
struct Shapes {
    records: Arc<Records>,
    vars: Vec<Shape>,
    n: usize,
}

impl Shapes {
    /// Lays out every record, then the state variables.
    fn new(raw: &RawSpec) -> Result<Shapes, InvalidSpec> {
        check_finite(raw)?;
        let mut shapes = Shapes {
            records: raw.records.iter().map(|_| OnceLock::new()).collect(),
            vars: Vec::new(),
            n: raw.pids,
        };
        for r in record_order(raw) {
            let fields = raw.records[r].fields.iter();
            let shape = Shape::record(fields.map(|(_, t)| shapes.of(t)).collect());
            shapes.records[r]
                .set(shape)
                .expect("each record is laid out once");
        }
        shapes.vars = raw.vars.iter().map(|(_, t)| shapes.of(t)).collect();
        Ok(shapes)
    }

    /// The layout of `t`. A record that is still being laid out contains
    /// itself, and links back to its own layout.
    fn of(&self, t: &TypeRef) -> Shape {
        match t {
            TypeRef::Bool | TypeRef::Int | TypeRef::Enum(_) => Shape::byte(),
            TypeRef::Pid => Shape::pid(),
            TypeRef::PidSet => Shape::pidset(self.n),
            TypeRef::Record(r) => match self.records[*r].get() {
                Some(shape) => shape.clone(),
                None => Shape::link(Link::new(Arc::downgrade(&self.records), *r)),
            },
            TypeRef::Option(inner) => Shape::opt(self.of(inner)),
            TypeRef::Multiset(inner) => Shape::multi(self.of(inner)),
            TypeRef::Array(inner) => Shape::array(self.of(inner), self.n),
            // `none`'s payload: no bytes.
            TypeRef::Unknown => Shape::record(Vec::new()),
        }
    }

    /// The field layouts of record `r`.
    fn fields(&self, r: usize) -> &Arc<[Shape]> {
        match self.records[r].get().map(|s| &s.kind) {
            Some(Kind::Record(fields)) => fields,
            _ => unreachable!("records are laid out before any body compiles"),
        }
    }

    fn width(&self, t: &TypeRef) -> Width {
        match t {
            TypeRef::PidSet => Width::Word(pidset_width(self.n)),
            t if is_scalar(t) => Width::Word(1),
            t => {
                let shape = self.of(t);
                match shape.size {
                    Some(s) => Width::Fixed(s),
                    None => Width::Var(Box::new(shape)),
                }
            }
        }
    }
}

/// The record `t` names, under any options, multisets and arrays.
fn named_record(t: &TypeRef) -> Option<usize> {
    match t {
        TypeRef::Record(r) => Some(*r),
        TypeRef::Option(i) | TypeRef::Multiset(i) | TypeRef::Array(i) => named_record(i),
        _ => None,
    }
}

/// Record indices, each after every record its fields name, except one
/// still being visited: that one contains itself.
fn record_order(raw: &RawSpec) -> Vec<usize> {
    fn visit(r: usize, raw: &RawSpec, seen: &mut [bool], order: &mut Vec<usize>) {
        if std::mem::replace(&mut seen[r], true) {
            return;
        }
        for (_, t) in &raw.records[r].fields {
            if let Some(q) = named_record(t) {
                visit(q, raw, seen, order);
            }
        }
        order.push(r);
    }
    let mut seen = vec![false; raw.records.len()];
    let mut order = Vec::with_capacity(raw.records.len());
    for r in 0..raw.records.len() {
        visit(r, raw, &mut seen, &mut order);
    }
    order
}

/// Rejects records without a finite value: a record may contain itself
/// only behind an option or a multiset, whose `none` and empty values end
/// the nesting.
fn check_finite(raw: &RawSpec) -> Result<(), InvalidSpec> {
    fn finite(t: &TypeRef, done: &[bool]) -> bool {
        match t {
            TypeRef::Record(r) => done[*r],
            TypeRef::Array(elem) => finite(elem, done),
            _ => true,
        }
    }
    // Least fixpoint: a record is finite once all its fields are.
    let mut done = vec![false; raw.records.len()];
    while let Some(r) = (0..done.len())
        .find(|&r| !done[r] && raw.records[r].fields.iter().all(|(_, t)| finite(t, &done)))
    {
        done[r] = true;
    }
    match done.iter().position(|d| !d) {
        None => Ok(()),
        Some(r) => Err(InvalidSpec::Type {
            context: format!("[records.{}]", raw.records[r].name),
            message: "a record can contain itself only behind an option or a multiset".into(),
        }),
    }
}

fn is_scalar(t: &TypeRef) -> bool {
    matches!(
        t,
        TypeRef::Bool | TypeRef::Int | TypeRef::Pid | TypeRef::PidSet | TypeRef::Enum(_)
    )
}

fn contains_unknown(t: &TypeRef) -> bool {
    match t {
        TypeRef::Unknown => true,
        TypeRef::Option(i) | TypeRef::Multiset(i) | TypeRef::Array(i) => contains_unknown(i),
        _ => false,
    }
}

/// The most specific type compatible with both: `none`'s payload takes the
/// other side's.
fn unify(a: &TypeRef, b: &TypeRef) -> TypeRef {
    match (a, b) {
        (TypeRef::Unknown, t) | (t, TypeRef::Unknown) => t.clone(),
        (TypeRef::Option(x), TypeRef::Option(y)) => TypeRef::Option(Box::new(unify(x, y))),
        _ => a.clone(),
    }
}

fn binder_type(d: &BinderDomain) -> TypeRef {
    match d {
        BinderDomain::Pid => TypeRef::Pid,
        BinderDomain::Rank => TypeRef::Int,
        BinderDomain::EnumSubset(e, _) => TypeRef::Enum(*e),
    }
}

/// All binder-value combinations (one byte per binder): first binder varies
/// slowest, matching the outermost loop of an equivalent hand-written nest.
fn binder_combos(binds: &[Binder], n: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for b in binds {
        let dom: Vec<u8> = match &b.domain {
            BinderDomain::Pid | BinderDomain::Rank => (0..n as u8).collect(),
            BinderDomain::EnumSubset(_, vs) => vs.clone(),
        };
        let mut next = Vec::with_capacity(out.len() * dom.len());
        for prefix in &out {
            for &v in &dom {
                let mut p = prefix.clone();
                p.push(v);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

/// Substitutes each binder's `{name}` pattern, in binder order, with its
/// value in `combo`.
fn interpolate(
    template: &str,
    binds: &[Binder],
    patterns: &[String],
    combo: &[u8],
    raw: &RawSpec,
) -> String {
    let mut name = template.to_string();
    for ((b, pattern), &v) in binds.iter().zip(patterns).zip(combo) {
        if !name.contains(pattern.as_str()) {
            continue;
        }
        name = match &b.domain {
            BinderDomain::Pid | BinderDomain::Rank => name.replace(pattern, &v.to_string()),
            BinderDomain::EnumSubset(e, _) => {
                name.replace(pattern, &raw.enums[*e].variants[v as usize])
            }
        };
    }
    name
}

fn compile_rule_body(
    raw: &RawSpec,
    shapes: &Shapes,
    holes: &[CHole],
    rule: &RawRule,
    binder_frame: &[(String, usize, TypeRef)],
) -> Result<CBody, InvalidSpec> {
    let mut c = Compiler::new(raw, shapes, holes, format!("rule {}", rule.name_template));
    c.frame = binder_frame.len();
    c.scopes.push(binder_frame.to_vec());
    let stmts = c.stmts(&rule.body)?;
    Ok(CBody {
        frame: c.frame,
        stmts,
    })
}

/// The address of a composite: a place's own, or the frame copy a
/// constructor builds.
fn place_of(e: CExpr) -> CAddr {
    match e {
        CExpr::Place(a) => *a,
        other => CAddr::at(Root::Value(Box::new(other))),
    }
}

struct Compiler<'r> {
    raw: &'r RawSpec,
    shapes: &'r Shapes,
    holes: &'r [CHole],
    scopes: Vec<Vec<(String, usize, TypeRef)>>,
    frame: usize,
    fn_stack: Vec<String>,
    ctx: String,
    /// `let` locals whose type waits on a later use: frame offset, and the
    /// type the first such use gives.
    inferring: Vec<(usize, Option<TypeRef>)>,
}

impl<'r> Compiler<'r> {
    fn new(raw: &'r RawSpec, shapes: &'r Shapes, holes: &'r [CHole], ctx: String) -> Self {
        Compiler {
            raw,
            shapes,
            holes,
            scopes: Vec::new(),
            frame: 0,
            fn_stack: Vec::new(),
            ctx,
            inferring: Vec::new(),
        }
    }

    fn type_err(&self, message: impl Into<String>) -> InvalidSpec {
        InvalidSpec::Type {
            context: self.ctx.clone(),
            message: message.into(),
        }
    }

    fn unknown(&self, name: &str) -> InvalidSpec {
        InvalidSpec::UnknownName {
            context: self.ctx.clone(),
            name: name.to_string(),
        }
    }

    /// Reserves frame bytes for a fresh local (a `u32` pointer when its
    /// type has no fixed size) without binding a name.
    fn reserve(&mut self, ty: &TypeRef) -> usize {
        let off = self.frame;
        self.frame += self.shapes.of(ty).size.unwrap_or(4);
        off
    }

    fn alloc(&mut self, name: &str, ty: TypeRef) -> usize {
        let off = self.reserve(&ty);
        self.bind(name, off, ty);
        off
    }

    /// Makes `name` visible in the innermost scope.
    fn bind(&mut self, name: &str, off: usize, ty: TypeRef) {
        self.scopes
            .last_mut()
            .expect("a scope frame is active")
            .push((name.to_string(), off, ty));
    }

    /// `true` when `name` is a local or a state variable (checked without
    /// cloning its type).
    fn is_value(&self, name: &str) -> bool {
        self.scopes
            .iter()
            .any(|f| f.iter().any(|(n, _, _)| n == name))
            || self.raw.vars.iter().any(|(n, _)| n == name)
    }

    fn lookup_local(&self, name: &str) -> Option<(usize, TypeRef)> {
        for frame in self.scopes.iter().rev() {
            for (n, off, ty) in frame.iter().rev() {
                if n == name {
                    return Some((*off, ty.clone()));
                }
            }
        }
        None
    }

    fn local_root(&self, off: usize, ty: &TypeRef) -> Root {
        let shape = self.shapes.of(ty);
        match shape.size {
            Some(_) => Root::Local(off),
            None => Root::LocalVar(off, Box::new(shape)),
        }
    }

    /// A store of `value` into a fresh local at `off`.
    fn set_local(&self, off: usize, value: CExpr, ty: &TypeRef) -> CStmt {
        let arg = self.arg(value, ty);
        match arg.width {
            Width::Var(_) => CStmt::SetLocalVar(off, arg),
            _ => CStmt::SetLocal(off, arg),
        }
    }

    fn global_idx(&self, name: &str) -> Option<(usize, TypeRef)> {
        self.raw
            .vars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i, self.raw.vars[i].1.clone()))
    }

    fn var_addr(&self, v: usize) -> CAddr {
        let mut addr = CAddr::at(Root::State);
        addr.field(&self.shapes.vars, v);
        addr
    }

    fn enum_idx(&self, name: &str) -> Option<usize> {
        self.raw.enums.iter().position(|e| e.name == name)
    }

    fn lib_idx(&self, name: &str) -> Option<usize> {
        self.raw.libs.iter().position(|l| l.name == name)
    }

    fn record_idx(&self, name: &str) -> Option<usize> {
        self.raw.records.iter().position(|r| r.name == name)
    }

    fn const_val(&self, name: &str) -> Option<i64> {
        self.raw
            .consts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn arg(&self, expr: CExpr, ty: &TypeRef) -> CArg {
        CArg {
            expr,
            width: self.shapes.width(ty),
        }
    }

    /// A scalar load or an in-place composite read of `addr` at type `ty`.
    fn finish(&self, addr: CAddr, ty: &TypeRef) -> CExpr {
        match ty {
            TypeRef::PidSet => CExpr::Load(addr, pidset_width(self.shapes.n)),
            t if is_scalar(t) => CExpr::Load(addr, 1),
            _ => CExpr::Place(Box::new(addr)),
        }
    }

    /// `true` when `base` names an enum (or, with `libs`, an action
    /// library) rather than a value: `Enum.Variant`, `lib.action` and
    /// `Enum[i]` are constants and casts, not places.
    fn type_prefix(&self, base: &Expr, libs: bool) -> bool {
        matches!(base, Expr::Var(t) if !self.is_value(t)
            && (self.enum_idx(t).is_some() || libs && self.lib_idx(t).is_some()))
    }

    /// Compiles a place chain (variable, `.field`, `[index]`, `get`) to
    /// one address without boxing its links; any other composite is built
    /// into the frame.
    fn addr_of(&mut self, e: &Expr) -> Result<(CAddr, TypeRef), InvalidSpec> {
        match e {
            Expr::Var(name) => {
                if let Some((off, ty)) = self.lookup_local(name) {
                    return Ok((CAddr::at(self.local_root(off, &ty)), ty));
                }
                if self.const_val(name).is_none() {
                    if let Some((v, ty)) = self.global_idx(name) {
                        return Ok((self.var_addr(v), ty));
                    }
                }
            }
            Expr::Field(base, fname) if !self.type_prefix(base, true) => {
                return self.field_addr(base, fname);
            }
            Expr::Index(base, idx) if !self.type_prefix(base, false) => {
                return self.index_addr(base, idx);
            }
            Expr::Call(name, args) if name == "get" && args.len() == 1 => {
                return self.unwrap_of(&args[0]);
            }
            _ => {}
        }
        let (c, ty) = self.expr(e)?;
        Ok((place_of(c), ty))
    }

    /// The address of `base.fname`, `base` being no enum or library.
    fn field_addr(&mut self, base: &Expr, fname: &str) -> Result<(CAddr, TypeRef), InvalidSpec> {
        let (mut addr, bty) = self.addr_of(base)?;
        let TypeRef::Record(r) = bty else {
            return Err(self.type_err(format!("`.{fname}` on a non-record value")));
        };
        let idx = self.raw.records[r]
            .fields
            .iter()
            .position(|(n, _)| n == fname)
            .ok_or_else(|| self.unknown(fname))?;
        self.field(&mut addr, r, idx);
        Ok((addr, self.raw.records[r].fields[idx].1.clone()))
    }

    /// The address of `base[idx]`, `base` being no enum.
    fn index_addr(&mut self, base: &Expr, idx: &Expr) -> Result<(CAddr, TypeRef), InvalidSpec> {
        let (mut addr, bty) = self.addr_of(base)?;
        let TypeRef::Array(elem) = bty else {
            return Err(self.type_err("`[…]` on a non-array value"));
        };
        let (ci, ity) = self.expr(idx)?;
        if !ity.compatible(&TypeRef::Pid) && !ity.compatible(&TypeRef::Int) {
            return Err(self.type_err("array index must be a pid or int"));
        }
        self.index(&mut addr, ci, &elem);
        Ok((addr, *elem))
    }

    /// The address of `get(x)`'s payload.
    fn unwrap_of(&mut self, x: &Expr) -> Result<(CAddr, TypeRef), InvalidSpec> {
        let (mut addr, ty) = self.addr_of(x)?;
        let TypeRef::Option(inner) = ty else {
            return Err(self.type_err("`get` needs an option"));
        };
        addr.steps.push(Step::Unwrap);
        Ok((addr, *inner))
    }

    /// Steps into field `idx` of record `r`.
    fn field(&self, addr: &mut CAddr, r: usize, idx: usize) {
        addr.field(self.shapes.fields(r), idx);
    }

    /// Steps into element `idx` of a pid-indexed array of `elem`.
    fn index(&self, addr: &mut CAddr, idx: CExpr, elem: &TypeRef) {
        let shape = self.shapes.of(elem);
        addr.steps.push(match shape.size {
            Some(s) => Step::Index(idx, s),
            None => Step::IndexVar(idx, Box::new(shape)),
        });
    }

    /// Re-lays a `none`-bearing value at a more specific type: a literal,
    /// or a read of a local whose type is still being inferred, which this
    /// use then decides.
    fn retype(&mut self, c: CExpr, have: &TypeRef, want: &TypeRef) -> Result<CExpr, InvalidSpec> {
        if !contains_unknown(have) || contains_unknown(want) && have == want {
            return Ok(c);
        }
        match (c, have, want) {
            (CExpr::Zeros(_), _, TypeRef::Option(inner)) => {
                Ok(CExpr::Zeros(Shape::opt(self.shapes.of(inner)).zero_len()))
            }
            (CExpr::Some_(arg), TypeRef::Option(hi), TypeRef::Option(wi)) => {
                let inner = self.retype(arg.expr, hi, wi)?;
                Ok(CExpr::Some_(Box::new(self.arg(inner, wi))))
            }
            // `get(none)`: the unwrap panics before any read.
            (CExpr::Place(addr), TypeRef::Unknown, _) => Ok(self.finish(*addr, want)),
            (CExpr::Place(addr), _, _) if self.refine(&addr, have, want) => Ok(CExpr::Place(addr)),
            (c, _, TypeRef::Unknown) => Ok(c),
            _ => Err(self.type_err("cannot infer the type of `none` here")),
        }
    }

    /// When `addr` is a whole local under inference, records the type
    /// `want` gives it, unless an earlier use decided it or `want` says no
    /// more than `have`, and returns `true`.
    fn refine(&mut self, addr: &CAddr, have: &TypeRef, want: &TypeRef) -> bool {
        let (Root::Local(off) | Root::LocalVar(off, _)) = &addr.root else {
            return false;
        };
        if addr.off != 0 || !addr.steps.is_empty() {
            return false;
        }
        let Some((_, found)) = self.inferring.iter_mut().find(|(o, _)| o == off) else {
            return false;
        };
        let ty = unify(have, want);
        if found.is_none() && ty != *have {
            *found = Some(ty);
        }
        true
    }

    /// Coerces a compile-time integer literal to a pid where a pid-typed
    /// position expects one, and lays `none` literals out at the expected
    /// type. Only literals coerce: a runtime `int` is not a `pid`.
    fn coerce(
        &mut self,
        c: CExpr,
        have: TypeRef,
        want: &TypeRef,
    ) -> Result<(CExpr, TypeRef), InvalidSpec> {
        if let (CExpr::Lit(_), TypeRef::Int, TypeRef::Pid) = (&c, &have, want) {
            return Ok((c, TypeRef::Pid));
        }
        if contains_unknown(&have) && have.compatible(want) {
            return Ok((self.retype(c, &have, want)?, want.clone()));
        }
        Ok((c, have))
    }

    // ---- Statements --------------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) -> Result<Vec<CStmt>, InvalidSpec> {
        self.scopes.push(Vec::new());
        let mut out = Vec::with_capacity(body.len());
        let result = self.stmts_into(body, &mut out);
        self.scopes.pop();
        result.map(|()| out)
    }

    /// Compiles `body` onto the end of `out`, in the current scope.
    fn stmts_into(&mut self, body: &[Stmt], out: &mut Vec<CStmt>) -> Result<(), InvalidSpec> {
        for (i, s) in body.iter().enumerate() {
            out.push(self.stmt(s, &body[i + 1..])?);
        }
        Ok(())
    }

    /// Compiles `s`; `rest` is what follows it in its scope.
    fn stmt(&mut self, s: &Stmt, rest: &[Stmt]) -> Result<CStmt, InvalidSpec> {
        match s {
            Stmt::Require(e) => {
                let (ce, ty) = self.expr(e)?;
                if !ty.compatible(&TypeRef::Bool) {
                    return Err(self.type_err("`require` needs a boolean"));
                }
                Ok(CStmt::Require(ce))
            }
            Stmt::Let(name, e) => {
                let (mut ce, mut ty) = self.expr(e)?;
                if contains_unknown(&ty) {
                    let init = ty.clone();
                    while contains_unknown(&ty) {
                        match self.infer(name, &ty, rest)? {
                            Some(t) if t != ty => ty = t,
                            _ => break,
                        }
                    }
                    ce = self.retype(ce, &init, &ty)?;
                }
                let off = self.reserve(&ty);
                let st = self.set_local(off, ce, &ty);
                self.bind(name, off, ty);
                Ok(st)
            }
            Stmt::Choose(name, hole_name) => {
                let hole = self
                    .holes
                    .iter()
                    .position(|h| h.name == *hole_name)
                    .ok_or_else(|| self.unknown(hole_name))?;
                let off = self.alloc(name, TypeRef::Int);
                Ok(CStmt::Choose { off, hole })
            }
            Stmt::Assign(lv, e) => {
                let (ce, vty) = self.expr(e)?;
                let (place, pty) = self.lvalue_place(lv)?;
                let (ce, vty) = self.coerce(ce, vty, &pty)?;
                if !vty.compatible(&pty) {
                    return Err(
                        self.type_err(format!("assignment to `{}` has a mismatched type", lv.base))
                    );
                }
                if contains_unknown(&pty) {
                    self.refine(&place, &pty, &vty);
                }
                Ok(CStmt::Assign {
                    place,
                    value: self.arg(ce, &pty),
                })
            }
            Stmt::If(arms, else_) => {
                let mut carms = Vec::new();
                for (cond, body) in arms {
                    let (cc, ty) = self.expr(cond)?;
                    if !ty.compatible(&TypeRef::Bool) {
                        return Err(self.type_err("`if` condition must be boolean"));
                    }
                    carms.push((cc, self.stmts(body)?));
                }
                let celse = self.stmts(else_)?;
                Ok(CStmt::If(carms, celse))
            }
            Stmt::ForPids(name, body) => {
                self.scopes.push(Vec::new());
                let off = self.alloc(name, TypeRef::Pid);
                let mut cbody = Vec::with_capacity(body.len());
                let result = self.stmts_into(body, &mut cbody);
                self.scopes.pop();
                result.map(|()| CStmt::ForPids { off, body: cbody })
            }
            Stmt::Call(name, args) => self.stmt_call(name, args),
        }
    }

    fn stmt_call(&mut self, name: &str, args: &[Expr]) -> Result<CStmt, InvalidSpec> {
        match name {
            "insert" | "remove" => {
                if args.len() != 2 {
                    return Err(self.type_err(format!("`{name}` takes (multiset, value)")));
                }
                let (place, pty) = self.expr_place(&args[0])?;
                let TypeRef::Multiset(elem) = pty else {
                    return Err(self.type_err(format!("`{name}` needs a multiset place")));
                };
                let (cv, vty) = self.expr(&args[1])?;
                if !vty.compatible(&elem) {
                    return Err(self.type_err(format!("`{name}` element type mismatch")));
                }
                let cv = self.retype(cv, &vty, &elem)?;
                let value = self.arg(cv, &elem);
                let elem = Box::new(self.shapes.of(&elem));
                if name == "insert" {
                    Ok(CStmt::Insert { place, elem, value })
                } else {
                    Ok(CStmt::Remove { place, elem, value })
                }
            }
            _ => {
                let decl = self
                    .raw
                    .fns
                    .iter()
                    .find(|f| f.name == name)
                    .ok_or_else(|| self.unknown(name))?;
                if self.fn_stack.iter().any(|f| f == name) {
                    return Err(self.type_err(format!("`{name}` is recursive")));
                }
                let FnBody::Stmts(body) = &decl.body else {
                    return Err(self.type_err(format!(
                        "`{name}` is an expression fn; call it inside an expression"
                    )));
                };
                if args.len() != decl.params.len() {
                    return Err(self.type_err(format!(
                        "`{name}` takes {} argument(s), got {}",
                        decl.params.len(),
                        args.len()
                    )));
                }
                // Inline: evaluate args into fresh locals in the caller's
                // scope, then compile the body against a scope containing
                // only the parameters (plus globals/consts, which are always
                // visible). The frame allocator is shared, so inlined locals
                // never collide.
                let mut out = Vec::with_capacity(args.len() + body.len());
                let mut param_frame = Vec::with_capacity(args.len());
                self.scopes.push(Vec::new());
                for ((pname, pty), arg) in decl.params.iter().zip(args) {
                    let (ca, aty) = self.expr(arg)?;
                    let (ca, aty) = self.coerce(ca, aty, pty)?;
                    if !aty.compatible(pty) {
                        return Err(self.type_err(format!(
                            "`{name}` argument `{pname}` has a mismatched type"
                        )));
                    }
                    let off = self.reserve(pty);
                    param_frame.push((pname.clone(), off, pty.clone()));
                    out.push(self.set_local(off, ca, pty));
                }
                self.scopes.pop();
                let saved = std::mem::replace(&mut self.scopes, vec![param_frame, Vec::new()]);
                self.fn_stack.push(name.to_string());
                let compiled = self.stmts_into(body, &mut out);
                self.fn_stack.pop();
                self.scopes = saved;
                compiled.map(|()| CStmt::Block(out))
            }
        }
    }

    /// Compiles `rest` with `name` bound at `ty`, a type `none` left open,
    /// to find the type that the first assignment to it or typed use of it
    /// gives. What this compiles is thrown away.
    fn infer(
        &mut self,
        name: &str,
        ty: &TypeRef,
        rest: &[Stmt],
    ) -> Result<Option<TypeRef>, InvalidSpec> {
        let (frame, scopes) = (self.frame, self.scopes.clone());
        let off = self.reserve(ty);
        self.bind(name, off, ty.clone());
        self.inferring.push((off, None));
        let compiled = self.stmts_into(rest, &mut Vec::new());
        let (_, found) = self.inferring.pop().expect("pushed above");
        self.frame = frame;
        self.scopes = scopes;
        compiled.map(|()| found)
    }

    /// Compiles an lvalue (base + path) into an address.
    fn lvalue_place(&mut self, lv: &LValue) -> Result<(CAddr, TypeRef), InvalidSpec> {
        let (mut addr, mut ty) = if let Some((off, ty)) = self.lookup_local(&lv.base) {
            let root = self.local_root(off, &ty);
            (CAddr::at(root), ty)
        } else if let Some((v, ty)) = self.global_idx(&lv.base) {
            (self.var_addr(v), ty)
        } else {
            return Err(self.unknown(&lv.base));
        };
        for seg in &lv.path {
            match seg {
                PathSeg::Field(fname) => {
                    let TypeRef::Record(r) = ty else {
                        return Err(
                            self.type_err(format!("`.{fname}` on a non-record in `{}`", lv.base))
                        );
                    };
                    let idx = self.raw.records[r]
                        .fields
                        .iter()
                        .position(|(n, _)| n == fname)
                        .ok_or_else(|| self.unknown(fname))?;
                    ty = self.raw.records[r].fields[idx].1.clone();
                    self.field(&mut addr, r, idx);
                }
                PathSeg::Index(e) => {
                    let TypeRef::Array(elem) = ty else {
                        return Err(self.type_err(format!("`[…]` on a non-array in `{}`", lv.base)));
                    };
                    let (ce, ity) = self.expr(e)?;
                    if !ity.compatible(&TypeRef::Pid) && !ity.compatible(&TypeRef::Int) {
                        return Err(self.type_err("array index must be a pid or int"));
                    }
                    self.index(&mut addr, ce, &elem);
                    ty = *elem;
                }
            }
        }
        Ok((addr, ty))
    }

    /// Compiles a place given in expression position (for `insert`/`remove`).
    fn expr_place(&mut self, e: &Expr) -> Result<(CAddr, TypeRef), InvalidSpec> {
        let lv = expr_to_lvalue(e).ok_or_else(|| {
            self.type_err("expected an assignable place (variable, field, or index)")
        })?;
        self.lvalue_place(&lv)
    }

    // ---- Expressions -------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<(CExpr, TypeRef), InvalidSpec> {
        match e {
            Expr::Int(i) => {
                let v = u8::try_from(*i)
                    .map_err(|_| self.type_err(format!("integer literal {i} out of 0..=255")))?;
                Ok((CExpr::Lit(v as u32), TypeRef::Int))
            }
            Expr::Bool(b) => Ok((CExpr::Lit(*b as u32), TypeRef::Bool)),
            Expr::None_ => Ok((CExpr::Zeros(1), TypeRef::Option(Box::new(TypeRef::Unknown)))),
            Expr::Dir => Ok((CExpr::Lit(self.raw.pids as u32), TypeRef::Pid)),
            Expr::Var(name) => {
                if let Some((off, ty)) = self.lookup_local(name) {
                    let addr = CAddr::at(self.local_root(off, &ty));
                    Ok((self.finish(addr, &ty), ty))
                } else if let Some(v) = self.const_val(name) {
                    let v = u8::try_from(v)
                        .map_err(|_| self.type_err(format!("const `{name}` out of 0..=255")))?;
                    Ok((CExpr::Lit(v as u32), TypeRef::Int))
                } else if let Some((v, ty)) = self.global_idx(name) {
                    Ok((self.finish(self.var_addr(v), &ty), ty))
                } else {
                    Err(self.unknown(name))
                }
            }
            Expr::Field(base, fname) => {
                if let Expr::Var(tname) = base.as_ref() {
                    if !self.is_value(tname) {
                        if let Some(eidx) = self.enum_idx(tname) {
                            let v = self.raw.enums[eidx]
                                .variants
                                .iter()
                                .position(|x| x == fname)
                                .ok_or_else(|| self.unknown(fname))?;
                            return Ok((CExpr::Lit(v as u32), TypeRef::Enum(eidx)));
                        }
                        if let Some(lidx) = self.lib_idx(tname) {
                            let v = self.raw.libs[lidx]
                                .actions
                                .iter()
                                .position(|x| x == fname)
                                .ok_or_else(|| self.unknown(fname))?;
                            return Ok((CExpr::Lit(v as u8 as u32), TypeRef::Int));
                        }
                    }
                }
                let (addr, ty) = self.field_addr(base, fname)?;
                Ok((self.finish(addr, &ty), ty))
            }
            Expr::Index(base, idx) => {
                if let Expr::Var(tname) = base.as_ref() {
                    if !self.is_value(tname) {
                        if let Some(eidx) = self.enum_idx(tname) {
                            let (ci, ity) = self.expr(idx)?;
                            if !ity.compatible(&TypeRef::Int) {
                                return Err(self.type_err("enum cast index must be an integer"));
                            }
                            let nvars = self.raw.enums[eidx].variants.len() as u32;
                            return Ok((CExpr::EnumCast(nvars, Box::new(ci)), TypeRef::Enum(eidx)));
                        }
                    }
                }
                let (addr, ty) = self.index_addr(base, idx)?;
                Ok((self.finish(addr, &ty), ty))
            }
            Expr::Unary(UnOp::Not, inner) => {
                let (ci, ty) = self.expr(inner)?;
                if !ty.compatible(&TypeRef::Bool) {
                    return Err(self.type_err("`!` needs a boolean"));
                }
                Ok((CExpr::Not(Box::new(ci)), TypeRef::Bool))
            }
            Expr::Binary(op, lhs, rhs) => {
                let (cl, lt) = self.expr(lhs)?;
                let (cr, rt) = self.expr(rhs)?;
                match op {
                    BinOp::And | BinOp::Or => {
                        if !lt.compatible(&TypeRef::Bool) || !rt.compatible(&TypeRef::Bool) {
                            return Err(self.type_err("logical operator needs booleans"));
                        }
                        let (l, r) = (Box::new(cl), Box::new(cr));
                        let c = if *op == BinOp::And {
                            CExpr::And(l, r)
                        } else {
                            CExpr::Or(l, r)
                        };
                        Ok((c, TypeRef::Bool))
                    }
                    BinOp::Add | BinOp::Sub => {
                        if !lt.compatible(&TypeRef::Int) || !rt.compatible(&TypeRef::Int) {
                            return Err(self.type_err("arithmetic needs integers"));
                        }
                        let (l, r) = (Box::new(cl), Box::new(cr));
                        let c = if *op == BinOp::Add {
                            CExpr::Add(l, r)
                        } else {
                            CExpr::Sub(l, r)
                        };
                        Ok((c, TypeRef::Int))
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if !lt.compatible(&rt) {
                            return Err(self.type_err("`==`/`!=` operands have different types"));
                        }
                        let ty = unify(&lt, &rt);
                        let l = self.retype(cl, &lt, &ty)?;
                        let r = self.retype(cr, &rt, &ty)?;
                        let c = if is_scalar(&ty) {
                            CExpr::Cmp(*op, Box::new(l), Box::new(r))
                        } else {
                            CExpr::SameBytes {
                                l: Box::new(self.arg(l, &ty)),
                                r: Box::new(self.arg(r, &ty)),
                                ne: *op == BinOp::Ne,
                            }
                        };
                        Ok((c, TypeRef::Bool))
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let ints = lt.compatible(&TypeRef::Int) && rt.compatible(&TypeRef::Int);
                        let pids = lt.compatible(&TypeRef::Pid) && rt.compatible(&TypeRef::Pid);
                        if !ints && !pids {
                            return Err(self.type_err("ordering needs two integers or two pids"));
                        }
                        Ok((CExpr::Cmp(*op, Box::new(cl), Box::new(cr)), TypeRef::Bool))
                    }
                }
            }
            Expr::InList(scrut, items) => {
                let (cs, st) = self.expr(scrut)?;
                let mut typed = Vec::new();
                let mut ty = st.clone();
                for it in items {
                    let (ci, it_ty) = self.expr(it)?;
                    if !it_ty.compatible(&st) {
                        return Err(self.type_err("`in […]` item type mismatch"));
                    }
                    ty = unify(&ty, &it_ty);
                    typed.push((ci, it_ty));
                }
                let cs = self.retype(cs, &st, &ty)?;
                let mut citems = Vec::new();
                for (ci, it_ty) in typed {
                    let ci = self.retype(ci, &it_ty, &ty)?;
                    citems.push(self.arg(ci, &ty));
                }
                Ok((
                    CExpr::InList(Box::new(self.arg(cs, &ty)), citems),
                    TypeRef::Bool,
                ))
            }
            Expr::Call(name, args) => self.expr_call(name, args),
        }
    }

    fn expr_call(&mut self, name: &str, args: &[Expr]) -> Result<(CExpr, TypeRef), InvalidSpec> {
        let arity = |want: usize, c: &Self| -> Result<(), InvalidSpec> {
            if args.len() != want {
                Err(c.type_err(format!("`{name}` takes {want} argument(s)")))
            } else {
                Ok(())
            }
        };
        match name {
            "some" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                let arg = self.arg(ci, &ty);
                Ok((CExpr::Some_(Box::new(arg)), TypeRef::Option(Box::new(ty))))
            }
            "is_some" | "is_none" => {
                arity(1, self)?;
                let (addr, ty) = self.addr_of(&args[0])?;
                if !matches!(ty, TypeRef::Option(_) | TypeRef::Unknown) {
                    return Err(self.type_err(format!("`{name}` needs an option")));
                }
                // The tag byte is 1 exactly when the option is `some`.
                let tag = CExpr::Load(addr, 1);
                let c = if name == "is_some" {
                    tag
                } else {
                    CExpr::Not(Box::new(tag))
                };
                Ok((c, TypeRef::Bool))
            }
            "get" => {
                arity(1, self)?;
                let (addr, ty) = self.unwrap_of(&args[0])?;
                Ok((self.finish(addr, &ty), ty))
            }
            "len" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                let TypeRef::Multiset(elem) = ty else {
                    return Err(self.type_err("`len` needs a multiset"));
                };
                Ok((
                    CExpr::Len(Box::new(ci), Box::new(self.shapes.of(&elem))),
                    TypeRef::Int,
                ))
            }
            "card" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                if !ty.compatible(&TypeRef::PidSet) {
                    return Err(self.type_err("`card` needs a pidset"));
                }
                Ok((CExpr::Card(Box::new(ci)), TypeRef::Int))
            }
            "contains" | "with" | "without" => {
                arity(2, self)?;
                let (cs, sty) = self.expr(&args[0])?;
                let (cp, pty) = self.expr(&args[1])?;
                if !sty.compatible(&TypeRef::PidSet) || !pty.compatible(&TypeRef::Pid) {
                    return Err(self.type_err(format!("`{name}` takes (pidset, pid)")));
                }
                let (s, p) = (Box::new(cs), Box::new(cp));
                let (c, ty) = match name {
                    "contains" => (CExpr::Contains(s, p), TypeRef::Bool),
                    "with" => (CExpr::With(s, p), TypeRef::PidSet),
                    _ => (CExpr::Without(s, p), TypeRef::PidSet),
                };
                Ok((c, ty))
            }
            "empty_pidset" => {
                arity(0, self)?;
                Ok((CExpr::Lit(0), TypeRef::PidSet))
            }
            "sat_sub" => {
                arity(2, self)?;
                let (ca, at) = self.expr(&args[0])?;
                let (cb, bt) = self.expr(&args[1])?;
                if !at.compatible(&TypeRef::Int) || !bt.compatible(&TypeRef::Int) {
                    return Err(self.type_err("`sat_sub` takes (int, int)"));
                }
                Ok((CExpr::SatSub(Box::new(ca), Box::new(cb)), TypeRef::Int))
            }
            "find" => {
                arity(4, self)?;
                let (cms, mty) = self.expr(&args[0])?;
                let TypeRef::Multiset(elem) = mty else {
                    return Err(self.type_err("`find` needs a multiset"));
                };
                let TypeRef::Record(r) = *elem else {
                    return Err(self.type_err("`find` needs a multiset of records"));
                };
                let field = |fname: &str, c: &Self| -> Result<(usize, TypeRef), InvalidSpec> {
                    c.raw.records[r]
                        .fields
                        .iter()
                        .position(|(n, _)| n == fname)
                        .map(|i| (i, c.raw.records[r].fields[i].1.clone()))
                        .ok_or_else(|| {
                            c.type_err(format!(
                                "`find` needs a `{fname}` field on `{}`",
                                c.raw.records[r].name
                            ))
                        })
                };
                let (to_field, to_ty) = field("to", self)?;
                let (kind_field, kind_ty) = field("kind", self)?;
                let (cto, tty) = self.expr(&args[1])?;
                let (cto, tty) = self.coerce(cto, tty, &to_ty)?;
                let (ckind, kty) = self.expr(&args[2])?;
                let (ckind, kty) = self.coerce(ckind, kty, &kind_ty)?;
                let (crank, rty) = self.expr(&args[3])?;
                if !tty.compatible(&to_ty) || !kty.compatible(&kind_ty) {
                    return Err(self.type_err("`find` selector type mismatch"));
                }
                if !rty.compatible(&TypeRef::Int) {
                    return Err(self.type_err("`find` rank must be an integer"));
                }
                let fields = self.shapes.fields(r);
                let to_at = FieldAt::new(fields, to_field);
                let kind_at = FieldAt::new(fields, kind_field);
                let elem = self.shapes.of(&TypeRef::Record(r));
                Ok((
                    CExpr::Find(Box::new(CFind {
                        ms: cms,
                        to: self.arg(cto, &to_ty),
                        kind: self.arg(ckind, &kind_ty),
                        rank: crank,
                        to_at,
                        kind_at,
                        fill: elem.size.unwrap_or(0),
                        elem,
                    })),
                    TypeRef::Option(Box::new(TypeRef::Record(r))),
                ))
            }
            "count" | "forall" | "exists" => {
                arity(2, self)?;
                let Expr::Var(binder) = &args[0] else {
                    return Err(self.type_err(format!(
                        "`{name}` takes a fresh binder name as its first argument"
                    )));
                };
                self.scopes.push(Vec::new());
                let off = self.alloc(binder, TypeRef::Pid);
                let body = self.expr(&args[1]);
                self.scopes.pop();
                let (cb, bty) = body?;
                if !bty.compatible(&TypeRef::Bool) {
                    return Err(self.type_err(format!("`{name}` body must be boolean")));
                }
                let (quant, ty) = match name {
                    "count" => (Quant::Count, TypeRef::Int),
                    "forall" => (Quant::Forall, TypeRef::Bool),
                    _ => (Quant::Exists, TypeRef::Bool),
                };
                Ok((
                    CExpr::Quantifier {
                        quant,
                        off,
                        body: Box::new(cb),
                    },
                    ty,
                ))
            }
            _ => {
                if let Some(r) = self.record_idx(name) {
                    let fields = self.raw.records[r].fields.clone();
                    if args.len() != fields.len() {
                        return Err(self.type_err(format!(
                            "`{name}` constructor takes {} field(s)",
                            fields.len()
                        )));
                    }
                    let mut cargs = Vec::new();
                    for ((fname, fty), arg) in fields.iter().zip(args) {
                        let (ca, aty) = self.expr(arg)?;
                        let (ca, aty) = self.coerce(ca, aty, fty)?;
                        if !aty.compatible(fty) {
                            return Err(self.type_err(format!(
                                "`{name}` field `{fname}` has a mismatched type"
                            )));
                        }
                        cargs.push(self.arg(ca, fty));
                    }
                    let size = self.shapes.of(&TypeRef::Record(r)).size;
                    return Ok((CExpr::Record(cargs, size), TypeRef::Record(r)));
                }
                // Expression fn: inline by substitution. The substituted body
                // is compiled in the caller's scope, so parameters must not
                // shadow caller locals the arguments mention.
                let decl = self
                    .raw
                    .fns
                    .iter()
                    .find(|f| f.name == name)
                    .ok_or_else(|| self.unknown(name))?
                    .clone();
                if self.fn_stack.iter().any(|f| f == name) {
                    return Err(self.type_err(format!("`{name}` is recursive")));
                }
                let FnBody::Expr(body) = &decl.body else {
                    return Err(self.type_err(format!(
                        "`{name}` is a statement fn; call it as a statement"
                    )));
                };
                if args.len() != decl.params.len() {
                    return Err(self.type_err(format!(
                        "`{name}` takes {} argument(s), got {}",
                        decl.params.len(),
                        args.len()
                    )));
                }
                let map: std::collections::HashMap<&str, &Expr> = decl
                    .params
                    .iter()
                    .map(|(p, _)| p.as_str())
                    .zip(args.iter())
                    .collect();
                let substituted = subst(body, &map);
                self.fn_stack.push(name.to_string());
                let compiled = self.expr(&substituted);
                self.fn_stack.pop();
                compiled
            }
        }
    }
}

/// Reconstructs an lvalue from a place given in expression position.
fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Var(n) => Some(LValue {
            base: n.clone(),
            path: Vec::new(),
        }),
        Expr::Field(base, f) => {
            let mut lv = expr_to_lvalue(base)?;
            lv.path.push(PathSeg::Field(f.clone()));
            Some(lv)
        }
        Expr::Index(base, idx) => {
            let mut lv = expr_to_lvalue(base)?;
            lv.path.push(PathSeg::Index((**idx).clone()));
            Some(lv)
        }
        _ => None,
    }
}

/// Substitutes parameter names with argument ASTs (for expression fns).
fn subst(e: &Expr, map: &std::collections::HashMap<&str, &Expr>) -> Expr {
    match e {
        Expr::Var(n) => match map.get(n.as_str()) {
            Some(replacement) => (*replacement).clone(),
            None => e.clone(),
        },
        Expr::Int(_) | Expr::Bool(_) | Expr::None_ | Expr::Dir => e.clone(),
        Expr::Field(b, f) => Expr::Field(Box::new(subst(b, map)), f.clone()),
        Expr::Index(b, i) => Expr::Index(Box::new(subst(b, map)), Box::new(subst(i, map))),
        Expr::Unary(op, i) => Expr::Unary(*op, Box::new(subst(i, map))),
        Expr::Binary(op, l, r) => {
            Expr::Binary(*op, Box::new(subst(l, map)), Box::new(subst(r, map)))
        }
        Expr::InList(s, items) => Expr::InList(
            Box::new(subst(s, map)),
            items.iter().map(|i| subst(i, map)).collect(),
        ),
        Expr::Call(n, args) => Expr::Call(n.clone(), args.iter().map(|a| subst(a, map)).collect()),
    }
}

// ---- Evaluator -------------------------------------------------------------

enum Flow {
    Cont,
    Disabled,
    Blocked,
}

/// Which buffer an address points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buf {
    /// The readable state: the next state once written, else the current.
    State,
    /// The rule's frame: locals, then temporaries.
    Frame,
}

/// An evaluated operand: a word, or a byte range.
#[derive(Debug, Clone, Copy)]
enum Ext {
    Word(u32, usize),
    Bytes(Buf, usize, usize),
}

/// Per-thread buffers every rule and property call reuses.
struct Buffers {
    frame: Vec<u8>,
    next: Vec<u8>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = const {
        RefCell::new(Buffers {
            frame: Vec::new(),
            next: Vec::new(),
        })
    };
}

fn int_value(i: i64) -> u32 {
    assert!(
        (0..=255).contains(&i),
        "spec interpreter: integer {i} out of 0..=255"
    );
    i as u32
}

struct Exec<'a> {
    spec: &'a CompiledSpec,
    cur: &'a [u8],
    next: &'a mut Vec<u8>,
    written: bool,
    frame: &'a mut Vec<u8>,
    blocked: bool,
}

impl Exec<'_> {
    fn buf(&self, b: Buf) -> &[u8] {
        match b {
            Buf::State if self.written => &self.next[..],
            Buf::State => self.cur,
            Buf::Frame => &self.frame[..],
        }
    }

    fn bytes(&self, ext: &Ext) -> &[u8] {
        match *ext {
            Ext::Bytes(b, s, e) => &self.buf(b)[s..e],
            Ext::Word(..) => unreachable!("words are not byte ranges"),
        }
    }

    fn check_pid_index(&self, i: u32) -> usize {
        let n = self.spec.pids;
        assert!(
            (i as usize) < n,
            "spec interpreter: index {i} out of bounds for {n} pids"
        );
        i as usize
    }

    fn pidset_bit(&self, p: u32) -> u32 {
        assert!(
            p as usize <= self.spec.pids,
            "spec interpreter: pid {p} is past DIR in a pidset"
        );
        1 << p
    }

    /// Makes the next state writable: the first write copies the current
    /// state into the reused buffer.
    fn own(&mut self) {
        if !self.written {
            self.next.clear();
            self.next.extend_from_slice(self.cur);
            self.written = true;
        }
    }

    /// Evaluates a scalar.
    fn word(&mut self, e: &CExpr) -> u32 {
        match e {
            CExpr::Lit(v) => *v,
            CExpr::Load(addr, w) => {
                let (b, off) = self.addr(addr);
                read_word(self.buf(b), off, *w)
            }
            CExpr::EnumCast(nvars, inner) => {
                let i = self.word(inner);
                assert!(i < *nvars, "spec interpreter: enum cast {i} out of range");
                i
            }
            CExpr::Not(inner) => (self.word(inner) == 0) as u32,
            CExpr::And(l, r) => (self.word(l) != 0 && self.word(r) != 0) as u32,
            CExpr::Or(l, r) => (self.word(l) != 0 || self.word(r) != 0) as u32,
            CExpr::Add(l, r) => int_value(self.word(l) as i64 + self.word(r) as i64),
            CExpr::Sub(l, r) => int_value(self.word(l) as i64 - self.word(r) as i64),
            CExpr::Cmp(op, l, r) => {
                let (a, b) = (self.word(l), self.word(r));
                (match op {
                    BinOp::Eq => a == b,
                    BinOp::Ne => a != b,
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    _ => a >= b,
                }) as u32
            }
            CExpr::SameBytes { l, r, ne } => {
                let (a, b) = (self.extent(l), self.extent(r));
                ((self.bytes(&a) == self.bytes(&b)) != *ne) as u32
            }
            CExpr::InList(scrut, items) => {
                let s = self.extent(scrut);
                for item in items {
                    let i = self.extent(item);
                    let hit = match (s, i) {
                        (Ext::Word(a, _), Ext::Word(b, _)) => a == b,
                        _ => self.bytes(&s) == self.bytes(&i),
                    };
                    if hit {
                        return 1;
                    }
                }
                0
            }
            CExpr::Len(ms, elem) => {
                let (b, off) = self.val(ms);
                int_value(multi_count(elem, self.buf(b), off).0 as i64)
            }
            CExpr::Card(set) => self.word(set).count_ones(),
            CExpr::Contains(set, pid) => {
                let p = self.word(pid);
                let bit = self.pidset_bit(p);
                (self.word(set) & bit != 0) as u32
            }
            CExpr::With(set, pid) => {
                let p = self.word(pid);
                let bit = self.pidset_bit(p);
                self.word(set) | bit
            }
            CExpr::Without(set, pid) => {
                let p = self.word(pid);
                let bit = self.pidset_bit(p);
                self.word(set) & !bit
            }
            CExpr::SatSub(a, b) => self.word(a).saturating_sub(self.word(b)),
            CExpr::Quantifier { quant, off, body } => {
                let n = self.spec.pids;
                let mut count = 0;
                for i in 0..n {
                    self.frame[*off] = i as u8;
                    if self.word(body) != 0 {
                        count += 1;
                    }
                }
                match quant {
                    Quant::Count => count as u32,
                    Quant::Forall => (count == n) as u32,
                    Quant::Exists => (count > 0) as u32,
                }
            }
            _ => unreachable!("composite expression in scalar position"),
        }
    }

    /// The start of a composite's bytes. Constructors build into the frame.
    fn val(&mut self, e: &CExpr) -> (Buf, usize) {
        match e {
            CExpr::Place(addr) => self.addr(addr),
            CExpr::Zeros(len) => {
                let start = self.frame.len();
                self.frame.resize(start + len, 0);
                (Buf::Frame, start)
            }
            CExpr::Record(fields, Some(size)) => {
                // Reserve first: temporaries the fields build land after it.
                let start = self.frame.len();
                self.frame.resize(start + size, 0);
                self.record_at(start, fields);
                (Buf::Frame, start)
            }
            CExpr::Record(fields, None) => {
                let exts: Vec<Ext> = fields.iter().map(|f| self.extent(f)).collect();
                let start = self.frame.len();
                exts.into_iter().for_each(|x| self.emit(x));
                (Buf::Frame, start)
            }
            CExpr::Some_(inner) => {
                let start = self.frame.len();
                match inner.width {
                    Width::Word(len) | Width::Fixed(len) => {
                        self.frame.resize(start + 1 + len, 0);
                        self.frame[start] = 1;
                        let ext = self.extent(inner);
                        self.write_frame(start + 1, ext);
                        (Buf::Frame, start)
                    }
                    Width::Var(_) => {
                        let ext = self.extent(inner);
                        let start = self.frame.len();
                        self.frame.push(1);
                        self.emit(ext);
                        (Buf::Frame, start)
                    }
                }
            }
            CExpr::Find(find) => {
                let (b, found) = self.find(find);
                let start = self.frame.len();
                match found {
                    Some((s, e)) => {
                        self.frame.push(1);
                        self.emit(Ext::Bytes(b, s, e));
                    }
                    None => self.frame.resize(start + 1 + find.fill, 0),
                }
                (Buf::Frame, start)
            }
            _ => unreachable!("scalar expression in composite position"),
        }
    }

    /// The range of the matching element in the multiset's buffer, if any.
    fn find(&mut self, find: &CFind) -> (Buf, Option<(usize, usize)>) {
        let to = self.extent(&find.to);
        let kind = self.extent(&find.kind);
        let rank = self.word(&find.rank);
        let (b, mut o) = self.val(&find.ms);
        let buf = self.buf(b);
        let mut seen = 0;
        let hit = |at: usize, ext: &Ext| match *ext {
            Ext::Word(v, w) => read_word(buf, at, w) == v,
            Ext::Bytes(..) => {
                let want = self.bytes(ext);
                buf.get(at..at + want.len()) == Some(want)
            }
        };
        while buf[o] == 1 {
            let s = o + 1;
            let end = find.elem.skip(buf, s);
            if hit(find.to_at.at(buf, s), &to) && hit(find.kind_at.at(buf, s), &kind) {
                if seen == rank {
                    return (b, Some((s, end)));
                }
                seen += 1;
            }
            o = end;
        }
        (b, None)
    }

    /// Evaluates an operand to a word or a byte range.
    fn extent(&mut self, a: &CArg) -> Ext {
        match &a.width {
            Width::Word(w) => Ext::Word(self.word(&a.expr), *w),
            Width::Fixed(len) => {
                let (b, s) = self.val(&a.expr);
                Ext::Bytes(b, s, s + len)
            }
            Width::Var(shape) => {
                let (b, s) = self.val(&a.expr);
                Ext::Bytes(b, s, shape.skip(self.buf(b), s))
            }
        }
    }

    /// Appends an operand's bytes to the frame.
    fn emit(&mut self, ext: Ext) {
        match ext {
            Ext::Word(v, w) => push_word(self.frame, v, w),
            Ext::Bytes(Buf::Frame, s, e) => self.frame.extend_from_within(s..e),
            Ext::Bytes(Buf::State, s, e) => {
                let state = if self.written {
                    &self.next[..]
                } else {
                    self.cur
                };
                self.frame.extend_from_slice(&state[s..e]);
            }
        }
    }

    /// Builds a fixed-size record at frame offset `at`.
    fn record_at(&mut self, mut at: usize, fields: &[CArg]) {
        for f in fields {
            let ext = self.extent(f);
            at = self.write_frame(at, ext);
        }
    }

    /// Writes an operand's bytes at frame offset `at`; returns the offset
    /// just past them.
    fn write_frame(&mut self, at: usize, ext: Ext) -> usize {
        match ext {
            Ext::Word(v, w) => {
                write_word(self.frame, at, v, w);
                at + w
            }
            Ext::Bytes(Buf::Frame, s, e) => {
                self.frame.copy_within(s..e, at);
                at + e - s
            }
            Ext::Bytes(Buf::State, s, e) => {
                let state = if self.written {
                    &self.next[..]
                } else {
                    self.cur
                };
                self.frame[at..at + e - s].copy_from_slice(&state[s..e]);
                at + e - s
            }
        }
    }

    /// Writes an operand's bytes at offset `at` of the (owned) next state.
    fn write_state(&mut self, at: usize, ext: Ext) {
        match ext {
            Ext::Word(v, w) => write_word(self.next, at, v, w),
            Ext::Bytes(Buf::State, s, e) => self.next.copy_within(s..e, at),
            Ext::Bytes(Buf::Frame, s, e) => {
                self.next[at..at + e - s].copy_from_slice(&self.frame[s..e])
            }
        }
    }

    fn addr(&mut self, a: &CAddr) -> (Buf, usize) {
        let (b, mut off) = match &a.root {
            Root::State => (Buf::State, 0),
            Root::Local(o) => (Buf::Frame, *o),
            Root::LocalVar(o, _) => (Buf::Frame, read_u32(self.frame, *o)),
            Root::Value(e) => self.val(e),
        };
        off += a.off;
        for step in &a.steps {
            match step {
                Step::Off(k) => off += k,
                Step::Index(idx, stride) => {
                    let i = self.word(idx);
                    off += self.check_pid_index(i) * stride;
                }
                Step::IndexVar(idx, elem) => {
                    let i = self.word(idx);
                    for _ in 0..self.check_pid_index(i) {
                        off = elem.skip(self.buf(b), off);
                    }
                }
                Step::Over(shape) => off = shape.skip(self.buf(b), off),
                Step::Unwrap => {
                    assert!(self.buf(b)[off] == 1, "spec interpreter: `get` on `none`");
                    off += 1;
                }
            }
        }
        (b, off)
    }

    /// Resolves a write target. State places make the next state writable;
    /// a variable-size local about to change length first moves to the end
    /// of the frame, so the resize shifts nothing else.
    fn target(&mut self, place: &CAddr, resize: bool) -> (Buf, usize) {
        match &place.root {
            Root::State => self.own(),
            Root::LocalVar(o, shape) if resize => {
                let start = read_u32(self.frame, *o);
                let end = shape.skip(self.frame, start);
                if end != self.frame.len() {
                    let moved = self.frame.len();
                    self.frame.extend_from_within(start..end);
                    write_u32(self.frame, *o, moved);
                }
            }
            _ => {}
        }
        self.addr(place)
    }

    /// The frame range of an operand's bytes, appending them first unless
    /// they already live in the frame; a write to the state or to a
    /// relocated local never moves them.
    fn detach(&mut self, ext: Ext) -> (usize, usize) {
        if let Ext::Bytes(Buf::Frame, s, e) = ext {
            return (s, e);
        }
        let start = self.frame.len();
        self.emit(ext);
        (start, self.frame.len())
    }

    fn assign(&mut self, place: &CAddr, value: &CArg) {
        let ext = self.extent(value);
        let Width::Var(shape) = &value.width else {
            match self.target(place, false) {
                (Buf::State, at) => self.write_state(at, ext),
                (Buf::Frame, at) => {
                    self.write_frame(at, ext);
                }
            }
            return;
        };
        let (vs, ve) = self.detach(ext);
        match self.target(place, true) {
            (Buf::State, at) => {
                let old_end = shape.skip(self.next, at);
                self.next
                    .splice(at..old_end, self.frame[vs..ve].iter().copied());
            }
            (Buf::Frame, at) => {
                let old_end = shape.skip(self.frame, at);
                let bytes = self.frame[vs..ve].to_vec();
                self.frame.splice(at..old_end, bytes);
            }
        }
    }

    fn insert(&mut self, place: &CAddr, elem: &Shape, value: &CArg) {
        let ext = self.extent(value);
        let (vs, ve) = self.detach(ext);
        let len = 1 + ve - vs;
        match self.target(place, true) {
            (Buf::State, at) => {
                let pos = multi_search(elem, self.next, at, &self.frame[vs..ve], true);
                let old = self.next.len();
                self.next.resize(old + len, 0);
                self.next.copy_within(pos..old, pos + len);
                self.next[pos] = 1;
                self.next[pos + 1..pos + len].copy_from_slice(&self.frame[vs..ve]);
            }
            (Buf::Frame, at) => {
                // The multiset is the frame's tail: append, then rotate in.
                let pos = multi_search(elem, self.frame, at, &self.frame[vs..ve], true);
                self.frame.push(1);
                self.frame.extend_from_within(vs..ve);
                self.frame[pos..].rotate_right(len);
            }
        }
    }

    fn remove(&mut self, place: &CAddr, elem: &Shape, value: &CArg) {
        let ext = self.extent(value);
        let (vs, ve) = self.detach(ext);
        let len = 1 + ve - vs;
        let (b, at) = self.target(place, true);
        let buf = self.buf(b);
        let pos = multi_search(elem, buf, at, &self.frame[vs..ve], false);
        if buf[pos] == 1 && buf.get(pos + 1..pos + len) == Some(&self.frame[vs..ve]) {
            match b {
                Buf::State => self.next.drain(pos..pos + len),
                Buf::Frame => self.frame.drain(pos..pos + len),
            };
        }
    }

    fn exec(&mut self, stmts: &[CStmt], ctx: &mut dyn HoleResolver) -> Flow {
        for st in stmts {
            if self.blocked && !matches!(st, CStmt::Choose { .. }) {
                return Flow::Blocked;
            }
            match st {
                CStmt::Require(e) => {
                    if self.word(e) == 0 {
                        return Flow::Disabled;
                    }
                }
                CStmt::SetLocal(off, value) => {
                    let ext = self.extent(value);
                    self.write_frame(*off, ext);
                }
                CStmt::SetLocalVar(off, value) => {
                    // Always a private copy: a relocating write to another
                    // local must never show through this one.
                    let ext = self.extent(value);
                    let start = self.frame.len();
                    self.emit(ext);
                    write_u32(self.frame, *off, start);
                }
                CStmt::Choose { off, hole } => {
                    self.frame[*off] = match ctx.choose(&self.spec.holes[*hole].spec) {
                        Choice::Action(i) => i as u8,
                        Choice::Wildcard => {
                            self.blocked = true;
                            0
                        }
                    };
                }
                CStmt::Assign { place, value } => self.assign(place, value),
                CStmt::Insert { place, elem, value } => self.insert(place, elem, value),
                CStmt::Remove { place, elem, value } => self.remove(place, elem, value),
                CStmt::If(arms, else_) => {
                    let body = arms
                        .iter()
                        .find(|(cond, _)| self.word(cond) != 0)
                        .map_or(else_, |(_, body)| body);
                    match self.exec(body, ctx) {
                        Flow::Cont => {}
                        f => return f,
                    }
                }
                CStmt::Block(body) => match self.exec(body, ctx) {
                    Flow::Cont => {}
                    f => return f,
                },
                CStmt::ForPids { off, body } => {
                    for i in 0..self.spec.pids {
                        self.frame[*off] = i as u8;
                        match self.exec(body, ctx) {
                            Flow::Cont => {}
                            f => return f,
                        }
                    }
                }
            }
        }
        Flow::Cont
    }
}

fn read_u32(buf: &[u8], off: usize) -> usize {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("four bytes")) as usize
}

fn write_u32(buf: &mut [u8], off: usize, v: usize) {
    buf[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes());
}

/// Runs `f` on an evaluator over `cur`, reusing this thread's buffers.
fn with_exec<R>(spec: &CompiledSpec, cur: &SpecState, f: impl FnOnce(&mut Exec) -> R) -> R {
    BUFFERS.with(|cell| {
        let bufs = &mut *cell.borrow_mut();
        // Every body gets the spec's largest frame, so alternating rules
        // never re-zero it; locals are written before they are read.
        if bufs.frame.len() < spec.max_frame {
            bufs.frame.resize(spec.max_frame, 0);
        }
        bufs.frame.truncate(spec.max_frame);
        let mut ex = Exec {
            spec,
            cur: cur.as_bytes(),
            next: &mut bufs.next,
            written: false,
            frame: &mut bufs.frame,
            blocked: false,
        };
        f(&mut ex)
    })
}

pub(crate) fn exec_rule(
    spec: &CompiledSpec,
    rule: usize,
    cur: &SpecState,
    ctx: &mut dyn HoleResolver,
) -> RuleOutcome<SpecState> {
    let inst = &spec.rules[rule];
    let body = &spec.bodies[inst.body];
    with_exec(spec, cur, |ex| {
        for (slot, &v) in ex.frame.iter_mut().zip(&inst.prelude) {
            *slot = v;
        }
        match ex.exec(&body.stmts, ctx) {
            Flow::Disabled => RuleOutcome::Disabled,
            Flow::Blocked => RuleOutcome::Blocked,
            Flow::Cont if ex.blocked => RuleOutcome::Blocked,
            Flow::Cont if ex.written => RuleOutcome::Next(SpecState::from_bytes(ex.next.clone())),
            Flow::Cont => RuleOutcome::Next(cur.clone()),
        }
    })
}

pub(crate) fn eval_prop(spec: &CompiledSpec, prop: usize, state: &SpecState) -> bool {
    let p = &spec.props[prop];
    with_exec(spec, state, |ex| ex.word(&p.expr) != 0)
}

// ---- The model -------------------------------------------------------------

/// A [`TransitionSystem`] running a compiled spec.
///
/// Rule table order, hole consultation order, property order, and (when
/// `symmetry = true`) canonical representatives all follow the document, so
/// a spec that mirrors a hand-written model reproduces its run bit for bit.
pub struct SpecModel {
    spec: Arc<CompiledSpec>,
    rules: Vec<Rule<SpecState>>,
    props: Vec<Property<SpecState>>,
}

impl SpecModel {
    pub(crate) fn new(spec: Arc<CompiledSpec>) -> Self {
        let rules = spec
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let sp = Arc::clone(&spec);
                Rule::new(
                    r.name.clone(),
                    move |s: &SpecState, ctx: &mut dyn HoleResolver| exec_rule(&sp, i, s, ctx),
                )
            })
            .collect();
        let props = spec
            .props
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let sp = Arc::clone(&spec);
                let name = p.name.clone();
                match p.kind {
                    PropKind::Invariant => {
                        Property::invariant(name, move |s: &SpecState| eval_prop(&sp, i, s))
                    }
                    PropKind::Reachable => {
                        Property::reachable(name, move |s: &SpecState| eval_prop(&sp, i, s))
                    }
                    PropKind::EventuallyQuiescent => {
                        Property::eventually_quiescent(name, move |s: &SpecState| {
                            eval_prop(&sp, i, s)
                        })
                    }
                }
            })
            .collect();
        SpecModel { spec, rules, props }
    }
}

impl std::fmt::Debug for SpecModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecModel")
            .field("name", &self.spec.name)
            .field("rules", &self.rules.len())
            .finish_non_exhaustive()
    }
}

impl TransitionSystem for SpecModel {
    type State = SpecState;

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn initial_states(&self) -> Vec<SpecState> {
        vec![self.spec.initial.clone()]
    }

    fn rules(&self) -> &[Rule<SpecState>] {
        &self.rules
    }

    fn canonicalize(&self, state: SpecState) -> SpecState {
        if !self.spec.symmetry {
            return state;
        }
        // Per-thread spare buffer, exactly like the hand-written models:
        // the expand hot loop canonicalizes without allocating.
        thread_local! {
            static SPARE: RefCell<Option<SpecState>> = const { RefCell::new(None) };
        }
        let program = &self.spec.perm;
        SPARE.with(|spare| {
            let mut spare = spare.borrow_mut();
            let mut laid = spare.take().map(|state| Laid { program, state });
            let canon = Laid { program, state }.canonicalize_auto_with(self.spec.pids, &mut laid);
            *spare = laid.map(|l| l.state);
            canon.state
        })
    }

    fn properties(&self) -> &[Property<SpecState>] {
        &self.props
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;
    use verc3_mck::{Checker, CheckerOptions, FixedResolver, NoHoles, Verdict};

    const COUNTER: &str = r#"
[protocol]
name = "counter"
pids = 2
symmetry = false

[consts]
CAP = 4

[vars]
count = "int"
winner = "option<pid>"

[libs]
step = ["one", "two"]

[[hole]]
name = "inc"
lib = "step"

[[rule]]
name = "bump"
body = """
require count < CAP;
choose a = hole("inc");
if a == step.one { count = count + 1; }
else { count = count + 2; }
"""

[[rule]]
name = "claim"
body = """
require count >= CAP && is_none(winner);
winner = some(DIR);
"""

[[rule]]
name = "idle"
body = "require count == 0;"

[[property]]
kind = "invariant"
name = "bounded"
expr = "count <= CAP + 1"

[[property]]
kind = "reachable"
name = "someone wins"
expr = "is_some(winner)"
"#;

    fn apply(model: &SpecModel, name: &str, s: &SpecState) -> RuleOutcome<SpecState> {
        apply_with(model, name, s, &mut NoHoles)
    }

    fn apply_with(
        model: &SpecModel,
        name: &str,
        s: &SpecState,
        ctx: &mut dyn HoleResolver,
    ) -> RuleOutcome<SpecState> {
        model
            .rules()
            .iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("rule {name} exists"))
            .apply(s, ctx)
    }

    fn next(outcome: RuleOutcome<SpecState>) -> SpecState {
        match outcome {
            RuleOutcome::Next(s) => s,
            other => panic!("expected a successor, got {other:?}"),
        }
    }

    #[test]
    fn counter_spec_executes() {
        let spec = ProtocolSpec::from_toml_str(COUNTER).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        // count: int, winner: option<pid> (tag + pid).
        assert_eq!(init.as_bytes(), [0, 0, 0]);

        // Unassigned hole → Blocked; `idle` fires as a self-loop.
        let mut unassigned = FixedResolver::new();
        assert_eq!(
            apply_with(&model, "bump", &init, &mut unassigned),
            RuleOutcome::Blocked
        );
        assert_eq!(
            apply_with(&model, "idle", &init, &mut unassigned),
            RuleOutcome::Next(init.clone())
        );

        // Assigned hole → steps by two.
        let mut two = FixedResolver::new();
        two.assign("inc", 1);
        let stepped = next(apply_with(&model, "bump", &init, &mut two));
        assert_eq!(stepped.as_bytes(), [2, 0, 0]);
        // `claim` is disabled until the counter saturates.
        assert_eq!(
            apply_with(&model, "claim", &stepped, &mut two),
            RuleOutcome::Disabled
        );
        let n2 = next(apply_with(&model, "bump", &stepped, &mut two));
        let n3 = next(apply_with(&model, "claim", &n2, &mut two));
        assert_eq!(n3.as_bytes(), [4, 1, 2], "winner = some(DIR)");

        // Properties evaluate.
        let props = model.properties();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].name(), "bounded");
        assert!(!eval_prop(&spec.compiled, 1, &n2));
        assert!(eval_prop(&spec.compiled, 1, &n3));
    }

    #[test]
    fn rejects_unknown_names_and_types() {
        let bad_var = COUNTER.replace("count = count + 1;", "missing = 1;");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&bad_var),
            Err(InvalidSpec::UnknownName { name, .. }) if name == "missing"
        ));

        let bad_hole = COUNTER.replace("hole(\"inc\")", "hole(\"nope\")");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&bad_hole),
            Err(InvalidSpec::UnknownName { name, .. }) if name == "nope"
        ));

        let bad_type = COUNTER.replace("require count == 0;", "require count == true;");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&bad_type),
            Err(InvalidSpec::Type { .. })
        ));
    }

    /// `let x = none` takes its layout from the first later assignment or
    /// typed use; a local nothing types keeps the bare tag.
    #[test]
    fn let_none_takes_its_type_from_later_uses() {
        let src = r#"
[protocol]
name = "search"
pids = 3
symmetry = false

[records.Cache]
fields = ["hit: bool"]

[vars]
caches = "array[pid] of Cache"
found = "option<pid>"
seen = "option<pid>"
done = "bool"

[[rule]]
name = "mark"
body = """
require !done;
caches[1].hit = true;
caches[2].hit = true;
done = true;
"""

[[rule]]
name = "search"
body = """
require done && is_none(found);
let x = none;
let unused = none;
x = none;
for q in pids {
  if caches[q].hit && is_none(x) { x = some(q); }
}
require is_some(x) && is_none(unused);
caches[get(x)].hit = false;
found = x;
"""

[[rule]]
name = "copy"
body = """
let y = none;
require is_some(found) && is_none(seen);
let z = y;
z = found;
seen = z;
"""

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        assert_eq!(apply(&model, "search", &init), RuleOutcome::Disabled);
        let marked = next(apply(&model, "mark", &init));
        assert_eq!(marked.as_bytes(), [0, 1, 1, 0, 0, 0, 0, 1]);
        // caches[1] is the first hit; `found = some(1)`.
        let searched = next(apply(&model, "search", &marked));
        assert_eq!(searched.as_bytes(), [0, 0, 1, 1, 1, 0, 0, 1]);
        let copied = next(apply(&model, "copy", &searched));
        assert_eq!(copied.as_bytes(), [0, 0, 1, 1, 1, 1, 1, 1]);

        // Uses that disagree on the type are still an error.
        let clash = src.replace("seen = z;", "seen = z; z = some(true);");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&clash),
            Err(InvalidSpec::Type { .. })
        ));
    }

    /// A record may contain itself behind an option or a multiset; its
    /// `none` is then the tag alone. Symmetry permutes the nested pids.
    #[test]
    fn records_may_contain_themselves_behind_an_option() {
        let src = r#"
[protocol]
name = "chain"
pids = 2
symmetry = true

[records.Slot]
fields = ["pushed: bool"]

[records.Node]
fields = ["who: pid", "next: option<Node>", "kids: multiset<Node>"]

[vars]
slots = "array[pid] of Slot"
top = "option<Node>"
bag = "multiset<Node>"
empty = "multiset<Node>"

[[ruleset]]
binds = ["p: pid"]

[[ruleset.rule]]
name = "push[{p}]"
body = """
require !slots[p].pushed;
slots[p].pushed = true;
insert(bag, Node(p, top, empty));
top = some(Node(p, top, empty));
"""

[[rule]]
name = "idle"
body = "require true;"

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        assert_eq!(init.as_bytes(), [0, 0, 0, 0, 0], "top = none is one byte");
        let out = Checker::new(CheckerOptions::default()).run(&model);
        assert_eq!(out.verdict(), Verdict::Success, "{:?}", out.failure());
        // {} → {p} → {p, q}, each up to the pid permutation.
        assert_eq!(out.stats().states_visited, 3);

        let one = next(apply(&model, "push[1]", &init));
        #[rustfmt::skip]
        assert_eq!(one.as_bytes(), [
            0, 1,                   // slots
            1, 1, 0, 0,             // top = some(Node(1, none, {}))
            1, 1, 0, 0, 0,          // bag = {Node(1, none, {})}
            0,                      // empty
        ]);
        let both = next(apply(&model, "push[0]", &one));
        #[rustfmt::skip]
        assert_eq!(both.as_bytes(), [
            1, 1,
            1, 0, 1, 1, 0, 0, 0,    // top = some(Node(0, some(Node(1, none, {})), {}))
            1, 0, 1, 1, 0, 0, 0,    // bag = {Node(0, some(…), {}),
            1, 1, 0, 0, 0,          //        Node(1, none, {})}
            0,
        ]);
        // The other push order is the same state up to swapping the pids.
        let swapped = next(apply(
            &model,
            "push[1]",
            &next(apply(&model, "push[0]", &init)),
        ));
        assert_ne!(swapped, both);
        assert_eq!(model.canonicalize(swapped), model.canonicalize(both));

        // Without an option or a multiset in the way there is no finite
        // value.
        for field in ["next: Node", "next: array[pid] of Node"] {
            let bad = src.replace("next: option<Node>", field);
            assert!(matches!(
                ProtocolSpec::from_toml_str(&bad),
                Err(InvalidSpec::Type { context, .. }) if context == "[records.Node]"
            ));
        }
    }

    #[test]
    fn records_may_contain_each_other() {
        let src = r#"
[protocol]
name = "mutual"
pids = 2
symmetry = false

[records.A]
fields = ["b: option<B>", "v: int"]

[records.B]
fields = ["a: A", "who: pid"]

[vars]
x = "A"

[[rule]]
name = "wrap"
body = """
require x.v < 2;
x = A(some(B(x, 1)), x.v + 1);
"""

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        assert_eq!(init.as_bytes(), [0, 0]);
        let once = next(apply(&model, "wrap", &init));
        assert_eq!(once.as_bytes(), [1, 0, 0, 1, 1]);
        let twice = next(apply(&model, "wrap", &once));
        assert_eq!(twice.as_bytes(), [1, 1, 0, 0, 1, 1, 1, 2]);
        assert_eq!(apply(&model, "wrap", &twice), RuleOutcome::Disabled);
    }

    #[test]
    fn ruleset_expansion_is_binder_outer_rule_inner() {
        let src = r#"
[protocol]
name = "expansion"
pids = 2
symmetry = false

[enums]
Kind = ["A", "B"]

[vars]
x = "int"

[[ruleset]]
binds = ["c: pid", "k: Kind in [B, A]"]

[[ruleset.rule]]
name = "r[{c}]:{k}"
body = "require x == 0;"

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let names: Vec<String> = spec
            .model()
            .rules()
            .iter()
            .map(|r| r.name().to_string())
            .collect();
        assert_eq!(names, vec!["r[0]:B", "r[0]:A", "r[1]:B", "r[1]:A"]);
    }

    #[test]
    fn fn_inlining_and_quantifiers_work() {
        let src = r#"
[protocol]
name = "fns"
pids = 3
symmetry = false

[records.Cell]
fields = ["v: int"]

[vars]
cells = "array[pid] of Cell"
total = "int"

[[fn]]
name = "put"
params = ["p: pid", "x: int"]
body = "cells[p].v = x; total = total + x;"

[[fn]]
name = "loaded"
params = ["p: pid"]
expr = "cells[p].v > 0"

[[rule]]
name = "fill"
body = """
require !loaded(0 + 0 == 0 && false || cells[0].v == 0 && true);
"""

[[rule]]
name = "seed"
body = """
require cells[0].v == 0;
put(0, 2);
put(1, 3);
"""

[[property]]
kind = "invariant"
name = "sum matches"
expr = "total == count(p, loaded(p)) + count(q, cells[q].v > 1) + sat_sub(total, 5)"
"#;
        // `loaded` takes a pid; the first rule feeds it a bool to prove the
        // type error surfaces through substitution.
        assert!(matches!(
            ProtocolSpec::from_toml_str(src),
            Err(InvalidSpec::Type { .. })
        ));

        let src = src.replace(
            "require !loaded(0 + 0 == 0 && false || cells[0].v == 0 && true);",
            "require !loaded(DIR);",
        );
        // DIR is a pid, but indexes out of bounds only if evaluated — and
        // compile must accept it.
        let spec = ProtocolSpec::from_toml_str(&src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        let seeded = next(apply(&model, "seed", &init));
        // cells (3 × one int), then total.
        assert_eq!(seeded.as_bytes(), [2, 3, 0, 5]);
        // total(5) == loaded-count(2) + >1-count(2) + sat_sub(5,5)=0 → false;
        // on the initial state 0 == 0 + 0 + 0 → true.
        assert!(eval_prop(&spec.compiled, 0, &init));
        assert!(!eval_prop(&spec.compiled, 0, &seeded));
    }

    #[test]
    fn multiset_find_insert_remove_roundtrip() {
        let src = r#"
[protocol]
name = "netty"
pids = 2
symmetry = false

[enums]
Kind = ["Ping", "Pong"]

[records.Msg]
fields = ["kind: Kind", "to: pid", "req: pid"]

[vars]
net = "multiset<Msg>"
done = "bool"

[[rule]]
name = "send"
body = """
require len(net) == 0;
insert(net, Msg(Kind.Ping, 1, 1));
insert(net, Msg(Kind.Ping, 1, 0));
"""

[[rule]]
name = "recv"
body = """
let mo = find(net, 1, Kind.Ping, 1);
require is_some(mo);
let m = get(mo);
remove(net, m);
done = true;
"""

[[property]]
kind = "invariant"
name = "cap"
expr = "len(net) <= 2"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        assert_eq!(init.as_bytes(), [0, 0], "empty net, done = false");
        assert_eq!(apply(&model, "recv", &init), RuleOutcome::Disabled);
        let sent = next(apply(&model, "send", &init));
        // Elements sorted (kind, to, req), each behind a 1 byte; 0 ends.
        assert_eq!(sent.as_bytes(), [1, 0, 1, 0, 1, 0, 1, 1, 0, 0]);
        // rank 1 selects the second matching message in canonical order
        // (req = 1).
        let recvd = next(apply(&model, "recv", &sent));
        assert_eq!(recvd.as_bytes(), [1, 0, 1, 0, 0, 1]);
    }

    /// Values whose size depends on a multiset: variable-size locals that
    /// grow in place (`insert(q, a0)`, `q` last in the frame) or relocate
    /// first (`remove` after `q2` was copied behind it), constructors
    /// holding multisets, arrays of multisets, `find` over variable-size
    /// records, and assignments that resize the state.
    #[test]
    fn variable_size_values_round_trip() {
        let src = r#"
[protocol]
name = "nested"
pids = 2
symmetry = false

[enums]
K = ["A", "B"]

[records.Msg]
fields = ["kind: K", "to: pid"]

[records.Bag]
fields = ["q: multiset<Msg>", "n: int"]

[records.Env]
fields = ["payload: multiset<Msg>", "kind: K", "to: pid"]

[vars]
chans = "array[pid] of multiset<Msg>"
b = "Bag"
o = "option<multiset<Msg>>"
done = "bool"
envs = "multiset<Env>"

[[rule]]
name = "fill"
body = """
require !done;
insert(chans[1], Msg(K.B, 0));
insert(chans[1], Msg(K.A, 1));
let a0 = Msg(K.A, 0);
let q = chans[1];
insert(q, a0);
let q2 = q;
remove(q, Msg(K.B, 0));
b = Bag(q, len(q2));
o = some(q2);
b.n = b.n + 1;
done = true;
"""

[[rule]]
name = "wrap"
body = """
require done && len(envs) == 0;
insert(envs, Env(b.q, K.A, 1));
insert(envs, Env(chans[0], K.A, 1));
let e = find(envs, 1, K.A, 1);
require is_some(e);
chans[0] = get(e).payload;
"""

[[property]]
kind = "invariant"
name = "distinct"
expr = "chans[1] == chans[1] && (is_none(o) || get(o) != b.q)"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        // `none` of a variable-size option is its tag alone.
        assert_eq!(init.as_bytes(), [0; 7], "all defaults are zero bytes");
        // Msg(kind, to) elements sort as [A,0] < [A,1] < [B,0].
        let filled = next(apply(&model, "fill", &init));
        #[rustfmt::skip]
        assert_eq!(filled.as_bytes(), [
            0, 1, 0, 1, 1, 1, 0, 0,             // chans: {}, {A1, B0}
            1, 0, 0, 1, 0, 1, 0, 4,             // b: q = {A0, A1}, n = 3 + 1
            1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0,    // o: some({A0, A1, B0})
            1,                                  // done
            0,                                  // envs: {}
        ]);
        assert!(eval_prop(&spec.compiled, 0, &filled));
        let wrapped = next(apply(&model, "wrap", &filled));
        #[rustfmt::skip]
        assert_eq!(wrapped.as_bytes(), [
            1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0,    // chans[0] = b.q
            1, 0, 0, 1, 0, 1, 0, 4,
            1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0,
            1,
            1, 0, 0, 1,                                   // Env({}, A, 1)
            1, 1, 0, 0, 1, 0, 1, 0, 0, 1,                 // Env({A0, A1}, A, 1)
            0,
        ]);
    }

    /// A spec whose rule `go` runs `body` once; the runtime checks make it
    /// panic, never read a neighbouring field.
    fn runtime_check_panics(body: &str) {
        let src = format!(
            r#"
[protocol]
name = "checks"
pids = 2
symmetry = false

[enums]
E = ["A", "B"]

[records.Cell]
fields = ["v: int"]

[records.Ref]
fields = ["p: pid"]

[vars]
cells = "array[pid] of Cell"
n = "int"
o = "option<pid>"
s = "pidset"

[[rule]]
name = "go"
body = "{body}"

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#
        );
        let spec = ProtocolSpec::from_toml_str(&src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| apply(&model, "go", &init)));
        assert!(caught.is_err(), "`{body}` must panic");
    }

    #[test]
    fn out_of_range_index_panics() {
        runtime_check_panics("cells[DIR].v = 1;");
        runtime_check_panics("n = cells[n + 2].v;");
    }

    #[test]
    fn bad_enum_cast_panics() {
        runtime_check_panics("require E[n + 2] == E.A;");
    }

    #[test]
    fn int_overflow_panics() {
        runtime_check_panics("n = 255; n = n + 1;");
        runtime_check_panics("n = n - 1;");
    }

    #[test]
    fn get_none_panics() {
        runtime_check_panics("require get(o) == DIR;");
    }

    #[test]
    fn pidset_pid_past_dir_panics() {
        runtime_check_panics("s = with(s, Ref(3).p);");
    }

    /// A pidset holds `DIR` next to every pid, also at the largest
    /// scalarset, where n + 1 bits outgrow one byte.
    fn dir_in_pidset(pids: usize) -> Verdict {
        let src = format!(
            r#"
[protocol]
name = "dir-in-pidset"
pids = {pids}
symmetry = false

[vars]
s = "pidset"

[[rule]]
name = "add-dir"
body = "require !contains(s, DIR); s = with(s, DIR);"

[[rule]]
name = "idle"
body = "require true;"

[[property]]
kind = "invariant"
name = "no pid joins"
expr = "!exists(q, contains(s, q))"
"#
        );
        let spec = ProtocolSpec::from_toml_str(&src).expect("loads");
        let out = Checker::new(CheckerOptions::default()).run(&spec.model());
        assert_eq!(out.stats().states_visited, 2, "pids = {pids}");
        out.verdict()
    }

    #[test]
    fn pidset_holds_dir_at_every_scalarset_size() {
        assert_eq!(dir_in_pidset(3), Verdict::Success);
        assert_eq!(dir_in_pidset(8), Verdict::Success);
    }
}
