//! Schema layer: TOML document → validated raw declarations →
//! [`ProtocolSpec`].
//!
//! A spec document has the sections:
//!
//! ```toml
//! [protocol]        # name, pids (scalarset size, 1..=8), symmetry
//! [consts]          # named integer constants
//! [enums]           # Name = ["Variant", …]   (order = Ord order)
//! [records.Name]    # fields = ["name: type", …]
//! [vars]            # name = "type"           (order = state Ord order)
//! [libs]            # name = ["action", …]    (hole action libraries)
//! [[hole]]          # name, lib
//! [[fn]]            # name, params, body (statements) or expr
//! [[rule]]          # name, body — sugar for a ruleset with no binders
//! [[ruleset]]       # binds = ["c: pid", "k: Enum in [A, B]", "r: rank"]
//!   [[ruleset.rule]]# name (with {binder} interpolation), body
//! [[property]]      # kind = invariant|reachable|eventually_quiescent, name, expr
//! [golden]          # verdict/states/transitions (+ .assignment, .synth)
//! ```
//!
//! The type grammar: `bool`, `int`, `pid`, `pidset`, `option<T>`,
//! `multiset<T>`, `array[pid] of T`, plus declared enum and record names.
//!
//! The initial state is the all-defaults state: enums at variant 0, ints
//! at 0, pids at 0, options `none`, sets and multisets empty.

use std::path::Path;
use std::sync::Arc;

use crate::ast::{Expr, Stmt};
use crate::error::InvalidSpec;
use crate::interp::{compile, CompiledSpec, SpecModel};
use crate::parse::{parse_block, parse_expr};
use crate::toml::{self, Table, TomlValue};

/// A reference to a declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TypeRef {
    Bool,
    Int,
    Pid,
    PidSet,
    Enum(usize),
    Record(usize),
    Option(Box<TypeRef>),
    Multiset(Box<TypeRef>),
    Array(Box<TypeRef>),
    /// The type of polymorphic literals (`none`); compatible with anything.
    Unknown,
}

impl TypeRef {
    /// Structural compatibility, treating [`TypeRef::Unknown`] as a wildcard.
    pub(crate) fn compatible(&self, other: &TypeRef) -> bool {
        match (self, other) {
            (TypeRef::Unknown, _) | (_, TypeRef::Unknown) => true,
            (TypeRef::Option(a), TypeRef::Option(b)) => a.compatible(b),
            (TypeRef::Multiset(a), TypeRef::Multiset(b)) => a.compatible(b),
            (TypeRef::Array(a), TypeRef::Array(b)) => a.compatible(b),
            (a, b) => a == b,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct EnumDecl {
    pub name: String,
    pub variants: Vec<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct RecordDecl {
    pub name: String,
    pub fields: Vec<(String, TypeRef)>,
}

#[derive(Debug, Clone)]
pub(crate) struct LibDecl {
    pub name: String,
    pub actions: Vec<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct HoleDecl {
    pub name: String,
    pub lib: usize,
}

#[derive(Debug, Clone)]
pub(crate) enum FnBody {
    Stmts(Vec<Stmt>),
    Expr(Expr),
}

#[derive(Debug, Clone)]
pub(crate) struct FnDecl {
    pub name: String,
    pub params: Vec<(String, TypeRef)>,
    pub body: FnBody,
}

#[derive(Debug, Clone)]
pub(crate) enum BinderDomain {
    /// `0..pids` as pid values.
    Pid,
    /// `0..pids` as int values (message delivery ranks).
    Rank,
    /// A subset of an enum's variants, in the listed order.
    EnumSubset(usize, Vec<u8>),
}

#[derive(Debug, Clone)]
pub(crate) struct Binder {
    pub name: String,
    pub domain: BinderDomain,
}

#[derive(Debug, Clone)]
pub(crate) struct RawRule {
    pub name_template: String,
    pub body: Vec<Stmt>,
}

#[derive(Debug, Clone)]
pub(crate) struct RawRuleSet {
    pub binds: Vec<Binder>,
    pub rules: Vec<RawRule>,
}

/// Property kinds, mirroring [`verc3_mck::Property`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PropKind {
    Invariant,
    Reachable,
    EventuallyQuiescent,
}

#[derive(Debug, Clone)]
pub(crate) struct PropDecl {
    pub kind: PropKind,
    pub name: String,
    pub expr: Expr,
}

/// Committed golden counts for a spec, used by the self-gating binaries and
/// the protocol-zoo CI job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecGolden {
    /// Expected verdict under the golden assignment (e.g. `"Success"`).
    pub verdict: Option<String>,
    /// Expected visited-state count under the golden assignment.
    pub states: Option<usize>,
    /// Expected transition count under the golden assignment.
    pub transitions: Option<usize>,
    /// Hole name → action name of the known-correct completion.
    pub assignment: Vec<(String, String)>,
    /// Expected synthesis run count (pruned, single thread).
    pub synth_evaluated: Option<u64>,
    /// Expected pruning-pattern count.
    pub synth_patterns: Option<u64>,
    /// Expected solution count.
    pub synth_solutions: Option<usize>,
    /// Pattern mode the synthesis goldens were measured under: `true` for
    /// trace-refined patterns (the paper's Cₜ, what the bench tables use),
    /// `false` for the default exact mode.
    pub synth_refined: bool,
}

impl SpecGolden {
    /// `true` if any verification golden (verdict/states/transitions) is
    /// committed.
    pub fn gates_verification(&self) -> bool {
        self.verdict.is_some() || self.states.is_some() || self.transitions.is_some()
    }

    /// `true` if synthesis goldens are committed.
    pub fn gates_synthesis(&self) -> bool {
        self.synth_evaluated.is_some()
            || self.synth_patterns.is_some()
            || self.synth_solutions.is_some()
    }
}

/// All raw declarations of a spec document, before compilation.
#[derive(Debug, Clone)]
pub(crate) struct RawSpec {
    pub name: String,
    pub pids: usize,
    pub symmetry: bool,
    pub consts: Vec<(String, i64)>,
    pub enums: Vec<EnumDecl>,
    pub records: Vec<RecordDecl>,
    pub vars: Vec<(String, TypeRef)>,
    pub libs: Vec<LibDecl>,
    pub holes: Vec<HoleDecl>,
    pub fns: Vec<FnDecl>,
    pub rulesets: Vec<RawRuleSet>,
    pub props: Vec<PropDecl>,
}

/// A loaded, validated, compiled protocol description.
#[derive(Clone)]
pub struct ProtocolSpec {
    pub(crate) compiled: Arc<CompiledSpec>,
    golden: SpecGolden,
}

impl ProtocolSpec {
    /// Parses, validates and compiles a spec from TOML text.
    pub fn from_toml_str(src: &str) -> Result<Self, InvalidSpec> {
        let root = toml::parse(src)?;
        let (raw, golden) = read_raw(&root)?;
        let compiled = compile(raw)?;
        Ok(ProtocolSpec {
            compiled: Arc::new(compiled),
            golden,
        })
    }

    /// Loads a spec from a file.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, InvalidSpec> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| InvalidSpec::Schema {
            context: path.display().to_string(),
            message: format!("cannot read spec file: {e}"),
        })?;
        Self::from_toml_str(&src)
    }

    /// The protocol's display name.
    pub fn name(&self) -> &str {
        &self.compiled.name
    }

    /// The declared scalarset size.
    pub fn pids(&self) -> usize {
        self.compiled.pids
    }

    /// The committed golden counts (may be empty).
    pub fn golden(&self) -> &SpecGolden {
        &self.golden
    }

    /// Declared holes as `(name, arity)` pairs, in declaration order.
    pub fn hole_space(&self) -> Vec<(String, usize)> {
        self.compiled
            .holes
            .iter()
            .map(|h| (h.name.clone(), h.spec.arity()))
            .collect()
    }

    /// Resolves a golden-assignment action name to its library index.
    pub fn action_index(&self, hole: &str, action: &str) -> Option<usize> {
        let h = self.compiled.holes.iter().find(|h| h.name == hole)?;
        h.spec.actions().iter().position(|a| a == action)
    }

    /// Builds the interpreted transition system.
    pub fn model(&self) -> SpecModel {
        SpecModel::new(Arc::clone(&self.compiled))
    }
}

impl std::fmt::Debug for ProtocolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolSpec")
            .field("name", &self.compiled.name)
            .field("pids", &self.compiled.pids)
            .field("holes", &self.compiled.holes.len())
            .finish_non_exhaustive()
    }
}

// ---- Schema reading --------------------------------------------------------

fn schema_err(context: &str, message: impl Into<String>) -> InvalidSpec {
    InvalidSpec::Schema {
        context: context.to_string(),
        message: message.into(),
    }
}

fn read_raw(root: &Table) -> Result<(RawSpec, SpecGolden), InvalidSpec> {
    let proto = root
        .get_table("protocol")
        .ok_or_else(|| schema_err("[protocol]", "missing section"))?;
    let name = proto
        .get_str("name")
        .ok_or_else(|| schema_err("[protocol]", "missing `name`"))?
        .to_string();
    let pids = proto
        .get_int("pids")
        .ok_or_else(|| schema_err("[protocol]", "missing `pids`"))?;
    if !(1..=8).contains(&pids) {
        return Err(schema_err("[protocol]", "`pids` must be in 1..=8"));
    }
    let pids = pids as usize;
    let symmetry = proto.get_bool("symmetry").unwrap_or(false);

    let mut consts = Vec::new();
    if let Some(t) = root.get_table("consts") {
        for (k, v) in &t.entries {
            match v {
                TomlValue::Int(i) => consts.push((k.clone(), *i)),
                _ => return Err(schema_err("[consts]", format!("`{k}` must be an integer"))),
            }
        }
    }

    // Enums.
    let mut enums = Vec::new();
    if let Some(t) = root.get_table("enums") {
        for (k, _) in &t.entries {
            let variants = t
                .get_str_array(k)
                .ok_or_else(|| schema_err("[enums]", format!("`{k}` must be a string array")))?;
            if variants.is_empty() || variants.len() > 255 {
                return Err(schema_err(
                    "[enums]",
                    format!("`{k}` needs 1..=255 variants"),
                ));
            }
            check_unique(
                "[enums]",
                &variants.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )?;
            if enums.iter().any(|e: &EnumDecl| e.name == *k) {
                return Err(InvalidSpec::DuplicateName {
                    context: "[enums]".into(),
                    name: k.clone(),
                });
            }
            enums.push(EnumDecl {
                name: k.clone(),
                variants: variants.into_iter().map(String::from).collect(),
            });
        }
    }

    // Records: two passes so records may reference records declared later.
    let mut records: Vec<RecordDecl> = Vec::new();
    let record_tables: Vec<(String, &Table)> = match root.get_table("records") {
        Some(t) => t
            .entries
            .iter()
            .map(|(k, v)| match v {
                TomlValue::Table(rt) => Ok((k.clone(), rt)),
                _ => Err(schema_err("[records]", format!("`{k}` must be a table"))),
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    for (k, _) in &record_tables {
        if records.iter().any(|r| r.name == *k) || enums.iter().any(|e| e.name == *k) {
            return Err(InvalidSpec::DuplicateName {
                context: "[records]".into(),
                name: k.clone(),
            });
        }
        records.push(RecordDecl {
            name: k.clone(),
            fields: Vec::new(),
        });
    }
    for (k, rt) in &record_tables {
        let fields = rt.get_str_array("fields").ok_or_else(|| {
            schema_err("[records]", format!("`{k}` needs a `fields` string array"))
        })?;
        let mut parsed = Vec::new();
        for f in fields {
            let (fname, ftype) = split_decl(f, &format!("[records.{k}]"))?;
            if parsed.iter().any(|(n, _)| *n == fname) {
                return Err(InvalidSpec::DuplicateName {
                    context: format!("[records.{k}]"),
                    name: fname,
                });
            }
            let ty = parse_type(&ftype, &enums, &records, &format!("[records.{k}]"))?;
            parsed.push((fname, ty));
        }
        let idx = records
            .iter()
            .position(|r| r.name == *k)
            .expect("pre-registered");
        records[idx].fields = parsed;
    }

    // Variables.
    let vars_table = root
        .get_table("vars")
        .ok_or_else(|| schema_err("[vars]", "missing section"))?;
    let mut vars = Vec::new();
    for (k, v) in &vars_table.entries {
        let ty_str = match v {
            TomlValue::Str(s) => s,
            _ => return Err(schema_err("[vars]", format!("`{k}` must be a type string"))),
        };
        if vars.iter().any(|(n, _): &(String, TypeRef)| n == k) {
            return Err(InvalidSpec::DuplicateName {
                context: "[vars]".into(),
                name: k.clone(),
            });
        }
        vars.push((k.clone(), parse_type(ty_str, &enums, &records, "[vars]")?));
    }
    if vars.is_empty() {
        return Err(schema_err(
            "[vars]",
            "a protocol needs at least one variable",
        ));
    }

    // Equivariance contract for the symmetry annotation.
    if symmetry {
        match &vars[0].1 {
            TypeRef::Array(elem) => {
                if type_contains_pid(elem, &records) {
                    return Err(InvalidSpec::NonEquivariant {
                        reason: format!(
                            "the leading array `{}` has pid-typed leaves in its elements, \
                             so rank keys are not permutation covariant",
                            vars[0].0
                        ),
                    });
                }
            }
            _ => {
                return Err(InvalidSpec::NonEquivariant {
                    reason: format!(
                        "`symmetry = true` requires the first variable `{}` to be an \
                         `array[pid] of …` (it anchors the canonicalization signature)",
                        vars[0].0
                    ),
                })
            }
        }
    }

    // Libraries.
    let mut libs = Vec::new();
    if let Some(t) = root.get_table("libs") {
        for (k, _) in &t.entries {
            let actions = t
                .get_str_array(k)
                .ok_or_else(|| schema_err("[libs]", format!("`{k}` must be a string array")))?;
            if actions.is_empty() {
                return Err(schema_err(
                    "[libs]",
                    format!("`{k}` must offer at least one action"),
                ));
            }
            if libs.iter().any(|l: &LibDecl| l.name == *k) {
                return Err(InvalidSpec::DuplicateName {
                    context: "[libs]".into(),
                    name: k.clone(),
                });
            }
            libs.push(LibDecl {
                name: k.clone(),
                actions: actions.into_iter().map(String::from).collect(),
            });
        }
    }

    // Holes.
    let mut holes = Vec::new();
    for h in root.get_table_array("hole") {
        let hname = h
            .get_str("name")
            .ok_or_else(|| schema_err("[[hole]]", "missing `name`"))?;
        let lib_name = h
            .get_str("lib")
            .ok_or_else(|| schema_err("[[hole]]", "missing `lib`"))?;
        if holes.iter().any(|x: &HoleDecl| x.name == hname) {
            return Err(InvalidSpec::DuplicateName {
                context: "[[hole]]".into(),
                name: hname.to_string(),
            });
        }
        let lib = libs
            .iter()
            .position(|l| l.name == lib_name)
            .ok_or_else(|| InvalidSpec::UnknownName {
                context: format!("[[hole]] {hname}"),
                name: lib_name.to_string(),
            })?;
        holes.push(HoleDecl {
            name: hname.to_string(),
            lib,
        });
    }

    // Functions.
    let mut fns = Vec::new();
    for f in root.get_table_array("fn") {
        let fname = f
            .get_str("name")
            .ok_or_else(|| schema_err("[[fn]]", "missing `name`"))?
            .to_string();
        if fns.iter().any(|x: &FnDecl| x.name == fname) {
            return Err(InvalidSpec::DuplicateName {
                context: "[[fn]]".into(),
                name: fname,
            });
        }
        let mut params = Vec::new();
        if let Some(ps) = f.get_str_array("params") {
            for p in ps {
                let (pname, ptype) = split_decl(p, &format!("[[fn]] {fname}"))?;
                params.push((
                    pname,
                    parse_type(&ptype, &enums, &records, &format!("[[fn]] {fname}"))?,
                ));
            }
        }
        let body = match (f.get_str("body"), f.get_str("expr")) {
            (Some(b), None) => FnBody::Stmts(parse_block(b, &format!("fn {fname}"))?),
            (None, Some(e)) => FnBody::Expr(parse_expr(e, &format!("fn {fname}"))?),
            _ => {
                return Err(schema_err(
                    &format!("[[fn]] {fname}"),
                    "needs exactly one of `body` (statements) or `expr`",
                ))
            }
        };
        fns.push(FnDecl {
            name: fname,
            params,
            body,
        });
    }

    // Rules and rulesets, in document order. Standalone [[rule]] entries are
    // rulesets with no binders; their order relative to [[ruleset]] entries
    // follows the TOML entry order of the two keys (rules first if the
    // first [[rule]] appears before the first [[ruleset]]).
    let mut rulesets = Vec::new();
    let mut ordered_sections: Vec<(&str, usize)> = Vec::new();
    for (idx, (k, _)) in root.entries.iter().enumerate() {
        if k == "rule" || k == "ruleset" {
            ordered_sections.push((k.as_str(), idx));
        }
    }
    ordered_sections.sort_by_key(|(_, idx)| *idx);
    for (kind, _) in ordered_sections {
        if kind == "rule" {
            for r in root.get_table_array("rule") {
                rulesets.push(RawRuleSet {
                    binds: Vec::new(),
                    rules: vec![read_rule(r, &[], "[[rule]]")?],
                });
            }
        } else {
            for rs in root.get_table_array("ruleset") {
                let mut binds = Vec::new();
                if let Some(bs) = rs.get_str_array("binds") {
                    for b in bs {
                        binds.push(parse_binder(b, &enums, "[[ruleset]]")?);
                    }
                }
                let rule_tables = rs.get_table_array("rule");
                if rule_tables.is_empty() {
                    return Err(schema_err(
                        "[[ruleset]]",
                        "needs at least one [[ruleset.rule]]",
                    ));
                }
                let mut rules = Vec::new();
                for r in rule_tables {
                    rules.push(read_rule(r, &binds, "[[ruleset.rule]]")?);
                }
                rulesets.push(RawRuleSet { binds, rules });
            }
        }
    }
    if rulesets.is_empty() {
        return Err(schema_err("[[rule]]", "a protocol needs at least one rule"));
    }

    // Properties.
    let mut props = Vec::new();
    for p in root.get_table_array("property") {
        let pname = p
            .get_str("name")
            .ok_or_else(|| schema_err("[[property]]", "missing `name`"))?
            .to_string();
        let kind = match p.get_str("kind") {
            Some("invariant") => PropKind::Invariant,
            Some("reachable") => PropKind::Reachable,
            Some("eventually_quiescent") => PropKind::EventuallyQuiescent,
            other => {
                return Err(schema_err(
                    &format!("[[property]] {pname}"),
                    format!("kind must be invariant|reachable|eventually_quiescent, got {other:?}"),
                ))
            }
        };
        let expr_src = p
            .get_str("expr")
            .ok_or_else(|| schema_err(&format!("[[property]] {pname}"), "missing `expr`"))?;
        props.push(PropDecl {
            kind,
            name: pname.clone(),
            expr: parse_expr(expr_src, &format!("property {pname}"))?,
        });
    }
    if props.is_empty() {
        return Err(schema_err(
            "[[property]]",
            "a protocol needs at least one property",
        ));
    }

    // Goldens.
    let mut golden = SpecGolden::default();
    if let Some(g) = root.get_table("golden") {
        golden.verdict = g.get_str("verdict").map(String::from);
        golden.states = g.get_int("states").map(|i| i as usize);
        golden.transitions = g.get_int("transitions").map(|i| i as usize);
        if let Some(a) = g.get_table("assignment") {
            for (k, v) in &a.entries {
                match v {
                    TomlValue::Str(s) => golden.assignment.push((k.clone(), s.clone())),
                    _ => {
                        return Err(schema_err(
                            "[golden.assignment]",
                            format!("`{k}` must be an action name string"),
                        ))
                    }
                }
            }
        }
        if let Some(s) = g.get_table("synth") {
            golden.synth_evaluated = s.get_int("evaluated").map(|i| i as u64);
            golden.synth_patterns = s.get_int("patterns").map(|i| i as u64);
            golden.synth_solutions = s.get_int("solutions").map(|i| i as usize);
            golden.synth_refined = s.get_bool("refined").unwrap_or(false);
        }
    }
    // Golden assignments must reference declared holes and actions.
    for (hole, action) in &golden.assignment {
        let h = holes
            .iter()
            .find(|h| h.name == *hole)
            .ok_or_else(|| InvalidSpec::UnknownName {
                context: "[golden.assignment]".into(),
                name: hole.clone(),
            })?;
        if !libs[h.lib].actions.iter().any(|a| a == action) {
            return Err(InvalidSpec::UnknownName {
                context: format!("[golden.assignment] {hole}"),
                name: action.clone(),
            });
        }
    }

    Ok((
        RawSpec {
            name,
            pids,
            symmetry,
            consts,
            enums,
            records,
            vars,
            libs,
            holes,
            fns,
            rulesets,
            props,
        },
        golden,
    ))
}

fn read_rule(t: &Table, _binds: &[Binder], context: &str) -> Result<RawRule, InvalidSpec> {
    let name = t
        .get_str("name")
        .ok_or_else(|| schema_err(context, "missing `name`"))?
        .to_string();
    let body_src = t
        .get_str("body")
        .ok_or_else(|| schema_err(&format!("{context} {name}"), "missing `body`"))?;
    Ok(RawRule {
        name_template: name.clone(),
        body: parse_block(body_src, &format!("rule {name}"))?,
    })
}

/// Splits a `"name: type"` declaration string.
fn split_decl(s: &str, context: &str) -> Result<(String, String), InvalidSpec> {
    match s.split_once(':') {
        Some((n, t)) => Ok((n.trim().to_string(), t.trim().to_string())),
        None => Err(schema_err(
            context,
            format!("`{s}` is not a `name: type` pair"),
        )),
    }
}

fn parse_binder(s: &str, enums: &[EnumDecl], context: &str) -> Result<Binder, InvalidSpec> {
    let (name, dom) = split_decl(s, context)?;
    let domain =
        if dom == "pid" {
            BinderDomain::Pid
        } else if dom == "rank" {
            BinderDomain::Rank
        } else {
            // `EnumName` (all variants) or `EnumName in [A, B, …]`.
            let (ename, subset) = match dom.split_once(" in ") {
                Some((e, list)) => (e.trim(), Some(list.trim())),
                None => (dom.as_str(), None),
            };
            let eidx = enums.iter().position(|e| e.name == ename).ok_or_else(|| {
                InvalidSpec::UnknownName {
                    context: context.to_string(),
                    name: ename.to_string(),
                }
            })?;
            let variants = match subset {
                None => (0..enums[eidx].variants.len() as u8).collect(),
                Some(list) => {
                    let inner = list
                        .strip_prefix('[')
                        .and_then(|l| l.strip_suffix(']'))
                        .ok_or_else(|| {
                            schema_err(context, format!("`{dom}`: subset must be `[A, B, …]`"))
                        })?;
                    let mut out = Vec::new();
                    for v in inner.split(',') {
                        let v = v.trim();
                        let vi = enums[eidx]
                            .variants
                            .iter()
                            .position(|x| x == v)
                            .ok_or_else(|| InvalidSpec::UnknownName {
                                context: format!("{context} binder `{name}`"),
                                name: v.to_string(),
                            })?;
                        out.push(vi as u8);
                    }
                    out
                }
            };
            BinderDomain::EnumSubset(eidx, variants)
        };
    Ok(Binder { name, domain })
}

fn parse_type(
    s: &str,
    enums: &[EnumDecl],
    records: &[RecordDecl],
    context: &str,
) -> Result<TypeRef, InvalidSpec> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix("option<").and_then(|x| x.strip_suffix('>')) {
        return Ok(TypeRef::Option(Box::new(parse_type(
            inner, enums, records, context,
        )?)));
    }
    if let Some(inner) = s
        .strip_prefix("multiset<")
        .and_then(|x| x.strip_suffix('>'))
    {
        return Ok(TypeRef::Multiset(Box::new(parse_type(
            inner, enums, records, context,
        )?)));
    }
    if let Some(inner) = s.strip_prefix("array[pid] of ") {
        return Ok(TypeRef::Array(Box::new(parse_type(
            inner, enums, records, context,
        )?)));
    }
    match s {
        "bool" => Ok(TypeRef::Bool),
        "int" => Ok(TypeRef::Int),
        "pid" => Ok(TypeRef::Pid),
        "pidset" => Ok(TypeRef::PidSet),
        name => {
            if let Some(i) = enums.iter().position(|e| e.name == name) {
                Ok(TypeRef::Enum(i))
            } else if let Some(i) = records.iter().position(|r| r.name == name) {
                Ok(TypeRef::Record(i))
            } else {
                Err(InvalidSpec::UnknownName {
                    context: context.to_string(),
                    name: name.to_string(),
                })
            }
        }
    }
}

/// `true` if the type has a pid-valued leaf (pid or pidset) anywhere.
pub(crate) fn type_contains_pid(t: &TypeRef, records: &[RecordDecl]) -> bool {
    // Each record is searched once, so records that contain themselves end.
    fn search(t: &TypeRef, records: &[RecordDecl], seen: &mut [bool]) -> bool {
        match t {
            TypeRef::Bool | TypeRef::Int | TypeRef::Enum(_) | TypeRef::Unknown => false,
            TypeRef::Pid | TypeRef::PidSet => true,
            TypeRef::Option(inner) | TypeRef::Multiset(inner) | TypeRef::Array(inner) => {
                search(inner, records, seen)
            }
            TypeRef::Record(r) => {
                !std::mem::replace(&mut seen[*r], true)
                    && records[*r]
                        .fields
                        .iter()
                        .any(|(_, ft)| search(ft, records, seen))
            }
        }
    }
    search(t, records, &mut vec![false; records.len()])
}

fn check_unique(context: &str, names: &[String]) -> Result<(), InvalidSpec> {
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(InvalidSpec::DuplicateName {
                context: context.to_string(),
                name: n.clone(),
            });
        }
    }
    Ok(())
}
