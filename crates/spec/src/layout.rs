//! The interpreted state representation: one packed byte string.
//!
//! A [`SpecState`] holds every declared variable's bytes back to back, in
//! declaration order. Each type has a fixed encoding:
//!
//! * `bool`, `int`, `pid` (including `DIR` = n) and enum variant index take
//!   one byte each;
//! * a `pidset` holds n + 1 bits (bit `p` for pid `p`, bit n for `DIR`),
//!   stored big-endian in two bytes when n + 1 > 8;
//! * `option<T>` is a tag byte (0 = none, 1 = some) followed by `T`'s bytes;
//!   `none` is zero-filled to `T`'s size when `T` has a fixed size, and is
//!   the tag alone when it does not;
//! * records and `array[pid] of T` concatenate their fields or elements;
//! * `multiset<T>` holds its elements in ascending order, each prefixed by
//!   a 1 byte, then a 0 terminator.
//!
//! Every encoding is prefix-free, and each one compares, byte by byte, in
//! the order of the structural value it encodes: `none` sorts first, records
//! and arrays compare field by field, and a multiset compares like the
//! sorted `Vec` of its elements with shorter-is-less (its 1-prefixed
//! elements outrank the 0 terminator). The derived `Ord` on the byte string
//! is therefore the order of an equivalent hand-written state struct with
//! `#[derive(Ord)]`, so canonical representatives and golden counts carry
//! over bit for bit. The all-zero encoding of a type is its default value.
//!
//! Types without a multiset have a fixed size; offsets past a
//! variable-size value are found by skipping over it. A record that
//! contains itself, behind an option or a multiset, refers back to its own
//! layout through a link.
//!
//! Symmetry runs on a permutation program compiled once per layout: it
//! remaps pid bytes below n and pidset bits, moves the n blocks of
//! pid-indexed arrays, and re-sorts multisets whose elements hold pids.
//! Pairing a state with its program lets verc3-mck's [`Symmetric`]
//! canonicalizers run unchanged; the signature ranks the n blocks of the
//! leading pid-indexed array.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock, Weak};

use verc3_mck::scalarset::{rank_keys, Symmetric, MAX_SCALARSET};

/// An interpreted protocol state: the packed bytes of every declared
/// variable, in declaration order (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpecState {
    bytes: Vec<u8>,
}

impl SpecState {
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Self {
        SpecState { bytes }
    }

    /// The packed encoding.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Bytes a `pidset` over `n` pids takes: n + 1 bits.
pub(crate) fn pidset_width(n: usize) -> usize {
    if n < 8 {
        1
    } else {
        2
    }
}

/// Reads a one-byte scalar, or a big-endian two-byte pidset.
#[inline]
pub(crate) fn read_word(buf: &[u8], off: usize, width: usize) -> u32 {
    if width == 1 {
        buf[off] as u32
    } else {
        u16::from_be_bytes([buf[off], buf[off + 1]]) as u32
    }
}

/// Writes a word in the encoding [`read_word`] reads.
#[inline]
pub(crate) fn write_word(buf: &mut [u8], off: usize, v: u32, width: usize) {
    if width == 1 {
        buf[off] = v as u8;
    } else {
        buf[off..off + 2].copy_from_slice(&(v as u16).to_be_bytes());
    }
}

/// Appends a word in the encoding [`read_word`] reads.
#[inline]
pub(crate) fn push_word(buf: &mut Vec<u8>, v: u32, width: usize) {
    if width == 1 {
        buf.push(v as u8);
    } else {
        buf.extend_from_slice(&(v as u16).to_be_bytes());
    }
}

/// The byte layout of one type. Children are shared, so clones are
/// cheap.
#[derive(Debug, Clone)]
pub(crate) struct Shape {
    pub kind: Kind,
    /// Byte size, or `None` when a multiset or a record that contains
    /// itself makes the size vary.
    pub size: Option<usize>,
    /// `true` when some permutation may change the encoding: a pid or
    /// pidset leaf, a pid-indexed array, or a link.
    pub variant: bool,
}

/// The type constructors a [`Shape`] distinguishes.
#[derive(Debug, Clone)]
pub(crate) enum Kind {
    /// `bool`, `int` or an enum: one byte no permutation touches.
    Byte,
    /// A pid: one byte, remapped below n.
    Pid,
    /// n + 1 bits, `size` bytes big-endian.
    PidSet,
    Opt(Arc<Shape>),
    Record(Arc<[Shape]>),
    /// A pid-indexed array of `n` elements.
    Array(Arc<Shape>, usize),
    Multi(Arc<Shape>),
    /// A record met again inside its own layout; the cycle passes through
    /// an option or a multiset.
    Link(Link),
}

/// Every record's layout, each set once; [`Link`]s refer back into it.
pub(crate) type Records = [OnceLock<Shape>];

/// Record `index` of a [`Records`] table. The reference is weak, so a
/// record that contains itself makes no reference cycle: whoever holds
/// shapes with links also holds the table.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    table: Weak<Records>,
    index: usize,
}

impl Link {
    pub fn new(table: Weak<Records>, index: usize) -> Self {
        Link { table, index }
    }

    fn same(&self, other: &Link) -> bool {
        Weak::ptr_eq(&self.table, &other.table) && self.index == other.index
    }

    /// The linked record's layout.
    pub fn target(&self) -> Shape {
        let table = self
            .table
            .upgrade()
            .expect("the record table outlives its layouts");
        table[self.index]
            .get()
            .expect("linked records are laid out")
            .clone()
    }
}

impl Shape {
    pub fn byte() -> Shape {
        Shape {
            kind: Kind::Byte,
            size: Some(1),
            variant: false,
        }
    }

    pub fn pid() -> Shape {
        Shape {
            kind: Kind::Pid,
            size: Some(1),
            variant: true,
        }
    }

    pub fn pidset(n: usize) -> Shape {
        Shape {
            kind: Kind::PidSet,
            size: Some(pidset_width(n)),
            variant: true,
        }
    }

    /// `none` is zero-filled to a fixed `T`'s size; before a
    /// variable-size `T` it is the tag alone.
    pub fn opt(inner: Shape) -> Shape {
        Shape {
            size: inner.size.map(|s| s + 1),
            variant: inner.variant,
            kind: Kind::Opt(Arc::new(inner)),
        }
    }

    pub fn record(fields: Vec<Shape>) -> Shape {
        Shape {
            size: fields.iter().map(|f| f.size).sum(),
            variant: fields.iter().any(|f| f.variant),
            kind: Kind::Record(fields.into()),
        }
    }

    pub fn array(elem: Shape, n: usize) -> Shape {
        Shape {
            size: elem.size.map(|s| s * n),
            variant: true,
            kind: Kind::Array(Arc::new(elem), n),
        }
    }

    pub fn multi(elem: Shape) -> Shape {
        Shape {
            size: None,
            variant: elem.variant,
            kind: Kind::Multi(Arc::new(elem)),
        }
    }

    /// A record that contains itself has no fixed size. Whether it holds
    /// pids is not known while it is being laid out, so a link counts as
    /// variant.
    pub fn link(link: Link) -> Shape {
        Shape {
            size: None,
            variant: true,
            kind: Kind::Link(link),
        }
    }

    /// The offset just past the value starting at `off`. Every walk over
    /// variable-size values steps through here, so the fixed-size case is
    /// inlined into the caller.
    #[inline]
    pub fn skip(&self, buf: &[u8], off: usize) -> usize {
        match self.size {
            Some(s) => off + s,
            None => self.skip_var(buf, off),
        }
    }

    fn skip_var(&self, buf: &[u8], off: usize) -> usize {
        match &self.kind {
            Kind::Opt(inner) if buf[off] == 1 => inner.skip(buf, off + 1),
            Kind::Opt(_) => off + 1,
            Kind::Record(fields) => fields.iter().fold(off, |o, f| f.skip(buf, o)),
            Kind::Array(elem, n) => (0..*n).fold(off, |o, _| elem.skip(buf, o)),
            Kind::Multi(elem) => multi_count(elem, buf, off).1 + 1,
            Kind::Link(link) => link.target().skip(buf, off),
            Kind::Byte | Kind::Pid | Kind::PidSet => unreachable!("scalars are fixed-size"),
        }
    }

    /// Length of the type's default (all-zero) encoding.
    pub fn zero_len(&self) -> usize {
        self.size.unwrap_or_else(|| match &self.kind {
            Kind::Opt(_) | Kind::Multi(_) => 1,
            Kind::Record(fields) => fields.iter().map(Shape::zero_len).sum(),
            Kind::Array(elem, n) => n * elem.zero_len(),
            Kind::Link(link) => link.target().zero_len(),
            Kind::Byte | Kind::Pid | Kind::PidSet => unreachable!("scalars are fixed-size"),
        })
    }
}

// ---- Multisets -------------------------------------------------------------

/// The element count of the multiset starting at `off`, and the offset of
/// its terminator.
pub(crate) fn multi_count(elem: &Shape, buf: &[u8], off: usize) -> (usize, usize) {
    let mut o = off;
    let mut k = 0;
    while buf[o] == 1 {
        o = elem.skip(buf, o + 1);
        k += 1;
    }
    (k, o)
}

/// Where `value` goes in the multiset at `off`: the offset of the first
/// element's tag after every element `<= value` (`upper`), or of the first
/// element `>= value` (`!upper`). The element count is not stored, so this
/// is a scan that stops at the first element past the spot.
pub(crate) fn multi_search(
    elem: &Shape,
    buf: &[u8],
    off: usize,
    value: &[u8],
    upper: bool,
) -> usize {
    let mut o = off;
    while buf[o] == 1 {
        let end = elem.skip(buf, o + 1);
        match buf[o + 1..end].cmp(value) {
            Ordering::Less => {}
            Ordering::Equal if upper => {}
            _ => break,
        }
        o = end;
    }
    o
}

/// Sorts the 1-prefixed elements that make up `region` into ascending
/// order: an insertion sort that rotates each element into place, so it
/// needs no buffer.
fn sort_elems(elem: &Shape, region: &mut [u8]) {
    let mut a = 0;
    while a < region.len() {
        let b = elem.skip(region, a + 1);
        // The first earlier element greater than this one.
        let mut at = 0;
        while at < a {
            let end = elem.skip(region, at + 1);
            if region[at..end] > region[a..b] {
                break;
            }
            at = end;
        }
        region[at..b].rotate_right(b - a);
        a = b;
    }
}

// ---- Symmetry --------------------------------------------------------------

/// One step of a permutation program. The program patches a copy of the
/// state in place, so invariant bytes are just stepped over.
#[derive(Debug, Clone)]
enum POp {
    /// `len` fixed bytes with pid bytes at these offsets to remap.
    Mapped { len: usize, pids: Vec<usize> },
    /// One variable-size, permutation-invariant value.
    Invariant(Shape),
    /// Remap the bits below n of a pidset this many bytes wide.
    PidSet(usize),
    /// A tag byte; `none` is followed by `fill` zero bytes, `some` runs
    /// `body`.
    Opt { fill: usize, body: Vec<POp> },
    /// Element `i` of a pid-indexed array moves to block `perm[i]`.
    Array { elem: Shape, body: Vec<POp> },
    /// Permute every element, then restore ascending order.
    Multi { elem: Shape, body: Vec<POp> },
    /// Run the program of the linked record at this position of the
    /// program's links.
    Link(usize),
}

/// The programs of linked records.
type LinkOps = Vec<(Link, Vec<POp>)>;

/// The pid-byte offsets of a fixed-size shape built from bytes, pids and
/// records only; `None` for any other shape.
fn pid_bytes(shape: &Shape, base: usize, out: &mut Vec<usize>) -> Option<()> {
    match &shape.kind {
        Kind::Byte => Some(()),
        Kind::Pid => {
            out.push(base);
            Some(())
        }
        Kind::Record(fields) => {
            let mut o = base;
            for f in fields.iter() {
                pid_bytes(f, o, out)?;
                o += f.size?;
            }
            Some(())
        }
        _ if !shape.variant && shape.size.is_some() => Some(()),
        _ => None,
    }
}

fn compile_perm(shape: &Shape, ops: &mut Vec<POp>, links: &mut LinkOps) {
    let mut pids = Vec::new();
    if let (Some(len), Some(())) = (shape.size, pid_bytes(shape, 0, &mut pids)) {
        match ops.last_mut() {
            Some(POp::Mapped { len: k, pids: prev }) => {
                prev.extend(pids.iter().map(|p| p + *k));
                *k += len;
            }
            _ => ops.push(POp::Mapped { len, pids }),
        }
        return;
    }
    if !shape.variant {
        ops.push(POp::Invariant(shape.clone()));
        return;
    }
    fn sub(inner: &Shape, links: &mut LinkOps) -> Vec<POp> {
        let mut body = Vec::new();
        compile_perm(inner, &mut body, links);
        body
    }
    match &shape.kind {
        Kind::PidSet => ops.push(POp::PidSet(shape.size.expect("pidsets are fixed-size"))),
        Kind::Opt(inner) => ops.push(POp::Opt {
            fill: inner.size.unwrap_or(0),
            body: sub(inner, links),
        }),
        Kind::Record(fields) => fields.iter().for_each(|f| compile_perm(f, ops, links)),
        Kind::Array(elem, _) => ops.push(POp::Array {
            elem: (**elem).clone(),
            body: sub(elem, links),
        }),
        Kind::Multi(elem) => ops.push(POp::Multi {
            elem: (**elem).clone(),
            body: sub(elem, links),
        }),
        Kind::Link(link) => {
            let k = match links.iter().position(|(l, _)| l.same(link)) {
                Some(k) => k,
                None => {
                    // Registered before it is compiled: the record links to
                    // itself.
                    links.push((link.clone(), Vec::new()));
                    let k = links.len() - 1;
                    links[k].1 = sub(&link.target(), links);
                    k
                }
            };
            ops.push(POp::Link(k));
        }
        Kind::Byte | Kind::Pid => unreachable!("scalars are mapped"),
    }
}

/// Remaps the pid bytes at offsets `pids` from `at`.
fn remap(out: &mut [u8], at: usize, pids: &[usize], perm: &[u8]) {
    for &p in pids {
        let v = out[at + p];
        if let Some(&to) = perm.get(v as usize) {
            out[at + p] = to;
        }
    }
}

/// One application of a permutation program.
struct Run<'a> {
    src: &'a [u8],
    perm: &'a [u8],
    /// The inverse of `perm`.
    inv: &'a [u8],
    links: &'a LinkOps,
}

impl Run<'_> {
    /// Rewrites `out[i..]`, an unpermuted copy of the value at
    /// `src[i + delta..]`, into its image; returns the offset just past the
    /// value. Permutation preserves every length, so only pid-indexed
    /// array blocks move and only multisets re-sort; everything else is
    /// patched in place.
    fn ops(&self, ops: &[POp], out: &mut [u8], mut i: usize, delta: isize) -> usize {
        for op in ops {
            match op {
                POp::Mapped { len, pids } => {
                    remap(out, i, pids, self.perm);
                    i += len;
                }
                POp::Invariant(shape) => i = shape.skip(out, i),
                POp::PidSet(w) => {
                    let bits = read_word(out, i, *w);
                    let mut mapped = bits & !((1u32 << self.perm.len()) - 1);
                    for (p, &to) in self.perm.iter().enumerate() {
                        mapped |= ((bits >> p) & 1) << to;
                    }
                    write_word(out, i, mapped, *w);
                    i += w;
                }
                POp::Opt { fill, body } => {
                    i = if out[i] == 0 {
                        i + 1 + fill
                    } else {
                        self.ops(body, out, i + 1, delta)
                    };
                }
                POp::Array { elem, body } => {
                    // Block j of the image is source block inv[j].
                    let mut starts = [0usize; MAX_SCALARSET + 1];
                    starts[0] = i.wrapping_add_signed(delta);
                    for k in 0..self.perm.len() {
                        starts[k + 1] = elem.skip(self.src, starts[k]);
                    }
                    for &from in self.inv {
                        let (a, b) = (starts[from as usize], starts[from as usize + 1]);
                        let d = a as isize - i as isize;
                        if d != delta {
                            out[i..i + b - a].copy_from_slice(&self.src[a..b]);
                        }
                        i = self.ops(body, out, i, d);
                    }
                }
                POp::Multi { elem, body } => {
                    let begin = i;
                    while out[i] == 1 {
                        i = self.ops(body, out, i + 1, delta);
                    }
                    sort_elems(elem, &mut out[begin..i]);
                    i += 1;
                }
                POp::Link(k) => i = self.ops(&self.links[*k].1, out, i, delta),
            }
        }
        i
    }
}

/// A state layout's symmetry: the permutation program over its variables
/// and the leading pid-indexed array the signature ranks.
#[derive(Debug, Clone)]
pub(crate) struct PermProgram {
    n: usize,
    ops: Vec<POp>,
    links: LinkOps,
    /// Element shape of the first variable, when it is a pid-indexed array.
    leading: Option<Shape>,
}

impl PermProgram {
    /// Compiles the program for a state whose variables have `vars` shapes.
    pub fn new(vars: &[Shape], n: usize) -> Self {
        let (mut ops, mut links) = (Vec::new(), Vec::new());
        vars.iter()
            .for_each(|v| compile_perm(v, &mut ops, &mut links));
        let leading = match vars.first().map(|v| &v.kind) {
            Some(Kind::Array(elem, len)) if *len == n => Some((**elem).clone()),
            _ => None,
        };
        PermProgram {
            n,
            ops,
            links,
            leading,
        }
    }

    /// Writes the image of `src` under `perm` into `out`.
    pub fn permute_into(&self, src: &[u8], perm: &[u8], out: &mut Vec<u8>) {
        debug_assert_eq!(perm.len(), self.n, "one image per pid");
        let mut inv = [0u8; MAX_SCALARSET];
        for (i, &p) in perm.iter().enumerate() {
            inv[p as usize] = i as u8;
        }
        out.clear();
        out.extend_from_slice(src);
        let run = Run {
            src,
            perm,
            inv: &inv[..perm.len()],
            links: &self.links,
        };
        let end = run.ops(&self.ops, out, 0, 0);
        debug_assert_eq!(end, src.len(), "the program covers the whole state");
    }

    /// Rank keys over the n blocks of the leading pid-indexed array, or n
    /// zeros when the first variable is not one.
    pub fn signature(&self, src: &[u8], keys: &mut Vec<u64>) {
        let Some(elem) = &self.leading else {
            keys.clear();
            keys.resize(self.n, 0);
            return;
        };
        let mut blocks: [&[u8]; MAX_SCALARSET] = [&[]; MAX_SCALARSET];
        let mut o = 0;
        for block in blocks.iter_mut().take(self.n) {
            let end = elem.skip(src, o);
            *block = &src[o..end];
            o = end;
        }
        rank_keys(&blocks[..self.n], keys);
    }
}

/// A state paired with its layout's [`PermProgram`]: the form verc3-mck's
/// canonicalizers permute. Compares by the state alone.
#[derive(Debug, Clone)]
pub(crate) struct Laid<'p> {
    pub program: &'p PermProgram,
    pub state: SpecState,
}

impl PartialEq for Laid<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
    }
}

impl Eq for Laid<'_> {}

impl PartialOrd for Laid<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Laid<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.state.cmp(&other.state)
    }
}

impl Symmetric for Laid<'_> {
    fn apply_perm(&self, perm: &[u8]) -> Self {
        let mut out = Laid {
            program: self.program,
            state: SpecState::default(),
        };
        self.apply_perm_into(perm, &mut out);
        out
    }

    fn apply_perm_into(&self, perm: &[u8], out: &mut Self) {
        out.program = self.program;
        self.program
            .permute_into(&self.state.bytes, perm, &mut out.state.bytes);
    }

    fn signature(&self, n: usize, keys: &mut Vec<u64>) {
        debug_assert_eq!(n, self.program.n);
        self.program.signature(&self.state.bytes, keys);
    }
}

#[cfg(test)]
mod tests {
    //! The layout's laws, checked against a small structural model: a
    //! value tree whose derived `Ord` is the order a hand-written state
    //! struct would have.
    use super::*;
    use proptest::prelude::*;

    /// A structural value; within one shape every position holds the same
    /// variant, so the derived `Ord` reduces to the payload order.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum V {
        Byte(u8),
        Pid(u8),
        Set(u16),
        Opt(Option<Box<V>>),
        Rec(Vec<V>),
        Arr(Vec<V>),
        /// Sorted, like a `Multiset`.
        Multi(Vec<V>),
    }

    /// splitmix64: a deterministic stream from the proptest-drawn seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: u64) -> u64 {
            self.next() % k
        }

        fn perm(&mut self, n: usize) -> Vec<u8> {
            let mut p: Vec<u8> = (0..n as u8).collect();
            for i in (1..n).rev() {
                p.swap(i, self.below(i as u64 + 1) as usize);
            }
            p
        }
    }

    /// A random shape; `pid_free` keeps pids, pidsets and arrays out.
    /// `keep` holds the tables of the records that contain themselves.
    fn shape(
        rng: &mut Rng,
        n: usize,
        depth: u32,
        pid_free: bool,
        keep: &mut Vec<Arc<Records>>,
    ) -> Shape {
        let leaf = depth == 0 || rng.below(3) == 0;
        let mut sub = |rng: &mut Rng| shape(rng, n, depth - 1, pid_free, keep);
        match rng.below(if leaf { 3 } else { 8 }) {
            0 => Shape::byte(),
            1 if !pid_free => Shape::pid(),
            2 if !pid_free => Shape::pidset(n),
            1 | 2 => Shape::byte(),
            3 => Shape::opt(sub(rng)),
            4 => {
                let k = 1 + rng.below(3);
                Shape::record((0..k).map(|_| sub(rng)).collect())
            }
            5 if !pid_free => Shape::array(sub(rng), n),
            6 => {
                // A record holding itself behind an option or a multiset.
                let table: Arc<Records> = Arc::from(vec![OnceLock::new()]);
                let link = Shape::link(Link::new(Arc::downgrade(&table), 0));
                let back = match rng.below(2) {
                    0 => Shape::opt(link),
                    _ => Shape::multi(link),
                };
                let node = Shape::record(vec![sub(rng), back]);
                table[0].set(node.clone()).expect("a fresh table");
                keep.push(table);
                node
            }
            _ => Shape::multi(sub(rng)),
        }
    }

    /// How deep options and multisets nest in generated values.
    const DEPTH: u32 = 4;

    /// A random value; options and multisets nest at most `depth` deep.
    fn value(rng: &mut Rng, s: &Shape, n: usize, depth: u32) -> V {
        match &s.kind {
            Kind::Byte => V::Byte(rng.below(3) as u8),
            // Pids up to and including DIR = n.
            Kind::Pid => V::Pid(rng.below(n as u64 + 1) as u8),
            Kind::PidSet => V::Set(rng.below(1 << (n + 1)) as u16),
            Kind::Opt(inner) => match depth.min(rng.below(2) as u32) {
                0 => V::Opt(None),
                _ => V::Opt(Some(Box::new(value(rng, inner, n, depth - 1)))),
            },
            Kind::Record(fields) => {
                V::Rec(fields.iter().map(|f| value(rng, f, n, depth)).collect())
            }
            Kind::Array(elem, len) => {
                V::Arr((0..*len).map(|_| value(rng, elem, n, depth)).collect())
            }
            Kind::Multi(elem) => {
                let k = if depth == 0 { 0 } else { rng.below(4) };
                let mut items: Vec<V> = (0..k).map(|_| value(rng, elem, n, depth - 1)).collect();
                items.sort();
                V::Multi(items)
            }
            Kind::Link(link) => value(rng, &link.target(), n, depth),
        }
    }

    fn encode(v: &V, s: &Shape, out: &mut Vec<u8>) {
        match (v, &s.kind) {
            (V::Byte(b) | V::Pid(b), _) => out.push(*b),
            (V::Set(bits), _) => push_word(out, *bits as u32, s.size.unwrap()),
            (V::Opt(None), Kind::Opt(inner)) => {
                out.push(0);
                out.resize(out.len() + inner.size.unwrap_or(0), 0);
            }
            (V::Opt(Some(x)), Kind::Opt(inner)) => {
                out.push(1);
                encode(x, inner, out);
            }
            (V::Rec(xs), Kind::Record(fields)) => xs
                .iter()
                .zip(fields.iter())
                .for_each(|(x, f)| encode(x, f, out)),
            (V::Arr(xs), Kind::Array(elem, _)) => xs.iter().for_each(|x| encode(x, elem, out)),
            (V::Multi(xs), Kind::Multi(elem)) => {
                for x in xs {
                    out.push(1);
                    encode(x, elem, out);
                }
                out.push(0);
            }
            (v, Kind::Link(link)) => encode(v, &link.target(), out),
            _ => unreachable!("value does not fit its shape"),
        }
    }

    fn bytes(v: &V, s: &Shape) -> Vec<u8> {
        let mut out = Vec::new();
        encode(v, s, &mut out);
        out
    }

    /// The structural permutation: pids below n and pidset bits remap,
    /// arrays move element i to perm[i], multisets re-sort.
    fn permute(v: &V, perm: &[u8]) -> V {
        let n = perm.len();
        match v {
            V::Byte(b) => V::Byte(*b),
            V::Pid(p) => V::Pid(perm.get(*p as usize).copied().unwrap_or(*p)),
            V::Set(bits) => {
                let mut out = bits & !((1u16 << n) - 1);
                for (p, &to) in perm.iter().enumerate() {
                    out |= ((bits >> p) & 1) << to;
                }
                V::Set(out)
            }
            V::Opt(x) => V::Opt(x.as_ref().map(|x| Box::new(permute(x, perm)))),
            V::Rec(xs) => V::Rec(xs.iter().map(|x| permute(x, perm)).collect()),
            V::Arr(xs) => {
                let mut out = xs.clone();
                for (i, x) in xs.iter().enumerate() {
                    out[perm[i] as usize] = permute(x, perm);
                }
                V::Arr(out)
            }
            V::Multi(xs) => {
                let mut out: Vec<V> = xs.iter().map(|x| permute(x, perm)).collect();
                out.sort();
                V::Multi(out)
            }
        }
    }

    /// DIR occurrences: pid bytes equal to n and pidset bit n.
    fn dirs(v: &V, n: usize) -> usize {
        match v {
            V::Byte(_) => 0,
            V::Pid(p) => (*p as usize == n) as usize,
            V::Set(bits) => ((bits >> n) & 1) as usize,
            V::Opt(x) => x.as_ref().map_or(0, |x| dirs(x, n)),
            V::Rec(xs) | V::Arr(xs) | V::Multi(xs) => xs.iter().map(|x| dirs(x, n)).sum(),
        }
    }

    /// A random state layout (a record of variables) and a value of it.
    /// With `leading`, the first variable is a pid-indexed array with
    /// pid-free elements, as the equivariance contract requires.
    fn state(
        rng: &mut Rng,
        n: usize,
        leading: bool,
        keep: &mut Vec<Arc<Records>>,
    ) -> (Vec<Shape>, V) {
        let mut vars = Vec::new();
        if leading {
            vars.push(Shape::array(shape(rng, n, 2, true, keep), n));
        }
        for _ in 0..1 + rng.below(3) {
            vars.push(shape(rng, n, 3, false, keep));
        }
        let whole = Shape::record(vars.clone());
        let v = value(rng, &whole, n, DEPTH);
        (vars, v)
    }

    fn laid<'p>(program: &'p PermProgram, v: &V, whole: &Shape) -> Laid<'p> {
        Laid {
            program,
            state: SpecState::from_bytes(bytes(v, whole)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_order_is_structural_order(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(8) as usize;
            let mut keep = Vec::new();
            let s = shape(&mut rng, n, 4, false, &mut keep);
            let (a, b) = (value(&mut rng, &s, n, DEPTH), value(&mut rng, &s, n, DEPTH));
            let (ea, eb) = (bytes(&a, &s), bytes(&b, &s));
            prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
            prop_assert_eq!(s.skip(&ea, 0), ea.len());
            // All zeros is the default value, and it is self-delimiting.
            prop_assert_eq!(s.skip(&vec![0; s.zero_len()], 0), s.zero_len());
        }

        #[test]
        fn permutation_matches_the_structural_group_action(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(8) as usize;
            let mut keep = Vec::new();
            let (vars, v) = state(&mut rng, n, false, &mut keep);
            let whole = Shape::record(vars.clone());
            let program = PermProgram::new(&vars, n);
            let s = laid(&program, &v, &whole);
            let (p, q) = (rng.perm(n), rng.perm(n));
            let pv = permute(&v, &p);
            // The program is the structural permutation (so multisets come
            // out sorted), and DIR stays put.
            prop_assert_eq!(s.apply_perm(&p).state.bytes, bytes(&pv, &whole));
            prop_assert_eq!(dirs(&pv, n), dirs(&v, n));
            // Identity, and (s·p)·q == s·(q∘p).
            let id: Vec<u8> = (0..n as u8).collect();
            prop_assert_eq!(s.apply_perm(&id).state, s.state.clone());
            let qp: Vec<u8> = (0..n).map(|i| q[p[i] as usize]).collect();
            prop_assert_eq!(s.apply_perm(&p).apply_perm(&q).state, s.apply_perm(&qp).state);
            // A dirty recycled buffer makes no difference.
            let mut out = laid(&program, &permute(&v, &q), &whole);
            s.apply_perm_into(&p, &mut out);
            prop_assert_eq!(out.state.bytes, bytes(&pv, &whole));
        }

        #[test]
        fn signature_keys_are_equivariant(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(8) as usize;
            let mut keep = Vec::new();
            let (vars, v) = state(&mut rng, n, true, &mut keep);
            let whole = Shape::record(vars.clone());
            let program = PermProgram::new(&vars, n);
            let s = laid(&program, &v, &whole);
            let p = rng.perm(n);
            let (mut base, mut keys) = (Vec::new(), Vec::new());
            s.signature(n, &mut base);
            s.apply_perm(&p).signature(n, &mut keys);
            prop_assert_eq!(base.len(), n);
            for i in 0..n {
                prop_assert_eq!(keys[p[i] as usize], base[i]);
            }
            // Canonicalization picks one representative per orbit.
            let canon = s.canonicalize_auto(n);
            prop_assert_eq!(s.apply_perm(&p).canonicalize_auto(n).state, canon.state);
        }
    }
}
