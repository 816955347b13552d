//! String interning: `Symbol(u32)` keys for identifiers and literals.
//!
//! The frontend lexes straight off the source buffer and interns each
//! identifier/string slice once; everything downstream (AST, parser
//! scopes, lowering) carries a copyable [`Symbol`] instead of an owned
//! `String`. Two interfaces:
//!
//! * [`Interner`] — an owned instance. Symbol ids are **deterministic in
//!   insertion order**: two interners fed the same strings in the same
//!   order assign identical ids. This is the determinism the property
//!   tests pin.
//! * [`Symbol::intern`] / [`Symbol::as_str`] — the process-global interner
//!   (an `Interner` behind a `Mutex`), used by the lexer. Under parallel
//!   translation-unit lexing the *numeric* ids depend on thread
//!   interleaving, so global ids are only promised to be **stable** (the
//!   same string always maps to the same `Symbol` within a process) —
//!   never to be reproducible across runs. Nothing in the byte-identity
//!   contract may order or print raw symbol ids; canonical output must go
//!   through [`Symbol::as_str`].
//!
//! Storage lives in a [`crate::arena::Bump`], so interning a novel string
//! costs one bump-copy and a [`crate::hash::StableHasher`]-hashed map insert; a
//! repeat costs only the lookup.

use crate::arena::Bump;
use crate::hash::StableMap;
use std::sync::{Mutex, OnceLock};

/// An interned string key. `Copy`, 4 bytes, O(1) equality.
///
/// Symbols obtained from [`Symbol::intern`] resolve via
/// [`Symbol::as_str`]; symbols from an owned [`Interner`] resolve through
/// that interner. The two id spaces are unrelated — do not mix them.
/// A symbol has no order (its id depends on interning order): sort by
/// [`Symbol::as_str`]. `Debug` and `Display` print the string, never the id.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `s` in the process-global interner.
    pub fn intern(s: &str) -> Symbol {
        global().lock().expect("interner lock").intern(s)
    }

    /// Resolves a globally-interned symbol. Takes the global interner's
    /// lock, so hot loops compare symbols rather than strings.
    ///
    /// The `'static` lifetime is real: the global interner's arena is
    /// never dropped.
    pub fn as_str(self) -> &'static str {
        let g = global().lock().expect("interner lock");
        // SAFETY of the transmute-free 'static claim: `g` is the global
        // interner, which lives (leaked in a `OnceLock`) for the whole
        // process, and its arena never frees or moves storage.
        let s: &str = g.resolve(self);
        unsafe { std::mem::transmute::<&str, &'static str>(s) }
    }

    /// The raw id (for index-map use; not stable across runs for globally
    /// interned symbols under parallel lexing).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Prints exactly what the string's `Debug` prints, as a `String` field would.
impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// An owned string interner with insertion-order-deterministic ids.
#[derive(Debug, Default)]
pub struct Interner {
    arena: Bump,
    /// Keys borrow from `arena`; the `'static` is an internal lifetime
    /// erasure, never exposed — see the SAFETY note in [`Interner::intern`].
    lookup: StableMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning the existing symbol if `s` was seen before.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.lookup.get(s) {
            return Symbol(id);
        }
        let stored = self.arena.alloc_str(s);
        // SAFETY: `stored` points into `self.arena`, whose chunks never
        // move or free while `self` lives. The erased-lifetime reference
        // never escapes: `resolve` reborrows it at `&self`'s lifetime, and
        // dropping the interner drops map and table before any use.
        let stored: &'static str = unsafe { std::mem::transmute::<&str, &'static str>(stored) };
        let id = self.strings.len() as u32;
        self.strings.push(stored);
        self.lookup.insert(stored, id);
        Symbol(id)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner's id space.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.strings[sym.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of string payload held by the arena.
    pub fn allocated_bytes(&self) -> usize {
        self.arena.allocated_bytes()
    }
}

fn global() -> &'static Mutex<Interner> {
    static GLOBAL: OnceLock<Mutex<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Interner::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut i = Interner::new();
        let a = i.intern("feedback");
        let b = i.intern("noncoreCtrl");
        let a2 = i.intern("feedback");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "feedback");
        assert_eq!(i.resolve(b), "noncoreCtrl");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn global_symbols_are_stable() {
        let a = Symbol::intern("global_stability_probe");
        let b = Symbol::intern("global_stability_probe");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "global_stability_probe");
    }

    #[test]
    fn debug_prints_the_string() {
        for s in ["feedback", "", "a\"b", "line\n", "back\\slash"] {
            assert_eq!(format!("{:?}", Symbol::intern(s)), format!("{s:?}"));
        }
    }

    #[test]
    fn ids_are_insertion_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a").index(), 0);
        assert_eq!(i.intern("b").index(), 1);
        assert_eq!(i.intern("a").index(), 0);
    }
}
