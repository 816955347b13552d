//! Dense per-function fact tables.
//!
//! Analyses that attach a set of facts to every SSA value of every
//! function (phase 1's region pointers, the points-to sets) keep them in a
//! [`FuncTable`]. Per [`FuncId`] it holds one slot per parameter and one
//! per [`InstId`], sized from the function when the table is built. A slot
//! holds an index into an arena of sets, and `0` means "no facts": unset
//! and out-of-range slots, and every value that is neither an instruction
//! result nor a parameter, read as the table's one shared empty set. A
//! lookup is therefore two `Vec` indexings, with nothing hashed.
//!
//! The arena only grows when a slot is first written, so it holds the
//! non-empty sets alone: callers write a slot only to insert into it.
//!
//! # Examples
//!
//! ```
//! use safeflow_ir::{FuncTable, FuncId, InstId, Module, Value};
//! use std::collections::BTreeSet;
//!
//! let mut table: FuncTable<BTreeSet<u32>> = FuncTable::new(&Module::new());
//! // Writes past a function's size grow its slots; reads never fail.
//! table.inst_mut(FuncId(0), InstId(3)).insert(7);
//! assert!(table.get(FuncId(0), &Value::Inst(InstId(3))).contains(&7));
//! assert!(table.get(FuncId(0), &Value::Param(0)).is_empty());
//! assert!(table.get(FuncId(9), &Value::Inst(InstId(3))).is_empty());
//! ```

use crate::module::{FuncId, InstId, Module, Value};

/// A set of facts of type `S` per parameter and per instruction result of
/// every function in a module; see the [module docs](self).
#[derive(Debug, Default)]
pub struct FuncTable<S> {
    funcs: Vec<Slots>,
    sets: Vec<S>,
    empty: S,
}

/// One function's slots: arena index plus one, `0` for no facts.
#[derive(Debug, Default)]
struct Slots {
    params: Vec<u32>,
    insts: Vec<u32>,
}

impl<S: Default> FuncTable<S> {
    /// An empty table with slots for every parameter and instruction of
    /// every function in `module`.
    pub fn new(module: &Module) -> FuncTable<S> {
        let funcs = module
            .functions
            .iter()
            .map(|f| Slots { params: vec![0; f.params.len()], insts: vec![0; f.insts.len()] })
            .collect();
        FuncTable { funcs, sets: Vec::new(), empty: S::default() }
    }

    /// The facts of `value` in `func`: the instruction's or parameter's
    /// set, the empty set for any other value.
    pub fn get(&self, func: FuncId, value: &Value) -> &S {
        match value {
            Value::Inst(id) => self.inst(func, *id),
            Value::Param(i) => self.param(func, *i),
            _ => &self.empty,
        }
    }

    /// The facts of instruction `id`'s result in `func`.
    pub fn inst(&self, func: FuncId, id: InstId) -> &S {
        let slot = self.funcs.get(func.0 as usize).and_then(|s| s.insts.get(id.0 as usize));
        self.set(slot)
    }

    /// The facts of `func`'s parameter `i`.
    pub fn param(&self, func: FuncId, i: u32) -> &S {
        let slot = self.funcs.get(func.0 as usize).and_then(|s| s.params.get(i as usize));
        self.set(slot)
    }

    /// The set of instruction `id`'s result in `func`, for inserting.
    pub fn inst_mut(&mut self, func: FuncId, id: InstId) -> &mut S {
        let slot = grown(&mut slots_mut(&mut self.funcs, func).insts, id.0 as usize);
        arena_set(&mut self.sets, slot)
    }

    /// The set of `func`'s parameter `i`, for inserting (a call may pass
    /// more arguments than a variadic callee declares).
    pub fn param_mut(&mut self, func: FuncId, i: u32) -> &mut S {
        let slot = grown(&mut slots_mut(&mut self.funcs, func).params, i as usize);
        arena_set(&mut self.sets, slot)
    }

    fn set(&self, slot: Option<&u32>) -> &S {
        match slot {
            Some(&n) if n != 0 => &self.sets[n as usize - 1],
            _ => &self.empty,
        }
    }
}

/// `func`'s slots, adding empty functions when `func` is past the end.
fn slots_mut(funcs: &mut Vec<Slots>, func: FuncId) -> &mut Slots {
    let i = func.0 as usize;
    if i >= funcs.len() {
        funcs.resize_with(i + 1, Slots::default);
    }
    &mut funcs[i]
}

/// The arena set behind `slot`, allocated on first write.
fn arena_set<'a, S: Default>(sets: &'a mut Vec<S>, slot: &mut u32) -> &'a mut S {
    if *slot == 0 {
        sets.push(S::default());
        *slot = sets.len() as u32;
    }
    &mut sets[*slot as usize - 1]
}

/// `slots[i]`, growing `slots` with empty slots when `i` is past its end.
fn grown(slots: &mut Vec<u32>, i: usize) -> &mut u32 {
    if i >= slots.len() {
        slots.resize(i + 1, 0);
    }
    &mut slots[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, IrParam};
    use crate::types::Type;
    use safeflow_syntax::span::Span;
    use std::collections::BTreeSet;

    fn module() -> Module {
        let mut m = Module::new();
        m.add_function(Function {
            name: "f".into(),
            ret: Type::VOID,
            params: vec![IrParam { name: "p".into(), ty: Type::int32() }],
            varargs: true,
            insts: Vec::new(),
            blocks: Vec::new(),
            annotations: Vec::new(),
            is_definition: true,
            span: Span::dummy(),
        });
        m
    }

    #[test]
    fn slots_are_independent_and_start_empty() {
        let mut t: FuncTable<BTreeSet<u32>> = FuncTable::new(&module());
        let f = FuncId(0);
        assert!(t.param(f, 0).is_empty());
        t.param_mut(f, 0).insert(1);
        t.inst_mut(f, InstId(0)).insert(2);
        t.inst_mut(f, InstId(0)).insert(3);
        assert_eq!(t.get(f, &Value::Param(0)), &BTreeSet::from([1]));
        assert_eq!(t.get(f, &Value::Inst(InstId(0))), &BTreeSet::from([2, 3]));
        assert!(t.get(f, &Value::i32(0)).is_empty(), "constants have no facts");
        assert_eq!(t.sets.len(), 2, "one arena set per written slot");
    }

    #[test]
    fn writes_past_the_end_grow_and_reads_past_the_end_are_empty() {
        let mut t: FuncTable<BTreeSet<u32>> = FuncTable::new(&module());
        let f = FuncId(0);
        // A variadic callee gets facts for an argument it does not name.
        t.param_mut(f, 3).insert(9);
        assert!(t.param(f, 3).contains(&9));
        assert!(t.param(f, 2).is_empty() && t.param(f, 7).is_empty());
        assert!(t.inst(FuncId(5), InstId(0)).is_empty());
        t.inst_mut(FuncId(5), InstId(2)).insert(4);
        assert!(t.inst(FuncId(5), InstId(2)).contains(&4));
    }
}
