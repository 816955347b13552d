//! Human-readable IR printer, for debugging and golden tests.

use crate::module::*;
use std::fmt::Write as _;

/// Renders the whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    for g in &module.globals {
        let _ = writeln!(out, "global @{}: {}", g.name, module.types.display(g.ty));
    }
    for fid in module.definitions() {
        out.push('\n');
        out.push_str(&print_function(module, fid));
    }
    out
}

/// Renders one function.
pub fn print_function(module: &Module, fid: FuncId) -> String {
    let func = module.function(fid);
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| format!("%arg{}: {}", i, module.types.display(p.ty)))
        .collect();
    let _ = writeln!(
        out,
        "fn @{}({}) -> {} {{",
        func.name,
        params.join(", "),
        module.types.display(func.ret)
    );
    for ann in &func.annotations {
        let _ = writeln!(out, "  ; annotation: {ann:?}");
    }
    for (bid, block) in func.iter_blocks() {
        let _ = writeln!(out, "{bid}: ; {}", block.name);
        for &iid in &block.insts {
            let _ = writeln!(out, "  {}", print_inst(module, func, iid));
        }
        let _ = writeln!(out, "  {}", print_terminator(func, &block.terminator));
    }
    out.push_str("}\n");
    out
}

fn val(v: &Value) -> String {
    match v {
        Value::Inst(id) => format!("%{}", id.0),
        Value::Param(i) => format!("%arg{i}"),
        Value::Global(g) => format!("@g{}", g.0),
        Value::ConstInt(c, _) => format!("{c}"),
        Value::ConstFloat(c, _) => format!("{c:?}"),
        Value::ConstNull(_) => "null".to_string(),
    }
}

fn print_inst(module: &Module, func: &Function, iid: InstId) -> String {
    let inst = func.inst(iid);
    let ty = module.types.display(inst.ty);
    match &inst.kind {
        InstKind::Alloca { ty: t, name } => {
            format!("%{} = alloca {} ; {}", iid.0, module.types.display(*t), name)
        }
        InstKind::Load { ptr } => format!("%{} = load {} <- {}", iid.0, ty, val(ptr)),
        InstKind::Store { ptr, value } => format!("store {} -> {}", val(value), val(ptr)),
        InstKind::FieldAddr { base, struct_id, field } => {
            let layout = module.types.layout(*struct_id);
            let fname = layout.fields.get(*field as usize).map(|f| f.name.as_str()).unwrap_or("?");
            format!("%{} = fieldaddr {}.{}", iid.0, val(base), fname)
        }
        InstKind::ElemAddr { base, index } => {
            format!("%{} = elemaddr {}[{}]", iid.0, val(base), val(index))
        }
        InstKind::Bin { op, lhs, rhs } => {
            format!("%{} = {:?} {}, {}", iid.0, op, val(lhs), val(rhs)).to_lowercase()
        }
        InstKind::Cmp { op, lhs, rhs } => {
            format!("%{} = cmp.{:?} {}, {}", iid.0, op, val(lhs), val(rhs)).to_lowercase()
        }
        InstKind::Cast { kind, value } => {
            format!("%{} = cast.{kind:?} {} to {}", iid.0, val(value), ty)
        }
        InstKind::Call { callee, args } => {
            let name = match callee {
                Callee::Local(f) => format!("@{}", module.function(*f).name),
                Callee::External(n) => format!("@!{n}"),
            };
            let args: Vec<String> = args.iter().map(val).collect();
            format!("%{} = call {}({})", iid.0, name, args.join(", "))
        }
        InstKind::Phi { incoming } => {
            let inc: Vec<String> =
                incoming.iter().map(|(b, v)| format!("[{b}: {}]", val(v))).collect();
            format!("%{} = phi {}", iid.0, inc.join(", "))
        }
        InstKind::AssertSafe { var, value } => {
            format!("assert.safe({var} = {})", val(value))
        }
    }
}

fn print_terminator(_func: &Function, t: &Terminator) -> String {
    match t {
        Terminator::Br(b) => format!("br {b}"),
        Terminator::CondBr { cond, then_bb, else_bb } => {
            format!("condbr {}, {then_bb}, {else_bb}", val(cond))
        }
        Terminator::Switch { value, cases, default } => {
            let arms: Vec<String> = cases.iter().map(|(c, b)| format!("{c}: {b}")).collect();
            format!("switch {} [{}] default {default}", val(value), arms.join(", "))
        }
        Terminator::Ret(Some(v)) => format!("ret {}", val(v)),
        Terminator::Ret(None) => "ret".to_string(),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::ssa::promote_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    #[test]
    fn print_round_trip_smoke() {
        let pr = parse_source(
            "t.c",
            "typedef struct { float c; } D;\nD *g;\nfloat f(int n) { float s = 0.0; int i; for (i = 0; i < n; i++) s = s + g->c; return s; }",
        );
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        promote_module(&mut m);
        let text = print_module(&m);
        assert!(text.contains("fn @f"));
        assert!(text.contains("global @g"));
        assert!(text.contains("phi"));
        assert!(text.contains("fieldaddr"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn print_shows_annotations_and_asserts() {
        let pr = parse_source(
            "t.c",
            r#"
            void send(float v);
            void f(void)
            /** SafeFlow Annotation shminit */
            {
                float x = 1.0;
                /** SafeFlow Annotation assert(safe(x)) */
                send(x);
            }
            "#,
        );
        let mut diags = Diagnostics::new();
        let m = lower(&pr.unit, &mut diags);
        let text = print_module(&m);
        assert!(text.contains("annotation"));
        assert!(text.contains("assert.safe(x"));
    }
}
