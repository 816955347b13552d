//! The IR the frontend builds, pinned bit for bit: one stable hash per program
//! over the printed module after lowering and SSA construction, folded
//! with every function's instruction-arena length. The printer skips the
//! arena entries mem2reg leaves dead (removed loads and stores), so the
//! lengths pin those too; with the printout they pin `InstId` numbering,
//! φ order, block names and the operands of every live instruction.
//!
//! A change to how the IR is built that should not change the IR (a faster
//! CFG, mem2reg or lowering) must leave these literals alone. One that
//! changes it on purpose moves `pinned_scc_hashes` as well and says why.
//! A change to the stable hash itself moves these literals,
//! `pinned_scc_hashes` and `pinned_summary_bytes`, and nothing else.

use safeflow_corpus::monorepo::{generate_monorepo, MonorepoParams};
use safeflow_ir::print::print_module;
use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::VirtualFs;
use safeflow_util::hash::StableHasher;
use std::hash::Hasher;

/// Preprocesses, parses, lowers and promotes `main` from `fs`, then folds
/// the printed module and each function's arena length into one hash.
fn ir_digest(main: &str, fs: &VirtualFs) -> u64 {
    let parsed = safeflow_syntax::parse_program_jobs(main, fs, 1);
    assert!(parsed.is_ok(), "{main} must parse: {:?}", parsed.diags);
    let mut diags = Diagnostics::new();
    let mut module = safeflow_ir::lower::lower(&parsed.unit, &mut diags);
    safeflow_ir::ssa::promote_module(&mut module);
    let mut h = StableHasher::new();
    h.write_str(&print_module(&module));
    h.write_u64(module.functions.len() as u64);
    for f in &module.functions {
        h.write_u64(f.insts.len() as u64);
    }
    h.finish()
}

fn single(file: &str, src: &str) -> u64 {
    let mut fs = VirtualFs::new();
    fs.add(file, src);
    ir_digest(file, &fs)
}

fn monorepo(params: MonorepoParams) -> u64 {
    let mut fs = VirtualFs::new();
    for (name, text) in generate_monorepo(params) {
        fs.add(name, text);
    }
    ir_digest("main.c", &fs)
}

#[test]
fn pinned_ir_digests() {
    let mut got: Vec<(&str, u64)> = safeflow_corpus::systems()
        .iter()
        .map(|system| (system.name, single(system.core_file, system.core_source)))
        .collect();
    got.push(("fig2", single("fig2.c", safeflow_corpus::figure2_example())));
    got.push(("monorepo small", monorepo(MonorepoParams::small())));
    got.push((
        "bench corpus",
        monorepo(MonorepoParams { stages: 3, branches: 6, ..MonorepoParams::bench() }),
    ));
    let pinned: [(&str, u64); 6] = [
        ("IP", 0x188f9a3e26eaec45),
        ("Generic Simplex", 0x0260bad56683e9d1),
        ("Double IP", 0x5eae28fd43b41aa9),
        ("fig2", 0xfa33dabf78c6694b),
        ("monorepo small", 0xab4108293c376ebd),
        ("bench corpus", 0xdec652ac3c7f8f76),
    ];
    assert_eq!(got, pinned);
}
