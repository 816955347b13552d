//! The IR the frontend builds, pinned bit for bit: one FNV-64 per program
//! over the printed module after lowering and SSA construction, folded
//! with every function's instruction-arena length. The printer skips the
//! arena entries mem2reg leaves dead (removed loads and stores), so the
//! lengths pin those too; with the printout they pin `InstId` numbering,
//! φ order, block names and the operands of every live instruction.
//!
//! A change to how the IR is built that should not change the IR (a faster
//! CFG, mem2reg or lowering) must leave these literals alone. One that
//! changes it on purpose moves `pinned_scc_hashes` as well and says why.

use safeflow_corpus::monorepo::{generate_monorepo, MonorepoParams};
use safeflow_ir::print::print_module;
use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::VirtualFs;
use safeflow_util::hash::Fnv64;
use std::hash::Hasher;

/// Preprocesses, parses, lowers and promotes `main` from `fs`, then folds
/// the printed module and each function's arena length into one hash.
fn ir_digest(main: &str, fs: &VirtualFs) -> u64 {
    let parsed = safeflow_syntax::parse_program_jobs(main, fs, 1);
    assert!(parsed.is_ok(), "{main} must parse: {:?}", parsed.diags);
    let mut diags = Diagnostics::new();
    let mut module = safeflow_ir::lower::lower(&parsed.unit, &mut diags);
    safeflow_ir::ssa::promote_module(&mut module);
    let mut h = Fnv64::new();
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
        ("IP", 0xc3fea3930732fa8a),
        ("Generic Simplex", 0xf7023a7571b5a4f7),
        ("Double IP", 0x9e7cd980defacac5),
        ("fig2", 0x996b3767b3bd7d94),
        ("monorepo small", 0x7ead21826cdd6c22),
        ("bench corpus", 0xca1d25d58a342bcf),
    ];
    assert_eq!(got, pinned);
}
