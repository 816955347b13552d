//! Monorepo-scale workload generator: hundreds of translation units,
//! 100k+ LOC, deep shared-header call graphs, and config-macro
//! conditionals — the standing stress corpus for the `sfbench` workloads.
//!
//! The layout imitates generated embedded control code organized as a
//! monorepo:
//!
//! ```text
//! main.c            — root TU: includes everything, initShm, main
//! config.h          — include-guarded config macros (object + function-like)
//! shm.h             — include-guarded Blk typedef, region globals, externs
//! lib.c             — shared helper chain every package bottoms out in
//! pkg{p}/unit{u}.c  — staged helper chain + monitored region reads
//! pkg{p}/api.c      — package facade fanning into its units
//! ```
//!
//! Every unit includes `config.h`/`shm.h` itself (guards make the repeats
//! no-ops), uses the function-like `CFG_SCALE`/`CFG_BIAS` macros in its
//! arithmetic, and wraps some branches in `#if CFG_FEATURE_n` / `#else`
//! conditionals, so the preprocessor sees the macro and conditional
//! traffic real headers generate. Package `p` calls package `p-1`'s API,
//! and every deepest stage calls the shared `lib` chain, so the call
//! graph is both deep (stages × packages + lib depth) and shared.
//!
//! Generation is a pure function of [`MonorepoParams`] — byte-identical
//! across runs and machines, no rng — so bench artifacts are comparable
//! and `--jobs` byte-identity tests can parse the same corpus twice.

/// Shape of a generated monorepo.
#[derive(Debug, Clone, Copy)]
pub struct MonorepoParams {
    /// Number of packages (each calls the previous package's API).
    pub packages: usize,
    /// Translation units per package.
    pub units_per_package: usize,
    /// Staged helper functions per unit (the per-unit call-chain depth).
    pub stages: usize,
    /// Branch statements per stage (path-count + LOC pressure).
    pub branches: usize,
    /// Shared-memory regions declared in `shm.h` (units cycle through them).
    pub regions: usize,
    /// `CFG_FEATURE_n` config macros in `config.h` (conditionals cycle
    /// through them; even-numbered features are on, odd off).
    pub configs: usize,
    /// Depth of the shared `lib.c` helper chain.
    pub lib_depth: usize,
}

impl MonorepoParams {
    /// The bench preset: ≥100 TUs and ≥100k LOC (asserted by tests).
    pub fn bench() -> MonorepoParams {
        MonorepoParams {
            packages: 12,
            units_per_package: 11,
            stages: 18,
            branches: 36,
            regions: 16,
            configs: 8,
            lib_depth: 8,
        }
    }

    /// A small preset for unit tests: same structure, seconds-free scale.
    pub fn small() -> MonorepoParams {
        MonorepoParams {
            packages: 3,
            units_per_package: 2,
            stages: 3,
            branches: 2,
            regions: 4,
            configs: 3,
            lib_depth: 2,
        }
    }
}

impl Default for MonorepoParams {
    fn default() -> Self {
        MonorepoParams::bench()
    }
}

/// Renders the monorepo as `(file name, contents)` pairs, root (`main.c`)
/// first — the same contract as `oracle_gen::generate`, ready to load into
/// a `VirtualFs`.
pub fn generate_monorepo(p: MonorepoParams) -> Vec<(String, String)> {
    let packages = p.packages.max(1);
    let units = p.units_per_package.max(1);
    let stages = p.stages.max(1);
    let regions = p.regions.max(1);
    let configs = p.configs.max(1);
    let lib_depth = p.lib_depth.max(1);

    let mut files: Vec<(String, String)> = Vec::new();

    // --- config.h: the config-macro surface every unit includes. ---
    let mut cfg = String::new();
    cfg.push_str("#ifndef CONFIG_H\n#define CONFIG_H\n");
    cfg.push_str(&format!("#define CFG_PACKAGES {packages}\n"));
    cfg.push_str(&format!("#define CFG_REGIONS {regions}\n"));
    cfg.push_str("#define CFG_SCALE(x) ((x) * 1.03125 + 0.25)\n");
    cfg.push_str("#define CFG_BIAS(b, x) ((x) + (b) * 0.125)\n");
    for i in 0..configs {
        cfg.push_str(&format!("#define CFG_FEATURE_{i} {}\n", 1 - (i % 2)));
    }
    cfg.push_str("#endif\n");
    files.push(("config.h".to_string(), cfg));

    // --- shm.h: shared types + region globals, include-guarded so the
    // hundred-odd includes collapse to one definition. ---
    let mut shm = String::new();
    shm.push_str("#ifndef SHM_H\n#define SHM_H\n");
    shm.push_str("typedef struct Blk { float v; int seq; int flag; int pad; } Blk;\n");
    for r in 0..regions {
        shm.push_str(&format!("Blk *reg{r};\n"));
    }
    shm.push_str("int shmget(int key, int size, int flags);\n");
    shm.push_str("void *shmat(int shmid, void *addr, int flags);\n");
    shm.push_str("void sink(float v);\n");
    shm.push_str("float source(void);\n");
    shm.push_str("#endif\n");
    files.push(("shm.h".to_string(), shm));

    // --- lib.c: the shared chain every package bottoms out in. Its head
    // carries the region-0 monitor so the deep reads stay covered. ---
    let mut lib = String::new();
    lib.push_str("#include \"config.h\"\n#include \"shm.h\"\n\n");
    for d in (0..lib_depth).rev() {
        lib.push_str(&format!("float lib_h{d}(float x, int which)\n"));
        if d == 0 {
            lib.push_str("/** SafeFlow Annotation assume(core(reg0, 0, sizeof(Blk))) */\n");
        }
        lib.push_str("{\n    float acc;\n");
        lib.push_str("    acc = CFG_SCALE(x);\n");
        for b in 0..p.branches.min(4) {
            lib.push_str(&format!(
                "    if (which > {b}) {{ acc = CFG_BIAS({b}, acc); }} else {{ acc = acc - 0.0625; }}\n"
            ));
        }
        if d + 1 < lib_depth {
            lib.push_str(&format!("    acc = acc + lib_h{}(acc, which + 1);\n", d + 1));
        } else {
            lib.push_str("#if CFG_FEATURE_0\n    acc = acc + reg0->v;\n#else\n    acc = acc + reg0->seq;\n#endif\n");
        }
        lib.push_str("    return acc;\n}\n\n");
    }
    files.push(("lib.c".to_string(), lib));

    // --- Packages. ---
    for pk in 0..packages {
        for u in 0..units {
            let r = (pk * units + u) % regions;
            let mut unit = String::new();
            unit.push_str("#include \"config.h\"\n#include \"shm.h\"\n\n");
            for s in (0..stages).rev() {
                unit.push_str(&format!("float p{pk}u{u}_s{s}(float x, int which)\n"));
                if s == 0 {
                    // The chain head monitors this unit's region so every
                    // deeper read is covered — keeps the report bounded as
                    // the corpus scales, like `generate_wide`.
                    unit.push_str(&format!(
                        "/** SafeFlow Annotation assume(core(reg{r}, 0, sizeof(Blk))) */\n"
                    ));
                }
                unit.push_str("{\n    float acc;\n");
                unit.push_str(&format!("    acc = CFG_SCALE(x) + {s}.125;\n"));
                for b in 0..p.branches {
                    // A slice of the branches sits behind config
                    // conditionals, cycling through the feature flags.
                    if b % 5 == 0 {
                        let f = (pk + u + b) % configs;
                        unit.push_str(&format!("#if CFG_FEATURE_{f}\n"));
                        unit.push_str(&format!(
                            "    if (which > {b}) {{ acc = CFG_BIAS({b}, acc); }}\n"
                        ));
                        unit.push_str("#else\n");
                        unit.push_str(&format!("    if (which > {b}) {{ acc = acc - {b}.5; }}\n"));
                        unit.push_str("#endif\n");
                    } else {
                        unit.push_str(&format!(
                            "    if (which > {b}) {{ acc = CFG_BIAS({b}, acc); }} else {{ acc = acc - 0.25; }}\n"
                        ));
                    }
                }
                unit.push_str(&format!("    acc = acc + reg{r}->v;\n"));
                if s + 1 < stages {
                    unit.push_str(&format!(
                        "    acc = acc + p{pk}u{u}_s{}(acc, which + 1);\n",
                        s + 1
                    ));
                } else {
                    // Deepest stage: into the shared lib chain, and into
                    // the previous package's facade (cross-package depth).
                    unit.push_str("    acc = acc + lib_h0(acc, which);\n");
                    if pk > 0 && u == 0 {
                        unit.push_str(&format!("    acc = acc + pkg{}_api(acc);\n", pk - 1));
                    }
                }
                unit.push_str("    return acc;\n}\n\n");
            }
            files.push((format!("pkg{pk}/unit{u}.c"), unit));
        }
        let mut api = String::new();
        api.push_str("#include \"config.h\"\n#include \"shm.h\"\n\n");
        api.push_str(&format!("float pkg{pk}_api(float x)\n{{\n    float u;\n    u = 0.0;\n"));
        for u in 0..units {
            api.push_str(&format!("    u = u + p{pk}u{u}_s0(x, {u});\n"));
        }
        api.push_str("    return u;\n}\n");
        files.push((format!("pkg{pk}/api.c"), api));
    }

    // --- main.c: root TU splicing the whole tree in definition order. ---
    let mut root = String::new();
    root.push_str("/* monorepo corpus root (generated) */\n");
    root.push_str("#include \"config.h\"\n#include \"shm.h\"\n\n");
    root.push_str("void initShm(void)\n/** SafeFlow Annotation shminit */\n{\n");
    root.push_str("    char *cursor;\n    int shmid;\n");
    root.push_str("    shmid = shmget(77, CFG_REGIONS * sizeof(Blk), 0);\n");
    root.push_str("    cursor = (char *) shmat(shmid, 0, 0);\n");
    for r in 0..regions {
        root.push_str(&format!("    reg{r} = (Blk *) cursor;\n"));
        root.push_str("    cursor = cursor + sizeof(Blk);\n");
    }
    root.push_str("    /** SafeFlow Annotation\n");
    for r in 0..regions {
        root.push_str(&format!("        assume(shmvar(reg{r}, sizeof(Blk)))\n"));
    }
    for r in 0..regions {
        root.push_str(&format!("        assume(noncore(reg{r}))\n"));
    }
    root.push_str("    */\n}\n\n");
    root.push_str("#include \"lib.c\"\n");
    // Units must precede their package's api (the facade calls them);
    // package p-1's api must precede package p's units (cross-pkg call).
    for pk in 0..packages {
        for u in 0..units {
            root.push_str(&format!("#include \"pkg{pk}/unit{u}.c\"\n"));
        }
        root.push_str(&format!("#include \"pkg{pk}/api.c\"\n"));
    }
    root.push('\n');
    root.push_str("int main() {\n    float u;\n    float s;\n    initShm();\n    s = source();\n    u = 0.0;\n");
    root.push_str(&format!("    u = u + pkg{}_api(s);\n", packages - 1));
    root.push_str("#if CFG_PACKAGES > 1 && CFG_FEATURE_0\n");
    root.push_str("    u = u + pkg0_api(s);\n");
    root.push_str("#endif\n");
    root.push_str("    /** SafeFlow Annotation assert(safe(u)) */\n");
    root.push_str("    sink(u);\n    return 0;\n}\n");
    files.insert(0, ("main.c".to_string(), root));
    files
}

/// Total corpus LOC, by the workspace LOC convention ([`crate::count_loc`]).
pub fn total_loc(files: &[(String, String)]) -> usize {
    files.iter().map(|(_, t)| crate::count_loc(t)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_root_first() {
        let p = MonorepoParams::small();
        let a = generate_monorepo(p);
        let b = generate_monorepo(p);
        assert_eq!(a, b);
        assert_eq!(a[0].0, "main.c");
    }

    #[test]
    fn small_preset_structure() {
        let files = generate_monorepo(MonorepoParams::small());
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"config.h"));
        assert!(names.contains(&"shm.h"));
        assert!(names.contains(&"lib.c"));
        assert!(names.contains(&"pkg2/unit1.c"));
        assert!(names.contains(&"pkg2/api.c"));
        // Config macros are actually used in the units.
        let unit = &files.iter().find(|(n, _)| n == "pkg0/unit0.c").unwrap().1;
        assert!(unit.contains("CFG_SCALE("));
        assert!(unit.contains("#if CFG_FEATURE_"));
    }

    #[test]
    fn bench_preset_hits_monorepo_scale() {
        let files = generate_monorepo(MonorepoParams::bench());
        let tus = files.iter().filter(|(n, _)| n.ends_with(".c")).count();
        assert!(tus >= 100, "need >=100 TUs, got {tus}");
        let loc = total_loc(&files);
        assert!(loc >= 100_000, "need >=100k LOC, got {loc}");
    }
}
