//! The scaled module: many seeded `fuzz::gen` programs merged into one
//! MiniC source, each part's globals, helpers and `main` moved into a
//! namespace of its own, and an entry `main` that calls every part.

use crate::report::{mix, shuffle};
use fuzz::ast::{Global, Program};
use std::collections::HashSet;

/// Lowered (unoptimized) IL instructions the module `compile-scaled` and
/// `edit-loop` compile must reach: about 60 parts, 130–165 functions and
/// 120 KB of source. Sizing by instructions rather than by part count
/// keeps the module's size, and so its compile time, nearly the same for
/// every seed.
pub const TARGET_INSTRS: usize = 20_000;

/// Generated programs that execute more operations than this, unoptimized,
/// are left out. The operation counts of generated programs are
/// heavy-tailed (a few run for over 10^8 operations); the bound keeps the
/// module's reference run, and its memory, small for every seed.
const PART_MAX_STEPS: u64 = 100_000;

pub struct ScaledModule {
    parts: Vec<Program>,
    /// Each part rendered and namespaced, kept so an edit re-renders only
    /// the part it touches.
    rendered: Vec<String>,
}

impl ScaledModule {
    /// Draws programs from seeds derived from `seed`, keeping those that
    /// compile and finish within [`PART_MAX_STEPS`], until their lowered
    /// instructions reach `target_instrs`.
    pub fn generate(target_instrs: usize, seed: u64) -> ScaledModule {
        let mut m = ScaledModule {
            parts: Vec::new(),
            rendered: Vec::new(),
        };
        let options = vm::VmOptions {
            max_steps: PART_MAX_STEPS,
            ..vm::VmOptions::default()
        };
        let mut instrs = 0;
        let mut draw = 0;
        while instrs < target_instrs {
            // About one draw in ten is left out; a generator that keeps
            // failing is broken, and the run stops instead of spinning.
            assert!(draw < 100_000, "generated programs keep failing to run");
            let part = fuzz::generate(mix(seed ^ mix(draw)));
            draw += 1;
            let Ok(lowered) = minic::compile(&part.render()) else {
                continue;
            };
            if vm::Vm::run_main(&lowered, options.clone()).is_err() {
                continue;
            }
            instrs += lowered.instr_count();
            m.rendered.push(namespaced(&part, m.parts.len()));
            m.parts.push(part);
        }
        m
    }

    pub fn parts(&self) -> usize {
        self.parts.len()
    }

    /// The merged MiniC source.
    pub fn source(&self) -> String {
        let mut out = String::with_capacity(self.rendered.iter().map(String::len).sum::<usize>());
        for part in &self.rendered {
            out.push_str(part);
            out.push('\n');
        }
        out.push_str("int main() {\n");
        for k in 0..self.parts.len() {
            out.push_str(&format!("    {}();\n", prefixed(k, "main")));
        }
        out.push_str("    return 0;\n}\n");
        out
    }

    /// Applies one single-function edit (`fuzz::mutate`) to part `part`.
    /// Returns whether the part's text changed.
    pub fn edit(&mut self, part: usize, mutate_seed: u64) -> bool {
        let mutated = fuzz::mutate(&self.parts[part], mutate_seed);
        let text = namespaced(&mutated, part);
        let changed = text != self.rendered[part];
        self.parts[part] = mutated;
        self.rendered[part] = text;
        changed
    }
}

fn prefixed(part: usize, name: &str) -> String {
    format!("p{part}_{name}")
}

/// Renders `program` with every module-level name (globals, helpers,
/// `main`) prefixed by the part's namespace. Locals and parameters are
/// function-scoped and keep their names.
fn namespaced(program: &Program, part: usize) -> String {
    let mut names: HashSet<&str> = program
        .globals
        .iter()
        .map(Global::name)
        .chain(program.helpers.iter().map(|h| h.name.as_str()))
        .collect();
    names.insert("main");
    let text = program.render();
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let mut rest = text.as_str();
    while let Some(start) = rest.find(is_ident_start) {
        out.push_str(&rest[..start]);
        let ident_len = rest[start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len() - start);
        let ident = &rest[start..start + ident_len];
        if names.contains(ident) {
            out.push_str(&prefixed(part, ident));
        } else {
            out.push_str(ident);
        }
        rest = &rest[start + ident_len..];
    }
    out.push_str(rest);
    out
}

/// An identifier starts with a letter or `_`. Digits that follow a
/// letter are consumed with the identifier, so a bare digit here is
/// always part of a number literal and never starts one.
fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// The edit sequence: which part each step edits, and with which
/// `fuzz::mutate` seed. Parts are visited in seeded rounds, each part
/// once per round, so every seed edits the same mix of early and late
/// parts. Seeds never repeat: a reused seed can regenerate a body the
/// part already had, which turns the edit loop into a silent all-hit
/// loop.
pub struct EditPlan {
    base: u64,
    seeds_drawn: u64,
    used: HashSet<u64>,
    order: Vec<usize>,
    step: usize,
}

impl EditPlan {
    pub fn new(seed: u64, parts: usize) -> EditPlan {
        EditPlan {
            base: mix(seed ^ 0x0ed1_7000),
            seeds_drawn: 0,
            used: HashSet::new(),
            order: (0..parts).collect(),
            step: 0,
        }
    }

    fn next_seed(&mut self) -> u64 {
        loop {
            let s = mix(self.base.wrapping_add(self.seeds_drawn));
            self.seeds_drawn += 1;
            if self.used.insert(s) {
                return s;
            }
        }
    }

    /// Edits the next part, drawing fresh seeds until its text changes
    /// (at most 16). Returns the part and whether it changed.
    pub fn apply(&mut self, module: &mut ScaledModule) -> (usize, bool) {
        let (round, slot) = (self.step / self.order.len(), self.step % self.order.len());
        if slot == 0 {
            shuffle(&mut self.order, mix(self.base ^ round as u64));
        }
        let part = self.order[slot];
        self.step += 1;
        let changed = (0..16).any(|_| {
            let seed = self.next_seed();
            module.edit(part, seed)
        });
        (part, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespacing_renames_module_names_only() {
        let m = ScaledModule::generate(600, 7);
        let src = m.source();
        assert!(src.contains("int p0_main()"));
        assert!(src.contains("int p2_main()"));
        assert!(src.contains("    p1_main();"));
        assert!(!src.contains(" g0 "), "an unprefixed global survived");
        minic::compile(&src).expect("the merged module compiles");
    }

    #[test]
    fn edits_change_one_part() {
        let mut m = ScaledModule::generate(1200, 11);
        assert!(m.parts() >= 4);
        let before = m.rendered.clone();
        let mut plan = EditPlan::new(11, m.parts());
        let (part, changed) = plan.apply(&mut m);
        assert!(changed);
        for k in (0..m.parts()).filter(|&k| k != part) {
            assert_eq!(before[k], m.rendered[k], "part {k} changed");
        }
        minic::compile(&m.source()).expect("the edited module compiles");
    }
}
