//! Global redundant-load elimination.
//!
//! The paper's compiler uses partial redundancy elimination with memory
//! tags to "achieve most of the effects of promotion in straight-line
//! code", chiefly by eliminating redundant loads (stores are treated
//! conservatively). This pass implements that load-elimination core as a
//! forward *available-scalar-values* data-flow problem: at each point, for
//! each tag, which register is known to hold the tag's current value. A
//! later `sload` of an available tag becomes a register copy.

use cfg::{BlockWorklist, DataflowStats, Direction, FunctionAnalyses};
use ir::{Function, Instr, Module, Reg, TagId, TagSet};
use std::collections::HashMap;
use trace::FuncTrace;

/// The per-point fact: tag -> register holding its value. `None` is ⊤
/// (unvisited).
type Avail = Option<HashMap<TagId, Reg>>;

/// Reusable solver state for [`loadelim_function`]: the per-block input
/// facts, a free pool of cleared fact maps the inputs are recycled
/// through, the walking fact map, and the worklist. Every map keeps its
/// hash-table capacity while parked in the pool, so the steady state
/// allocates nothing.
#[derive(Default)]
pub struct LoadelimScratch {
    input: Vec<Avail>,
    pool: Vec<HashMap<TagId, Reg>>,
    facts: HashMap<TagId, Reg>,
    wl: BlockWorklist,
}

impl LoadelimScratch {
    /// Recycles last call's fact maps into the pool and re-sizes the input
    /// vector to `n` ⊤ entries.
    fn begin(&mut self, n: usize) {
        for slot in self.input.iter_mut() {
            if let Some(mut m) = slot.take() {
                m.clear();
                self.pool.push(m);
            }
        }
        self.input.clear();
        self.input.resize(n, None);
    }
}

/// Meets `out` into a successor's input fact in place; returns true if the
/// input changed. ⊤ adopts `out` wholesale (into a map recycled from
/// `pool`); otherwise the intersection only ever shrinks, so retaining
/// agreeing entries suffices.
fn meet_into(
    input: &mut Avail,
    out: &HashMap<TagId, Reg>,
    pool: &mut Vec<HashMap<TagId, Reg>>,
) -> bool {
    match input {
        None => {
            let mut m = pool.pop().unwrap_or_default();
            m.extend(out.iter().map(|(&t, &r)| (t, r)));
            *input = Some(m);
            true
        }
        Some(m) => {
            let before = m.len();
            m.retain(|t, r| out.get(t) == Some(r));
            m.len() != before
        }
    }
}

/// Applies one instruction to the fact map. When `rewrite` is true,
/// redundant loads are rewritten; returns 1 for a rewrite.
fn transfer(instr: &mut Instr, facts: &mut HashMap<TagId, Reg>, rewrite: bool) -> usize {
    let mut changed = 0;
    // A definition of register r invalidates any fact r was holding.
    if let Some(d) = instr.def() {
        facts.retain(|_, r| *r != d);
    }
    match instr {
        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
            if let Some(&r) = facts.get(tag) {
                if rewrite {
                    let d = *dst;
                    *instr = Instr::Copy { dst: d, src: r };
                    facts.retain(|_, h| *h != d);
                    // d now also holds the value; keep the original home.
                    changed = 1;
                }
            } else {
                facts.insert(*tag, *dst);
            }
        }
        Instr::SStore { src, tag } => {
            facts.insert(*tag, *src);
        }
        Instr::Store { tags, .. } => match tags {
            TagSet::All => facts.clear(),
            TagSet::Set(s) => {
                for t in s.iter() {
                    facts.remove(&t);
                }
            }
        },
        Instr::Call { mods, .. } => match mods {
            TagSet::All => facts.clear(),
            TagSet::Set(s) => {
                for t in s.iter() {
                    facts.remove(&t);
                }
            }
        },
        _ => {}
    }
    changed
}

/// Runs redundant-load elimination on one function. Returns loads
/// rewritten to copies.
///
/// This is the pipeline entry point: `analyses` is the function's shared
/// cache, `scratch` the worker's arena for this pass, and a `loadelim` delta
/// is recorded in `tr` when tracing is on.
pub fn loadelim_function(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut LoadelimScratch,
    tr: &mut FuncTrace,
) -> usize {
    crate::recorded("loadelim", func, tr, |f| {
        loadelim_function_in(f, analyses, scratch)
    })
}

/// The body of [`loadelim_function`].
fn loadelim_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut LoadelimScratch,
) -> usize {
    let dense = analyses.dense_dataflow();
    let mut stats = DataflowStats::default();
    let cfg = analyses.cfg(func);
    scratch.begin(func.blocks.len());
    let LoadelimScratch {
        input,
        pool,
        facts,
        wl,
    } = scratch;
    input[func.entry.index()] = Some(pool.pop().unwrap_or_default());
    if dense {
        // Dense fixpoint: resweep every visited block until stable.
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                if input[b.index()].is_none() {
                    continue;
                }
                facts.clear();
                facts.extend(input[b.index()].as_ref().unwrap());
                stats.blocks_visited += 1;
                for instr in &mut func.block_mut(b).instrs {
                    stats.transfer_evals += 1;
                    transfer(instr, facts, false);
                }
                for s in &cfg.succs[b.index()] {
                    if meet_into(&mut input[s.index()], facts, pool) {
                        changed = true;
                    }
                }
            }
        }
    } else {
        // Sparse worklist: a block re-runs only when its input shrank.
        wl.reset(cfg, Direction::Forward);
        wl.push(func.entry, &mut stats);
        while let Some(b) = wl.pop(&mut stats) {
            facts.clear();
            facts.extend(input[b.index()].as_ref().expect("queued implies visited"));
            for instr in &mut func.block_mut(b).instrs {
                stats.transfer_evals += 1;
                transfer(instr, facts, false);
            }
            for &s in &cfg.succs[b.index()] {
                if meet_into(&mut input[s.index()], facts, pool) {
                    wl.push(s, &mut stats);
                }
            }
        }
    }
    // Rewrite.
    let mut rewrites = 0;
    for &b in &cfg.rpo {
        let Some(block_in) = input[b.index()].as_ref() else {
            continue;
        };
        facts.clear();
        facts.extend(block_in);
        for instr in &mut func.block_mut(b).instrs {
            rewrites += transfer(instr, facts, true);
        }
    }
    analyses.dataflow.add(&stats);
    // Rewrites turn loads into copies in place: operand-only.
    if rewrites > 0 {
        analyses.note_body_changed();
    }
    rewrites
}

/// Runs redundant-load elimination over every function, sharing one
/// scratch.
pub fn loadelim(module: &mut Module) -> usize {
    let mut n = 0;
    let mut scratch = LoadelimScratch::default();
    for func in &mut module.funcs {
        n += loadelim_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Vm, VmOptions};

    fn run_pair(src: &str) -> (vm::Outcome, vm::Outcome, usize) {
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let n = loadelim(&mut m);
        ir::validate(&m).expect("valid");
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(before.output, after.output);
        (before, after, n)
    }

    #[test]
    fn straight_line_reloads_become_copies() {
        let (before, after, n) = run_pair(
            r#"
int g;
int main() {
    g = 4;
    int a = g + 1;
    int b = g + 2;
    int c = g + 3;
    print_int(a + b + c);
    return 0;
}
"#,
        );
        assert!(n >= 3, "all three loads forwarded from the store, got {n}");
        assert!(after.counts.loads + 3 <= before.counts.loads);
    }

    #[test]
    fn cross_block_availability() {
        let (before, after, n) = run_pair(
            r#"
int g = 9;
int pick;
int main() {
    int a = g;
    int b;
    if (pick) { b = g + 1; } else { b = g + 2; }
    int c = g;
    print_int(a + b + c);
    return 0;
}
"#,
        );
        // Loads in both arms and after the join forward from the first
        // (3 static rewrites; 2 of them execute on any one path).
        assert!(n >= 3);
        assert_eq!(after.counts.loads, before.counts.loads - 2);
    }

    #[test]
    fn kills_across_calls_that_mod() {
        let (before, after, _) = run_pair(
            r#"
int g = 1;
void bump() { g = g + 1; }
int main() {
    int a = g;
    bump();
    int b = g;
    print_int(a + b);
    return 0;
}
"#,
        );
        // The second load of g must survive (bump mods g); bump's internal
        // load of g forwards nothing.
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn partial_availability_is_not_enough() {
        let (before, after, _) = run_pair(
            r#"
int g = 3;
int pick = 1;
int main() {
    int a = 0;
    if (pick) { a = g; }
    int b = g;
    print_int(a + b);
    return 0;
}
"#,
        );
        // g is available on only one path into the join: the must-analysis
        // keeps the load.
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn register_redefinition_kills_facts() {
        let (_, after, _) = run_pair(
            r#"
int g = 5;
int h = 7;
int main() {
    int a = g;
    a = h;
    int b = g;
    print_int(a + b);
    return 0;
}
"#,
        );
        assert_eq!(after.output, vec!["12"]);
    }
}
