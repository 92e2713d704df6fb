//! The generator's program representation.
//!
//! The fuzzer does not emit source text directly: it builds a small
//! structured AST first, renders it to MiniC, and hands the *AST* (not
//! the text) to the delta-debugging reducer. Reduction at the AST level
//! guarantees every candidate is syntactically well-formed, so the
//! reducer spends its oracle budget on semantics, not parse errors.
//!
//! Safety invariants are established **by construction** at generation
//! time (see `gen.rs`): denominators are forced odd with `| 1`, shift
//! amounts are masked, array indices are masked to the power-of-two
//! length, every local is initialized before use, and loops count a
//! dedicated variable the body never assigns. Reduction may *break*
//! these invariants (e.g. simplify a `| 1` away), but a candidate that
//! faults in the unoptimized reference arm is rejected by the
//! interestingness test, so the invariants re-establish themselves.

use std::collections::BTreeSet;
use std::fmt::Write;

/// Binary operators the generator emits (all total under the VM's
/// wrapping/masking semantics except `Div`/`Rem`, which the generator
/// guards with an `| 1` denominator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (wrapping).
    Add,
    /// `-` (wrapping).
    Sub,
    /// `*` (wrapping).
    Mul,
    /// `/` — generator guarantees a nonzero denominator.
    Div,
    /// `%` — generator guarantees a nonzero denominator.
    Rem,
    /// `&`.
    BitAnd,
    /// `|`.
    BitOr,
    /// `^`.
    BitXor,
    /// `<<` — generator masks the shift amount.
    Shl,
    /// `>>` — generator masks the shift amount.
    Shr,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `&&` (short-circuit).
    LAnd,
    /// `||` (short-circuit).
    LOr,
}

impl BinOp {
    /// Source token for the operator.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }
}

/// Integer-valued expression. Pointer values never appear here — pointer
/// creation and reseating are dedicated statement forms, so every `Expr`
/// is type-correct by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Scalar variable read (local, parameter, or global).
    Var(String),
    /// `*p` — read through an `int *` variable.
    Deref(String),
    /// `a[e]` — array element read (index pre-masked by the generator).
    Index(String, Box<Expr>),
    /// `-e`.
    Neg(Box<Expr>),
    /// `!e`.
    Not(Box<Expr>),
    /// `e1 op e2` — every subexpression fully parenthesized on render.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `f(args…)` — helper call; helpers all return `int`.
    Call(String, Vec<Expr>),
}

/// Assignable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// `*p`.
    Deref(String),
    /// `a[e]`.
    Index(String, Expr),
}

/// Loop flavor. All three render with a dedicated counter the loop body
/// never assigns, so termination is structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `for (c = 0; c < bound; c++) { … }` — the only kind that may
    /// contain `continue` (its step still runs).
    For,
    /// `c = 0; while (c < bound) { …; c = c + 1; }`.
    While,
    /// `c = 0; do { …; c = c + 1; } while (c < bound);`.
    DoWhile,
}

/// Statement. Declarations may appear anywhere in a block (the MiniC
/// grammar allows it), which lets the reducer delete them independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `int name = init;`
    DeclInt {
        /// Variable name.
        name: String,
        /// Initializer (locals are never left uninitialized).
        init: Expr,
    },
    /// `int *name = &target;` — `target` is a scalar local or global, so
    /// this is where address-taken locals come from.
    DeclPtr {
        /// Pointer name.
        name: String,
        /// The variable whose address is taken.
        target: String,
    },
    /// `int *name = malloc(len);` — cells are uninitialized until the
    /// generator's paired init loop runs.
    DeclMalloc {
        /// Pointer name.
        name: String,
        /// Cell count (a power of two, so reads can be masked).
        len: usize,
    },
    /// `int name[len];` — local array; the generator always pairs it with
    /// an init loop before any read.
    DeclArr {
        /// Array name.
        name: String,
        /// Element count (a power of two).
        len: usize,
    },
    /// `lhs = rhs;` or `lhs op= rhs;`
    Assign {
        /// Compound operator (`+=`/`-=`/`*=`), or plain `=` when `None`.
        op: Option<BinOp>,
        /// Destination.
        lhs: LValue,
        /// Source expression.
        rhs: Expr,
    },
    /// `name++;` / `name--;`
    Incr {
        /// Scalar variable to bump.
        name: String,
        /// `--` when true.
        down: bool,
    },
    /// `name = &target;` — reseat an existing pointer.
    PtrAssign {
        /// Pointer name.
        name: String,
        /// New target variable.
        target: String,
    },
    /// `if (cond) { … } else { … }` (else omitted when empty).
    If {
        /// Condition.
        cond: Expr,
        /// Then block.
        then_s: Vec<Stmt>,
        /// Else block.
        else_s: Vec<Stmt>,
    },
    /// A counted loop; see [`LoopKind`] for the rendered shapes.
    Loop {
        /// Rendered shape.
        kind: LoopKind,
        /// Counter variable (declared automatically at function entry;
        /// generated bodies never assign it).
        counter: String,
        /// Iteration count.
        bound: i64,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `print_int(e);` — the observability points the oracle compares.
    Print(Expr),
    /// `e;` — expression statement (used for bare helper calls).
    ExprStmt(Expr),
    /// `break;` (generated only inside loops).
    Break,
    /// `continue;` (generated only inside `for` loops).
    Continue,
}

/// A global variable. Globals are zero-initialized by the VM, so scalars
/// and arrays are always safe to read; pointers must be assigned before
/// their first dereference (the generator seats them at the top of
/// `main`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Global {
    /// `int name = init;`
    Scalar {
        /// Name.
        name: String,
        /// Initializer.
        init: i64,
    },
    /// `int name[len];` (zero-initialized).
    Array {
        /// Name.
        name: String,
        /// Element count (a power of two).
        len: usize,
    },
    /// `int *name;` (null until seated in `main`).
    Ptr {
        /// Name.
        name: String,
    },
}

impl Global {
    /// The global's name.
    pub fn name(&self) -> &str {
        match self {
            Global::Scalar { name, .. } | Global::Array { name, .. } | Global::Ptr { name } => name,
        }
    }
}

/// A helper function. All helpers take `int` parameters and return
/// `int`. A recursive helper's first parameter is its depth counter: the
/// rendered body short-circuits at `<= 0` and recurses with `- 1`, so
/// call depth is bounded by the (small, constant) first argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Helper {
    /// Function name.
    pub name: String,
    /// Parameter names (all `int`).
    pub params: Vec<String>,
    /// Whether the rendered body self-recurses on `params[0] - 1`.
    pub recursive: bool,
    /// Body statements (before the synthesized returns).
    pub body: Vec<Stmt>,
    /// Return expression.
    pub ret: Expr,
}

/// A whole generated program: globals, helper functions, and the body of
/// `main`. Rendering appends an epilogue that prints every scalar global
/// and `return 0`, so silent state divergence still reaches the oracle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global variables.
    pub globals: Vec<Global>,
    /// Helper functions (a helper only calls helpers with a smaller
    /// index, plus itself when recursive, so the call graph cannot loop
    /// unboundedly).
    pub helpers: Vec<Helper>,
    /// `main`'s statements.
    pub main_body: Vec<Stmt>,
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(v) => {
            // i64::MIN has no literal form; `(-MAX - 1)` avoids it.
            if *v < 0 {
                let _ = write!(out, "(0 - {})", (*v as i128).unsigned_abs());
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Expr::Var(n) => out.push_str(n),
        Expr::Deref(n) => {
            let _ = write!(out, "(*{n})");
        }
        Expr::Index(n, i) => {
            let _ = write!(out, "{n}[");
            render_expr(i, out);
            out.push(']');
        }
        Expr::Neg(e) => {
            out.push_str("(-");
            render_expr(e, out);
            out.push(')');
        }
        Expr::Not(e) => {
            out.push_str("(!");
            render_expr(e, out);
            out.push(')');
        }
        Expr::Bin(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            let _ = write!(out, " {} ", op.token());
            render_expr(b, out);
            out.push(')');
        }
        Expr::Call(f, args) => {
            let _ = write!(out, "{f}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(a, out);
            }
            out.push(')');
        }
    }
}

fn render_lvalue(lv: &LValue, out: &mut String) {
    match lv {
        LValue::Var(n) => out.push_str(n),
        LValue::Deref(n) => {
            let _ = write!(out, "*{n}");
        }
        LValue::Index(n, i) => {
            let _ = write!(out, "{n}[");
            render_expr(i, out);
            out.push(']');
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn render_block(stmts: &[Stmt], depth: usize, out: &mut String) {
    for s in stmts {
        render_stmt(s, depth, out);
    }
}

fn render_stmt(s: &Stmt, depth: usize, out: &mut String) {
    indent(out, depth);
    match s {
        Stmt::DeclInt { name, init } => {
            let _ = write!(out, "int {name} = ");
            render_expr(init, out);
            out.push_str(";\n");
        }
        Stmt::DeclPtr { name, target } => {
            let _ = writeln!(out, "int *{name} = &{target};");
        }
        Stmt::DeclMalloc { name, len } => {
            let _ = writeln!(out, "int *{name} = malloc({len});");
        }
        Stmt::DeclArr { name, len } => {
            let _ = writeln!(out, "int {name}[{len}];");
        }
        Stmt::Assign { op, lhs, rhs } => {
            render_lvalue(lhs, out);
            match op {
                Some(op) => {
                    let _ = write!(out, " {}= ", op.token());
                }
                None => out.push_str(" = "),
            }
            render_expr(rhs, out);
            out.push_str(";\n");
        }
        Stmt::Incr { name, down } => {
            let _ = writeln!(out, "{name}{};", if *down { "--" } else { "++" });
        }
        Stmt::PtrAssign { name, target } => {
            let _ = writeln!(out, "{name} = &{target};");
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            out.push_str("if (");
            render_expr(cond, out);
            out.push_str(") {\n");
            render_block(then_s, depth + 1, out);
            indent(out, depth);
            if else_s.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                render_block(else_s, depth + 1, out);
                indent(out, depth);
                out.push_str("}\n");
            }
        }
        Stmt::Loop {
            kind,
            counter,
            bound,
            body,
        } => match kind {
            LoopKind::For => {
                let _ = writeln!(
                    out,
                    "for ({counter} = 0; {counter} < {bound}; {counter}++) {{"
                );
                render_block(body, depth + 1, out);
                indent(out, depth);
                out.push_str("}\n");
            }
            LoopKind::While => {
                let _ = writeln!(out, "{counter} = 0;");
                indent(out, depth);
                let _ = writeln!(out, "while ({counter} < {bound}) {{");
                render_block(body, depth + 1, out);
                indent(out, depth + 1);
                let _ = writeln!(out, "{counter} = {counter} + 1;");
                indent(out, depth);
                out.push_str("}\n");
            }
            LoopKind::DoWhile => {
                let _ = writeln!(out, "{counter} = 0;");
                indent(out, depth);
                out.push_str("do {\n");
                render_block(body, depth + 1, out);
                indent(out, depth + 1);
                let _ = writeln!(out, "{counter} = {counter} + 1;");
                indent(out, depth);
                let _ = writeln!(out, "}} while ({counter} < {bound});");
            }
        },
        Stmt::Print(e) => {
            out.push_str("print_int(");
            render_expr(e, out);
            out.push_str(");\n");
        }
        Stmt::ExprStmt(e) => {
            render_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::Break => out.push_str("break;\n"),
        Stmt::Continue => out.push_str("continue;\n"),
    }
}

/// Collects the loop counters used anywhere in a statement tree, in
/// first-appearance order (they are declared once at function entry).
fn collect_counters(stmts: &[Stmt], seen: &mut BTreeSet<String>, order: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Loop { counter, body, .. } => {
                if seen.insert(counter.clone()) {
                    order.push(counter.clone());
                }
                collect_counters(body, seen, order);
            }
            Stmt::If { then_s, else_s, .. } => {
                collect_counters(then_s, seen, order);
                collect_counters(else_s, seen, order);
            }
            _ => {}
        }
    }
}

fn render_body_with_counters(stmts: &[Stmt], depth: usize, out: &mut String) {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    collect_counters(stmts, &mut seen, &mut order);
    for c in &order {
        indent(out, depth);
        let _ = writeln!(out, "int {c} = 0;");
    }
    render_block(stmts, depth, out);
}

impl Program {
    /// Renders the program as MiniC source.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for g in &self.globals {
            match g {
                Global::Scalar { name, init } => {
                    let _ = writeln!(out, "int {name} = {init};");
                }
                Global::Array { name, len } => {
                    let _ = writeln!(out, "int {name}[{len}];");
                }
                Global::Ptr { name } => {
                    let _ = writeln!(out, "int *{name};");
                }
            }
        }
        for h in &self.helpers {
            out.push('\n');
            let params: Vec<String> = h.params.iter().map(|p| format!("int {p}")).collect();
            let _ = writeln!(out, "int {}({}) {{", h.name, params.join(", "));
            if h.recursive {
                let depth_param = &h.params[0];
                indent(&mut out, 1);
                let _ = writeln!(out, "if ({depth_param} <= 0) {{");
                indent(&mut out, 2);
                out.push_str("return ");
                render_expr(&h.ret, &mut out);
                out.push_str(";\n");
                indent(&mut out, 1);
                out.push_str("}\n");
            }
            render_body_with_counters(&h.body, 1, &mut out);
            indent(&mut out, 1);
            if h.recursive {
                let rec_args: Vec<String> = h
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        if i == 0 {
                            format!("{p} - 1")
                        } else {
                            p.clone()
                        }
                    })
                    .collect();
                let _ = write!(out, "return {}({}) + (", h.name, rec_args.join(", "));
                render_expr(&h.ret, &mut out);
                out.push_str(");\n");
            } else {
                out.push_str("return ");
                render_expr(&h.ret, &mut out);
                out.push_str(";\n");
            }
            out.push_str("}\n");
        }
        out.push_str("\nint main() {\n");
        render_body_with_counters(&self.main_body, 1, &mut out);
        // Epilogue: make final global state observable no matter what the
        // generated body chose to print.
        for g in &self.globals {
            if let Global::Scalar { name, .. } = g {
                indent(&mut out, 1);
                let _ = writeln!(out, "print_int({name});");
            }
        }
        indent(&mut out, 1);
        out.push_str("return 0;\n}\n");
        out
    }

    /// Number of [`Stmt`] nodes in the program (main + helper bodies,
    /// nested blocks included). The reducer's size metric.
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If { then_s, else_s, .. } => 1 + count(then_s) + count(else_s),
                    Stmt::Loop { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.main_body) + self.helpers.iter().map(|h| count(&h.body)).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_small_program() {
        let p = Program {
            globals: vec![
                Global::Scalar {
                    name: "g0".into(),
                    init: 3,
                },
                Global::Ptr { name: "p0".into() },
            ],
            helpers: vec![Helper {
                name: "f0".into(),
                params: vec!["h0n".into()],
                recursive: true,
                body: vec![],
                ret: Expr::Var("h0n".into()),
            }],
            main_body: vec![
                Stmt::PtrAssign {
                    name: "p0".into(),
                    target: "g0".into(),
                },
                Stmt::Loop {
                    kind: LoopKind::For,
                    counter: "c0".into(),
                    bound: 5,
                    body: vec![Stmt::Assign {
                        op: Some(BinOp::Add),
                        lhs: LValue::Deref("p0".into()),
                        rhs: Expr::Const(2),
                    }],
                },
                Stmt::Print(Expr::Call("f0".into(), vec![Expr::Const(3)])),
            ],
        };
        let src = p.render();
        assert!(src.contains("int *p0;"));
        assert!(src.contains("int c0 = 0;"));
        assert!(src.contains("for (c0 = 0; c0 < 5; c0++) {"));
        assert!(src.contains("*p0 += 2;"));
        assert!(src.contains("if (h0n <= 0) {"));
        assert!(src.contains("return f0(h0n - 1) + (h0n);"));
        assert!(src.contains("print_int(g0);"));
        assert_eq!(p.statement_count(), 4);
    }

    #[test]
    fn negative_constants_render_without_unary_minus_literals() {
        let p = Program {
            globals: vec![],
            helpers: vec![],
            main_body: vec![Stmt::Print(Expr::Const(-7))],
        };
        assert!(p.render().contains("print_int((0 - 7));"));
    }
}
