//! Symbolic derivative rules: how to *emit IR* computing the partial
//! derivatives of each base operation.
//!
//! The JVP transform ([`crate::ad::jvp`]) is IR-to-IR, so it needs partials
//! expressed as instructions (not as Rust closures). The builtin rules below
//! mirror the `s4tf-core` registry's scalar derivatives; custom IR-level
//! derivatives can be added with [`RuleSet::with_custom_unary`] — the
//! `@derivative(of:)` extension point at the IR level.

use crate::ir::{Block, Function, Inst, ValueId};
use std::collections::HashMap;
use std::rc::Rc;

/// Emits instructions into a block under construction during synthesis.
pub struct Emitter<'f> {
    func: &'f mut Function,
    block: usize,
}

impl<'f> Emitter<'f> {
    /// An emitter appending to `func.blocks[block]`.
    pub fn new(func: &'f mut Function, block: usize) -> Self {
        Emitter { func, block }
    }

    fn block_mut(&mut self) -> &mut Block {
        &mut self.func.blocks[self.block]
    }

    /// Emits an instruction, returning its result value.
    pub fn emit(&mut self, inst: Inst) -> ValueId {
        let v = self.func.fresh_value();
        self.block_mut().insts.push((v, inst));
        v
    }

    /// Emits a constant.
    pub fn constant(&mut self, x: f64) -> ValueId {
        self.emit(Inst::Const(x))
    }

    /// Emits a unary operation.
    pub fn unary(&mut self, op: &str, operand: ValueId) -> ValueId {
        self.emit(Inst::Unary {
            op: op.to_string(),
            operand,
        })
    }

    /// Emits a binary operation.
    pub fn binary(&mut self, op: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Inst::Binary {
            op: op.to_string(),
            lhs,
            rhs,
        })
    }
}

/// Emits IR for `∂op/∂x` at `x` (unary ops).
pub type UnaryPartialEmitter = Rc<dyn Fn(&mut Emitter<'_>, ValueId) -> ValueId>;
/// Emits IR for `(∂op/∂a, ∂op/∂b)` at `(a, b)` (binary ops).
pub type BinaryPartialEmitter =
    Rc<dyn Fn(&mut Emitter<'_>, ValueId, ValueId) -> (ValueId, ValueId)>;

/// The symbolic rule table consulted by derivative synthesis.
#[derive(Clone)]
pub struct RuleSet {
    unary: HashMap<String, UnaryPartialEmitter>,
    binary: HashMap<String, BinaryPartialEmitter>,
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut u: Vec<&String> = self.unary.keys().collect();
        u.sort();
        write!(
            f,
            "RuleSet(unary: {u:?}, binary: {} ops)",
            self.binary.len()
        )
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::builtin()
    }
}

impl RuleSet {
    /// The builtin rules, matching the `s4tf-core` registry's scalar
    /// derivatives.
    pub fn builtin() -> Self {
        let mut unary: HashMap<String, UnaryPartialEmitter> = HashMap::new();
        let mut binary: HashMap<String, BinaryPartialEmitter> = HashMap::new();

        let mut u = |name: &str, f: fn(&mut Emitter<'_>, ValueId) -> ValueId| {
            unary.insert(name.to_string(), Rc::new(f));
        };
        u("sin", |e, x| e.unary("cos", x));
        u("cos", |e, x| {
            let s = e.unary("sin", x);
            e.unary("neg", s)
        });
        u("exp", |e, x| e.unary("exp", x));
        u("ln", |e, x| e.unary("recip", x));
        u("sqrt", |e, x| {
            let s = e.unary("sqrt", x);
            let half = e.constant(0.5);
            e.binary("div", half, s)
        });
        u("tanh", |e, x| {
            let t = e.unary("tanh", x);
            let t2 = e.unary("square", t);
            let one = e.constant(1.0);
            e.binary("sub", one, t2)
        });
        u("sigmoid", |e, x| {
            let s = e.unary("sigmoid", x);
            let one = e.constant(1.0);
            let om = e.binary("sub", one, s);
            e.binary("mul", s, om)
        });
        u("relu", |e, x| e.unary("step", x));
        u("square", |e, x| {
            let two = e.constant(2.0);
            e.binary("mul", two, x)
        });
        u("neg", |e, _| e.constant(-1.0));
        u("recip", |e, x| {
            let x2 = e.unary("square", x);
            let r = e.unary("recip", x2);
            e.unary("neg", r)
        });
        u("abs", |e, x| e.unary("sign", x));
        u("step", |e, _| e.constant(0.0));
        u("sign", |e, _| e.constant(0.0));

        let mut b =
            |name: &str, f: fn(&mut Emitter<'_>, ValueId, ValueId) -> (ValueId, ValueId)| {
                binary.insert(name.to_string(), Rc::new(f));
            };
        b("add", |e, _, _| {
            let one = e.constant(1.0);
            (one, one)
        });
        b("sub", |e, _, _| {
            let one = e.constant(1.0);
            let neg = e.constant(-1.0);
            (one, neg)
        });
        b("mul", |_, a, bb| (bb, a));
        b("div", |e, a, bb| {
            let da = e.unary("recip", bb);
            let b2 = e.unary("square", bb);
            let q = e.binary("div", a, b2);
            let db = e.unary("neg", q);
            (da, db)
        });
        b("pow", |e, a, bb| {
            // d/da a^b = b·a^(b−1);  d/db a^b = a^b·ln a
            let one = e.constant(1.0);
            let bm1 = e.binary("sub", bb, one);
            let p = e.binary("pow", a, bm1);
            let da = e.binary("mul", bb, p);
            let ab = e.binary("pow", a, bb);
            let la = e.unary("ln", a);
            let db = e.binary("mul", ab, la);
            (da, db)
        });
        b("max", |e, a, bb| {
            // (1,0) when a ≥ b else (0,1) — matches the registry convention.
            let d = e.binary("sub", a, bb);
            let da = e.unary("step", d);
            let one = e.constant(1.0);
            let db = e.binary("sub", one, da);
            (da, db)
        });
        b("min", |e, a, bb| {
            let d = e.binary("sub", bb, a);
            let da = e.unary("step", d);
            let one = e.constant(1.0);
            let db = e.binary("sub", one, da);
            (da, db)
        });

        RuleSet { unary, binary }
    }

    /// Registers a custom unary partial emitter (overrides builtins).
    pub fn with_custom_unary(
        mut self,
        name: &str,
        emitter: impl Fn(&mut Emitter<'_>, ValueId) -> ValueId + 'static,
    ) -> Self {
        self.unary.insert(name.to_string(), Rc::new(emitter));
        self
    }

    /// The unary partial emitter for `op`, if any.
    pub fn unary_rule(&self, op: &str) -> Option<UnaryPartialEmitter> {
        self.unary.get(op).cloned()
    }

    /// The binary partial emitter for `op`, if any.
    pub fn binary_rule(&self, op: &str) -> Option<BinaryPartialEmitter> {
        self.binary.get(op).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::Interpreter;
    use crate::ir::{Module, Terminator, Type};

    /// Emits `rule(x)` into a one-block function and evaluates it.
    fn eval_unary_partial(op: &str, x: f64) -> f64 {
        let rules = RuleSet::builtin();
        let rule = rules.unary_rule(op).expect("builtin rule");
        let mut b = FunctionBuilder::new("t", &[Type::F64]);
        let xv = b.param(0);
        b.ret(&[xv]); // placeholder terminator; we overwrite below
        let mut f = b.finish();
        let partial = {
            let mut e = Emitter::new(&mut f, 0);
            rule(&mut e, xv)
        };
        f.blocks[0].terminator = Terminator::Ret(vec![partial]);
        let mut m = Module::new();
        let id = m.add_function(f);
        Interpreter::new().run(&m, id, &[x]).unwrap()[0]
    }

    #[test]
    fn unary_rules_match_registry_derivatives() {
        for op in [
            "sin", "cos", "exp", "ln", "sqrt", "tanh", "sigmoid", "relu", "square", "neg", "recip",
            "abs",
        ] {
            let d = s4tf_core::registry::lookup_unary(op).unwrap();
            for &x in &[0.4f64, 1.1, 2.3] {
                let symbolic = eval_unary_partial(op, x);
                let reference = (d.df)(x);
                assert!(
                    (symbolic - reference).abs() < 1e-12,
                    "{op} at {x}: {symbolic} vs {reference}"
                );
            }
        }
    }

    fn eval_binary_partials(op: &str, a: f64, b: f64) -> (f64, f64) {
        let rules = RuleSet::builtin();
        let rule = rules.binary_rule(op).expect("builtin rule");
        let mut fb = FunctionBuilder::new("t", &[Type::F64, Type::F64]);
        let (av, bv) = (fb.param(0), fb.param(1));
        fb.ret(&[av]);
        let mut f = fb.finish();
        f.result_types = vec![Type::F64, Type::F64];
        let (pa, pb) = {
            let mut e = Emitter::new(&mut f, 0);
            rule(&mut e, av, bv)
        };
        f.blocks[0].terminator = Terminator::Ret(vec![pa, pb]);
        let mut m = Module::new();
        let id = m.add_function(f);
        let out = Interpreter::new().run(&m, id, &[a, b]).unwrap();
        (out[0], out[1])
    }

    #[test]
    fn binary_rules_match_registry_derivatives() {
        for op in ["add", "sub", "mul", "div", "pow", "max", "min"] {
            let d = s4tf_core::registry::lookup_binary(op).unwrap();
            for &(a, b) in &[(0.7f64, 1.3f64), (2.0, 0.5), (1.5, 2.5)] {
                let (sa, sb) = eval_binary_partials(op, a, b);
                let (ra, rb) = (d.df)(a, b);
                assert!((sa - ra).abs() < 1e-12, "{op} ∂a at ({a},{b})");
                assert!((sb - rb).abs() < 1e-12, "{op} ∂b at ({a},{b})");
            }
        }
    }

    #[test]
    fn custom_rule_overrides() {
        let rules = RuleSet::builtin().with_custom_unary("cube", |e, x| {
            let sq = e.unary("square", x);
            let three = e.constant(3.0);
            e.binary("mul", three, sq)
        });
        assert!(rules.unary_rule("cube").is_some());
        assert!(RuleSet::builtin().unary_rule("cube").is_none());
        assert!(format!("{rules:?}").contains("RuleSet"));
    }
}
