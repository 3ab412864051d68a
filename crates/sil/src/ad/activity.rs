//! Activity analysis (paper §2.2, citing Hascoët & Pascual's Tapenade):
//! determines which values are *varied* (depend on the function's
//! differentiable inputs), which are *useful* (contribute to the output),
//! and hence which instructions are *active* and need a derivative.

use crate::ir::{Function, Inst, Terminator, ValueId};
use std::collections::{HashMap, HashSet};

/// The result of activity analysis over one function.
#[derive(Debug, Clone)]
pub struct Activity {
    /// Values that (may) depend on the function's inputs.
    pub varied: HashSet<ValueId>,
    /// Values that (may) contribute to the return value.
    pub useful: HashSet<ValueId>,
}

impl Activity {
    /// True if `v` is active: both varied and useful.
    pub fn is_active(&self, v: ValueId) -> bool {
        self.varied.contains(&v) && self.useful.contains(&v)
    }
}

/// Runs activity analysis.
///
/// Both directions are may-analyses over the CFG, iterated to a fixed
/// point so values flowing through loop-carried block parameters are
/// handled. Booleans participate (a varied comparison makes control
/// flow input-dependent) but are never differentiable themselves.
pub fn analyze(f: &Function) -> Activity {
    Activity {
        varied: varied_set(f),
        useful: useful_set(f),
    }
}

fn varied_set(f: &Function) -> HashSet<ValueId> {
    let mut varied: HashSet<ValueId> = f.params().iter().map(|&(v, _)| v).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for block in &f.blocks {
            for (result, inst) in &block.insts {
                if varied.contains(result) {
                    continue;
                }
                if inst.operands().iter().any(|o| varied.contains(o)) {
                    varied.insert(*result);
                    changed = true;
                }
            }
            // Branch args flow into successor block params.
            let flow = |target: crate::ir::BlockId,
                        args: &[ValueId],
                        varied: &mut HashSet<ValueId>|
             -> bool {
                let mut ch = false;
                for (arg, &(param, _)) in args.iter().zip(&f.block(target).params) {
                    if varied.contains(arg) && varied.insert(param) {
                        ch = true;
                    }
                }
                ch
            };
            match &block.terminator {
                Terminator::Br { target, args } => {
                    changed |= flow(*target, args, &mut varied);
                }
                Terminator::CondBr {
                    then_target,
                    then_args,
                    else_target,
                    else_args,
                    ..
                } => {
                    changed |= flow(*then_target, then_args, &mut varied);
                    changed |= flow(*else_target, else_args, &mut varied);
                }
                Terminator::Ret(_) => {}
            }
        }
    }
    varied
}

fn useful_set(f: &Function) -> HashSet<ValueId> {
    let mut useful: HashSet<ValueId> = HashSet::new();
    // Defining instruction of each value, for backward propagation.
    let mut def: HashMap<ValueId, &Inst> = HashMap::new();
    // Map block param -> the branch args feeding it (from all preds).
    let mut feeds: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for block in &f.blocks {
        for (v, inst) in &block.insts {
            def.insert(*v, inst);
        }
        let mut note = |target: crate::ir::BlockId, args: &[ValueId]| {
            for (arg, &(param, _)) in args.iter().zip(&f.block(target).params) {
                feeds.entry(param).or_default().push(*arg);
            }
        };
        match &block.terminator {
            Terminator::Br { target, args } => note(*target, args),
            Terminator::CondBr {
                then_target,
                then_args,
                else_target,
                else_args,
                ..
            } => {
                note(*then_target, then_args);
                note(*else_target, else_args);
            }
            Terminator::Ret(_) => {}
        }
    }

    let mut work: Vec<ValueId> = Vec::new();
    for block in &f.blocks {
        if let Terminator::Ret(vals) = &block.terminator {
            for &v in vals {
                if useful.insert(v) {
                    work.push(v);
                }
            }
        }
    }
    while let Some(v) = work.pop() {
        if let Some(inst) = def.get(&v) {
            for o in inst.operands() {
                if useful.insert(o) {
                    work.push(o);
                }
            }
        }
        if let Some(args) = feeds.get(&v) {
            for &a in args {
                if useful.insert(a) {
                    work.push(a);
                }
            }
        }
    }
    useful
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module_unwrap;

    #[test]
    fn straight_line_activity() {
        let m = parse_module_unwrap(
            r#"
            func @f(%x: f64) -> f64 {
            bb0(%x: f64):
              %c = const 5.0
              %dead = sin %c
              %y = mul %x, %x
              %unused = add %y, %c
              ret %y
            }
            "#,
        );
        let f = m.func(m.func_id("f").unwrap());
        let a = analyze(f);
        let name = |i: u32| ValueId(i);
        // %0=x %1=c %2=dead %3=y %4=unused
        assert!(a.varied.contains(&name(0)));
        assert!(!a.varied.contains(&name(1)), "constant is not varied");
        assert!(!a.varied.contains(&name(2)));
        assert!(a.varied.contains(&name(3)));
        assert!(a.varied.contains(&name(4)));
        assert!(a.useful.contains(&name(3)));
        assert!(!a.useful.contains(&name(4)), "unused is not useful");
        assert!(a.is_active(name(3)));
        assert!(!a.is_active(name(2)), "constant-fed sin is inactive");
        assert!(!a.is_active(name(4)), "dead add is inactive");
    }

    #[test]
    fn activity_flows_through_block_params() {
        let m = parse_module_unwrap(
            r#"
            func @f(%x: f64) -> f64 {
            bb0(%x: f64):
              %zero = const 0.0
              %c = cmp gt %x, %zero
              condbr %c, bb1(%x), bb1(%zero)
            bb1(%p: f64):
              %y = mul %p, %p
              ret %y
            }
            "#,
        );
        let f = m.func(m.func_id("f").unwrap());
        let a = analyze(f);
        // %p (the bb1 param) is varied (one feeder is varied) and useful.
        let p = f.blocks[1].params[0].0;
        assert!(a.is_active(p));
        // %zero feeds a useful param, so it is useful (but not varied).
        let zero = f.blocks[0].insts[0].0;
        assert!(a.useful.contains(&zero));
        assert!(!a.varied.contains(&zero));
        assert!(!a.is_active(zero));
    }

    #[test]
    fn loop_carried_activity_reaches_fixpoint() {
        let m = parse_module_unwrap(
            r#"
            func @f(%x: f64, %n: f64) -> f64 {
            bb0(%x: f64, %n: f64):
              %zero = const 0.0
              %one = const 1.0
              br bb1(%zero, %one)
            bb1(%k: f64, %acc: f64):
              %c = cmp lt %k, %n
              condbr %c, bb2(), bb3()
            bb2():
              %acc2 = mul %acc, %x
              %kn = add %k, %one
              br bb1(%kn, %acc2)
            bb3():
              ret %acc
            }
            "#,
        );
        let f = m.func(m.func_id("f").unwrap());
        let a = analyze(f);
        // %acc starts from const 1.0 but becomes varied through the loop.
        let acc = f.blocks[1].params[1].0;
        assert!(a.is_active(acc), "loop-carried accumulator must be active");
        // %k is varied only via %k+1? No: k starts at const and increments
        // by const, so it is NOT varied; it is useful only through control.
        let k = f.blocks[1].params[0].0;
        assert!(!a.varied.contains(&k), "pure counter is not varied");
    }

    #[test]
    fn constant_return_is_not_varied() {
        let m = parse_module_unwrap(
            r#"
            func @f(%x: f64) -> f64 {
            bb0(%x: f64):
              %c = const 3.0
              ret %c
            }
            "#,
        );
        let f = m.func(m.func_id("f").unwrap());
        let a = analyze(f);
        let ret_val = f.blocks[0].insts[0].0;
        assert!(a.useful.contains(&ret_val));
        assert!(!a.varied.contains(&ret_val));
    }
}
