//! An ergonomic builder for IR functions.

use crate::ir::{Block, BlockId, CmpPred, FuncId, Function, Inst, Terminator, Type, ValueId};

/// Builds a [`Function`] block by block.
///
/// The builder starts positioned in the entry block (block 0), whose
/// parameters are the function parameters. Each emission appends to the
/// *current* block; [`FunctionBuilder::switch_to`] repositions.
///
/// ```
/// use s4tf_sil::{FunctionBuilder, Type, Module, Interpreter};
///
/// let mut b = FunctionBuilder::new("double", &[Type::F64]);
/// let x = b.param(0);
/// let two = b.constant(2.0);
/// let y = b.binary("mul", x, two);
/// b.ret(&[y]);
///
/// let mut module = Module::new();
/// let f = module.add_function(b.finish());
/// let out = Interpreter::new().run(&module, f, &[21.0])?;
/// assert_eq!(out, vec![42.0]);
/// # Ok::<(), s4tf_sil::EvalError>(())
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    terminated: Vec<bool>,
}

impl FunctionBuilder {
    /// Starts a function with the given parameter types, positioned in the
    /// entry block.
    pub fn new(name: &str, param_types: &[Type]) -> Self {
        let mut func = Function {
            name: name.to_string(),
            blocks: Vec::new(),
            result_types: vec![Type::F64],
            next_value: 0,
        };
        let params = param_types
            .iter()
            .map(|&ty| {
                let v = func.fresh_value();
                (v, ty)
            })
            .collect();
        func.blocks.push(Block {
            params,
            insts: Vec::new(),
            terminator: Terminator::Ret(vec![]),
        });
        FunctionBuilder {
            func,
            current: BlockId(0),
            terminated: vec![false],
        }
    }

    /// The `i`-th function parameter.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> ValueId {
        self.func.blocks[0].params[i].0
    }

    /// The `i`-th parameter of `block`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn block_param(&self, block: BlockId, i: usize) -> ValueId {
        self.func.block(block).params[i].0
    }

    /// Adds a new (empty) block with the given parameter types.
    pub fn add_block(&mut self, param_types: &[Type]) -> BlockId {
        let params = param_types
            .iter()
            .map(|&ty| (self.func.fresh_value(), ty))
            .collect();
        self.func.blocks.push(Block {
            params,
            insts: Vec::new(),
            terminator: Terminator::Ret(vec![]),
        });
        self.terminated.push(false);
        BlockId(self.func.blocks.len() as u32 - 1)
    }

    /// Repositions emission to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    fn emit(&mut self, inst: Inst) -> ValueId {
        assert!(
            !self.terminated[self.current.0 as usize],
            "emitting into terminated block {:?}",
            self.current
        );
        let v = self.func.fresh_value();
        self.func.block_mut(self.current).insts.push((v, inst));
        v
    }

    /// Emits a constant.
    pub fn constant(&mut self, value: f64) -> ValueId {
        self.emit(Inst::Const(value))
    }

    /// Emits a named unary operation.
    pub fn unary(&mut self, op: &str, operand: ValueId) -> ValueId {
        self.emit(Inst::Unary {
            op: op.to_string(),
            operand,
        })
    }

    /// Emits a named binary operation.
    pub fn binary(&mut self, op: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Inst::Binary {
            op: op.to_string(),
            lhs,
            rhs,
        })
    }

    /// Emits a comparison.
    pub fn cmp(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Inst::Cmp { pred, lhs, rhs })
    }

    /// Emits a call.
    pub fn call(&mut self, callee: FuncId, args: &[ValueId]) -> ValueId {
        self.emit(Inst::Call {
            callee,
            args: args.to_vec(),
        })
    }

    fn terminate(&mut self, t: Terminator) {
        assert!(
            !self.terminated[self.current.0 as usize],
            "block {:?} already terminated",
            self.current
        );
        self.func.block_mut(self.current).terminator = t;
        self.terminated[self.current.0 as usize] = true;
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, values: &[ValueId]) {
        self.terminate(Terminator::Ret(values.to_vec()));
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId, args: &[ValueId]) {
        self.terminate(Terminator::Br {
            target,
            args: args.to_vec(),
        });
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(
        &mut self,
        cond: ValueId,
        then_target: BlockId,
        then_args: &[ValueId],
        else_target: BlockId,
        else_args: &[ValueId],
    ) {
        self.terminate(Terminator::CondBr {
            cond,
            then_target,
            then_args: then_args.to_vec(),
            else_target,
            else_args: else_args.to_vec(),
        });
    }

    /// Finishes, returning the function.
    ///
    /// # Panics
    /// Panics if any block was left unterminated.
    pub fn finish(self) -> Function {
        for (i, &t) in self.terminated.iter().enumerate() {
            assert!(t, "block bb{i} was never terminated");
        }
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("f", &[Type::F64, Type::F64]);
        let (x, y) = (b.param(0), b.param(1));
        let s = b.binary("add", x, y);
        let t = b.unary("sin", s);
        b.ret(&[t]);
        let f = b.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.params().len(), 2);
    }

    #[test]
    fn diamond_cfg() {
        let mut b = FunctionBuilder::new("abs", &[Type::F64]);
        let x = b.param(0);
        let zero = b.constant(0.0);
        let c = b.cmp(CmpPred::Lt, x, zero);
        let neg_bb = b.add_block(&[]);
        let join = b.add_block(&[Type::F64]);
        b.cond_br(c, neg_bb, &[], join, &[x]);
        b.switch_to(neg_bb);
        let n = b.unary("neg", x);
        b.br(join, &[n]);
        b.switch_to(join);
        let r = b.block_param(join, 0);
        b.ret(&[r]);
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.block(BlockId(2)).params.len(), 1);
    }

    #[test]
    #[should_panic(expected = "never terminated")]
    fn unterminated_block_panics() {
        let mut b = FunctionBuilder::new("f", &[]);
        let _dangling = b.add_block(&[]);
        b.ret(&[]);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("f", &[]);
        b.ret(&[]);
        b.ret(&[]);
    }
}
