//! Fused-kernel codegen: compiles [`FusedInst`] programs into a
//! register-allocated linear IR and executes them without per-element
//! interpretation (DESIGN.md §6j).
//!
//! The fusion pass emits a stack-machine program — one slot per
//! instruction, operands referring to earlier slots. This module is the
//! compile stage behind it:
//!
//! 1. **Lowering** ([`get_or_compile`]): constant folding (the same scalar
//!    `apply` every execution path uses, so folded values are
//!    bit-identical), dead-code elimination, a mul+add/mul−sub peephole
//!    ([`IrInst::MulBin`]
//!    — still two roundings, never a hardware FMA, so results match the
//!    two-instruction spelling bit for bit), and liveness-based virtual
//!    register allocation that replaces the one-row-per-instruction
//!    scratch stack with the 2–4 rows a typical chain actually needs.
//! 2. **Specialization**: the compiled IR is pattern-matched against a
//!    closed set of monomorphized single-pass loop nests — the shapes the
//!    tracer actually emits (bias+activation epilogues, the SGD
//!    `p ← p − lr·g` update, `a·k₁ + b·k₂` momentum updates, relu/mul/add
//!    map chains, mask·dy backward products). Each specialized loop reads
//!    its operands and writes the output in one traversal: no register
//!    tile traffic at all.
//! 3. **Fallback register machine**: everything else runs the IR one
//!    pass per instruction over [`L8`]-lane register tiles, with operand
//!    resolution and instruction dispatch hoisted out of the element
//!    loop.
//!
//! Compiled kernels are cached by FNV-1a hash of the instruction
//! sequence (collisions checked structurally, mirroring the executable
//! cache) and are the *only* executor of [`HloOp::Fused`](crate::op::HloOp):
//! the fusion pass caps its groups at [`MAX_INSTS`], so every program the
//! compiler emits lowers. The contract is per-element scalar semantics —
//! element `e` of the output is the program evaluated with
//! `ElemUnary::apply`/`ElemBinary::apply` over input `i` at `e % len(i)`,
//! bit for bit (a NaN's sign and payload excepted — which operand a NaN
//! result inherits them from is unspecified): every arithmetic step
//! applies the same scalar operation in the same order, and the
//! explicit-lane paths use only exact single-rounding IEEE ops
//! (`add`/`sub`/`mul`/`div`).

use crate::met;
use crate::op::{ElemBinary, ElemUnary, FusedInst};
use s4tf_tensor::simd::{L8, LANES};
use s4tf_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Chunk width of one register row: big enough to amortize instruction
/// dispatch, small enough that the whole row file stays cache-resident.
const FUSED_CHUNK: usize = 512;
/// Elements per pool task (several chunks amortize the row allocation).
const FUSED_GRAIN: usize = 8 * FUSED_CHUNK;

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Snapshot of the codegen cache and execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenStats {
    /// Cache lookups that found an already-compiled kernel.
    pub hits: u64,
    /// Cache lookups that compiled a new kernel.
    pub misses: u64,
    /// Kernel launches that ran a specialized loop nest.
    pub specialized: u64,
    /// Kernel launches that ran the generic register machine.
    pub fallback: u64,
    /// Distinct compiled kernels that have executed specialized at least
    /// once — the "how many fused patterns did codegen close over" number.
    pub distinct_specialized: u64,
}

/// Process-wide codegen counters: a view of the registry's
/// `s4tf_xla_codegen_total{result=…}` and `s4tf_xla_codegen_patterns`.
pub fn stats() -> CodegenStats {
    CodegenStats {
        hits: hits().value(),
        misses: misses().value(),
        specialized: specialized().value(),
        fallback: fallback().value(),
        distinct_specialized: patterns().value(),
    }
}

const LOOKUP_HELP: &str = "Fused-kernel codegen cache lookups, by outcome";

fn hits() -> &'static met::Counter {
    met::counter!("s4tf_xla_codegen_total{result=\"hit\"}", LOOKUP_HELP)
}

fn misses() -> &'static met::Counter {
    met::counter!("s4tf_xla_codegen_total{result=\"miss\"}", LOOKUP_HELP)
}

fn specialized() -> &'static met::Counter {
    met::counter!(
        "s4tf_xla_codegen_total{result=\"specialized\"}",
        "Fused-kernel launches that ran a specialized loop nest"
    )
}

fn fallback() -> &'static met::Counter {
    met::counter!(
        "s4tf_xla_codegen_total{result=\"fallback\"}",
        "Fused-kernel launches that ran the generic register machine"
    )
}

fn patterns() -> &'static met::Counter {
    met::counter!(
        "s4tf_xla_codegen_patterns",
        "Distinct compiled fused kernels that have run specialized"
    )
}

// ---------------------------------------------------------------------------
// IR
// ---------------------------------------------------------------------------

/// Destination sentinel: the instruction writes the kernel output
/// directly (always and only the final instruction).
pub const DST_OUT: u8 = u8::MAX;

/// An operand of a compiled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A virtual register (a `FUSED_CHUNK`-wide row).
    Reg(u8),
    /// Kernel input `i`, read directly (full-shape) or from a
    /// materialized broadcast/alias row.
    In(u8),
    /// Immediate pool entry `k` (materialized into a row once per task).
    Imm(u8),
}

/// One compiled instruction. `dst` is a virtual register or [`DST_OUT`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IrInst {
    /// `dst = a` — degenerate programs whose output is an input or a
    /// folded constant.
    Copy {
        /// Destination register.
        dst: u8,
        /// Source operand.
        a: Src,
    },
    /// `dst = op(a)`.
    Unary {
        /// Operation.
        op: ElemUnary,
        /// Destination register.
        dst: u8,
        /// Operand.
        a: Src,
    },
    /// `dst = op(a, b)`.
    Binary {
        /// Operation.
        op: ElemBinary,
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// The mul+add/sub peephole: `op(a·b, c)` when `mul_first`, else
    /// `op(c, a·b)`. Computed as two single-rounding IEEE ops (the
    /// product is rounded, then combined), so the value is bit-identical
    /// to the separate mul and add/sub instructions it replaced — the
    /// win is one traversal instead of two, not contraction.
    MulBin {
        /// Combining operation (`Add` or `Sub`).
        op: ElemBinary,
        /// Destination register.
        dst: u8,
        /// Product left operand.
        a: Src,
        /// Product right operand.
        b: Src,
        /// The non-product operand.
        c: Src,
        /// Whether the product is `op`'s left operand.
        mul_first: bool,
    },
}

impl IrInst {
    fn dst(&self) -> u8 {
        match *self {
            IrInst::Copy { dst, .. }
            | IrInst::Unary { dst, .. }
            | IrInst::Binary { dst, .. }
            | IrInst::MulBin { dst, .. } => dst,
        }
    }
}

/// The closed set of specialized loop nests, detected by matching the
/// compiled IR. Operand positions come from the IR at launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Spec {
    /// Output is a folded constant.
    Fill(f32),
    /// Output is an input passthrough.
    CopyIn,
    /// `out = u(x)`.
    Act1(ElemUnary),
    /// `out = u2(u1(x))`.
    Act2(ElemUnary, ElemUnary),
    /// `out = act(a ⊕ b)` — bias/residual + activation epilogues.
    BinAct(ElemBinary, Option<ElemUnary>),
    /// `out = act(op(a·b, c))` (operand order per `mul_first`) — the SGD
    /// update `p + g·(−lr)`, affine maps `relu(x·m + k)`, saxpy.
    MulBinAct(ElemBinary, Option<ElemUnary>),
    /// `out = op₂(op₁(p, q), r)` / `op₂(r, op₁(p, q))` — loss-gradient
    /// scalings `(softmax − labels)/B`, relu-backward `mask(x)·dy`.
    BinBin(ElemBinary, ElemBinary),
    /// `out = op(a·b, c·d)` — the momentum update `v·μ + g·(−lr)`.
    Axpby(ElemBinary),
}

impl Spec {
    fn name(self) -> &'static str {
        match self {
            Spec::Fill(_) => "fill",
            Spec::CopyIn => "copy",
            Spec::Act1(_) => "act1",
            Spec::Act2(..) => "act2",
            Spec::BinAct(..) => "bin_act",
            Spec::MulBinAct(..) => "mulbin_act",
            Spec::BinBin(..) => "bin_bin",
            Spec::Axpby(_) => "axpby",
        }
    }
}

/// A fused program compiled to linear IR, ready to launch.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The source program (kept for cache collision checks).
    insts: Vec<FusedInst>,
    ir: Vec<IrInst>,
    n_regs: usize,
    imms: Vec<f32>,
    /// Which kernel inputs the compiled IR actually reads.
    input_live: Vec<bool>,
    spec: Option<Spec>,
    /// Scalar ops per output element in the compiled IR (`MulBin` = 2,
    /// `Copy` = 0) — the honest FLOP count for the cost model.
    flops_per_elem: u64,
    /// First-specialized-run latch for the distinct-pattern counter.
    ran_specialized: AtomicBool,
}

impl CompiledKernel {
    /// The compiled instruction sequence.
    pub fn ir(&self) -> &[IrInst] {
        &self.ir
    }

    /// Virtual registers the fallback machine needs (liveness reuse, not
    /// one row per source instruction).
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Name of the specialized loop nest this kernel dispatches to, or
    /// `None` when it runs the generic register machine.
    pub fn specialization(&self) -> Option<&'static str> {
        self.spec.map(Spec::name)
    }

    /// Scalar ops per output element in the compiled IR.
    pub fn flops_per_elem(&self) -> u64 {
        self.flops_per_elem
    }

    /// Whether the compiled IR reads kernel input `i` (dead and folded
    /// inputs cost no memory traffic).
    pub fn input_live(&self, i: usize) -> bool {
        self.input_live.get(i).copied().unwrap_or(false)
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Per-slot value classification after constant folding.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Const(f32),
    In(usize),
    Dyn,
}

/// Pre-allocation instruction: operands are still source-slot indices.
#[derive(Clone, Copy)]
enum PreOp {
    Copy(usize),
    Unary(ElemUnary, usize),
    Binary(ElemBinary, usize, usize),
    MulBin(ElemBinary, usize, usize, usize, bool),
}

/// Upper bound on compilable program length (virtual registers are `u8`
/// with [`DST_OUT`] reserved; real fused chains are far shorter). The
/// fusion pass stops growing a group here, so it never emits a program
/// [`lower`] rejects.
pub(crate) const MAX_INSTS: usize = 128;

/// Lowers a fused program. `Err` names what is malformed (too long,
/// forward operand references, …) — only a hand-built program can be.
fn lower(insts: &[FusedInst]) -> Result<CompiledKernel, &'static str> {
    if insts.is_empty() {
        return Err("empty program");
    }
    if insts.len() > MAX_INSTS {
        return Err("program too long");
    }
    let len = insts.len();
    let n_inputs = insts
        .iter()
        .map(|i| match i {
            FusedInst::Input(i) => i + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0);

    // 1. Classify slots, folding constants with the same scalar `apply`
    // the execution loops use (bit-identical by construction).
    let mut val = Vec::with_capacity(len);
    for (i, inst) in insts.iter().enumerate() {
        let v = match inst {
            FusedInst::Input(p) => Slot::In(*p),
            FusedInst::Imm(x) => Slot::Const(*x),
            FusedInst::Unary(u, a) => {
                if *a >= i {
                    return Err("forward operand reference");
                }
                match val[*a] {
                    Slot::Const(x) => Slot::Const(u.apply(x)),
                    _ => Slot::Dyn,
                }
            }
            FusedInst::Binary(b, a, c) => {
                if *a >= i || *c >= i {
                    return Err("forward operand reference");
                }
                match (val[*a], val[*c]) {
                    (Slot::Const(x), Slot::Const(y)) => Slot::Const(b.apply(x, y)),
                    _ => Slot::Dyn,
                }
            }
        };
        val.push(v);
    }

    // 2. Liveness from the output slot backward (operands always refer
    // to earlier slots, so one reverse sweep suffices).
    let out_slot = len - 1;
    let mut live = vec![false; len];
    live[out_slot] = true;
    for i in (0..len).rev() {
        if !live[i] || val[i] != Slot::Dyn {
            continue;
        }
        match insts[i] {
            FusedInst::Unary(_, a) => live[a] = true,
            FusedInst::Binary(_, a, c) => {
                live[a] = true;
                live[c] = true;
            }
            _ => {}
        }
    }

    // Degenerate outputs: the whole program is a fill or a passthrough.
    let mut prog: Vec<(usize, PreOp)> = Vec::new();
    match val[out_slot] {
        Slot::Const(_) | Slot::In(_) => prog.push((out_slot, PreOp::Copy(out_slot))),
        Slot::Dyn => {
            // 3. Use counts among live dynamic consumers, for the peephole's
            // single-use test.
            let mut uses = vec![0usize; len];
            for i in 0..len {
                if !live[i] || val[i] != Slot::Dyn {
                    continue;
                }
                match insts[i] {
                    FusedInst::Unary(_, a) => uses[a] += 1,
                    FusedInst::Binary(_, a, c) => {
                        uses[a] += 1;
                        uses[c] += 1;
                    }
                    _ => {}
                }
            }

            // 4. Peephole: a single-use dynamic Mul feeding an Add/Sub is
            // absorbed into one MulBin traversal (operand order preserved).
            let mut absorbed = vec![false; len];
            let absorbable = |s: usize, absorbed: &[bool]| {
                live[s]
                    && !absorbed[s]
                    && val[s] == Slot::Dyn
                    && uses[s] == 1
                    && matches!(insts[s], FusedInst::Binary(ElemBinary::Mul, _, _))
            };
            for i in 0..len {
                if !live[i] || val[i] != Slot::Dyn {
                    continue;
                }
                let pre = match insts[i] {
                    FusedInst::Unary(u, a) => PreOp::Unary(u, a),
                    FusedInst::Binary(op @ (ElemBinary::Add | ElemBinary::Sub), a, c) => {
                        if absorbable(a, &absorbed) {
                            absorbed[a] = true;
                            let FusedInst::Binary(_, ma, mb) = insts[a] else {
                                unreachable!()
                            };
                            PreOp::MulBin(op, ma, mb, c, true)
                        } else if absorbable(c, &absorbed) {
                            absorbed[c] = true;
                            let FusedInst::Binary(_, ma, mb) = insts[c] else {
                                unreachable!()
                            };
                            PreOp::MulBin(op, ma, mb, a, false)
                        } else {
                            PreOp::Binary(op, a, c)
                        }
                    }
                    FusedInst::Binary(op, a, c) => PreOp::Binary(op, a, c),
                    _ => unreachable!("Input/Imm slots are never Dyn"),
                };
                prog.push((i, pre));
            }
            prog.retain(|(slot, _)| !absorbed[*slot]);
        }
    }

    // 5. Register allocation: last-use liveness with a free list. The
    // destination is drawn *before* operands are released, so an
    // instruction never writes the row it is reading (keeps the
    // execution borrows disjoint).
    let mut last_use: Vec<Option<usize>> = vec![None; len];
    for (pi, (_, pre)) in prog.iter().enumerate() {
        let mut mark = |s: usize| {
            if val[s] == Slot::Dyn {
                last_use[s] = Some(pi);
            }
        };
        match *pre {
            PreOp::Copy(a) | PreOp::Unary(_, a) => mark(a),
            PreOp::Binary(_, a, b) => {
                mark(a);
                mark(b);
            }
            PreOp::MulBin(_, a, b, c, _) => {
                mark(a);
                mark(b);
                mark(c);
            }
        }
    }

    let mut imms: Vec<f32> = Vec::new();
    let imm_index = |x: f32, imms: &mut Vec<f32>| -> u8 {
        match imms.iter().position(|v| v.to_bits() == x.to_bits()) {
            Some(k) => k as u8,
            None => {
                imms.push(x);
                (imms.len() - 1) as u8
            }
        }
    };
    let mut reg_of: Vec<Option<u8>> = vec![None; len];
    let mut free: Vec<u8> = Vec::new();
    let mut n_regs: usize = 0;
    let mut input_live = vec![false; n_inputs];
    let mut ir = Vec::with_capacity(prog.len());
    for (pi, &(slot, pre)) in prog.iter().enumerate() {
        let src = |s: usize, imms: &mut Vec<f32>, input_live: &mut [bool]| -> Src {
            match val[s] {
                Slot::Const(x) => Src::Imm(imm_index(x, imms)),
                Slot::In(i) => {
                    input_live[i] = true;
                    Src::In(i as u8)
                }
                Slot::Dyn => Src::Reg(reg_of[s].expect("operand register allocated")),
            }
        };
        let (inst, operands): (IrInst, [Option<usize>; 3]) = {
            let dst = if slot == out_slot {
                DST_OUT
            } else {
                free.pop().unwrap_or_else(|| {
                    n_regs += 1;
                    (n_regs - 1) as u8
                })
            };
            match pre {
                PreOp::Copy(a) => (
                    IrInst::Copy {
                        dst,
                        a: src(a, &mut imms, &mut input_live),
                    },
                    [Some(a), None, None],
                ),
                PreOp::Unary(op, a) => (
                    IrInst::Unary {
                        op,
                        dst,
                        a: src(a, &mut imms, &mut input_live),
                    },
                    [Some(a), None, None],
                ),
                PreOp::Binary(op, a, b) => (
                    IrInst::Binary {
                        op,
                        dst,
                        a: src(a, &mut imms, &mut input_live),
                        b: src(b, &mut imms, &mut input_live),
                    },
                    [Some(a), Some(b), None],
                ),
                PreOp::MulBin(op, a, b, c, mul_first) => (
                    IrInst::MulBin {
                        op,
                        dst,
                        a: src(a, &mut imms, &mut input_live),
                        b: src(b, &mut imms, &mut input_live),
                        c: src(c, &mut imms, &mut input_live),
                        mul_first,
                    },
                    [Some(a), Some(b), Some(c)],
                ),
            }
        };
        if slot != out_slot {
            reg_of[slot] = Some(inst.dst());
        }
        // Release operand registers at their last use (deduplicated: an
        // instruction may reference one slot twice).
        let mut released: [Option<usize>; 3] = [None; 3];
        for o in operands.into_iter().flatten() {
            if val[o] == Slot::Dyn && last_use[o] == Some(pi) && !released.contains(&Some(o)) {
                released[released.iter().position(|r| r.is_none()).unwrap()] = Some(o);
                free.push(reg_of[o].expect("operand register allocated"));
            }
        }
        ir.push(inst);
    }

    let flops_per_elem: u64 = ir
        .iter()
        .map(|i| match i {
            IrInst::Copy { .. } => 0,
            IrInst::Unary { .. } | IrInst::Binary { .. } => 1,
            IrInst::MulBin { .. } => 2,
        })
        .sum();

    let spec = detect_spec(&ir, &imms);
    Ok(CompiledKernel {
        insts: insts.to_vec(),
        ir,
        n_regs,
        imms,
        input_live,
        spec,
        flops_per_elem,
        ran_specialized: AtomicBool::new(false),
    })
}

/// `Src` is not a register?
fn leaf(s: Src) -> bool {
    !matches!(s, Src::Reg(_))
}

/// Matches the compiled IR against the specialized loop-nest set.
fn detect_spec(ir: &[IrInst], imms: &[f32]) -> Option<Spec> {
    match *ir {
        [IrInst::Copy { a: Src::Imm(k), .. }] => Some(Spec::Fill(imms[k as usize])),
        [IrInst::Copy { a: Src::In(_), .. }] => Some(Spec::CopyIn),
        [IrInst::Unary { op, a, .. }] if leaf(a) => Some(Spec::Act1(op)),
        [IrInst::Unary {
            op: u1,
            dst: d0,
            a: a0,
        }, IrInst::Unary {
            op: u2,
            a: Src::Reg(r),
            ..
        }] if leaf(a0) && r == d0 => Some(Spec::Act2(u1, u2)),
        [IrInst::Binary { op, a, b, .. }] if leaf(a) && leaf(b) => Some(Spec::BinAct(op, None)),
        [IrInst::Binary { op, dst: d0, a, b }, IrInst::Unary {
            op: act,
            a: Src::Reg(r),
            ..
        }] if leaf(a) && leaf(b) && r == d0 => Some(Spec::BinAct(op, Some(act))),
        [IrInst::MulBin { op, a, b, c, .. }] if leaf(a) && leaf(b) && leaf(c) => {
            Some(Spec::MulBinAct(op, None))
        }
        [IrInst::MulBin {
            op,
            dst: d0,
            a,
            b,
            c,
            ..
        }, IrInst::Unary {
            op: act,
            a: Src::Reg(r),
            ..
        }] if leaf(a) && leaf(b) && leaf(c) && r == d0 => Some(Spec::MulBinAct(op, Some(act))),
        // Momentum update: a standalone product feeding the non-product
        // side of a MulBin — `op(a·b, p·q)` in program order.
        [IrInst::Binary {
            op: ElemBinary::Mul,
            dst: d0,
            a: p,
            b: q,
        }, IrInst::MulBin {
            op,
            a,
            b,
            c: Src::Reg(r),
            ..
        }] if leaf(p) && leaf(q) && leaf(a) && leaf(b) && r == d0 => Some(Spec::Axpby(op)),
        [IrInst::Binary {
            op: op1,
            dst: d0,
            a: p,
            b: q,
        }, IrInst::Binary { op: op2, a, b, .. }]
            if leaf(p) && leaf(q) =>
        {
            match (a, b) {
                (Src::Reg(r), other) if r == d0 && leaf(other) => Some(Spec::BinBin(op1, op2)),
                (other, Src::Reg(r)) if r == d0 && leaf(other) => Some(Spec::BinBin(op1, op2)),
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// FNV-1a fingerprint of a fused program (the codegen cache key; mirrors
/// the executable cache's graph fingerprint).
pub fn fingerprint(insts: &[FusedInst]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for inst in insts {
        match inst {
            FusedInst::Input(i) => {
                eat(&[0]);
                eat(&(*i as u64).to_le_bytes());
            }
            FusedInst::Imm(x) => {
                eat(&[1]);
                eat(&x.to_bits().to_le_bytes());
            }
            FusedInst::Unary(u, a) => {
                eat(&[2, *u as u8]);
                eat(&(*a as u64).to_le_bytes());
            }
            FusedInst::Binary(b, a, c) => {
                eat(&[3, *b as u8]);
                eat(&(*a as u64).to_le_bytes());
                eat(&(*c as u64).to_le_bytes());
            }
        }
    }
    h
}

type Cache = HashMap<u64, Vec<Arc<CompiledKernel>>>;

fn cache() -> &'static Mutex<Cache> {
    static C: OnceLock<Mutex<Cache>> = OnceLock::new();
    C.get_or_init(Mutex::default)
}

fn lookup(insts: &[FusedInst], count: bool) -> Result<Arc<CompiledKernel>, &'static str> {
    let h = fingerprint(insts);
    let mut c = cache().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(k) = c.get(&h).and_then(|b| b.iter().find(|k| k.insts == insts)) {
        if count {
            hits().inc();
        }
        return Ok(k.clone());
    }
    if count {
        misses().inc();
    }
    let k = Arc::new(lower(insts)?);
    crate::diag::event!(
        "xla.codegen.compile",
        insts = insts.len(),
        ir = k.ir.len(),
        regs = k.n_regs,
        spec = k.spec.map(Spec::name).unwrap_or("fallback"),
    );
    c.entry(h).or_default().push(k.clone());
    Ok(k)
}

fn lookup_or_panic(insts: &[FusedInst], count: bool) -> Arc<CompiledKernel> {
    lookup(insts, count).unwrap_or_else(|why| panic!("malformed fused program: {why}"))
}

/// Compiles `insts` (or returns the cached kernel).
///
/// # Panics
/// Panics with [`lower`]'s reason on a malformed program. The fusion pass
/// never emits one; a hand-built [`HloOp::Fused`](crate::op::HloOp) can.
pub fn get_or_compile(insts: &[FusedInst]) -> Arc<CompiledKernel> {
    lookup_or_panic(insts, true)
}

/// [`get_or_compile`] without touching the hit/miss counters — for
/// consumers that want the IR (cost model, introspection), not a launch.
pub(crate) fn peek_or_compile(insts: &[FusedInst]) -> Arc<CompiledKernel> {
    lookup_or_panic(insts, false)
}

/// Compiled kernels of a graph's `Fused` nodes by node index, built at
/// executable-compile time so a launch does not re-hash its program. A
/// malformed program gets no entry: compiling the plan succeeds, and
/// launching that node fails it with [`get_or_compile`]'s panic.
pub(crate) fn fused_table(graph: &crate::graph::HloGraph) -> HashMap<usize, Arc<CompiledKernel>> {
    graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| match &node.op {
            crate::op::HloOp::Fused { insts, .. } => Some((i, lookup(insts, true).ok()?)),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// How a kernel input resolves for one launch.
#[derive(Clone, Copy)]
enum InClass {
    /// Full-shape: read directly at the global offset.
    Full,
    /// Trailing-suffix broadcast: materialized into a row per chunk.
    Bcast,
    /// Aliases the output buffer (in-place launch): materialized from
    /// the not-yet-written output chunk.
    Alias,
    /// Never read by the compiled IR.
    Dead,
}

/// Cyclically copies `src` into `dst` starting at global element
/// position `global` — the broadcast materialization `dst[j] =
/// src[(global + j) % src.len()]`: one pass over `src` as slice copies,
/// then the filled prefix doubled over the rest (a `[16]` bias fills a
/// 512-wide row in 1 + 5 copies, not 32).
fn fill_cycle(dst: &mut [f32], src: &[f32], global: usize) {
    let m = src.len();
    if m == 1 {
        dst.fill(src[0]);
        return;
    }
    let pos = global % m;
    let period = m.min(dst.len());
    let head = (m - pos).min(period);
    dst[..head].copy_from_slice(&src[pos..pos + head]);
    dst[head..period].copy_from_slice(&src[..period - head]);
    let mut filled = period;
    while filled < dst.len() {
        let take = filled.min(dst.len() - filled);
        dst.copy_within(..take, filled);
        filled += take;
    }
}

/// Everything a chunk needs to resolve operands to slices.
struct ChunkCtx<'a> {
    slices: &'a [Option<&'a [f32]>],
    classes: &'a [InClass],
    input_row: &'a [Option<usize>],
    imm_base: usize,
    /// Global element index of this chunk's first element.
    global: usize,
    len: usize,
}

impl<'a> ChunkCtx<'a> {
    /// A leaf operand that is constant across the whole launch — an
    /// immediate, or a scalar input — as a hoistable scalar. Alias
    /// inputs never qualify (they track the output buffer).
    #[inline(always)]
    fn scalar_leaf(&self, imms: &[f32], s: Src) -> Option<f32> {
        match s {
            Src::Imm(k) => Some(imms[k as usize]),
            Src::In(i) => match self.slices[i as usize] {
                Some(src) if src.len() == 1 => Some(src[0]),
                _ => None,
            },
            Src::Reg(_) => None,
        }
    }

    /// Resolves a non-register operand against the read-only row file.
    /// `rows` is addressed with absolute row indices.
    #[inline(always)]
    fn leaf_operand<'r>(&self, rows: &'r [f32], s: Src) -> &'r [f32]
    where
        'a: 'r,
    {
        match s {
            Src::Imm(k) => {
                let off = (self.imm_base + k as usize) * FUSED_CHUNK;
                &rows[off..off + self.len]
            }
            Src::In(i) => match self.classes[i as usize] {
                InClass::Full => {
                    let src = self.slices[i as usize].expect("full input has a slice");
                    &src[self.global..self.global + self.len]
                }
                _ => {
                    let row = self.input_row[i as usize].expect("broadcast/alias input has a row");
                    let off = row * FUSED_CHUNK;
                    &rows[off..off + self.len]
                }
            },
            Src::Reg(_) => unreachable!("specialized loops have no register operands"),
        }
    }

    /// Resolves any operand when the row file is split around the
    /// destination row (`lo` = rows `< split`, `hi` = rows `> split`,
    /// both addressed with absolute row indices).
    #[inline(always)]
    fn operand<'r>(&self, lo: &'r [f32], hi: &'r [f32], split: usize, s: Src) -> &'r [f32]
    where
        'a: 'r,
    {
        let row = match s {
            Src::Reg(r) => r as usize,
            Src::Imm(k) => self.imm_base + k as usize,
            Src::In(i) => match self.classes[i as usize] {
                InClass::Full => {
                    let src = self.slices[i as usize].expect("full input has a slice");
                    return &src[self.global..self.global + self.len];
                }
                _ => self.input_row[i as usize].expect("broadcast/alias input has a row"),
            },
        };
        debug_assert_ne!(row, split, "destination row is never an operand");
        if row < split {
            let off = row * FUSED_CHUNK;
            &lo[off..off + self.len]
        } else {
            let off = (row - split - 1) * FUSED_CHUNK;
            &hi[off..off + self.len]
        }
    }
}

// --- elementwise loop drivers -------------------------------------------
//
// Each driver is generic over the per-element function; the dispatch
// matches below instantiate them with *literal* enum values, so every
// (op, act) combination monomorphizes into its own closed-form loop with
// the `apply` calls constant-folded — the "macro-monomorphized loop
// nest" set, realized through generic instantiation.

/// A read stream feeding a specialized loop: either a slice or a
/// launch-constant scalar (immediates, scalar broadcasts) hoisted into
/// a register — the hoisted form removes an L1 row read per element and
/// lets the constant live in a vector register across the whole loop.
trait Rd: Copy {
    /// Narrows a slice stream to the loop extent so per-element reads
    /// are provably in bounds (no effect on scalars).
    fn clip(self, n: usize) -> Self;
    fn at(self, i: usize) -> f32;
}

impl Rd for f32 {
    #[inline(always)]
    fn clip(self, _n: usize) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _i: usize) -> f32 {
        self
    }
}

impl Rd for &[f32] {
    #[inline(always)]
    fn clip(self, n: usize) -> Self {
        &self[..n]
    }
    #[inline(always)]
    fn at(self, i: usize) -> f32 {
        self[i]
    }
}

#[inline(always)]
fn ew1(dst: &mut [f32], a: &[f32], f: impl Fn(f32) -> f32) {
    for (d, &x) in dst.iter_mut().zip(a) {
        *d = f(x);
    }
}

#[inline(always)]
fn ew2<A: Rd, B: Rd>(dst: &mut [f32], a: A, b: B, f: impl Fn(f32, f32) -> f32) {
    let n = dst.len();
    let (a, b) = (a.clip(n), b.clip(n));
    for (i, d) in dst.iter_mut().enumerate() {
        *d = f(a.at(i), b.at(i));
    }
}

#[inline(always)]
fn ew3<A: Rd, B: Rd, C: Rd>(dst: &mut [f32], a: A, b: B, c: C, f: impl Fn(f32, f32, f32) -> f32) {
    let n = dst.len();
    let (a, b, c) = (a.clip(n), b.clip(n), c.clip(n));
    for (i, d) in dst.iter_mut().enumerate() {
        *d = f(a.at(i), b.at(i), c.at(i));
    }
}

#[inline(always)]
fn ew4<A: Rd, B: Rd, C: Rd, E: Rd>(
    dst: &mut [f32],
    a: A,
    b: B,
    c: C,
    e: E,
    f: impl Fn(f32, f32, f32, f32) -> f32,
) {
    let n = dst.len();
    let (a, b, c, e) = (a.clip(n), b.clip(n), c.clip(n), e.clip(n));
    for (i, d) in dst.iter_mut().enumerate() {
        *d = f(a.at(i), b.at(i), c.at(i), e.at(i));
    }
}

/// Expands `$body` once per [`ElemUnary`] variant with `$f` bound to a
/// *distinct closure type* over the literal variant — each arm's loop
/// monomorphizes with the scalar op inlined (a function-pointer dispatch
/// here would cost an indirect call per element and block
/// vectorization). The scalar expression is the enum's own `apply`, so
/// folding, interpretation and specialized loops agree bit for bit.
macro_rules! with_unary {
    ($u:expr, $f:ident => $body:expr) => {
        match $u {
            ElemUnary::Neg => {
                let $f = |x: f32| ElemUnary::Neg.apply(x);
                $body
            }
            ElemUnary::Exp => {
                let $f = |x: f32| ElemUnary::Exp.apply(x);
                $body
            }
            ElemUnary::Ln => {
                let $f = |x: f32| ElemUnary::Ln.apply(x);
                $body
            }
            ElemUnary::Sqrt => {
                let $f = |x: f32| ElemUnary::Sqrt.apply(x);
                $body
            }
            ElemUnary::Tanh => {
                let $f = |x: f32| ElemUnary::Tanh.apply(x);
                $body
            }
            ElemUnary::Sigmoid => {
                let $f = |x: f32| ElemUnary::Sigmoid.apply(x);
                $body
            }
            ElemUnary::Relu => {
                let $f = |x: f32| ElemUnary::Relu.apply(x);
                $body
            }
            ElemUnary::Square => {
                let $f = |x: f32| ElemUnary::Square.apply(x);
                $body
            }
            ElemUnary::Recip => {
                let $f = |x: f32| ElemUnary::Recip.apply(x);
                $body
            }
        }
    };
}

/// Binary counterpart of [`with_unary!`].
macro_rules! with_binary {
    ($b:expr, $f:ident => $body:expr) => {
        match $b {
            ElemBinary::Add => {
                let $f = |x: f32, y: f32| ElemBinary::Add.apply(x, y);
                $body
            }
            ElemBinary::Sub => {
                let $f = |x: f32, y: f32| ElemBinary::Sub.apply(x, y);
                $body
            }
            ElemBinary::Mul => {
                let $f = |x: f32, y: f32| ElemBinary::Mul.apply(x, y);
                $body
            }
            ElemBinary::Div => {
                let $f = |x: f32, y: f32| ElemBinary::Div.apply(x, y);
                $body
            }
            ElemBinary::Max => {
                let $f = |x: f32, y: f32| ElemBinary::Max.apply(x, y);
                $body
            }
            ElemBinary::Min => {
                let $f = |x: f32, y: f32| ElemBinary::Min.apply(x, y);
                $body
            }
            ElemBinary::GreaterMask => {
                let $f = |x: f32, y: f32| ElemBinary::GreaterMask.apply(x, y);
                $body
            }
            ElemBinary::Pow => {
                let $f = |x: f32, y: f32| ElemBinary::Pow.apply(x, y);
                $body
            }
        }
    };
}

/// Binds `$x` to either the hoisted launch-constant scalar or the
/// resolved row slice of a leaf operand — two *distinct types*, so the
/// loop in `$body` monomorphizes both ways and the scalar form carries
/// no per-element row read.
macro_rules! with_rd {
    ($k:expr, $ctx:expr, $rows:expr, $s:expr, $x:ident => $body:expr) => {
        match $ctx.scalar_leaf(&$k.imms, $s) {
            Some(v) => {
                let $x = v;
                $body
            }
            None => {
                let $x = $ctx.leaf_operand($rows, $s);
                $body
            }
        }
    };
}

/// Optional-activation epilogue over a two-operand loop: expands to one
/// monomorphized loop per activation (and one without).
macro_rules! act_over2 {
    ($dst:expr, $a:expr, $b:expr, $act:expr, $f2:ident) => {
        match $act {
            None => ew2($dst, $a, $b, $f2),
            Some(u) => with_unary!(u, f1 => ew2($dst, $a, $b, |x, y| f1($f2(x, y)))),
        }
    };
}

/// Three-operand counterpart of [`act_over2!`] (`$f3` is a bound closure
/// name, so every (combiner, activation) pair gets its own loop).
macro_rules! act_over3 {
    ($dst:expr, $a:expr, $b:expr, $c:expr, $act:expr, $f3:ident) => {
        match $act {
            None => ew3($dst, $a, $b, $c, $f3),
            Some(u) => with_unary!(u, f1 => ew3($dst, $a, $b, $c, |x, y, z| f1($f3(x, y, z)))),
        }
    };
}

// --- explicit-lane drivers (fallback machine) ---------------------------

/// `dst[j] = fl(a[j], b[j])` over [`L8`] lanes with a scalar tail. Only
/// used for exact single-rounding ops (`fl` and `fs` must be the same
/// IEEE operation), so lane and scalar spellings are bit-identical.
#[inline(always)]
fn lanes2(
    dst: &mut [f32],
    a: &[f32],
    b: &[f32],
    fl: impl Fn(L8, L8) -> L8,
    fs: impl Fn(f32, f32) -> f32,
) {
    let n = dst.len();
    let mut j = 0;
    while j + LANES <= n {
        fl(L8::load(&a[j..]), L8::load(&b[j..])).store(&mut dst[j..]);
        j += LANES;
    }
    while j < n {
        dst[j] = fs(a[j], b[j]);
        j += 1;
    }
}

/// Three-operand lane driver for [`IrInst::MulBin`].
#[inline(always)]
fn lanes3(
    dst: &mut [f32],
    a: &[f32],
    b: &[f32],
    c: &[f32],
    fl: impl Fn(L8, L8, L8) -> L8,
    fs: impl Fn(f32, f32, f32) -> f32,
) {
    let n = dst.len();
    let mut j = 0;
    while j + LANES <= n {
        fl(L8::load(&a[j..]), L8::load(&b[j..]), L8::load(&c[j..])).store(&mut dst[j..]);
        j += LANES;
    }
    while j < n {
        dst[j] = fs(a[j], b[j], c[j]);
        j += 1;
    }
}

/// One `MulBin` pass: the product is rounded, then combined — per lane
/// and per scalar tail element alike, so all spellings agree bitwise.
#[inline(always)]
fn mulbin_pass(dst: &mut [f32], a: &[f32], b: &[f32], c: &[f32], op: ElemBinary, mul_first: bool) {
    match (op, mul_first) {
        (ElemBinary::Add, _) => {
            // IEEE addition is commutative, so operand order is free here.
            lanes3(
                dst,
                a,
                b,
                c,
                |x, y, z| x.mul(y).add(z),
                |x, y, z| (x * y) + z,
            );
        }
        (ElemBinary::Sub, true) => {
            lanes3(
                dst,
                a,
                b,
                c,
                |x, y, z| x.mul(y).sub(z),
                |x, y, z| (x * y) - z,
            );
        }
        (ElemBinary::Sub, false) => {
            lanes3(
                dst,
                a,
                b,
                c,
                |x, y, z| z.sub(x.mul(y)),
                |x, y, z| z - (x * y),
            );
        }
        _ => unreachable!("peephole emits only Add/Sub MulBin"),
    }
}

/// One launch of a compiled kernel: the operand classification and
/// row-file layout shared by every task of the launch.
struct Launch<'a> {
    kernel: &'a CompiledKernel,
    slices: &'a [Option<&'a [f32]>],
    classes: Vec<InClass>,
    input_row: Vec<Option<usize>>,
    imm_base: usize,
    n_rows: usize,
    /// Whether tasks read the row file at all. A specialized loop with no
    /// broadcast/alias input to materialize and its immediates hoisted to
    /// scalars (`BinBin` is the one specialization that still reads
    /// immediate rows) covers a whole task in one call, with no 512-wide
    /// chunk stepping.
    needs_rows: bool,
}

impl<'a> Launch<'a> {
    /// Classifies the operands of a launch over `n` elements and counts
    /// it. `slices[i] = None` marks input `i` as aliasing the output.
    fn new(kernel: &'a CompiledKernel, slices: &'a [Option<&'a [f32]>], n: usize) -> Self {
        if kernel.spec.is_some() {
            specialized().inc();
            if !kernel.ran_specialized.swap(true, Ordering::Relaxed) {
                patterns().inc();
            }
        } else {
            fallback().inc();
        }
        let classes: Vec<InClass> = (0..slices.len())
            .map(|i| {
                if !kernel.input_live(i) {
                    return InClass::Dead;
                }
                match slices[i] {
                    None => InClass::Alias,
                    Some(s) if s.len() == n => InClass::Full,
                    Some(_) => InClass::Bcast,
                }
            })
            .collect();
        // Row layout: registers first (fallback only), immediates, then
        // one row per broadcast/alias input the IR reads.
        let imm_base = if kernel.spec.is_some() {
            0
        } else {
            kernel.n_regs
        };
        let mut next_row = imm_base + kernel.imms.len();
        let input_row: Vec<Option<usize>> = classes
            .iter()
            .map(|c| match c {
                InClass::Bcast | InClass::Alias => {
                    next_row += 1;
                    Some(next_row - 1)
                }
                _ => None,
            })
            .collect();
        let needs_rows = match kernel.spec {
            Some(spec) => {
                input_row.iter().any(|r| r.is_some())
                    || (matches!(spec, Spec::BinBin(..)) && !kernel.imms.is_empty())
            }
            None => true,
        };
        Launch {
            kernel,
            slices,
            classes,
            input_row,
            imm_base,
            n_rows: next_row,
            needs_rows,
        }
    }

    fn ctx(&self, global: usize, len: usize) -> ChunkCtx<'_> {
        ChunkCtx {
            slices: self.slices,
            classes: &self.classes,
            input_row: &self.input_row,
            imm_base: self.imm_base,
            global,
            len,
        }
    }

    /// Computes output elements `task_start .. task_start + out.len()`
    /// into `out` (for an alias input, `out` holds its elements on entry).
    fn task(&self, task_start: usize, out_chunk: &mut [f32]) {
        let kernel = self.kernel;
        if let (Some(spec), false) = (kernel.spec, self.needs_rows) {
            return s4tf_tensor::simd::vectorize(|| {
                let ctx = self.ctx(task_start, out_chunk.len());
                kernel.run_spec(spec, &ctx, &[], out_chunk);
            });
        }
        let rows_len = self.n_rows * FUSED_CHUNK;
        let mut rows = match s4tf_tensor::pool::take_vec::<f32>(rows_len) {
            Some(mut v) => {
                v.resize(rows_len, 0.0);
                v
            }
            None => {
                let mut v = Vec::with_capacity(rows_len.next_power_of_two());
                v.resize(rows_len, 0.0);
                v
            }
        };
        s4tf_tensor::simd::vectorize(|| {
            // Immediates materialize once per task, never per chunk.
            for (k, &v) in kernel.imms.iter().enumerate() {
                let off = (self.imm_base + k) * FUSED_CHUNK;
                rows[off..off + FUSED_CHUNK].fill(v);
            }
            let mut start = 0usize;
            while start < out_chunk.len() {
                let len = FUSED_CHUNK.min(out_chunk.len() - start);
                let global = task_start + start;
                // Materialize broadcast and alias rows for this chunk
                // (alias rows must copy before the output range is
                // written). A broadcast row whose cycle divides the chunk
                // width reads the same in every chunk of the task.
                for (i, class) in self.classes.iter().enumerate() {
                    match class {
                        InClass::Bcast => {
                            let off = self.input_row[i].unwrap() * FUSED_CHUNK;
                            let src = self.slices[i].expect("broadcast input has a slice");
                            if start == 0 || !FUSED_CHUNK.is_multiple_of(src.len()) {
                                fill_cycle(&mut rows[off..off + len], src, global);
                            }
                        }
                        InClass::Alias => {
                            let off = self.input_row[i].unwrap() * FUSED_CHUNK;
                            rows[off..off + len].copy_from_slice(&out_chunk[start..start + len]);
                        }
                        _ => {}
                    }
                }
                let ctx = self.ctx(global, len);
                let dst = &mut out_chunk[start..start + len];
                match kernel.spec {
                    Some(spec) => kernel.run_spec(spec, &ctx, &rows, dst),
                    None => kernel.run_machine(&ctx, &mut rows, dst),
                }
                start += len;
            }
        });
        s4tf_tensor::pool::give_vec(rows);
    }
}

impl CompiledKernel {
    /// Executes the compiled kernel. `slices[i] = None` marks input `i`
    /// as aliasing `out` (in-place launch on a dying buffer): its
    /// elements are read from each output chunk before that chunk is
    /// written, so only full-shape inputs may alias.
    pub(crate) fn run(&self, slices: &[Option<&[f32]>], n: usize, out: &mut [f32]) {
        let launch = Launch::new(self, slices, n);
        s4tf_threads::parallel_chunks_mut(out, 1, FUSED_GRAIN, |start, chunk| {
            launch.task(start, chunk);
        });
    }

    /// Executes the kernel over `n` elements with the reduction epilogue
    /// of [`HloOp::Fused`](crate::op::HloOp)'s `reduce_to`: the program's
    /// values are never stored, only summed onto `cols` columns by
    /// [`column_sums`](s4tf_tensor::ops::reduce::column_sums) — one grain
    /// of them at a time through a cache-resident block — so the result
    /// is bit-identical to `reduce_to_shape` of the materialized values
    /// and independent of the thread count.
    pub(crate) fn run_reduce(
        &self,
        slices: &[Option<&[f32]>],
        n: usize,
        cols: usize,
    ) -> Tensor<f32> {
        let launch = Launch::new(self, slices, n);
        s4tf_tensor::ops::reduce::column_sums(n, cols, |elements, acc| {
            let block_len = FUSED_GRAIN.min(elements.len());
            let mut block = s4tf_tensor::pool::take_vec::<f32>(block_len)
                .unwrap_or_else(|| Vec::with_capacity(block_len));
            block.resize(block_len, 0.0);
            for start in elements.clone().step_by(FUSED_GRAIN) {
                let values = &mut block[..block_len.min(elements.end - start)];
                launch.task(start, values);
                acc.push(values);
            }
            s4tf_tensor::pool::give_vec(block);
        })
    }

    /// One chunk through the matched specialized loop nest: a single
    /// fused traversal, operands read straight from inputs/rows.
    #[inline(always)]
    fn run_spec(&self, spec: Spec, ctx: &ChunkCtx<'_>, rows: &[f32], dst: &mut [f32]) {
        match spec {
            Spec::Fill(v) => dst.fill(v),
            Spec::CopyIn => {
                let IrInst::Copy { a, .. } = self.ir[0] else {
                    unreachable!()
                };
                dst.copy_from_slice(ctx.leaf_operand(rows, a));
            }
            Spec::Act1(u) => {
                let IrInst::Unary { a, .. } = self.ir[0] else {
                    unreachable!()
                };
                let a = ctx.leaf_operand(rows, a);
                with_unary!(u, f1 => ew1(dst, a, f1));
            }
            Spec::Act2(u1, u2) => {
                let IrInst::Unary { a, .. } = self.ir[0] else {
                    unreachable!()
                };
                let a = ctx.leaf_operand(rows, a);
                with_unary!(u1, f1 => with_unary!(u2, f2 => ew1(dst, a, |x| f2(f1(x)))));
            }
            Spec::BinAct(op, act) => {
                let IrInst::Binary { a, b, .. } = self.ir[0] else {
                    unreachable!()
                };
                with_rd!(self, ctx, rows, a, a => with_rd!(self, ctx, rows, b, b => {
                    with_binary!(op, f2 => act_over2!(dst, a, b, act, f2))
                }));
            }
            Spec::MulBinAct(op, act) => {
                let IrInst::MulBin {
                    a, b, c, mul_first, ..
                } = self.ir[0]
                else {
                    unreachable!()
                };
                // The product rounds, then combines: never contracted.
                with_rd!(self, ctx, rows, a, a => with_rd!(self, ctx, rows, b, b => {
                    with_rd!(self, ctx, rows, c, c => match (op, mul_first) {
                        (ElemBinary::Add, _) => {
                            let f3 = |x: f32, y: f32, z: f32| (x * y) + z;
                            act_over3!(dst, a, b, c, act, f3);
                        }
                        (ElemBinary::Sub, true) => {
                            let f3 = |x: f32, y: f32, z: f32| (x * y) - z;
                            act_over3!(dst, a, b, c, act, f3);
                        }
                        (ElemBinary::Sub, false) => {
                            let f3 = |x: f32, y: f32, z: f32| z - (x * y);
                            act_over3!(dst, a, b, c, act, f3);
                        }
                        _ => unreachable!("peephole emits only Add/Sub MulBin"),
                    })
                }));
            }
            Spec::BinBin(op1, op2) => {
                let IrInst::Binary {
                    a: p,
                    b: q,
                    dst: d0,
                    ..
                } = self.ir[0]
                else {
                    unreachable!()
                };
                let IrInst::Binary { a, b, .. } = self.ir[1] else {
                    unreachable!()
                };
                let (p, q) = (ctx.leaf_operand(rows, p), ctx.leaf_operand(rows, q));
                let (r, reg_lhs) = match (a, b) {
                    (Src::Reg(r0), other) if r0 == d0 => (ctx.leaf_operand(rows, other), true),
                    (other, _) => (ctx.leaf_operand(rows, other), false),
                };
                with_binary!(op1, f1 => with_binary!(op2, f2 => {
                    if reg_lhs {
                        ew3(dst, p, q, r, |x, y, z| f2(f1(x, y), z));
                    } else {
                        ew3(dst, p, q, r, |x, y, z| f2(z, f1(x, y)));
                    }
                }));
            }
            Spec::Axpby(op) => {
                let IrInst::Binary { a: p, b: q, .. } = self.ir[0] else {
                    unreachable!()
                };
                let IrInst::MulBin {
                    a, b, mul_first, ..
                } = self.ir[1]
                else {
                    unreachable!()
                };
                // Both products round independently; only the combining
                // operand order matters for bit-identity. The scale
                // factors (lr, momentum) hoist to scalars here.
                with_rd!(self, ctx, rows, a, a => with_rd!(self, ctx, rows, b, b => {
                    with_rd!(self, ctx, rows, p, p => with_rd!(self, ctx, rows, q, q => {
                        match (op, mul_first) {
                            (ElemBinary::Add, _) => {
                                ew4(dst, a, b, p, q, |x, y, z, w| (x * y) + (z * w));
                            }
                            (ElemBinary::Sub, true) => {
                                ew4(dst, a, b, p, q, |x, y, z, w| (x * y) - (z * w));
                            }
                            (ElemBinary::Sub, false) => {
                                ew4(dst, a, b, p, q, |x, y, z, w| (z * w) - (x * y));
                            }
                            _ => unreachable!("Axpby combines with Add/Sub only"),
                        }
                    }))
                }));
            }
        }
    }

    /// One chunk through the generic register machine: one pass per IR
    /// instruction over `FUSED_CHUNK`-wide register rows, dispatch and
    /// operand resolution hoisted out of the element loop, arithmetic
    /// over explicit [`L8`] lanes where the op is exact.
    #[inline(always)]
    fn run_machine(&self, ctx: &ChunkCtx<'_>, rows: &mut [f32], out: &mut [f32]) {
        for inst in &self.ir {
            let dst = inst.dst();
            if dst == DST_OUT {
                // The final instruction writes the output directly; the
                // whole row file is readable (split point past the end).
                let split = usize::MAX;
                Self::exec_inst(inst, ctx, rows, &[], split, out);
            } else {
                let row = dst as usize;
                let off = row * FUSED_CHUNK;
                let (lo, rest) = rows.split_at_mut(off);
                let (d, hi) = rest.split_at_mut(FUSED_CHUNK);
                Self::exec_inst(inst, ctx, lo, hi, row, &mut d[..ctx.len]);
            }
        }
    }

    #[inline(always)]
    fn exec_inst(
        inst: &IrInst,
        ctx: &ChunkCtx<'_>,
        lo: &[f32],
        hi: &[f32],
        split: usize,
        dst: &mut [f32],
    ) {
        match *inst {
            IrInst::Copy { a, .. } => dst.copy_from_slice(ctx.operand(lo, hi, split, a)),
            IrInst::Unary { op, a, .. } => {
                let a = ctx.operand(lo, hi, split, a);
                with_unary!(op, f1 => ew1(dst, a, f1));
            }
            IrInst::Binary { op, a, b, .. } => {
                let (a, b) = (ctx.operand(lo, hi, split, a), ctx.operand(lo, hi, split, b));
                // Exact ops run over explicit lanes; the rest get one
                // monomorphized scalar loop per op.
                match op {
                    ElemBinary::Add => lanes2(dst, a, b, L8::add, |x, y| x + y),
                    ElemBinary::Sub => lanes2(dst, a, b, L8::sub, |x, y| x - y),
                    ElemBinary::Mul => lanes2(dst, a, b, L8::mul, |x, y| x * y),
                    ElemBinary::Div => lanes2(dst, a, b, L8::div, |x, y| x / y),
                    op => with_binary!(op, f2 => ew2(dst, a, b, f2)),
                }
            }
            IrInst::MulBin {
                op,
                a,
                b,
                c,
                mul_first,
                ..
            } => {
                let (a, b, c) = (
                    ctx.operand(lo, hi, split, a),
                    ctx.operand(lo, hi, split, b),
                    ctx.operand(lo, hi, split, c),
                );
                mulbin_pass(dst, a, b, c, op, mul_first);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract: per-element scalar semantics, obvious by inspection.
    fn reference(insts: &[FusedInst], inputs: &[Vec<f32>], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n];
        let mut regs = vec![0.0f32; insts.len()];
        for (e, o) in out.iter_mut().enumerate() {
            for (r, inst) in insts.iter().enumerate() {
                regs[r] = match inst {
                    FusedInst::Input(i) => inputs[*i][e % inputs[*i].len()],
                    FusedInst::Imm(x) => *x,
                    FusedInst::Unary(u, a) => u.apply(regs[*a]),
                    FusedInst::Binary(b, a, c) => b.apply(regs[*a], regs[*c]),
                };
            }
            *o = regs[insts.len() - 1];
        }
        out
    }

    fn run_compiled(insts: &[FusedInst], inputs: &[Vec<f32>], n: usize) -> Vec<f32> {
        let k = get_or_compile(insts);
        let slices: Vec<Option<&[f32]>> = inputs.iter().map(|v| Some(&v[..])).collect();
        let mut out = vec![0.0f32; n];
        k.run(&slices, n, &mut out);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sgd_update_compiles_to_one_mulbin_and_specializes() {
        // p + g·(−lr): Mul(g, imm) absorbed into the Add.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Imm(-0.1),
            FusedInst::Binary(ElemBinary::Mul, 0, 1),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 3, 2),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.ir().len(), 1);
        assert!(matches!(
            k.ir()[0],
            IrInst::MulBin {
                op: ElemBinary::Add,
                ..
            }
        ));
        assert_eq!(k.specialization(), Some("mulbin_act"));
        assert_eq!(k.flops_per_elem(), 2);
        let g: Vec<f32> = (0..1000).map(|i| (i as f32) * 0.01 - 3.0).collect();
        let p: Vec<f32> = (0..1000).map(|i| (i as f32) * -0.02 + 1.0).collect();
        let inputs = vec![g, p];
        assert_eq!(
            bits(&run_compiled(&insts, &inputs, 1000)),
            bits(&reference(&insts, &inputs, 1000))
        );
    }

    #[test]
    fn bias_relu_epilogue_specializes_with_broadcast() {
        // relu(x + bias[c]) over a [N, C] output.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 0, 1),
            FusedInst::Unary(ElemUnary::Relu, 2),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.specialization(), Some("bin_act"));
        let n = 700 * 6;
        let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.003 - 5.0).collect();
        let bias: Vec<f32> = (0..6).map(|i| i as f32 - 2.5).collect();
        let inputs = vec![x, bias];
        assert_eq!(
            bits(&run_compiled(&insts, &inputs, n)),
            bits(&reference(&insts, &inputs, n))
        );
    }

    #[test]
    fn momentum_update_detects_axpby() {
        // v·μ + g·(−lr).
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Imm(0.9),
            FusedInst::Binary(ElemBinary::Mul, 0, 1),
            FusedInst::Input(1),
            FusedInst::Imm(-0.05),
            FusedInst::Binary(ElemBinary::Mul, 3, 4),
            FusedInst::Binary(ElemBinary::Add, 2, 5),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.specialization(), Some("axpby"));
        let v: Vec<f32> = (0..513).map(|i| (i as f32).sin()).collect();
        let g: Vec<f32> = (0..513).map(|i| (i as f32).cos()).collect();
        let inputs = vec![v, g];
        assert_eq!(
            bits(&run_compiled(&insts, &inputs, 513)),
            bits(&reference(&insts, &inputs, 513))
        );
    }

    #[test]
    fn mask_mul_backward_detects_binbin() {
        // dy · (x > 0): GreaterMask then Mul.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Imm(0.0),
            FusedInst::Binary(ElemBinary::GreaterMask, 0, 1),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Mul, 3, 2),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.specialization(), Some("bin_bin"));
        let x: Vec<f32> = (0..100).map(|i| i as f32 - 50.0).collect();
        let dy: Vec<f32> = (0..100).map(|i| (i as f32) * 0.1).collect();
        let inputs = vec![x, dy];
        assert_eq!(
            bits(&run_compiled(&insts, &inputs, 100)),
            bits(&reference(&insts, &inputs, 100))
        );
    }

    #[test]
    fn dead_code_and_constants_fold_out() {
        // exp(x) computed but unused; 2·3 folds; output = x + 6.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Unary(ElemUnary::Exp, 0),
            FusedInst::Imm(2.0),
            FusedInst::Imm(3.0),
            FusedInst::Binary(ElemBinary::Mul, 2, 3),
            FusedInst::Binary(ElemBinary::Add, 0, 4),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.ir().len(), 1, "dead exp and const mul eliminated");
        assert_eq!(k.flops_per_elem(), 1);
        assert_eq!(k.imms, vec![6.0]);
        let x: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let inputs = vec![x];
        assert_eq!(
            bits(&run_compiled(&insts, &inputs, 50)),
            bits(&reference(&insts, &inputs, 50))
        );
    }

    #[test]
    fn register_reuse_beats_one_row_per_instruction() {
        // A 9-instruction chain over one input: one row per instruction
        // would be 9; liveness reuse needs a small constant.
        let mut insts = vec![FusedInst::Input(0)];
        for i in 0..8 {
            insts.push(FusedInst::Unary(ElemUnary::Square, i));
        }
        let k = get_or_compile(&insts);
        assert!(
            k.register_count() <= 2,
            "chain should reuse registers, used {}",
            k.register_count()
        );
        let x: Vec<f32> = (0..40).map(|i| 1.0 + (i as f32) * 1e-4).collect();
        let inputs = vec![x];
        assert_eq!(
            bits(&run_compiled(&insts, &inputs, 40)),
            bits(&reference(&insts, &inputs, 40))
        );
    }

    #[test]
    fn fallback_machine_handles_long_mixed_programs() {
        // No specialized shape: a 4-op sigmoid-from-primitives chain.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Unary(ElemUnary::Neg, 0),
            FusedInst::Unary(ElemUnary::Exp, 1),
            FusedInst::Imm(1.0),
            FusedInst::Binary(ElemBinary::Add, 2, 3),
            FusedInst::Unary(ElemUnary::Recip, 4),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.specialization(), None);
        // Lengths straddling lane, chunk and grain boundaries.
        for n in [1usize, 7, 8, 9, 511, 512, 513, 4095, 4096, 4097] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01 - 2.0).collect();
            let inputs = vec![x];
            assert_eq!(
                bits(&run_compiled(&insts, &inputs, n)),
                bits(&reference(&insts, &inputs, n)),
                "n={n}"
            );
        }
    }

    #[test]
    fn aliased_input_runs_in_place() {
        // p + g·(−lr) with p aliasing the output buffer.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Imm(-0.5),
            FusedInst::Binary(ElemBinary::Mul, 0, 1),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 3, 2),
        ];
        let k = get_or_compile(&insts);
        let n = 1000;
        let g: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
        let p: Vec<f32> = (0..n).map(|i| i as f32 * -0.02).collect();
        let expect = reference(&insts, &[g.clone(), p.clone()], n);
        let mut out = p.clone();
        let slices: Vec<Option<&[f32]>> = vec![Some(&g[..]), None];
        k.run(&slices, n, &mut out);
        assert_eq!(bits(&out), bits(&expect));
    }

    #[test]
    fn cache_hits_and_collision_checks() {
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Unary(ElemUnary::Tanh, 0),
            FusedInst::Unary(ElemUnary::Square, 1),
        ];
        let before = stats();
        let a = get_or_compile(&insts);
        let b = get_or_compile(&insts);
        assert!(Arc::ptr_eq(&a, &b));
        let after = stats();
        assert!(after.hits > before.hits);
        assert_eq!(fingerprint(&insts), fingerprint(&insts.clone()));
        let other = vec![FusedInst::Input(0), FusedInst::Unary(ElemUnary::Tanh, 0)];
        assert_ne!(fingerprint(&insts), fingerprint(&other));
    }

    #[test]
    fn degenerate_outputs_fill_and_copy() {
        let fill = vec![FusedInst::Imm(2.0), FusedInst::Unary(ElemUnary::Square, 0)];
        let k = get_or_compile(&fill);
        assert_eq!(k.specialization(), Some("fill"));
        assert_eq!(run_compiled(&fill, &[], 10), vec![4.0f32; 10]);

        let copy = vec![FusedInst::Input(0), FusedInst::Input(1)];
        let k = get_or_compile(&copy);
        assert_eq!(k.specialization(), Some("copy"));
        assert!(!k.input_live(0), "unreferenced input is dead");
        assert!(k.input_live(1));
        let a = vec![1.0f32; 4];
        let b = vec![7.0f32, 8.0, 9.0, 10.0];
        assert_eq!(run_compiled(&copy, &[a, b.clone()], 4), b);
    }

    #[test]
    fn fill_cycle_matches_modulo_indexing() {
        for (n, m, global) in [
            (512usize, 6usize, 0usize),
            (512, 6, 509),
            (17, 5, 3),
            (8, 1, 5),
            (512, 600, 550),
        ] {
            let src: Vec<f32> = (0..m).map(|i| i as f32).collect();
            let mut dst = vec![0.0f32; n];
            fill_cycle(&mut dst, &src, global);
            let want: Vec<f32> = (0..n).map(|j| src[(global + j) % m]).collect();
            assert_eq!(dst, want, "n={n} m={m} global={global}");
        }
    }
}
