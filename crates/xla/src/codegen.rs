//! Fused-kernel codegen: compiles [`FusedInst`] programs into a
//! register-allocated linear IR and executes them on one register
//! machine, without per-element interpretation (DESIGN.md §6j).
//!
//! The fusion pass emits a stack-machine program — one slot per
//! instruction, operands referring to earlier slots. This module is the
//! compile stage behind it:
//!
//! 1. **Lowering** ([`get_or_compile`]): constant folding (the same scalar
//!    `apply` every execution path uses, so folded values are
//!    bit-identical), dead-code elimination, peepholes that merge a
//!    single-use producer into its consumer — mul+add/sub
//!    ([`IrInst::MulBin`]), two products combined ([`IrInst::MulMul`]), a
//!    unary as its producer's activation epilogue — and liveness-based
//!    virtual register allocation that replaces the one-row-per-instruction
//!    scratch stack with the 2–4 rows a typical chain actually needs. A
//!    merged instruction keeps every rounding of the ones it replaced
//!    (each product is rounded, then combined, then the activation
//!    applies — never a hardware FMA), so results match the unmerged
//!    program bit for bit; the win is fewer traversals, not contraction.
//! 2. **Execution**: the register machine runs the IR one vectorized
//!    pass per instruction, with operand resolution and instruction
//!    dispatch hoisted out of the element loop. Immediates and
//!    one-element inputs are read as scalars in every pass. A program of
//!    one instruction with no broadcast or alias input is one traversal
//!    per task; everything else goes a chunk at a time through a small
//!    row file (registers, broadcast rows, alias rows).
//!
//! Compiled kernels are cached by FNV-1a hash of the instruction
//! sequence (collisions checked structurally, mirroring the executable
//! cache) and are the *only* executor of [`HloOp::Fused`](crate::op::HloOp):
//! the fusion pass caps its groups at [`MAX_INSTS`], so every program the
//! compiler emits lowers. The contract is per-element scalar semantics —
//! element `e` of the output is the program evaluated with
//! `ElemUnary::apply`/`ElemBinary::apply` over input `i` at `e % len(i)`,
//! bit for bit (a NaN's sign and payload excepted — which operand a NaN
//! result inherits them from is unspecified): every pass applies those
//! scalar operations element by element, in the program's order.

use crate::met;
use crate::op::{with_binary, with_unary, ElemBinary, ElemUnary, FusedInst};
use s4tf_tensor::pool::Scratch;
use s4tf_tensor::Tensor;
use std::collections::HashMap;
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
    /// Kernel launches of single-instruction programs: one pass, no
    /// intermediate value stored.
    pub specialized: u64,
    /// Kernel launches that pass intermediate values through register
    /// rows (programs of two or more instructions).
    pub fallback: u64,
}

/// Process-wide codegen counters: a view of the registry's
/// `s4tf_xla_codegen_total{result=…}`.
pub fn stats() -> CodegenStats {
    CodegenStats {
        hits: hits().value(),
        misses: misses().value(),
        specialized: specialized().value(),
        fallback: fallback().value(),
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
        "Fused-kernel launches of single-instruction programs"
    )
}

fn fallback() -> &'static met::Counter {
    met::counter!(
        "s4tf_xla_codegen_total{result=\"fallback\"}",
        "Fused-kernel launches that stage values through register rows"
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
    /// Kernel input `i`: read directly (full-shape), as a scalar (one
    /// element) or from a materialized broadcast/alias row.
    In(u8),
    /// Immediate pool entry `k`, read as a scalar.
    Imm(u8),
}

/// One compiled instruction. `dst` is a virtual register or [`DST_OUT`].
/// `act` is an activation epilogue: a single-use unary consumer folded
/// into the instruction, applied to its rounded result.
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
    /// `dst = act(op(a))`.
    Unary {
        /// Operation.
        op: ElemUnary,
        /// Activation epilogue.
        act: Option<ElemUnary>,
        /// Destination register.
        dst: u8,
        /// Operand.
        a: Src,
    },
    /// `dst = act(op(a, b))`.
    Binary {
        /// Operation.
        op: ElemBinary,
        /// Activation epilogue.
        act: Option<ElemUnary>,
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// The mul+add/sub peephole: `act(op(a·b, c))` when `mul_first`, else
    /// `act(op(c, a·b))`. The product is rounded, then combined, so the
    /// value is bit-identical to the separate mul and add/sub it replaced.
    MulBin {
        /// Combining operation (`Add` or `Sub`).
        op: ElemBinary,
        /// Activation epilogue.
        act: Option<ElemUnary>,
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
    /// Two products combined: `act(op(a·b, c·d))` — the momentum update
    /// `v·μ + g·(−lr)`. Both products round, then combine.
    MulMul {
        /// Combining operation (`Add` or `Sub`).
        op: ElemBinary,
        /// Activation epilogue.
        act: Option<ElemUnary>,
        /// Destination register.
        dst: u8,
        /// Left product, left operand.
        a: Src,
        /// Left product, right operand.
        b: Src,
        /// Right product, left operand.
        c: Src,
        /// Right product, right operand.
        d: Src,
    },
}

impl IrInst {
    fn dst(&self) -> u8 {
        match *self {
            IrInst::Copy { dst, .. }
            | IrInst::Unary { dst, .. }
            | IrInst::Binary { dst, .. }
            | IrInst::MulBin { dst, .. }
            | IrInst::MulMul { dst, .. } => dst,
        }
    }

    /// Scalar ops per output element, the epilogue included.
    fn flops(&self) -> u64 {
        let (ops, act) = match *self {
            IrInst::Copy { .. } => (0, None),
            IrInst::Unary { act, .. } | IrInst::Binary { act, .. } => (1, act),
            IrInst::MulBin { act, .. } => (2, act),
            IrInst::MulMul { act, .. } => (3, act),
        };
        ops + u64::from(act.is_some())
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
    /// Scalar ops per output element in the compiled IR (`MulBin` = 2,
    /// `MulMul` = 3, an epilogue 1 more, `Copy` = 0) — the honest FLOP
    /// count for the cost model.
    flops_per_elem: u64,
}

impl CompiledKernel {
    /// The compiled instruction sequence.
    pub fn ir(&self) -> &[IrInst] {
        &self.ir
    }

    /// Virtual registers the machine needs (liveness reuse, not one row
    /// per source instruction).
    pub fn register_count(&self) -> usize {
        self.n_regs
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
#[derive(Clone, Copy, PartialEq)]
enum PreOp {
    Copy(usize),
    Unary(ElemUnary, usize),
    Binary(ElemBinary, usize, usize),
    MulBin(ElemBinary, usize, usize, usize, bool),
    MulMul(ElemBinary, usize, usize, usize, usize),
}

impl PreOp {
    fn operands(self) -> [Option<usize>; 4] {
        match self {
            PreOp::Copy(a) | PreOp::Unary(_, a) => [Some(a), None, None, None],
            PreOp::Binary(_, a, b) => [Some(a), Some(b), None, None],
            PreOp::MulBin(_, a, b, c, _) => [Some(a), Some(b), Some(c), None],
            PreOp::MulMul(_, a, b, c, d) => [Some(a), Some(b), Some(c), Some(d)],
        }
    }
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
    let mut prog: Vec<(usize, PreOp, Option<ElemUnary>)> = Vec::new();
    match val[out_slot] {
        Slot::Const(_) | Slot::In(_) => prog.push((out_slot, PreOp::Copy(out_slot), None)),
        Slot::Dyn => {
            // 3. Use counts among live dynamic consumers, for the
            // peepholes' single-use test.
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

            // 4. Peepholes, in program order: a single-use producer is
            // merged into its consumer, which takes its place at the
            // consumer's slot (operand order preserved).
            //  * a `Mul` feeding an `Add`/`Sub` becomes a `MulBin` — and
            //    a `MulMul` when both operands are such products;
            //  * a `Unary` applied to an instruction becomes that
            //    instruction's activation epilogue.
            let mut pre: Vec<Option<(PreOp, Option<ElemUnary>)>> = vec![None; len];
            let mut merged = vec![false; len];
            for i in 0..len {
                if !live[i] || val[i] != Slot::Dyn {
                    continue;
                }
                // Slot `s` as a product that can be merged.
                let product = |s: usize, merged: &[bool]| match pre[s] {
                    Some((PreOp::Binary(ElemBinary::Mul, x, y), None))
                        if uses[s] == 1 && !merged[s] =>
                    {
                        Some((x, y))
                    }
                    _ => None,
                };
                let inst = match insts[i] {
                    FusedInst::Unary(u, a) => match pre[a] {
                        Some((producer, None)) if uses[a] == 1 && !merged[a] => {
                            merged[a] = true;
                            (producer, Some(u))
                        }
                        _ => (PreOp::Unary(u, a), None),
                    },
                    FusedInst::Binary(op @ (ElemBinary::Add | ElemBinary::Sub), a, c) => {
                        let (pa, pc) = (product(a, &merged), product(c, &merged));
                        merged[a] |= pa.is_some();
                        merged[c] |= pc.is_some();
                        let op = match (pa, pc) {
                            (Some((p, q)), Some((r, s))) => PreOp::MulMul(op, p, q, r, s),
                            (Some((p, q)), None) => PreOp::MulBin(op, p, q, c, true),
                            (None, Some((r, s))) => PreOp::MulBin(op, r, s, a, false),
                            (None, None) => PreOp::Binary(op, a, c),
                        };
                        (op, None)
                    }
                    FusedInst::Binary(op, a, c) => (PreOp::Binary(op, a, c), None),
                    _ => unreachable!("Input/Imm slots are never Dyn"),
                };
                pre[i] = Some(inst);
            }
            prog.extend(
                pre.iter()
                    .enumerate()
                    .filter(|&(slot, _)| !merged[slot])
                    .filter_map(|(slot, p)| p.map(|(op, act)| (slot, op, act))),
            );
        }
    }

    // 5. Register allocation: last-use liveness with a free list. The
    // destination is drawn *before* operands are released, so an
    // instruction never writes the row it is reading (keeps the
    // execution borrows disjoint).
    let mut last_use: Vec<Option<usize>> = vec![None; len];
    for (pi, (_, pre, _)) in prog.iter().enumerate() {
        for s in pre.operands().into_iter().flatten() {
            if val[s] == Slot::Dyn {
                last_use[s] = Some(pi);
            }
        }
    }

    let mut imms: Vec<f32> = Vec::new();
    let mut reg_of: Vec<Option<u8>> = vec![None; len];
    let mut free: Vec<u8> = Vec::new();
    let mut n_regs: usize = 0;
    let mut input_live = vec![false; n_inputs];
    let mut ir = Vec::with_capacity(prog.len());
    for (pi, &(slot, pre, act)) in prog.iter().enumerate() {
        let dst = if slot == out_slot {
            DST_OUT
        } else {
            free.pop().unwrap_or_else(|| {
                n_regs += 1;
                (n_regs - 1) as u8
            })
        };
        let mut src = |s: usize| -> Src {
            match val[s] {
                Slot::Const(x) => match imms.iter().position(|v| v.to_bits() == x.to_bits()) {
                    Some(k) => Src::Imm(k as u8),
                    None => {
                        imms.push(x);
                        Src::Imm((imms.len() - 1) as u8)
                    }
                },
                Slot::In(i) => {
                    input_live[i] = true;
                    Src::In(i as u8)
                }
                Slot::Dyn => Src::Reg(reg_of[s].expect("operand register allocated")),
            }
        };
        let inst = match pre {
            PreOp::Copy(a) => IrInst::Copy { dst, a: src(a) },
            PreOp::Unary(op, a) => IrInst::Unary {
                op,
                act,
                dst,
                a: src(a),
            },
            PreOp::Binary(op, a, b) => IrInst::Binary {
                op,
                act,
                dst,
                a: src(a),
                b: src(b),
            },
            PreOp::MulBin(op, a, b, c, mul_first) => IrInst::MulBin {
                op,
                act,
                dst,
                a: src(a),
                b: src(b),
                c: src(c),
                mul_first,
            },
            PreOp::MulMul(op, a, b, c, d) => IrInst::MulMul {
                op,
                act,
                dst,
                a: src(a),
                b: src(b),
                c: src(c),
                d: src(d),
            },
        };
        if slot != out_slot {
            reg_of[slot] = Some(dst);
        }
        // Release operand registers at their last use (once each: an
        // instruction may reference one slot twice).
        let operands = pre.operands();
        for (k, o) in operands.iter().enumerate() {
            let Some(o) = *o else { continue };
            if val[o] == Slot::Dyn && last_use[o] == Some(pi) && !operands[..k].contains(&Some(o)) {
                free.push(reg_of[o].expect("operand register allocated"));
            }
        }
        ir.push(inst);
    }

    let flops_per_elem = ir.iter().map(IrInst::flops).sum();
    Ok(CompiledKernel {
        insts: insts.to_vec(),
        ir,
        n_regs,
        imms,
        input_live,
        flops_per_elem,
    })
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
    /// One element: read as a scalar.
    Scalar,
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

/// A resolved operand of one pass.
#[derive(Clone, Copy)]
enum Opnd<'r> {
    /// The same value at every position: an immediate or a one-element
    /// input.
    Scalar(f32),
    /// One value per position of the pass.
    Slice(&'r [f32]),
}

/// A read stream of one pass: a launch-constant scalar (held in a
/// register, no per-element read) or a slice.
trait Rd: Copy {
    /// Narrows a slice stream to the pass extent so per-element reads
    /// are provably in bounds (no effect on scalars).
    fn clip(self, n: usize) -> Self;
    /// The value at position `j`.
    fn at(self, j: usize) -> f32;
}

impl Rd for f32 {
    #[inline(always)]
    fn clip(self, _n: usize) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _j: usize) -> f32 {
        self
    }
}

impl Rd for &[f32] {
    #[inline(always)]
    fn clip(self, n: usize) -> Self {
        &self[..n]
    }
    #[inline(always)]
    fn at(self, j: usize) -> f32 {
        self[j]
    }
}

/// The one pass driver: `dst[j] = f(a[j], b[j], c[j], d[j])`, every
/// position evaluating the same scalar `f`. Each instantiation runs in
/// its own [`vectorize`](s4tf_tensor::simd::vectorize) frame, where the
/// loop compiles to vector instructions however many instantiations the
/// dispatch in [`exec`] has. The closure takes its streams by value
/// (`move`): streams it borrowed from this frame would be reloaded after
/// every store, and the loop would not vectorize. An instruction with
/// fewer operands passes a scalar for the rest, which compiles to
/// nothing.
fn pass<A: Rd, B: Rd, C: Rd, D: Rd>(
    dst: &mut [f32],
    (a, b, c, d): (A, B, C, D),
    f: impl Fn(f32, f32, f32, f32) -> f32,
) {
    let n = dst.len();
    let (a, b, c, d) = (a.clip(n), b.clip(n), c.clip(n), d.clip(n));
    s4tf_tensor::simd::vectorize(
        #[inline(always)]
        move || {
            for (j, o) in dst.iter_mut().enumerate() {
                *o = f(a.at(j), b.at(j), c.at(j), d.at(j));
            }
        },
    );
}

/// An activation epilogue: `$g` is the identity for `None`, else the
/// unary's own closure (see [`with_unary!`]).
macro_rules! with_act {
    ($act:expr, $g:ident => $body:expr) => {
        match $act {
            None => {
                let $g = |x: f32| x;
                $body
            }
            Some(u) => with_unary!(u, $g => $body),
        }
    };
}

/// Binds `$x` to the scalar or the slice of a resolved operand — two
/// *distinct types*, so the pass in `$body` monomorphizes both ways and
/// the scalar form carries no per-element read.
macro_rules! with_rd {
    ($o:expr, $x:ident => $body:expr) => {
        match $o {
            Opnd::Scalar(v) => {
                let $x = v;
                $body
            }
            Opnd::Slice(s) => {
                let $x = s;
                $body
            }
        }
    };
}

/// One pass of `inst` into `dst`, its operands resolved by `opnd`.
fn exec<'r>(inst: &IrInst, opnd: impl Fn(Src) -> Opnd<'r>, dst: &mut [f32]) {
    // The stream of an operand the instruction does not have.
    const U: f32 = 0.0;
    match *inst {
        IrInst::Copy { a, .. } => {
            with_rd!(opnd(a), a => pass(dst, (a, U, U, U), |x, _, _, _| x))
        }
        IrInst::Unary { op, act, a, .. } => with_act!(act, g => with_unary!(op, f => {
            with_rd!(opnd(a), a => pass(dst, (a, U, U, U), |x, _, _, _| g(f(x))))
        })),
        IrInst::Binary { op, act, a, b, .. } => with_act!(act, g => with_binary!(op, f => {
            with_rd!(opnd(a), a => with_rd!(opnd(b), b => {
                pass(dst, (a, b, U, U), |x, y, _, _| g(f(x, y)))
            }))
        })),
        IrInst::MulBin {
            op,
            act,
            a,
            b,
            c,
            mul_first,
            ..
        } => with_act!(act, g => with_rd!(opnd(a), a => with_rd!(opnd(b), b => {
            with_rd!(opnd(c), c => match (op, mul_first) {
                // IEEE addition is commutative, so operand order is free.
                (ElemBinary::Add, _) => pass(dst, (a, b, c, U), |x, y, z, _| g((x * y) + z)),
                (ElemBinary::Sub, true) => pass(dst, (a, b, c, U), |x, y, z, _| g((x * y) - z)),
                (ElemBinary::Sub, false) => pass(dst, (a, b, c, U), |x, y, z, _| g(z - (x * y))),
                _ => unreachable!("peephole emits only Add/Sub MulBin"),
            })
        }))),
        IrInst::MulMul {
            op,
            act,
            a,
            b,
            c,
            d,
            ..
        } => with_act!(act, g => with_rd!(opnd(a), a => with_rd!(opnd(b), b => {
            with_rd!(opnd(c), c => with_rd!(opnd(d), d => match op {
                ElemBinary::Add => pass(dst, (a, b, c, d), |x, y, z, w| g((x * y) + (z * w))),
                ElemBinary::Sub => pass(dst, (a, b, c, d), |x, y, z, w| g((x * y) - (z * w))),
                _ => unreachable!("peephole emits only Add/Sub MulMul"),
            }))
        }))),
    }
}

/// A chunk's row file as one pass sees it, split around the pass's
/// destination row: the rows below it, the rows above it and its index —
/// both halves addressed with absolute row indices.
type RowFile<'r> = (&'r [f32], &'r [f32], usize);

/// One launch of a compiled kernel: the operand classification and
/// row-file layout shared by every task of the launch.
struct Launch<'a> {
    kernel: &'a CompiledKernel,
    slices: &'a [Option<&'a [f32]>],
    classes: Vec<InClass>,
    /// The row of each broadcast/alias input (rows `0..n_regs` are the
    /// registers).
    input_row: Vec<Option<usize>>,
    /// Rows in a task's row file — none for a launch of one instruction
    /// with no broadcast or alias input.
    n_rows: usize,
}

impl<'a> Launch<'a> {
    /// Classifies the operands of a launch over `n` elements and counts
    /// it. `slices[i] = None` marks input `i` as aliasing the output.
    fn new(kernel: &'a CompiledKernel, slices: &'a [Option<&'a [f32]>], n: usize) -> Self {
        if kernel.ir.len() == 1 {
            specialized().inc();
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
                    Some(s) if s.len() == 1 => InClass::Scalar,
                    Some(_) => InClass::Bcast,
                }
            })
            .collect();
        let mut n_rows = kernel.n_regs;
        let input_row: Vec<Option<usize>> = classes
            .iter()
            .map(|c| match c {
                InClass::Bcast | InClass::Alias => {
                    n_rows += 1;
                    Some(n_rows - 1)
                }
                _ => None,
            })
            .collect();
        Launch {
            kernel,
            slices,
            classes,
            input_row,
            n_rows,
        }
    }

    /// Resolves operand `s` of a pass over elements `global..global +
    /// len`.
    fn operand<'r>(
        &'r self,
        (lo, hi, split): RowFile<'r>,
        s: Src,
        global: usize,
        len: usize,
    ) -> Opnd<'r> {
        let row = match s {
            Src::Imm(k) => return Opnd::Scalar(self.kernel.imms[k as usize]),
            Src::Reg(r) => r as usize,
            Src::In(i) => {
                let i = i as usize;
                match (self.classes[i], self.slices[i]) {
                    (InClass::Full, Some(src)) => {
                        return Opnd::Slice(&src[global..global + len]);
                    }
                    (InClass::Scalar, Some(src)) => return Opnd::Scalar(src[0]),
                    _ => self.input_row[i].expect("broadcast/alias input has a row"),
                }
            }
        };
        debug_assert_ne!(row, split, "destination row is never an operand");
        let (rows, at) = if row < split {
            (lo, row)
        } else {
            (hi, row - split - 1)
        };
        Opnd::Slice(&rows[at * FUSED_CHUNK..at * FUSED_CHUNK + len])
    }

    /// Computes output elements `task_start .. task_start + out.len()`
    /// into `out` (for an alias input, `out` holds its elements on entry).
    fn task(&self, task_start: usize, out: &mut [f32]) {
        // Without rows the task is one traversal; otherwise it goes
        // through the row file a chunk at a time.
        let (chunk, mut rows) = if self.n_rows == 0 {
            (out.len(), Scratch::default())
        } else {
            (FUSED_CHUNK, Scratch::zeroed(self.n_rows * FUSED_CHUNK))
        };
        let mut start = 0usize;
        while start < out.len() {
            let len = chunk.min(out.len() - start);
            let global = task_start + start;
            self.fill_rows(&mut rows, &out[start..start + len], start == 0, global);
            self.run_chunk(global, &mut rows, &mut out[start..start + len]);
            start += len;
        }
    }

    /// Materializes the broadcast and alias rows of the chunk at `global`
    /// (`out` is its not-yet-written output range). A broadcast row whose
    /// cycle divides the chunk width reads the same in every chunk of a
    /// task, so only the task's first chunk fills it.
    fn fill_rows(&self, rows: &mut [f32], out: &[f32], first: bool, global: usize) {
        for (i, class) in self.classes.iter().enumerate() {
            let Some(row) = self.input_row[i] else {
                continue;
            };
            let dst = &mut rows[row * FUSED_CHUNK..row * FUSED_CHUNK + out.len()];
            match (class, self.slices[i]) {
                (InClass::Bcast, Some(src)) => {
                    if first || !FUSED_CHUNK.is_multiple_of(src.len()) {
                        fill_cycle(dst, src, global);
                    }
                }
                (InClass::Alias, _) => dst.copy_from_slice(out),
                _ => unreachable!("only broadcast and alias inputs have rows"),
            }
        }
    }

    /// One chunk through the register machine: one pass per instruction,
    /// the last one writing `out`.
    fn run_chunk(&self, global: usize, rows: &mut [f32], out: &mut [f32]) {
        let len = out.len();
        for inst in &self.kernel.ir {
            let (file, dst): (RowFile, &mut [f32]) = match inst.dst() {
                // The whole row file is readable (split past the end).
                DST_OUT => ((&*rows, &[], usize::MAX), &mut *out),
                r => {
                    let row = r as usize;
                    let (lo, rest) = rows.split_at_mut(row * FUSED_CHUNK);
                    let (d, hi) = rest.split_at_mut(FUSED_CHUNK);
                    ((&*lo, &*hi, row), &mut d[..len])
                }
            };
            exec(inst, |s| self.operand(file, s, global, len), dst);
        }
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
            let mut block = Scratch::zeroed(block_len);
            for start in elements.clone().step_by(FUSED_GRAIN) {
                let values = &mut block[..block_len.min(elements.end - start)];
                launch.task(start, values);
                acc.push(values);
            }
        })
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

    /// Output bits of the compiled kernel and of [`reference`] agree.
    fn assert_matches_reference(insts: &[FusedInst], inputs: &[Vec<f32>], n: usize) {
        assert_eq!(
            bits(&run_compiled(insts, inputs, n)),
            bits(&reference(insts, inputs, n)),
            "n={n} insts={insts:?}"
        );
    }

    #[test]
    fn sgd_update_compiles_to_one_mulbin() {
        // p + g·(−lr): Mul(g, imm) absorbed into the Add.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Imm(-0.1),
            FusedInst::Binary(ElemBinary::Mul, 0, 1),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 3, 2),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(
            k.ir(),
            [IrInst::MulBin {
                op: ElemBinary::Add,
                act: None,
                dst: DST_OUT,
                a: Src::In(0),
                b: Src::Imm(0),
                c: Src::In(1),
                mul_first: false,
            }]
        );
        assert_eq!(k.flops_per_elem(), 2);
        let g: Vec<f32> = (0..1000).map(|i| (i as f32) * 0.01 - 3.0).collect();
        let p: Vec<f32> = (0..1000).map(|i| (i as f32) * -0.02 + 1.0).collect();
        assert_matches_reference(&insts, &[g, p], 1000);
    }

    #[test]
    fn bias_relu_is_one_instruction_with_a_relu_epilogue() {
        // relu(x + bias[c]) over a [N, C] output.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 0, 1),
            FusedInst::Unary(ElemUnary::Relu, 2),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(
            k.ir(),
            [IrInst::Binary {
                op: ElemBinary::Add,
                act: Some(ElemUnary::Relu),
                dst: DST_OUT,
                a: Src::In(0),
                b: Src::In(1),
            }]
        );
        assert_eq!(k.flops_per_elem(), 2);
        let n = 700 * 6;
        let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.003 - 5.0).collect();
        let bias: Vec<f32> = (0..6).map(|i| i as f32 - 2.5).collect();
        assert_matches_reference(&insts, &[x, bias], n);
    }

    #[test]
    fn momentum_update_is_one_two_product_instruction() {
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
        assert_eq!(
            k.ir(),
            [IrInst::MulMul {
                op: ElemBinary::Add,
                act: None,
                dst: DST_OUT,
                a: Src::In(0),
                b: Src::Imm(0),
                c: Src::In(1),
                d: Src::Imm(1),
            }]
        );
        assert_eq!(k.flops_per_elem(), 3);
        let v: Vec<f32> = (0..513).map(|i| (i as f32).sin()).collect();
        let g: Vec<f32> = (0..513).map(|i| (i as f32).cos()).collect();
        assert_matches_reference(&insts, &[v, g], 513);
    }

    #[test]
    fn mask_mul_backward_stages_through_one_register() {
        // dy · (x > 0): GreaterMask then Mul — no peephole applies.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Imm(0.0),
            FusedInst::Binary(ElemBinary::GreaterMask, 0, 1),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Mul, 3, 2),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(
            k.ir(),
            [
                IrInst::Binary {
                    op: ElemBinary::GreaterMask,
                    act: None,
                    dst: 0,
                    a: Src::In(0),
                    b: Src::Imm(0),
                },
                IrInst::Binary {
                    op: ElemBinary::Mul,
                    act: None,
                    dst: DST_OUT,
                    a: Src::In(1),
                    b: Src::Reg(0),
                },
            ]
        );
        assert_eq!(k.register_count(), 1);
        let x: Vec<f32> = (0..100).map(|i| i as f32 - 50.0).collect();
        let dy: Vec<f32> = (0..100).map(|i| (i as f32) * 0.1).collect();
        assert_matches_reference(&insts, &[x, dy], 100);
    }

    #[test]
    fn epilogues_fold_only_into_single_use_producers() {
        // s = x + y is read twice, so relu(s) stays its own instruction;
        // tanh(exp(x)) folds once, and a third unary cannot stack on it.
        let shared = vec![
            FusedInst::Input(0),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 0, 1),
            FusedInst::Unary(ElemUnary::Relu, 2),
            FusedInst::Binary(ElemBinary::Mul, 3, 2),
        ];
        let k = get_or_compile(&shared);
        assert_eq!(k.ir().len(), 3);
        assert!(k.ir().iter().all(|i| !matches!(
            i,
            IrInst::Binary { act: Some(_), .. } | IrInst::Unary { act: Some(_), .. }
        )));
        let chain = vec![
            FusedInst::Input(0),
            FusedInst::Unary(ElemUnary::Exp, 0),
            FusedInst::Unary(ElemUnary::Tanh, 1),
            FusedInst::Unary(ElemUnary::Neg, 2),
        ];
        let k = get_or_compile(&chain);
        assert_eq!(
            k.ir(),
            [
                IrInst::Unary {
                    op: ElemUnary::Exp,
                    act: Some(ElemUnary::Tanh),
                    dst: 0,
                    a: Src::In(0),
                },
                IrInst::Unary {
                    op: ElemUnary::Neg,
                    act: None,
                    dst: DST_OUT,
                    a: Src::Reg(0),
                },
            ]
        );
        let x: Vec<f32> = (0..77).map(|i| (i as f32) * 0.05 - 2.0).collect();
        let y: Vec<f32> = (0..77).map(|i| (i as f32) * -0.03 + 1.0).collect();
        assert_matches_reference(&shared, &[x.clone(), y], 77);
        assert_matches_reference(&chain, &[x], 77);
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
        assert_matches_reference(&insts, &[x], 50);
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
        assert_matches_reference(&insts, &[x], 40);
    }

    #[test]
    fn long_mixed_programs_straddle_every_boundary() {
        // 1 / (1 + exp(−x)) from primitives: exp rides on neg and recip
        // on the add, so two instructions staged through one register.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Unary(ElemUnary::Neg, 0),
            FusedInst::Unary(ElemUnary::Exp, 1),
            FusedInst::Imm(1.0),
            FusedInst::Binary(ElemBinary::Add, 2, 3),
            FusedInst::Unary(ElemUnary::Recip, 4),
        ];
        let k = get_or_compile(&insts);
        assert_eq!(k.ir().len(), 2);
        assert_eq!(k.flops_per_elem(), 4);
        // Lengths straddling lane, chunk and grain boundaries.
        for n in [1usize, 7, 8, 9, 511, 512, 513, 4095, 4096, 4097] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01 - 2.0).collect();
            assert_matches_reference(&insts, &[x], n);
        }
    }

    #[test]
    fn rows_only_where_values_are_staged_or_materialized() {
        // x·s + k with a one-element s: one instruction over a full input
        // and two scalars — one traversal, no row file.
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Mul, 0, 1),
            FusedInst::Imm(0.25),
            FusedInst::Binary(ElemBinary::Sub, 2, 3),
        ];
        let k = get_or_compile(&insts);
        let n = 4100;
        let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.001 - 2.0).collect();
        let (s, c) = (vec![1.5f32], vec![0.5f32, -1.0, 2.0, 0.0]);
        assert_eq!(Launch::new(&k, &[Some(&x[..]), Some(&s[..])], n).n_rows, 0);
        assert_matches_reference(&insts, &[x.clone(), s], n);
        // The same instruction with a `[4]` operand reads it from a row.
        assert_eq!(Launch::new(&k, &[Some(&x[..]), Some(&c[..])], n).n_rows, 1);
        assert_matches_reference(&insts, &[x, c], n);
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
        assert_eq!(
            k.ir(),
            [IrInst::Copy {
                dst: DST_OUT,
                a: Src::Imm(0)
            }]
        );
        assert_eq!(k.imms, vec![4.0]);
        assert_eq!(run_compiled(&fill, &[], 10), vec![4.0f32; 10]);

        let copy = vec![FusedInst::Input(0), FusedInst::Input(1)];
        let k = get_or_compile(&copy);
        assert_eq!(
            k.ir(),
            [IrInst::Copy {
                dst: DST_OUT,
                a: Src::In(1)
            }]
        );
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
