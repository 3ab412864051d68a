//! Property-based bit-exactness contract for the fused-kernel compiler:
//! on random `FusedInst` programs — and on the shapes the tracer emits
//! hot, each with its operands drawn from every input kind — the compiled
//! kernel must produce the *same bits* as the program's per-element
//! scalar semantics, across the SIMD dispatch toggle and thread counts,
//! for full-shape, one-element, trailing-broadcast and in-place (aliased)
//! inputs, at lengths straddling lane (8), chunk (512) and task-grain
//! (4096) boundaries — and the reduction epilogue must sum those values
//! exactly as `Tensor::reduce_to_shape` sums the stored ones. The unfused
//! elementwise kernels (`eval_op`, `eval_op_owned` and the executor's
//! in-place arms — what the eager and naive devices run) are held to the
//! same scalar semantics on every broadcast route.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use s4tf_tensor::{Padding, Shape, Tensor};
use s4tf_xla::codegen::{get_or_compile, IrInst};
use s4tf_xla::graph::HloGraph;
use s4tf_xla::op::FusedInst;
use s4tf_xla::{eval_op, eval_op_owned, ElemBinary, ElemUnary, HloOp};
use std::sync::Mutex;

/// The toggles below are process-wide; every test in this binary flips
/// them, so they serialize on one lock.
static TOGGLES: Mutex<()> = Mutex::new(());

const UNARY: &[ElemUnary] = &[
    ElemUnary::Neg,
    ElemUnary::Exp,
    ElemUnary::Ln,
    ElemUnary::Sqrt,
    ElemUnary::Tanh,
    ElemUnary::Sigmoid,
    ElemUnary::Relu,
    ElemUnary::Square,
    ElemUnary::Recip,
];
const BINARY: &[ElemBinary] = &[
    ElemBinary::Add,
    ElemBinary::Sub,
    ElemBinary::Mul,
    ElemBinary::Div,
    ElemBinary::Max,
    ElemBinary::Min,
    ElemBinary::GreaterMask,
    ElemBinary::Pow,
];

/// One raw instruction choice; operand indices are drawn wide and folded
/// modulo the legal range when the program is assembled.
#[derive(Debug, Clone)]
enum RawInst {
    Input(usize),
    Imm(f32),
    Unary(usize, usize),
    Binary(usize, usize, usize),
}

fn inst_strategy() -> impl Strategy<Value = RawInst> {
    prop_oneof![
        any::<usize>().prop_map(RawInst::Input),
        (-2.0f32..2.0).prop_map(RawInst::Imm),
        (0..UNARY.len(), any::<usize>()).prop_map(|(o, a)| RawInst::Unary(o, a)),
        (0..BINARY.len(), any::<usize>(), any::<usize>())
            .prop_map(|(o, a, b)| RawInst::Binary(o, a, b)),
    ]
}

/// Output lengths straddling every execution boundary: SIMD lane width
/// (8), dispatch chunk (512), parallel task grain (8·512 = 4096).
const LENGTHS: &[usize] = &[1, 7, 8, 9, 511, 512, 513, 4095, 4096, 4097, 8200];

/// Appends `raw` to `insts`, each operand index folded onto
/// `operands(len)` — the slots an instruction at `len` may read.
fn append(
    insts: &mut Vec<FusedInst>,
    raw: &[RawInst],
    n_inputs: usize,
    operands: impl Fn(usize) -> Vec<usize>,
) {
    for r in raw {
        let pick = |k: usize| {
            let slots = operands(insts.len());
            slots[k % slots.len()]
        };
        let inst = match r {
            RawInst::Input(i) => FusedInst::Input(i % n_inputs),
            RawInst::Imm(x) => FusedInst::Imm(*x),
            RawInst::Unary(o, a) => FusedInst::Unary(UNARY[o % UNARY.len()], pick(*a)),
            RawInst::Binary(o, a, b) => {
                FusedInst::Binary(BINARY[o % BINARY.len()], pick(*a), pick(*b))
            }
        };
        insts.push(inst);
    }
}

/// Assembles a valid program: instruction 0 reads input 0 (full shape,
/// so the output extent is pinned) and every operand index refers to an
/// earlier instruction.
fn assemble(raw: &[RawInst], n_inputs: usize) -> Vec<FusedInst> {
    let mut insts = vec![FusedInst::Input(0)];
    append(&mut insts, raw, n_inputs, |len| (0..len).collect());
    insts
}

/// The cycle a broadcast input of an `n`-element kernel repeats with: the
/// largest proper divisor of `n` up to 37 (7, 32, 27, 35, 17, 25 for the
/// long [`LENGTHS`] — several co-prime to the chunk width).
fn cycle(n: usize) -> usize {
    (1..=37.min(n / 2))
        .rev()
        .find(|&c| n.is_multiple_of(c))
        .unwrap_or(1)
}

/// Input tensors: input 0 is full-shape `[n / c, c]`, the rest exercise
/// the modulo-indexed path — a one-element input, the trailing suffix
/// `[c]`, and a second full one.
fn make_inputs(n: usize, n_inputs: usize, seed: u64) -> Vec<Tensor<f32>> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let c = cycle(n);
    let dims: [&[usize]; 4] = [&[n / c, c], &[1], &[c], &[n / c, c]];
    (0..n_inputs)
        .map(|i| Tensor::<f32>::rand_uniform(dims[i % dims.len()], -2.0, 2.0, &mut rng))
        .collect()
}

/// The compared representation: exact bits, with every NaN folded to one
/// pattern. Which operand's sign and payload a NaN result inherits is
/// unspecified (`NaN₁ + NaN₂` depends on the operand order the compiler
/// picked), so only *that* an element is NaN is part of the contract.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// What a fused program means: every element evaluated on its own with
/// the scalar `apply`s, input `i` indexed modulo its length.
fn reference(insts: &[FusedInst], inputs: &[&[f32]], n: usize) -> Vec<u32> {
    let mut regs = vec![0.0f32; insts.len()];
    (0..n)
        .map(|e| {
            for (r, inst) in insts.iter().enumerate() {
                regs[r] = match inst {
                    FusedInst::Input(i) => inputs[*i][e % inputs[*i].len()],
                    FusedInst::Imm(x) => *x,
                    FusedInst::Unary(u, a) => u.apply(regs[*a]),
                    FusedInst::Binary(b, a, c) => b.apply(regs[*a], regs[*c]),
                };
            }
            bits(regs[insts.len() - 1])
        })
        .collect()
}

/// Runs the program through the compiled kernel; with `reduce_to`, through
/// its reduction epilogue.
fn run_compiled(
    insts: &[FusedInst],
    inputs: &[Tensor<f32>],
    reduce_to: Option<Vec<usize>>,
) -> Tensor<f32> {
    let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
    let op = HloOp::Fused {
        insts: insts.to_vec(),
        n_inputs: inputs.len(),
        reduce_to,
    };
    eval_op(&op, &refs)
}

fn tensor_bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|&x| bits(x)).collect()
}

/// The property: `insts` over `inputs` (input 0 full-shape, `n` elements)
/// gives the scalar semantics' bits on both SIMD paths at 1 and 4 pool
/// threads, and its reduction epilogue sums exactly those values, the
/// same way on every path. The caller holds [`TOGGLES`].
fn check_bit_identical(insts: &[FusedInst], inputs: &[Tensor<f32>]) -> Result<(), TestCaseError> {
    let n = inputs[0].num_elements();
    let slices: Vec<&[f32]> = inputs.iter().map(|t| t.as_slice()).collect();
    let want = reference(insts, &slices, n);
    let mut epilogues = Vec::new();
    for simd in [false, true] {
        s4tf_tensor::simd::set_simd_enabled(simd);
        for threads in [1usize, 4] {
            s4tf_threads::set_num_threads(threads);
            let stored = run_compiled(insts, inputs, None);
            prop_assert_eq!(
                &want,
                &tensor_bits(&stored),
                "bits diverged: n={} simd={} threads={} insts={:?}",
                n,
                simd,
                threads,
                insts
            );
            // The reduction epilogue sums the very values the plain
            // launch stores, in `reduce_to_shape`'s order — one
            // routine — whatever the path or the pool width.
            let c = cycle(n);
            let summed = run_compiled(insts, inputs, Some(vec![c]));
            prop_assert_eq!(
                tensor_bits(&stored.reduce_to_shape(&[c])),
                tensor_bits(&summed),
                "epilogue diverged: n={} simd={} threads={} insts={:?}",
                n,
                simd,
                threads,
                insts
            );
            epilogues.push(tensor_bits(&summed));
        }
    }
    s4tf_tensor::simd::set_simd_enabled(true);
    prop_assert!(
        epilogues.windows(2).all(|w| w[0] == w[1]),
        "epilogue depends on path/threads"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_is_bit_identical_to_scalar_semantics(
        raw in prop::collection::vec(inst_strategy(), 0..31),
        len_ix in 0..LENGTHS.len(),
        n_inputs in 1usize..4,
        seed in any::<u64>(),
    ) {
        let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
        let insts = assemble(&raw, n_inputs);
        check_bit_identical(&insts, &make_inputs(LENGTHS[len_ix], n_inputs, seed))?;
    }

    /// A random chain with the two-product and activation peepholes in
    /// its middle: `act(x₃·h ± x₀·k)`, where `h` is the head's last value
    /// and nothing but the merged instruction reads the products or
    /// their sum. The tail reads anything else, and the output reads the
    /// activation, so the merged instruction is live and its register
    /// interleaves with the rest.
    #[test]
    fn long_chain_merges_the_middle_bit_identically(
        head in prop::collection::vec(inst_strategy(), 6..24),
        tail in prop::collection::vec(inst_strategy(), 6..24),
        act in 0..UNARY.len(),
        sub in any::<bool>(),
        k in -2.0f32..2.0,
        len_ix in 0..LENGTHS.len(),
        seed in any::<u64>(),
    ) {
        let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
        let mut insts = assemble(&head, 4);
        let s = insts.len();
        let combine = if sub { ElemBinary::Sub } else { ElemBinary::Add };
        insts.extend([
            FusedInst::Input(3),
            FusedInst::Binary(ElemBinary::Mul, s, s - 1),
            FusedInst::Input(0),
            FusedInst::Imm(k),
            FusedInst::Binary(ElemBinary::Mul, s + 2, s + 3),
            FusedInst::Binary(combine, s + 1, s + 4),
            FusedInst::Unary(UNARY[act], s + 5),
        ]);
        let merged = [s + 1, s + 4, s + 5];
        append(&mut insts, &tail, 4, |len| {
            (0..len).filter(|i| !merged.contains(i)).collect()
        });
        insts.push(FusedInst::Binary(ElemBinary::Add, s + 6, insts.len() - 1));

        let kernel = get_or_compile(&insts);
        prop_assert!(
            kernel.ir().iter().any(|i| matches!(
                *i,
                IrInst::MulMul { op, act: Some(a), .. } if op == combine && a == UNARY[act]
            )),
            "peepholes did not fire: {:?}",
            kernel.ir()
        );
        check_bit_identical(&insts, &make_inputs(LENGTHS[len_ix], 4, seed))?;
    }
}

/// The leaves a shape's free operands rotate through (inputs as
/// [`make_inputs`] builds them): a second full-shape input, an immediate,
/// a one-element input and a `[c]` broadcast.
fn leaves() -> [FusedInst; 4] {
    [
        FusedInst::Input(3),
        FusedInst::Imm(-0.75),
        FusedInst::Input(1),
        FusedInst::Input(2),
    ]
}

/// The shapes the tracer emits hot, as explicit programs over the
/// full-shape input `x` (slot 0) and the leaves `p, q, r` (slots 1–3):
/// fill, copy, one and two activations, `act(x ⊕ p)` (bias + relu),
/// `act(x·p ± q)` (the SGD update), two binaries in a row (loss-gradient
/// scaling, relu backward) and `x·p ± q·r` (the momentum update).
/// `v` varies the ops.
fn hot_shapes(v: usize, leaves: [FusedInst; 3]) -> Vec<(&'static str, Vec<FusedInst>)> {
    use ElemBinary::{Add, GreaterMask, Mul, Sub};
    use FusedInst::{Binary as B, Unary as U};
    let u = |k: usize| UNARY[(v + k) % UNARY.len()];
    let bin = BINARY[v % BINARY.len()];
    let pm = if v.is_multiple_of(2) { Add } else { Sub };
    let mut base = vec![FusedInst::Input(0)];
    base.extend(leaves);
    let with = |tail: Vec<FusedInst>| {
        let mut p = base.clone();
        p.extend(tail);
        p
    };
    vec![
        (
            "fill",
            with(vec![FusedInst::Imm(1.5), U(ElemUnary::Square, 4)]),
        ),
        ("copy", base.clone()),
        ("act", with(vec![U(u(0), 0)])),
        ("act2", with(vec![U(u(1), 0), U(u(2), 4)])),
        ("bin+act", with(vec![B(bin, 0, 1), U(ElemUnary::Relu, 4)])),
        ("bin+act", with(vec![B(bin, 1, 0), U(u(3), 4)])),
        (
            "mulbin+act",
            with(vec![B(Mul, 0, 1), B(pm, 4, 2), U(u(4), 5)]),
        ),
        ("mulbin", with(vec![B(Mul, 1, 0), B(pm, 2, 4)])),
        ("bin,bin", with(vec![B(GreaterMask, 0, 1), B(Mul, 2, 4)])),
        (
            "bin,bin",
            with(vec![B(bin, 0, 1), B(BINARY[(v + 3) % 8], 4, 2)]),
        ),
        (
            "momentum",
            with(vec![B(Mul, 0, 1), B(Mul, 2, 3), B(pm, 4, 5)]),
        ),
    ]
}

/// Every hot shape with every leaf kind in every operand position (the
/// leaves rotate), at every boundary length, on both SIMD paths and pool
/// widths, stored and reduced.
#[test]
fn hot_shapes_are_bit_identical_with_every_operand_kind() {
    let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
    for v in 0..4 {
        let l = leaves();
        let picked = [0, 1, 2].map(|k| l[(v + k) % l.len()].clone());
        for (name, insts) in hot_shapes(v, picked) {
            for (i, &n) in LENGTHS.iter().enumerate() {
                let inputs = make_inputs(n, 4, (v * 100 + i) as u64);
                if let Err(e) = check_bit_identical(&insts, &inputs) {
                    panic!("{name}: {e:?}");
                }
            }
        }
    }
}

/// `insts` as a graph of elementwise nodes, compiled and run on owned
/// inputs: the memory planner donates a dying full-shape input's buffer
/// to the fused kernel's output, so the kernel reads that operand from
/// the buffer it is writing. Returns the output and whether it landed
/// in the buffer of input 0 or 3.
fn run_donated(insts: &[FusedInst], inputs: &[Tensor<f32>]) -> (Tensor<f32>, bool) {
    let mut g = HloGraph::new();
    let params: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, t)| g.parameter(i, t.dims()))
        .collect();
    let mut slots = Vec::new();
    for inst in insts {
        let node = match *inst {
            FusedInst::Input(i) => params[i],
            FusedInst::Imm(x) => g.constant(Tensor::scalar(x)),
            FusedInst::Unary(u, a) => g.unary(u, slots[a]),
            FusedInst::Binary(b, a, c) => g.binary(b, slots[a], slots[c]),
        };
        slots.push(node);
    }
    g.mark_output(*slots.last().expect("non-empty program"));
    let exe = s4tf_xla::compile(&g);
    let owned: Vec<Tensor<f32>> = inputs
        .iter()
        .map(|t| Tensor::from_vec(t.as_slice().to_vec(), t.dims()))
        .collect();
    let donors = [owned[0].as_slice().as_ptr(), owned[3].as_slice().as_ptr()];
    let out = exe.try_run_owned(owned, "xla").expect("runs").remove(0);
    let in_place = donors.contains(&out.as_slice().as_ptr());
    (out, in_place)
}

/// The hot shapes whose output has the full shape, run in place: the
/// aliased operand is read from each output chunk before the chunk is
/// written, bit for bit.
#[test]
fn hot_shapes_are_bit_identical_in_place() {
    let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
    for v in 0..4 {
        let l = leaves();
        let picked = [0, 1, 2].map(|k| l[(v + k) % l.len()].clone());
        for (name, insts) in hot_shapes(v, picked) {
            if matches!(name, "fill" | "copy") {
                continue; // no kernel: the output is a constant or an input
            }
            for (i, &n) in [9usize, 513, 4097, 8200].iter().enumerate() {
                let inputs = make_inputs(n, 4, (v * 10 + i) as u64);
                let slices: Vec<&[f32]> = inputs.iter().map(|t| t.as_slice()).collect();
                let want = reference(&insts, &slices, n);
                let (out, in_place) = run_donated(&insts, &inputs);
                assert!(in_place, "{name} n={n}: not run in place: {insts:?}");
                assert_eq!(want, tensor_bits(&out), "{name} n={n}: {insts:?}");
            }
        }
    }
}

/// The donated in-place path (`p ← p − lr·g` on an owned parameter) must
/// meet the same contract — the compiled kernel honors the memory
/// planner's aliasing without changing a bit.
#[test]
fn donated_in_place_update_is_bit_identical() {
    let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4097usize;
    let mut g = HloGraph::new();
    let p = g.parameter(0, &[n]);
    let grad = g.parameter(1, &[n]);
    let lr = g.constant(Tensor::scalar(-0.05));
    let scaled = g.binary(ElemBinary::Mul, grad, lr);
    let upd = g.binary(ElemBinary::Add, p, scaled);
    g.mark_output(upd);
    let exe = s4tf_xla::compile(&g);

    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let p0 = Tensor::<f32>::rand_uniform(&[n], -1.0, 1.0, &mut rng);
    let g0 = Tensor::<f32>::rand_uniform(&[n], -1.0, 1.0, &mut rng);
    let insts = [
        FusedInst::Input(0),
        FusedInst::Input(1),
        FusedInst::Imm(-0.05),
        FusedInst::Binary(ElemBinary::Mul, 1, 2),
        FusedInst::Binary(ElemBinary::Add, 0, 3),
    ];
    let want = reference(&insts, &[p0.as_slice(), g0.as_slice()], n);

    // Donated run: the planner overwrites p's buffer in place.
    let p_owned = p0.as_slice().to_vec();
    let ptr = p_owned.as_ptr();
    let out = exe
        .try_run_owned(vec![Tensor::from_vec(p_owned, &[n]), g0.clone()], "xla")
        .expect("runs");
    assert_eq!(out[0].as_slice().as_ptr(), ptr, "update should alias p");
    let got: Vec<u32> = out[0].as_slice().iter().map(|&x| bits(x)).collect();
    assert_eq!(want, got, "donated in-place update diverged");
}

/// Operand values for the unfused kernels: uniform in `[-3, 3)` with
/// about one element in six drawn from NaN, ±∞ and ±0.
fn special_values(dims: &[usize], rng: &mut impl rand::Rng) -> Tensor<f32> {
    const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    let n = dims.iter().product();
    let v = (0..n)
        .map(|_| {
            if rng.gen_range(0..6) == 0 {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                rng.gen_range(-3.0f32..3.0)
            }
        })
        .collect();
    Tensor::from_vec(v, dims)
}

/// A uniquely owned copy of `t` (its own buffer, so a kernel may take it).
fn owned(t: &Tensor<f32>) -> Tensor<f32> {
    Tensor::from_vec(t.as_slice().to_vec(), t.dims())
}

/// `b` over `x` and `y` one output element at a time, each operand
/// indexed by NumPy broadcasting: the unfused kernels' contract.
fn broadcast_reference(b: ElemBinary, x: &Tensor<f32>, y: &Tensor<f32>) -> (Vec<usize>, Vec<u32>) {
    let out = Shape::broadcast(x.shape(), y.shape()).expect("broadcastable");
    let dims = out.dims().to_vec();
    let flat = |t: &Tensor<f32>, idx: &[usize]| {
        let pad = dims.len() - t.rank();
        (0..t.rank()).fold(0, |acc, j| {
            let i = if t.dims()[j] == 1 { 0 } else { idx[pad + j] };
            acc * t.dims()[j] + i
        })
    };
    let mut idx = vec![0usize; dims.len()];
    let want = (0..out.num_elements())
        .map(|e| {
            let mut r = e;
            for ax in (0..dims.len()).rev() {
                idx[ax] = r % dims[ax];
                r /= dims[ax];
            }
            let (a, c) = (x.as_slice()[flat(x, &idx)], y.as_slice()[flat(y, &idx)]);
            bits(b.apply(a, c))
        })
        .collect();
    (dims, want)
}

/// `op` over `operands` as a one-node program without optimization, run
/// on owned parameters: the executor's per-node kernel, in place wherever
/// the memory plan lets a dying full-shape operand take the output.
fn run_single_node(op: &HloOp, operands: &[&Tensor<f32>]) -> Tensor<f32> {
    let mut g = HloGraph::new();
    let params: Vec<_> = operands
        .iter()
        .enumerate()
        .map(|(i, t)| g.parameter(i, t.dims()))
        .collect();
    let node = match op {
        HloOp::Unary(u) => g.unary(*u, params[0]),
        HloOp::Binary(b) => g.binary(*b, params[0], params[1]),
        op => unreachable!("elementwise only, got {op:?}"),
    };
    g.mark_output(node);
    let exe = s4tf_xla::compile_unoptimized(&g);
    let owned = operands.iter().map(|t| owned(t)).collect();
    exe.try_run_owned(owned, "xla").expect("runs").remove(0)
}

/// Every `ElemBinary` over `x ⊕ y`, and every `ElemUnary` over `x`, gives
/// the scalar reference's bits out of place (`eval_op`), in place with
/// the uniquely owned operand on the left and on the right
/// (`eval_op_owned`, checked to reuse that buffer unless the other
/// operand needs a stride walk, which the in-place kernel hands to the
/// out-of-place one), and through the executor's in-place node.
fn check_unfused(x: &Tensor<f32>, y: &Tensor<f32>, walk: bool) -> Result<(), TestCaseError> {
    for &b in BINARY {
        let op = HloOp::Binary(b);
        let (dims, want) = broadcast_reference(b, x, y);
        let out = eval_op(&op, &[x, y]);
        prop_assert_eq!(out.dims(), &dims[..]);
        prop_assert_eq!(
            &want,
            &tensor_bits(&out),
            "{:?} {:?}⊕{:?}",
            b,
            x.dims(),
            y.dims()
        );
        for lhs in [true, false] {
            let donor = owned(if lhs { x } else { y });
            if donor.dims() != &dims[..] {
                continue;
            }
            let ptr = donor.as_slice().as_ptr();
            // The other operand stays shared, so only the donor is unique.
            let operands = if lhs {
                vec![donor, y.clone()]
            } else {
                vec![x.clone(), donor]
            };
            let out = eval_op_owned(&op, operands);
            prop_assert!(
                walk || out.as_slice().as_ptr() == ptr,
                "{:?} lhs={} not in place",
                b,
                lhs
            );
            prop_assert_eq!(&want, &tensor_bits(&out), "{:?} in place lhs={}", b, lhs);
        }
        let out = run_single_node(&op, &[x, y]);
        prop_assert_eq!(&want, &tensor_bits(&out), "{:?} executor", b);
    }
    for &u in UNARY {
        let op = HloOp::Unary(u);
        let want: Vec<u32> = x.as_slice().iter().map(|&v| bits(u.apply(v))).collect();
        prop_assert_eq!(&want, &tensor_bits(&eval_op(&op, &[x])), "{:?}", u);
        let donor = owned(x);
        let ptr = donor.as_slice().as_ptr();
        let out = eval_op_owned(&op, vec![donor]);
        prop_assert_eq!(out.as_slice().as_ptr(), ptr, "{:?} not in place", u);
        prop_assert_eq!(&want, &tensor_bits(&out), "{:?} in place", u);
        prop_assert_eq!(
            &want,
            &tensor_bits(&run_single_node(&op, &[x])),
            "{:?} executor",
            u
        );
    }
    Ok(())
}

/// The routes [`route_dims`] builds; the last [`WALKS`] need a stride walk.
const ROUTES: usize = 10;
const WALKS: usize = 3;

/// The operand dims of each broadcast route, over extents `a`, `d`, `c`:
/// same shape, a rank-0 operand, a `[C]` suffix, a `[B,1]` prefix (each
/// on either side), and two stride walks — a two-sided `[B,1]⊕[1,C]` and
/// a middle broadcast `[A,D,C]⊕[A,1,C]` (either side full).
fn route_dims(route: usize, a: usize, d: usize, c: usize) -> (Vec<usize>, Vec<usize>) {
    let pairs = [
        (vec![a, c], vec![a, c]),
        (vec![a, c], vec![]),
        (vec![], vec![a, c]),
        (vec![a, c], vec![c]),
        (vec![c], vec![a, c]),
        (vec![a, c], vec![a, 1]),
        (vec![a, 1], vec![a, c]),
        (vec![a, 1], vec![1, c]),
        (vec![a, d, c], vec![a, 1, c]),
        (vec![a, 1, c], vec![a, d, c]),
    ];
    pairs[route].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every unfused elementwise variant on every broadcast route, on
    /// both SIMD paths at 1 and 4 pool threads, with NaN, ±∞ and −0.0
    /// among the operands.
    #[test]
    fn unfused_elementwise_is_bit_identical_to_scalar_semantics(
        route in 0..ROUTES,
        a in 1usize..80,
        d in 1usize..6,
        c in 1usize..70,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (xd, yd) = route_dims(route, a, d, c);
        let x = special_values(&xd, &mut rng);
        let y = special_values(&yd, &mut rng);
        for simd in [false, true] {
            s4tf_tensor::simd::set_simd_enabled(simd);
            for threads in [1usize, 4] {
                s4tf_threads::set_num_threads(threads);
                check_unfused(&x, &y, route >= ROUTES - WALKS)?;
            }
        }
        s4tf_tensor::simd::set_simd_enabled(true);
    }
}

/// `eval_op(Conv2DBackwardInput)` computes `dx` from the input's dims
/// alone, with the bits of the tensor method given the input itself —
/// on a tiny geometry, the single-channel lane kernel and the GEMM.
#[test]
fn conv_backward_input_matches_the_tensor_method() {
    use rand::SeedableRng;
    let _guard = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let cases: [(&[usize], &[usize], usize, Padding); 4] = [
        (&[2, 6, 6, 2], &[3, 3, 2, 3], 1, Padding::Same),
        (&[4, 28, 28, 1], &[5, 5, 1, 6], 1, Padding::Same),
        (&[4, 14, 14, 6], &[5, 5, 6, 16], 1, Padding::Valid),
        (&[2, 16, 16, 8], &[3, 3, 8, 16], 2, Padding::Same),
    ];
    for (x_dims, w_dims, stride, padding) in cases {
        let strides = (stride, stride);
        let x = Tensor::<f32>::randn(x_dims, &mut rng);
        let w = Tensor::<f32>::randn(w_dims, &mut rng);
        let y_dims = x.conv2d(&w, strides, padding).dims().to_vec();
        let dy = Tensor::<f32>::randn(&y_dims, &mut rng);
        let want = x.conv2d_backward_input(&w, &dy, strides, padding);
        let op = HloOp::Conv2DBackwardInput {
            input_dims: x_dims.to_vec(),
            strides,
            padding,
        };
        let got = eval_op(&op, &[&w, &dy]);
        assert_eq!(got.dims(), x_dims);
        assert_eq!(
            tensor_bits(&want),
            tensor_bits(&got),
            "{x_dims:?} * {w_dims:?} /{stride}"
        );
    }
}
