//! Property-based bit-exactness contract for the fused-kernel compiler:
//! on random `FusedInst` programs, the compiled kernel (specialized loop
//! nests or the register machine) must produce the *same bits* as the
//! program's per-element scalar semantics — across the SIMD dispatch
//! toggle and thread counts, for full-shape and trailing-broadcast
//! inputs, at lengths straddling lane (8), chunk (512) and task-grain
//! (4096) boundaries — and the reduction epilogue must sum those values
//! exactly as `Tensor::reduce_to_shape` sums the stored ones.

use proptest::prelude::*;
use s4tf_tensor::Tensor;
use s4tf_xla::op::FusedInst;
use s4tf_xla::{eval_op, ElemBinary, ElemUnary, HloOp};
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

/// Assembles a valid program: instruction 0 reads input 0 (full shape,
/// so the output extent is pinned) and every operand index refers to an
/// earlier instruction.
fn assemble(raw: &[RawInst], n_inputs: usize) -> Vec<FusedInst> {
    let mut insts = vec![FusedInst::Input(0)];
    for r in raw {
        let len = insts.len();
        let inst = match r {
            RawInst::Input(i) => FusedInst::Input(i % n_inputs),
            RawInst::Imm(x) => FusedInst::Imm(*x),
            RawInst::Unary(o, a) => FusedInst::Unary(UNARY[o % UNARY.len()], a % len),
            RawInst::Binary(o, a, b) => {
                FusedInst::Binary(BINARY[o % BINARY.len()], a % len, b % len)
            }
        };
        insts.push(inst);
    }
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
        let n = LENGTHS[len_ix];
        let insts = assemble(&raw, n_inputs);
        let inputs = make_inputs(n, n_inputs, seed);
        let slices: Vec<&[f32]> = inputs.iter().map(|t| t.as_slice()).collect();
        let want = reference(&insts, &slices, n);
        let mut epilogues = Vec::new();
        for simd in [false, true] {
            s4tf_tensor::simd::set_simd_enabled(simd);
            for threads in [1usize, 4] {
                s4tf_threads::set_num_threads(threads);
                let stored = run_compiled(&insts, &inputs, None);
                prop_assert_eq!(
                    &want, &tensor_bits(&stored),
                    "bits diverged: n={} simd={} threads={} insts={:?}",
                    n, simd, threads, insts
                );
                // The reduction epilogue sums the very values the plain
                // launch stores, in `reduce_to_shape`'s order — one
                // routine — whatever the path or the pool width.
                let c = cycle(n);
                let summed = run_compiled(&insts, &inputs, Some(vec![c]));
                prop_assert_eq!(
                    tensor_bits(&stored.reduce_to_shape(&[c])), tensor_bits(&summed),
                    "epilogue diverged: n={} simd={} threads={} insts={:?}",
                    n, simd, threads, insts
                );
                epilogues.push(tensor_bits(&summed));
            }
        }
        s4tf_tensor::simd::set_simd_enabled(true);
        prop_assert!(epilogues.windows(2).all(|w| w[0] == w[1]), "epilogue depends on path/threads");
    }
}

/// The donated in-place path (`p ← p − lr·g` on an owned parameter) must
/// meet the same contract — the compiled kernel honors the memory
/// planner's aliasing without changing a bit.
#[test]
fn donated_in_place_update_is_bit_identical() {
    use s4tf_xla::graph::HloGraph;

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
