//! Property-based tests for the XLA-like compiler: on random operation
//! DAGs — multi-consumer elementwise nodes, trailing-broadcast operands,
//! reductions onto a trailing suffix — the optimized executable must
//! produce the *same bits* as the unoptimized one (every pass, producer
//! duplication and the fused reduction epilogue keep per-element
//! arithmetic and summation order), and trace fingerprints must be stable
//! and injective enough for cache correctness.

use proptest::prelude::*;
use s4tf_tensor::Tensor;
use s4tf_xla::graph::HloGraph;
use s4tf_xla::{compile, compile_unoptimized, ElemBinary, ElemUnary, HloOp, NodeId, ReduceKind};

#[derive(Debug, Clone)]
enum Step {
    Unary(usize, usize),
    Binary(usize, usize, usize),
    ScalarConst(f32),
    BiasAdd(usize), // trailing-broadcast add against a [C] parameter
    ReduceSumAxis0(usize),
    /// `v · reduce_to_shape(w, [C])`: a reduction root whose result comes
    /// back as a trailing-broadcast operand.
    ScaleByColumnSums(usize, usize),
    MarkExtraOutput(usize),
}

const UNARY: &[ElemUnary] = &[
    ElemUnary::Neg,
    ElemUnary::Exp,
    ElemUnary::Tanh,
    ElemUnary::Sigmoid,
    ElemUnary::Relu,
    ElemUnary::Square,
];
const BINARY: &[ElemBinary] = &[
    ElemBinary::Add,
    ElemBinary::Sub,
    ElemBinary::Mul,
    ElemBinary::Max,
    ElemBinary::Min,
];

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..UNARY.len(), any::<usize>()).prop_map(|(o, p)| Step::Unary(o, p)),
        (0..BINARY.len(), any::<usize>(), any::<usize>())
            .prop_map(|(o, a, b)| Step::Binary(o, a, b)),
        (-2.0f32..2.0).prop_map(Step::ScalarConst),
        any::<usize>().prop_map(Step::BiasAdd),
        any::<usize>().prop_map(Step::ReduceSumAxis0),
        (any::<usize>(), any::<usize>()).prop_map(|(v, w)| Step::ScaleByColumnSums(v, w)),
        any::<usize>().prop_map(Step::MarkExtraOutput),
    ]
}

/// Steps that rarely cut a kernel — cheap ops only (a transcendental is
/// never duplicated), no materialized broadcast, no extra output,
/// built with a window of 2 (operands drawn from the two newest values):
/// long chains with diamonds, duplicated producers and the odd reduction
/// root hanging off them.
fn chain_step_strategy() -> impl Strategy<Value = Step> {
    const CHEAP: [usize; 3] = [0, 4, 5]; // Neg, Relu, Square
    prop_oneof![
        (0..CHEAP.len(), any::<usize>()).prop_map(|(o, p)| Step::Unary(CHEAP[o], p)),
        (0..BINARY.len(), any::<usize>(), any::<usize>())
            .prop_map(|(o, a, b)| Step::Binary(o, a, b)),
        (-2.0f32..2.0).prop_map(Step::ScalarConst),
        any::<usize>().prop_map(Step::BiasAdd),
        (0usize..40, any::<usize>()).prop_map(|(rare, w)| match rare {
            0 => Step::ScaleByColumnSums(0, w),
            _ => Step::BiasAdd(w),
        }),
    ]
}

/// Builds a random graph over a `[R, C]` parameter and a `[C]` bias
/// parameter. Tracks each live value's shape class so ops stay valid.
/// Operand picks count back from the newest value, within `window`.
fn build_within(steps: &[Step], r: usize, c: usize, window: usize) -> HloGraph {
    let pick = |full: &[NodeId], back: usize| full[full.len() - 1 - back % full.len().min(window)];
    let mut g = HloGraph::new();
    let x = g.parameter(0, &[r, c]);
    let bias = g.parameter(1, &[c]);
    // values of shape [R, C] only (scalars live as consts on the side).
    let mut full: Vec<NodeId> = vec![x];
    let mut scalars: Vec<NodeId> = Vec::new();
    for step in steps {
        match step {
            Step::Unary(o, p) => {
                let v = pick(&full, *p);
                let n = g.unary(UNARY[o % UNARY.len()], v);
                full.push(n);
            }
            Step::Binary(o, a, b) => {
                let (x1, x2) = (pick(&full, *a), pick(&full, *b));
                let n = g.binary(BINARY[o % BINARY.len()], x1, x2);
                full.push(n);
            }
            Step::ScalarConst(v) => {
                let k = g.constant(Tensor::scalar(*v));
                scalars.push(k);
                let base = pick(&full, scalars.len());
                let n = g.binary(ElemBinary::Add, base, k);
                full.push(n);
            }
            Step::BiasAdd(p) => {
                let v = pick(&full, *p);
                let n = g.binary(ElemBinary::Mul, v, bias);
                full.push(n);
            }
            Step::ReduceSumAxis0(p) => {
                let v = pick(&full, *p);
                let reduced = g.add(
                    HloOp::Reduce {
                        kind: ReduceKind::Sum,
                        axis: Some(0),
                    },
                    &[v],
                ); // shape [C]
                let back = g.add(HloOp::Broadcast(vec![r, c]), &[reduced]);
                full.push(back);
            }
            Step::ScaleByColumnSums(p, q) => {
                let (v, w) = (pick(&full, *p), pick(&full, *q));
                let sums = g.add(HloOp::ReduceToShape(vec![c]), &[w]);
                full.push(g.binary(ElemBinary::Mul, v, sums));
            }
            Step::MarkExtraOutput(p) => {
                let v = pick(&full, *p);
                g.mark_output(v);
            }
        }
    }
    g.mark_output(*full.last().expect("non-empty"));
    g
}

fn build(steps: &[Step], r: usize, c: usize) -> HloGraph {
    build_within(steps, r, c, usize::MAX)
}

fn inputs(r: usize, c: usize, seed: u64) -> (Tensor<f32>, Tensor<f32>) {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (
        Tensor::<f32>::rand_uniform(&[r, c], -1.0, 1.0, &mut rng),
        Tensor::<f32>::rand_uniform(&[c], 0.5, 1.5, &mut rng),
    )
}

/// Exact bits, every NaN folded to one pattern (which operand a NaN
/// result inherits its sign and payload from is unspecified).
fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice()
        .iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

fn assert_same_bits(g: &HloGraph, r: usize, c: usize, seed: u64) -> Result<(), TestCaseError> {
    let (x, b) = inputs(r, c, seed);
    let fast = compile(g).run(&[&x, &b]);
    let slow = compile_unoptimized(g).run(&[&x, &b]);
    prop_assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        prop_assert_eq!(f.dims(), s.dims());
        prop_assert_eq!(bits(f), bits(s), "optimization changed bits");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `[700, 6]` is past the elementwise grain and two column-sum
    /// chunks, so epilogues combine partials.
    #[test]
    fn optimized_equals_unoptimized_on_random_dags(
        steps in prop::collection::vec(step_strategy(), 1..20),
        big in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (r, c) = if big { (700usize, 6usize) } else { (3, 4) };
        assert_same_bits(&build(&steps, r, c), r, c, seed)?;
    }

    /// Long programs: kernels grow to the codegen envelope and split, with
    /// duplicated producers and reduction roots on both sides of the cut.
    #[test]
    fn optimized_equals_unoptimized_across_the_codegen_envelope(
        steps in prop::collection::vec(chain_step_strategy(), 300..420),
        seed in any::<u64>(),
    ) {
        let g = build_within(&steps, 5, 3, 2);
        let longest = compile(&g)
            .graph()
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                HloOp::Fused { insts, .. } => Some(insts.len()),
                _ => None,
            })
            .max();
        prop_assert!(longest > Some(100), "no kernel near the envelope: {:?}", longest);
        assert_same_bits(&g, 5, 3, seed)?;
    }

    #[test]
    fn fingerprints_are_deterministic_and_shape_sensitive(
        steps in prop::collection::vec(step_strategy(), 1..12),
    ) {
        let a = build(&steps, 3, 4);
        let b = build(&steps, 3, 4);
        prop_assert_eq!(a.fingerprint(), b.fingerprint(), "same program, same key");
        let c = build(&steps, 5, 4);
        prop_assert_ne!(a.fingerprint(), c.fingerprint(), "shape change, new key");
    }

    #[test]
    fn optimization_never_grows_the_kernel_count(
        steps in prop::collection::vec(step_strategy(), 1..20),
    ) {
        let g = build(&steps, 3, 4);
        let fused = compile(&g).kernel_count();
        let unfused = compile_unoptimized(&g).kernel_count();
        prop_assert!(fused <= unfused, "{fused} > {unfused}");
    }
}
