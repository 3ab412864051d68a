//! Whole-program optimizations over [`HloGraph`]s — the domain-specific
//! compiler's payoff (paper §3.3): because the lazy trace exposes the whole
//! program, the compiler can fold constants, share subexpressions and —
//! most importantly — *fuse* chains of elementwise operations into single
//! kernels.

use crate::graph::{HloGraph, HloNode, NodeId};
use crate::op::{FusedInst, HloOp};
use s4tf_tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// Runs the full pipeline: constant folding → CSE → algebraic
/// simplification → elementwise fusion → DCE.
///
/// With `S4TF_DUMP` set, the graph is dumped before the pipeline (text +
/// Graphviz DOT) and after every pass, in sequence-numbered files.
pub fn optimize(g: &mut HloGraph) {
    let dumping = crate::diag::dump_enabled();
    if dumping {
        crate::diag::dump("xla", "before", "txt", &g.to_text());
        crate::diag::dump("xla", "before", "dot", &g.to_dot("xla-before"));
    }
    type Pass = fn(&mut HloGraph) -> bool;
    let passes: [(&str, Pass); 5] = [
        ("constant_fold", constant_fold),
        ("cse", cse),
        ("algebraic_simplify", algebraic_simplify),
        ("fuse_elementwise", fuse_elementwise),
        ("dce", dce),
    ];
    for (name, pass) in passes {
        {
            let _span = crate::prof::span(format!("xla.pass.{name}"));
            pass(g);
        }
        if dumping {
            crate::diag::dump("xla", &format!("pass.{name}"), "txt", &g.to_text());
        }
    }
    if dumping {
        crate::diag::dump("xla", "after", "dot", &g.to_dot("xla-after"));
    }
}

/// Replaces every use of keys in `replace` (chased to fixpoint) across
/// node inputs and graph outputs.
fn apply_replacements(g: &mut HloGraph, replace: &HashMap<NodeId, NodeId>) {
    if replace.is_empty() {
        return;
    }
    let chase = |mut id: NodeId| {
        while let Some(&next) = replace.get(&id) {
            id = next;
        }
        id
    };
    for node in &mut g.nodes {
        for input in &mut node.inputs {
            *input = chase(*input);
        }
    }
    for o in &mut g.outputs {
        *o = chase(*o);
    }
}

/// Folds elementwise operations over constants into constants.
pub fn constant_fold(g: &mut HloGraph) -> bool {
    let mut changed = false;
    for i in 0..g.nodes.len() {
        let node = &g.nodes[i];
        if !node.op.is_elementwise() {
            continue;
        }
        let inputs: Option<Vec<&Tensor<f32>>> = node
            .inputs
            .iter()
            .map(|&id| match &g.node(id).op {
                HloOp::Constant(t) => Some(t),
                _ => None,
            })
            .collect();
        let Some(inputs) = inputs else {
            continue;
        };
        let folded = crate::exec::eval_op(&node.op, &inputs);
        g.nodes[i].op = HloOp::Constant(folded);
        g.nodes[i].inputs.clear();
        changed = true;
    }
    changed
}

/// Common-subexpression elimination: structurally identical nodes merge.
pub fn cse(g: &mut HloGraph) -> bool {
    let mut seen: HashMap<String, NodeId> = HashMap::new();
    let mut replace: HashMap<NodeId, NodeId> = HashMap::new();
    for i in 0..g.nodes.len() {
        // Inputs may reference earlier replaced nodes; normalize first.
        let inputs: Vec<NodeId> = g.nodes[i]
            .inputs
            .iter()
            .map(|id| *replace.get(id).unwrap_or(id))
            .collect();
        g.nodes[i].inputs = inputs.clone();
        let key = match &g.nodes[i].op {
            HloOp::Constant(t) => format!(
                "const:{:?}:{:?}",
                t.dims(),
                t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            ),
            op => format!("{op:?}:{inputs:?}"),
        };
        match seen.get(&key) {
            Some(&prior) => {
                replace.insert(NodeId(i as u32), prior);
            }
            None => {
                seen.insert(key, NodeId(i as u32));
            }
        }
    }
    let changed = !replace.is_empty();
    apply_replacements(g, &replace);
    changed
}

/// Scalar-identity simplification: `x·1 → x`, `x+0 → x`, `x−0 → x`,
/// `x/1 → x`.
pub fn algebraic_simplify(g: &mut HloGraph) -> bool {
    use crate::op::ElemBinary::{Add, Div, Mul, Sub};
    let scalar_const = |g: &HloGraph, id: NodeId| -> Option<f32> {
        match &g.node(id).op {
            HloOp::Constant(t) if t.rank() == 0 => Some(t.scalar_value()),
            _ => None,
        }
    };
    let mut replace: HashMap<NodeId, NodeId> = HashMap::new();
    for i in 0..g.nodes.len() {
        let HloOp::Binary(b) = g.nodes[i].op else {
            continue;
        };
        let (l, r) = (g.nodes[i].inputs[0], g.nodes[i].inputs[1]);
        let (lc, rc) = (scalar_const(g, l), scalar_const(g, r));
        // Only valid when the surviving operand already has the output
        // shape (a scalar identity never changes the broadcast result).
        let this = NodeId(i as u32);
        let alias = |g: &HloGraph, keep: NodeId| g.node(keep).shape == g.node(this).shape;
        let target = match (b, lc, rc) {
            (Mul, _, Some(1.0))
            | (Add, _, Some(0.0))
            | (Sub, _, Some(0.0))
            | (Div, _, Some(1.0)) => Some(l),
            (Mul, Some(1.0), _) | (Add, Some(0.0), _) => Some(r),
            _ => None,
        };
        if let Some(keep) = target {
            if alias(g, keep) {
                replace.insert(this, keep);
            }
        }
    }
    let changed = !replace.is_empty();
    apply_replacements(g, &replace);
    changed
}

/// One kernel under construction in [`fuse_elementwise`].
struct Kernel {
    /// The node whose value the kernel materializes.
    root: usize,
    /// Elementwise nodes computed inside the kernel, in decreasing node
    /// order (the reduction node of a reduce kernel is not a member).
    members: Vec<usize>,
    /// Distinct nodes the members read from outside the kernel.
    externals: Vec<usize>,
}

impl Kernel {
    /// Instructions of the kernel's program: one per member plus one
    /// (`Input` or `Imm`) per external.
    fn program_len(&self) -> usize {
        self.members.len() + self.externals.len()
    }

    fn reads(&self, node: usize) -> bool {
        self.externals.contains(&node) || self.members.contains(&node)
    }
}

/// Elementwise fusion: a value is materialized only where it must exist.
///
/// Every *fusible* elementwise node (each input edge has the node's shape,
/// is a rank-0 constant — an immediate — or a trailing-suffix broadcast
/// the kernels index `e % len`) ends up inside one or more
/// [`HloOp::Fused`] kernels; a kernel of one node is a one-instruction
/// program, so in a compiled plan the fused executor runs all of them.
/// Walking consumers before producers, a node is computed *inside* the
/// kernels of its consumers instead of being stored when
///
/// * it is not a graph output and every consumer is a fusible elementwise
///   node of the same shape or a reduction root (below) — anything else
///   (a convolution, a consumer that broadcasts it) needs the value;
/// * every receiving kernel's program stays within
///   [`MAX_INSTS`](crate::codegen::MAX_INSTS), so each emitted program
///   compiles; and
/// * when that is more than one kernel (producer duplication): the node
///   is cheap — no `Exp`/`Ln`/`Tanh`/`Sigmoid`/`Pow`, which are never
///   recomputed — and recomputing moves fewer full-shape streams than
///   storing would: the streams it adds to those kernels number less
///   than its own reads plus one write plus one read per kernel (on a
///   tie the value is stored, which releases its operands sooner).
///
/// A `ReduceToShape` — or `Reduce { Sum, axis: Some(0) }` — onto a proper
/// trailing suffix of its operand's shape is a *reduction root*: a fusible
/// operand moves into it and the pair becomes a `Fused` node with
/// `reduce_to`, summing the program's values as they are produced. A
/// reduction whose operand must exist anyway stays as it is.
///
/// Unreachable nodes are removed first ([`dce`]).
pub fn fuse_elementwise(g: &mut HloGraph) -> bool {
    use crate::op::{ElemBinary, ElemUnary, ReduceKind};
    // What may move into its consumers depends on who the consumers are:
    // dead ones (a trace keeps every recorded op) must not hold a value.
    let pruned = dce(g);
    let n = g.nodes.len();
    let is_scalar_const =
        |id: NodeId| matches!(&g.node(id).op, HloOp::Constant(t) if t.rank() == 0);
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in g.nodes.iter().enumerate() {
        for input in &node.inputs {
            consumers[input.0 as usize].push(i);
        }
    }
    let mut is_output = vec![false; n];
    for o in &g.outputs {
        is_output[o.0 as usize] = true;
    }
    let fusible = |i: usize| {
        let node = &g.nodes[i];
        node.op.is_elementwise()
            && node.inputs.iter().all(|&input| {
                let shape = &g.node(input).shape;
                *shape == node.shape
                    || is_scalar_const(input)
                    || shape.is_trailing_suffix_of(&node.shape)
            })
    };
    let reduce_root = |i: usize| {
        let node = &g.nodes[i];
        let column_sum = matches!(
            node.op,
            HloOp::ReduceToShape(_)
                | HloOp::Reduce {
                    kind: ReduceKind::Sum,
                    axis: Some(0)
                }
        );
        column_sum && {
            let operand = &g.node(node.inputs[0]).shape;
            node.shape != *operand && node.shape.is_trailing_suffix_of(operand)
        }
    };
    let cheap = |i: usize| {
        !matches!(
            g.nodes[i].op,
            HloOp::Unary(ElemUnary::Exp | ElemUnary::Ln | ElemUnary::Tanh | ElemUnary::Sigmoid)
                | HloOp::Binary(ElemBinary::Pow)
        )
    };
    // Consumers before producers: `kernels_of[i]` lists the kernels node
    // `i` is computed in.
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut kernels_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in (0..n).rev() {
        let is_reduce_root = reduce_root(i);
        if !is_reduce_root && !fusible(i) {
            continue;
        }
        let shape = &g.nodes[i].shape;
        let mut reads: Vec<usize> = Vec::with_capacity(2);
        for input in &g.nodes[i].inputs {
            if !reads.contains(&(input.0 as usize)) {
                reads.push(input.0 as usize);
            }
        }
        // The kernels of `i`'s consumers — where `i` would move — if each
        // consumer computes over `i`'s extent (an elementwise member runs
        // over its own shape, a reduction root over its operand's).
        let mut into: Vec<usize> = Vec::new();
        let movable = !is_reduce_root
            && !is_output[i]
            && !consumers[i].is_empty()
            && consumers[i].iter().all(|&c| {
                for &k in &kernels_of[c] {
                    if !into.contains(&k) {
                        into.push(k);
                    }
                }
                !kernels_of[c].is_empty()
                    && (!g.nodes[c].op.is_elementwise() || g.nodes[c].shape == *shape)
            });
        // `i` itself stops being an external there and becomes a member.
        let fits = |k: &Kernel| {
            let added = reads.iter().filter(|&&e| !k.reads(e)).count();
            k.program_len() + added <= crate::codegen::MAX_INSTS
        };
        let cheaper_recomputed = || {
            let streams: Vec<usize> = reads
                .iter()
                .copied()
                .filter(|&e| g.nodes[e].shape == *shape && !is_scalar_const(NodeId(e as u32)))
                .collect();
            let added: usize = into
                .iter()
                .map(|&k| streams.iter().filter(|&&e| !kernels[k].reads(e)).count())
                .sum();
            cheap(i) && added < streams.len() + 1 + into.len()
        };
        if movable
            && into.iter().all(|&k| fits(&kernels[k]))
            && (into.len() == 1 || cheaper_recomputed())
        {
            for &k in &into {
                let kernel = &mut kernels[k];
                kernel.externals.retain(|&e| e != i);
                kernel.members.push(i);
                for &e in &reads {
                    if !kernel.externals.contains(&e) {
                        kernel.externals.push(e);
                    }
                }
            }
            kernels_of[i] = into;
        } else {
            kernels_of[i] = vec![kernels.len()];
            kernels.push(Kernel {
                root: i,
                members: if is_reduce_root { Vec::new() } else { vec![i] },
                externals: reads,
            });
        }
    }
    // A reduction root nothing moved into stays a plain reduction.
    kernels.retain(|k| !k.members.is_empty());
    if kernels.is_empty() {
        return pruned;
    }
    let mut kernel_at: Vec<Option<usize>> = vec![None; n];
    let mut stored = vec![true; n];
    for (k, kernel) in kernels.iter().enumerate() {
        kernel_at[kernel.root] = Some(k);
        for &m in &kernel.members {
            stored[m] = false;
        }
    }
    for kernel in &kernels {
        stored[kernel.root] = true;
    }

    // Rebuild the graph: stored nodes keep their order; a kernel is
    // emitted at its root's position.
    let old_nodes = std::mem::take(&mut g.nodes);
    let mut remap: Vec<Option<NodeId>> = vec![None; n];
    let renamed = |remap: &[Option<NodeId>], old: usize| remap[old].expect("operands are stored");
    for (i, node) in old_nodes.iter().enumerate() {
        if !stored[i] {
            continue;
        }
        let emitted = match kernel_at[i] {
            None => {
                let mut copy = node.clone();
                for input in &mut copy.inputs {
                    *input = renamed(&remap, input.0 as usize);
                }
                copy
            }
            Some(k) => {
                let kernel = &kernels[k];
                // Kernel inputs: external edges; rank-0 constants inline.
                let mut kernel_inputs: Vec<usize> = Vec::new();
                let mut insts: Vec<FusedInst> = Vec::with_capacity(kernel.program_len());
                let mut reg_of: HashMap<usize, usize> =
                    HashMap::with_capacity(kernel.program_len());
                for &m in kernel.members.iter().rev() {
                    let member = &old_nodes[m];
                    let mut args = [0usize; 2];
                    for (arg, input) in args.iter_mut().zip(&member.inputs) {
                        let input = input.0 as usize;
                        *arg = *reg_of.entry(input).or_insert_with(|| {
                            insts.push(match &old_nodes[input].op {
                                HloOp::Constant(t) if t.rank() == 0 => {
                                    FusedInst::Imm(t.scalar_value())
                                }
                                _ => {
                                    kernel_inputs.push(input);
                                    FusedInst::Input(kernel_inputs.len() - 1)
                                }
                            });
                            insts.len() - 1
                        });
                    }
                    insts.push(match &member.op {
                        HloOp::Unary(u) => FusedInst::Unary(*u, args[0]),
                        HloOp::Binary(b) => FusedInst::Binary(*b, args[0], args[1]),
                        _ => unreachable!("kernel members are elementwise"),
                    });
                    reg_of.insert(m, insts.len() - 1);
                }
                debug_assert!(insts.len() <= crate::codegen::MAX_INSTS);
                HloNode {
                    op: HloOp::Fused {
                        insts,
                        n_inputs: kernel_inputs.len(),
                        reduce_to: (!node.op.is_elementwise()).then(|| node.shape.dims().to_vec()),
                    },
                    inputs: kernel_inputs.iter().map(|&e| renamed(&remap, e)).collect(),
                    shape: node.shape.clone(),
                }
            }
        };
        g.nodes.push(emitted);
        remap[i] = Some(NodeId(g.nodes.len() as u32 - 1));
    }
    for o in &mut g.outputs {
        *o = renamed(&remap, o.0 as usize);
    }
    true
}

/// Removes nodes unreachable from the outputs, compacting ids.
pub fn dce(g: &mut HloGraph) -> bool {
    let mut live: HashSet<NodeId> = HashSet::new();
    let mut work: Vec<NodeId> = g.outputs.clone();
    while let Some(id) = work.pop() {
        if !live.insert(id) {
            continue;
        }
        work.extend(g.node(id).inputs.iter().copied());
    }
    if live.len() == g.nodes.len() {
        return false;
    }
    let old_nodes = std::mem::take(&mut g.nodes);
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut n_params = 0usize;
    for (i, node) in old_nodes.into_iter().enumerate() {
        let old_id = NodeId(i as u32);
        if !live.contains(&old_id) {
            continue;
        }
        if matches!(node.op, HloOp::Parameter(_)) {
            n_params += 1;
        }
        let mut n = node;
        for input in &mut n.inputs {
            *input = remap[input];
        }
        g.nodes.push(n);
        remap.insert(old_id, NodeId(g.nodes.len() as u32 - 1));
    }
    // Dead parameters keep their indices (callers still pass them); the
    // parameter count is the max index + 1 of surviving parameters, but
    // the runtime supplies all original parameters, so keep n_params as
    // the original count.
    let _ = n_params;
    g.outputs = g.outputs.iter().map(|o| remap[o]).collect();
    true
}

// ------------------------------------------------------- memory planning

/// A buffer-assignment plan computed once at compile time (nodes execute
/// in topological order, so liveness is a static property of the graph):
/// which values die after each step, and which steps may write their
/// output into a dying operand's buffer.
///
/// The executor applies the plan only when the runtime conditions hold
/// (planner enabled, operand storage uniquely owned) — results are
/// bit-identical with the plan on or off.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// `drop_after[i]`: node ids whose value is dead once node `i` has
    /// executed (their last use was node `i`, or they are never used and
    /// `i` created them). Graph outputs never appear.
    pub drop_after: Vec<Vec<u32>>,
    /// `inplace[i]`: operand *position* of a same-shaped input that dies
    /// at node `i`, for ops whose kernel can run in place (elementwise
    /// unary/binary and fused programs). `None` when no operand
    /// qualifies statically; the executor still re-checks buffer
    /// uniqueness at run time.
    pub inplace: Vec<Option<usize>>,
    /// Peak live bytes the liveness schedule predicts for one execution:
    /// each node's output counts from its step until its `drop_after`
    /// step (out-of-place model, f32 elements). Planned, not measured —
    /// the planner's budget, compared against pool/live gauges at run
    /// time.
    pub planned_bytes: u64,
}

/// Computes per-node last-use liveness and in-place eligibility.
///
/// In-place eligibility is deliberately conservative:
/// * **Unary**: the sole operand dies here (unary preserves shape).
/// * **Binary**: the operands are *distinct* nodes and the chosen one
///   has the node's exact shape and dies here; the other may broadcast
///   up to it (`conv + bias` overwrites the conv output). A dying
///   operand that is itself the broadcast one is never chosen — it is
///   smaller than the output. Position 0 writes through
///   `zip_apply_assign`, position 1 through `zip_apply_assign_rev`,
///   preserving operand order.
/// * **Fused**: some *full-shape* input dies here. The compiled kernel
///   reads each chunk of a full-shape input before writing that chunk of
///   the output, so aliasing the two is safe; modulo-broadcast inputs are
///   never aliased (they are smaller, hence a different buffer), and a
///   `reduce_to` kernel has no full-shape output to alias.
pub fn plan_memory(g: &HloGraph) -> MemoryPlan {
    let n = g.nodes.len();
    let mut last_use: Vec<Option<usize>> = vec![None; n];
    for (i, node) in g.nodes.iter().enumerate() {
        for inp in &node.inputs {
            last_use[inp.0 as usize] = Some(i);
        }
    }
    let outputs: HashSet<u32> = g.outputs.iter().map(|o| o.0).collect();

    let mut drop_after: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (j, lu) in last_use.iter().enumerate() {
        if outputs.contains(&(j as u32)) {
            continue;
        }
        // Unused non-output values (possible without DCE) die immediately.
        let at = lu.unwrap_or(j);
        drop_after[at].push(j as u32);
    }

    let mut inplace: Vec<Option<usize>> = vec![None; n];
    for (i, node) in g.nodes.iter().enumerate() {
        let dies_here = |id: NodeId| {
            last_use[id.0 as usize] == Some(i)
                && !outputs.contains(&id.0)
                && !matches!(g.node(id).op, HloOp::Constant(_))
        };
        let full_shape = |id: NodeId| g.node(id).shape == node.shape;
        inplace[i] = match &node.op {
            HloOp::Unary(_) => {
                let a = node.inputs[0];
                (full_shape(a) && dies_here(a)).then_some(0)
            }
            HloOp::Binary(_) => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                if a == b {
                    None
                } else if full_shape(a) && dies_here(a) {
                    Some(0)
                } else if full_shape(b) && dies_here(b) {
                    Some(1)
                } else {
                    None
                }
            }
            HloOp::Fused {
                insts,
                reduce_to: None,
                ..
            } => {
                let qualifies = |id: NodeId| full_shape(id) && dies_here(id);
                // The accumulator pattern `p ← p ⊕ f(…)` (the fused
                // optimizer update) has the updated value as the lhs of
                // the root instruction: prefer it, so `param_new` writes
                // into the donated `param_old` buffer. Fall back to a
                // dying parameter, then to any dying full-shape input.
                let root_lhs = match insts.last() {
                    Some(FusedInst::Binary(_, a, _)) => match insts.get(*a) {
                        Some(FusedInst::Input(pos)) => Some(*pos),
                        _ => None,
                    },
                    _ => None,
                };
                root_lhs
                    .filter(|&pos| pos < node.inputs.len() && qualifies(node.inputs[pos]))
                    .or_else(|| {
                        node.inputs.iter().position(|&id| {
                            qualifies(id) && matches!(g.node(id).op, HloOp::Parameter(_))
                        })
                    })
                    .or_else(|| node.inputs.iter().position(|&id| qualifies(id)))
            }
            _ => None,
        };
    }
    // The schedule's analytic memory budget: replay the liveness walk,
    // charging each output at creation and crediting it at its drop step.
    // Graph outputs never drop, so they stay charged through the end.
    let bytes_of = |j: usize| (g.nodes[j].shape.num_elements() * std::mem::size_of::<f32>()) as u64;
    let mut live = 0u64;
    let mut planned_bytes = 0u64;
    for (i, drops) in drop_after.iter().enumerate() {
        live += bytes_of(i);
        planned_bytes = planned_bytes.max(live);
        for &dead in drops {
            live -= bytes_of(dead as usize);
        }
    }

    MemoryPlan {
        drop_after,
        inplace,
        planned_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile_unoptimized, Executable};
    use crate::op::{ElemBinary, ElemUnary};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_equivalent(g: &HloGraph, opt: &HloGraph, param_dims: &[&[usize]]) {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let params: Vec<Tensor<f32>> = param_dims
            .iter()
            .map(|d| Tensor::<f32>::randn(d, &mut rng))
            .collect();
        let refs: Vec<&Tensor<f32>> = params.iter().collect();
        let a = compile_unoptimized(g).run(&refs);
        let b = Executable::run(&compile_unoptimized(opt), &refs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.allclose(y, 1e-5), "pass changed semantics");
        }
    }

    #[test]
    fn constant_fold_folds_scalar_math() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[3]);
        let a = g.constant(Tensor::scalar(2.0));
        let b = g.constant(Tensor::scalar(3.0));
        let c = g.binary(ElemBinary::Mul, a, b);
        let y = g.binary(ElemBinary::Add, x, c);
        g.mark_output(y);
        let mut opt = g.clone();
        assert!(constant_fold(&mut opt));
        assert!(matches!(&opt.node(NodeId(3)).op, HloOp::Constant(t) if t.scalar_value() == 6.0));
        assert_equivalent(&g, &opt, &[&[3]]);
    }

    #[test]
    fn cse_merges_identical_subgraphs() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let a = g.unary(ElemUnary::Exp, x);
        let b = g.unary(ElemUnary::Exp, x);
        let s = g.binary(ElemBinary::Add, a, b);
        g.mark_output(s);
        let mut opt = g.clone();
        assert!(cse(&mut opt));
        dce(&mut opt);
        assert_eq!(opt.len(), 3, "one exp remains");
        assert_equivalent(&g, &opt, &[&[4]]);
    }

    #[test]
    fn simplify_identities() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let one = g.constant(Tensor::scalar(1.0));
        let zero = g.constant(Tensor::scalar(0.0));
        let a = g.binary(ElemBinary::Mul, x, one);
        let b = g.binary(ElemBinary::Add, a, zero);
        let c = g.binary(ElemBinary::Div, b, one);
        g.mark_output(c);
        let mut opt = g.clone();
        assert!(algebraic_simplify(&mut opt));
        dce(&mut opt);
        assert_eq!(opt.len(), 1, "everything folds to the parameter");
        assert_equivalent(&g, &opt, &[&[4]]);
    }

    #[test]
    fn fusion_groups_chains() {
        // relu(x·2 + 1): 3 elementwise → 1 fused kernel.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[8]);
        let two = g.constant(Tensor::scalar(2.0));
        let one = g.constant(Tensor::scalar(1.0));
        let m = g.binary(ElemBinary::Mul, x, two);
        let a = g.binary(ElemBinary::Add, m, one);
        let r = g.unary(ElemUnary::Relu, a);
        g.mark_output(r);
        let mut opt = g.clone();
        assert!(fuse_elementwise(&mut opt));
        dce(&mut opt);
        let fused: Vec<_> = opt
            .nodes
            .iter()
            .filter(|n| matches!(n.op, HloOp::Fused { .. }))
            .collect();
        assert_eq!(fused.len(), 1);
        assert_equivalent(&g, &opt, &[&[8]]);
    }

    #[test]
    fn fusion_respects_external_consumers() {
        // y = exp(x); out1 = y + 1; out2 = y·2 — y has two consumers in
        // different groups and is itself an output: it must not fuse away.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let y = g.unary(ElemUnary::Exp, x);
        let one = g.constant(Tensor::scalar(1.0));
        let two = g.constant(Tensor::scalar(2.0));
        let o1 = g.binary(ElemBinary::Add, y, one);
        let o2 = g.binary(ElemBinary::Mul, y, two);
        g.mark_output(y);
        g.mark_output(o1);
        g.mark_output(o2);
        let mut opt = g.clone();
        fuse_elementwise(&mut opt);
        dce(&mut opt);
        assert_equivalent(&g, &opt, &[&[4]]);
    }

    fn fused_programs(g: &HloGraph) -> Vec<(Vec<String>, bool)> {
        g.nodes
            .iter()
            .filter_map(|n| match &n.op {
                HloOp::Fused {
                    insts, reduce_to, ..
                } => Some((
                    insts
                        .iter()
                        .filter_map(|i| match i {
                            FusedInst::Unary(u, _) => Some(format!("{u:?}")),
                            FusedInst::Binary(b, _, _) => Some(format!("{b:?}")),
                            _ => None,
                        })
                        .collect(),
                    reduce_to.is_some(),
                )),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cheap_producers_are_recomputed_and_reductions_take_them_as_input() {
        // Batch-norm's variance and normalize steps: `x − μ` feeds a
        // squared column sum *and* the division; it is computed in both
        // kernels rather than stored, and the sum never stores the square.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4, 6, 3]);
        let mean = g.parameter(1, &[3]);
        let std = g.parameter(2, &[3]);
        let centered = g.binary(ElemBinary::Sub, x, mean);
        let squared = g.unary(ElemUnary::Square, centered);
        let var = g.add(HloOp::ReduceToShape(vec![3]), &[squared]);
        let xhat = g.binary(ElemBinary::Div, centered, std);
        g.mark_output(var);
        g.mark_output(xhat);
        let mut opt = g.clone();
        optimize(&mut opt);
        let names = |ops: &[&str]| ops.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            fused_programs(&opt),
            vec![
                (names(&["Sub", "Square"]), true),
                (names(&["Sub", "Div"]), false)
            ]
        );
        assert!(!opt.nodes.iter().any(|n| n.op.is_elementwise()));
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let params: Vec<Tensor<f32>> = [&[4, 6, 3][..], &[3], &[3]]
            .iter()
            .map(|d| Tensor::<f32>::randn(d, &mut rng))
            .collect();
        let refs: Vec<&Tensor<f32>> = params.iter().collect();
        assert_eq!(
            compile_unoptimized(&g).run(&refs),
            compile_unoptimized(&opt).run(&refs),
            "same bits, reduction epilogue included"
        );
    }

    #[test]
    fn transcendentals_and_wide_fanout_are_stored_not_recomputed() {
        // exp(x) has two consumer kernels: stored once. `a + b` (two
        // full-shape streams) feeding three kernels would re-read six
        // streams where storing it moves five: stored too.
        let mut g = HloGraph::new();
        let a = g.parameter(0, &[8]);
        let b = g.parameter(1, &[8]);
        let e = g.unary(ElemUnary::Exp, a);
        let sum = g.binary(ElemBinary::Add, e, b);
        for u in [ElemUnary::Neg, ElemUnary::Relu, ElemUnary::Square] {
            let out = g.unary(u, sum);
            g.mark_output(out);
        }
        let out = g.unary(ElemUnary::Sqrt, e);
        g.mark_output(out);
        let mut opt = g.clone();
        optimize(&mut opt);
        let programs = fused_programs(&opt);
        let count = |op: &str| {
            programs
                .iter()
                .flat_map(|(p, _)| p)
                .filter(|o| *o == op)
                .count()
        };
        assert_eq!((count("Exp"), count("Add")), (1, 1), "{programs:?}");
        assert_eq!(programs.len(), 6, "exp, add and their four consumers");
        assert_equivalent(&g, &opt, &[&[8], &[8]]);
    }

    #[test]
    fn fusion_handles_trailing_broadcast_bias() {
        // relu(x + bias) with a [3] bias against [2,3]: a trailing-suffix
        // broadcast, fusable via modulo indexing (the conv-bias pattern).
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 3]);
        let b = g.parameter(1, &[3]);
        let s = g.binary(ElemBinary::Add, x, b);
        let r = g.unary(ElemUnary::Relu, s);
        g.mark_output(r);
        let mut opt = g.clone();
        assert!(fuse_elementwise(&mut opt));
        dce(&mut opt);
        assert_eq!(
            opt.nodes
                .iter()
                .filter(|n| matches!(n.op, HloOp::Fused { .. }))
                .count(),
            1
        );
        assert_equivalent(&g, &opt, &[&[2, 3], &[3]]);
    }

    #[test]
    fn fusion_skips_interior_broadcast_shapes() {
        // A [2,1] column broadcast is NOT a trailing suffix of [2,3]:
        // modulo indexing would be wrong, so it must not fuse.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 3]);
        let col = g.parameter(1, &[2, 1]);
        let s = g.binary(ElemBinary::Add, x, col);
        let r = g.unary(ElemUnary::Relu, s);
        g.mark_output(r);
        let mut opt = g.clone();
        fuse_elementwise(&mut opt);
        dce(&mut opt);
        assert!(
            !opt.nodes
                .iter()
                .any(|n| matches!(&n.op, HloOp::Fused { n_inputs, .. } if *n_inputs > 1)),
            "interior broadcasts must stay out of fused kernels"
        );
        assert_equivalent(&g, &opt, &[&[2, 3], &[2, 1]]);
    }

    #[test]
    fn fusion_batchnorm_affine_pattern() {
        // (x − mean)/std·γ + β over NHWC with [C]-shaped statistics: the
        // whole affine chain fuses into one kernel.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 4, 4, 3]);
        let mean = g.parameter(1, &[3]);
        let std = g.parameter(2, &[3]);
        let gamma = g.parameter(3, &[3]);
        let beta = g.parameter(4, &[3]);
        let c = g.binary(ElemBinary::Sub, x, mean);
        let h = g.binary(ElemBinary::Div, c, std);
        let s = g.binary(ElemBinary::Mul, h, gamma);
        let y = g.binary(ElemBinary::Add, s, beta);
        g.mark_output(y);
        let mut opt = g.clone();
        assert!(fuse_elementwise(&mut opt));
        dce(&mut opt);
        let fused: Vec<_> = opt
            .nodes
            .iter()
            .filter(|n| matches!(n.op, HloOp::Fused { .. }))
            .collect();
        assert_eq!(fused.len(), 1, "one fused kernel for the whole affine");
        assert_equivalent(&g, &opt, &[&[2, 4, 4, 3], &[3], &[3], &[3], &[3]]);
    }

    #[test]
    fn dce_removes_dead_branches() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let dead = g.unary(ElemUnary::Exp, x);
        let _dead2 = g.unary(ElemUnary::Neg, dead);
        let live = g.unary(ElemUnary::Relu, x);
        g.mark_output(live);
        let mut opt = g.clone();
        assert!(dce(&mut opt));
        assert_eq!(opt.len(), 2);
        assert_equivalent(&g, &opt, &[&[4]]);
    }

    #[test]
    fn full_pipeline_on_composite_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[5, 4]);
        let w = g.parameter(1, &[4, 3]);
        let mm = g.add(
            HloOp::MatMul {
                t_lhs: false,
                t_rhs: false,
            },
            &[x, w],
        );
        let one = g.constant(Tensor::scalar(1.0));
        let zero = g.constant(Tensor::scalar(0.0));
        let a = g.binary(ElemBinary::Mul, mm, one); // identity
        let b = g.binary(ElemBinary::Add, a, zero); // identity
        let c = g.unary(ElemUnary::Tanh, b);
        let d = g.unary(ElemUnary::Square, c);
        let e = g.binary(ElemBinary::Add, c, d); // fusable chain
        g.mark_output(e);
        let mut opt = g.clone();
        optimize(&mut opt);
        assert!(opt.len() < g.len());
        let xs = Tensor::<f32>::randn(&[5, 4], &mut rng);
        let ws = Tensor::<f32>::randn(&[4, 3], &mut rng);
        let before = compile_unoptimized(&g).run(&[&xs, &ws]);
        let after = compile_unoptimized(&opt).run(&[&xs, &ws]);
        assert!(before[0].allclose(&after[0], 1e-5));
    }

    #[test]
    fn plan_last_use_on_diamond() {
        // x → (exp, neg) → add: both branches die at the join; the
        // parameter's last use is the *later* branch.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let a = g.unary(ElemUnary::Exp, x);
        let b = g.unary(ElemUnary::Neg, x);
        let s = g.binary(ElemBinary::Add, a, b);
        g.mark_output(s);
        let plan = plan_memory(&g);
        assert_eq!(plan.drop_after[b.0 as usize], vec![x.0], "x dies at neg");
        let mut at_join = plan.drop_after[s.0 as usize].clone();
        at_join.sort_unstable();
        assert_eq!(at_join, vec![a.0, b.0], "both branches die at the join");
        assert!(
            plan.drop_after[s.0 as usize + 1..]
                .iter()
                .all(Vec::is_empty),
            "the output is never dropped"
        );
        // The join may overwrite either dying same-shaped operand.
        assert_eq!(plan.inplace[s.0 as usize], Some(0));
    }

    #[test]
    fn plan_last_use_on_fan_out() {
        // One value consumed by three users: it dies only at the last.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let v = g.unary(ElemUnary::Square, x);
        let u1 = g.unary(ElemUnary::Exp, v);
        let u2 = g.unary(ElemUnary::Neg, v);
        let u3 = g.unary(ElemUnary::Relu, v);
        let s1 = g.binary(ElemBinary::Add, u1, u2);
        let s2 = g.binary(ElemBinary::Add, s1, u3);
        g.mark_output(s2);
        let plan = plan_memory(&g);
        assert!(!plan.drop_after[u1.0 as usize].contains(&v.0));
        assert!(!plan.drop_after[u2.0 as usize].contains(&v.0));
        assert!(plan.drop_after[u3.0 as usize].contains(&v.0));
        // u1/u2 keep v alive, so they may not run in place on it…
        assert_eq!(plan.inplace[u1.0 as usize], None);
        assert_eq!(plan.inplace[u2.0 as usize], None);
        // …but v's final consumer may.
        assert_eq!(plan.inplace[u3.0 as usize], Some(0));
    }

    #[test]
    fn plan_never_drops_or_overwrites_outputs() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4]);
        let a = g.unary(ElemUnary::Exp, x);
        let b = g.unary(ElemUnary::Neg, a); // a is an output AND an operand
        g.mark_output(a);
        g.mark_output(b);
        let plan = plan_memory(&g);
        assert!(plan.drop_after.iter().all(|d| !d.contains(&a.0)));
        assert_eq!(
            plan.inplace[b.0 as usize], None,
            "an output operand must not be overwritten"
        );
    }

    #[test]
    fn plan_inplace_through_a_broadcast_only_on_the_full_shape_operand() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 3]);
        let bias = g.parameter(1, &[3]);
        let scale = g.parameter(2, &[3]);
        let bc = g.binary(ElemBinary::Add, x, bias); // x dies, bias broadcasts
        let rev = g.binary(ElemBinary::Mul, scale, bc); // bc dies on the right
        let keep = g.binary(ElemBinary::Sub, bias, rev); // bias dies, but is small
        let dbl = g.binary(ElemBinary::Add, keep, keep); // same node twice
        g.mark_output(rev);
        g.mark_output(dbl);
        let plan = plan_memory(&g);
        assert_eq!(plan.inplace[bc.0 as usize], Some(0), "full-shape lhs dies");
        assert_eq!(plan.inplace[rev.0 as usize], Some(1), "full-shape rhs dies");
        assert_eq!(
            plan.inplace[keep.0 as usize], None,
            "the dying operand is the broadcast one (and `rev` is an output)"
        );
        assert_eq!(plan.inplace[dbl.0 as usize], None, "self-aliasing pair");
        // The plan's in-place route computes what the plain kernels do.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let params: Vec<Tensor<f32>> = [&[2, 3][..], &[3], &[3]]
            .iter()
            .map(|d| Tensor::<f32>::randn(d, &mut rng))
            .collect();
        let refs: Vec<&Tensor<f32>> = params.iter().collect();
        let want = compile_unoptimized(&g).run(&refs);
        let got = compile_unoptimized(&g)
            .try_run_owned(params.clone(), "xla")
            .unwrap();
        assert_eq!(want, got);
    }

    #[test]
    fn fusion_caps_groups_at_the_codegen_envelope() {
        use crate::codegen::MAX_INSTS;
        // 300 chained ops, a second operand every third step so programs
        // also spend instructions on inputs and immediates.
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[64]);
        let y = g.parameter(1, &[64]);
        let k = g.constant(Tensor::scalar(0.999));
        let mut v = x;
        for i in 0..300 {
            v = match i % 3 {
                0 => g.unary(ElemUnary::Tanh, v),
                1 => g.binary(ElemBinary::Add, v, y),
                _ => g.binary(ElemBinary::Mul, v, k),
            };
        }
        g.mark_output(v);
        let mut opt = g.clone();
        assert!(fuse_elementwise(&mut opt));
        dce(&mut opt);
        let lens: Vec<usize> = opt
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                HloOp::Fused { insts, .. } => Some(insts.len()),
                _ => None,
            })
            .collect();
        assert!(
            lens.len() >= 3,
            "a 300-op chain needs >= 3 kernels: {lens:?}"
        );
        assert!(lens.iter().all(|&l| l <= MAX_INSTS), "{lens:?}");
        assert!(
            !opt.nodes.iter().any(|n| n.op.is_elementwise()),
            "every op still lands in some kernel"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let xs = Tensor::<f32>::randn(&[64], &mut rng);
        let ys = Tensor::<f32>::randn(&[64], &mut rng);
        let want = compile_unoptimized(&g).run(&[&xs, &ys]);
        let got = compile_unoptimized(&opt).run(&[&xs, &ys]);
        assert_eq!(
            want[0]
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            got[0]
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "split kernels must stay bit-equal to the unfused chain"
        );
    }
}
