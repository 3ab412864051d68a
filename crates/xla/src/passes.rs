//! Whole-program optimizations over [`HloGraph`]s — the domain-specific
//! compiler's payoff (paper §3.3): because the lazy trace exposes the whole
//! program, the compiler can fold constants, share subexpressions and —
//! most importantly — *fuse* chains of elementwise operations into single
//! kernels.

use crate::exec::apply_binary;
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
        let inputs: Vec<Option<Tensor<f32>>> = node
            .inputs
            .iter()
            .map(|&id| match &g.node(id).op {
                HloOp::Constant(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        if inputs.iter().any(Option::is_none) {
            continue;
        }
        let folded = match (&node.op, inputs.len()) {
            (HloOp::Unary(u), 1) => {
                let u = *u;
                inputs[0].as_ref().unwrap().map(move |x| u.apply(x))
            }
            (HloOp::Binary(b), 2) => {
                let b = *b;
                apply_binary(
                    inputs[0].as_ref().unwrap(),
                    inputs[1].as_ref().unwrap(),
                    move |x, y| b.apply(x, y),
                )
            }
            _ => continue,
        };
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

/// Elementwise fusion: maximal groups of same-shape elementwise nodes whose
/// interior members have no consumers outside the group collapse into one
/// [`HloOp::Fused`] kernel. Rank-0 constants feeding a group become
/// immediates. A group stops growing when its program would exceed
/// [`MAX_INSTS`](crate::codegen::MAX_INSTS) — the rest of a longer chain
/// starts a new kernel — so every emitted program compiles.
pub fn fuse_elementwise(g: &mut HloGraph) -> bool {
    // Consumers of each node.
    let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (i, node) in g.nodes.iter().enumerate() {
        for &input in &node.inputs {
            consumers.entry(input).or_default().push(NodeId(i as u32));
        }
    }
    let output_set: HashSet<NodeId> = g.outputs.iter().copied().collect();

    let is_scalar_const =
        |g: &HloGraph, id: NodeId| matches!(&g.node(id).op, HloOp::Constant(t) if t.rank() == 0);
    // A node can sit inside a fused kernel of `shape` only if every input
    // edge indexes elementwise: same shape, a scalar immediate, or a
    // trailing-suffix broadcast (e.g. a `[C]` bias against `[N,H,W,C]`),
    // which the fused executor indexes as `e % len`.
    let inputs_fusable = |g: &HloGraph, id: NodeId, shape: &s4tf_tensor::Shape| {
        g.node(id).inputs.iter().all(|&i| {
            let in_shape = &g.node(i).shape;
            in_shape == shape
                || is_scalar_const(g, i)
                || crate::op::is_trailing_broadcast(in_shape, shape)
        })
    };

    // Instructions a group's program has: one per member plus one
    // (`Input` or `Imm`) per distinct external operand.
    let program_len = |g: &HloGraph, group: &HashSet<NodeId>| {
        let external: HashSet<NodeId> = group
            .iter()
            .flat_map(|&m| &g.node(m).inputs)
            .filter(|i| !group.contains(i))
            .copied()
            .collect();
        group.len() + external.len()
    };

    // Build groups: walk roots from the end (consumers come after
    // producers in topological order).
    let mut assigned: HashSet<NodeId> = HashSet::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new(); // members, topo order
    for i in (0..g.nodes.len()).rev() {
        let root = NodeId(i as u32);
        if assigned.contains(&root) || !g.node(root).op.is_elementwise() {
            continue;
        }
        let shape = g.node(root).shape.clone();
        if !inputs_fusable(g, root, &shape) {
            continue;
        }
        let mut group: HashSet<NodeId> = HashSet::from([root]);
        // Grow towards producers until stable.
        loop {
            let mut grew = false;
            let members: Vec<NodeId> = group.iter().copied().collect();
            for m in members {
                for &input in &g.node(m).inputs {
                    if group.contains(&input) || assigned.contains(&input) {
                        continue;
                    }
                    let n = g.node(input);
                    let fusable = n.op.is_elementwise()
                        && n.shape == shape
                        && inputs_fusable(g, input, &shape)
                        && !output_set.contains(&input)
                        && consumers
                            .get(&input)
                            .map(|cs| cs.iter().all(|c| group.contains(c)))
                            .unwrap_or(false);
                    if fusable {
                        group.insert(input);
                        if program_len(g, &group) > crate::codegen::MAX_INSTS {
                            group.remove(&input);
                        } else {
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        if group.len() >= 2 {
            let mut members: Vec<NodeId> = group.iter().copied().collect();
            members.sort(); // topological within the graph
            assigned.extend(&members);
            groups.push(members);
        }
    }
    if groups.is_empty() {
        return false;
    }

    // Root (last member) of each group, and membership lookup.
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    for (gi, members) in groups.iter().enumerate() {
        for &m in members {
            group_of.insert(m, gi);
        }
    }

    // Rebuild the graph.
    let old_nodes = std::mem::take(&mut g.nodes);
    let old_outputs = std::mem::take(&mut g.outputs);
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut emitted_groups: HashSet<usize> = HashSet::new();

    for (i, node) in old_nodes.iter().enumerate() {
        let old_id = NodeId(i as u32);
        match group_of.get(&old_id) {
            None => {
                let mut n = node.clone();
                for input in &mut n.inputs {
                    *input = remap[input];
                }
                g.nodes.push(n);
                remap.insert(old_id, NodeId(g.nodes.len() as u32 - 1));
            }
            Some(&gi) => {
                let members = &groups[gi];
                let root = *members.last().expect("non-empty group");
                if old_id != root {
                    continue; // interior nodes emit with the root
                }
                debug_assert!(emitted_groups.insert(gi));
                // Kernel inputs: external edges; rank-0 constants inline.
                let mut kernel_inputs: Vec<NodeId> = Vec::new(); // old ids
                let mut insts: Vec<FusedInst> = Vec::new();
                let mut reg_of: HashMap<NodeId, usize> = HashMap::new();
                let member_set: HashSet<NodeId> = members.iter().copied().collect();
                for &m in members {
                    let mnode = &old_nodes[m.0 as usize];
                    let arg_reg = |input: NodeId,
                                   insts: &mut Vec<FusedInst>,
                                   kernel_inputs: &mut Vec<NodeId>,
                                   reg_of: &mut HashMap<NodeId, usize>|
                     -> usize {
                        if member_set.contains(&input) {
                            return reg_of[&input];
                        }
                        if let Some(r) = reg_of.get(&input) {
                            return *r;
                        }
                        let inst = match &old_nodes[input.0 as usize].op {
                            HloOp::Constant(t) if t.rank() == 0 => FusedInst::Imm(t.scalar_value()),
                            _ => {
                                let pos = kernel_inputs
                                    .iter()
                                    .position(|&k| k == input)
                                    .unwrap_or_else(|| {
                                        kernel_inputs.push(input);
                                        kernel_inputs.len() - 1
                                    });
                                FusedInst::Input(pos)
                            }
                        };
                        insts.push(inst);
                        let r = insts.len() - 1;
                        reg_of.insert(input, r);
                        r
                    };
                    let inst = match &mnode.op {
                        HloOp::Unary(u) => {
                            let a = arg_reg(
                                mnode.inputs[0],
                                &mut insts,
                                &mut kernel_inputs,
                                &mut reg_of,
                            );
                            FusedInst::Unary(*u, a)
                        }
                        HloOp::Binary(b) => {
                            let a = arg_reg(
                                mnode.inputs[0],
                                &mut insts,
                                &mut kernel_inputs,
                                &mut reg_of,
                            );
                            let c = arg_reg(
                                mnode.inputs[1],
                                &mut insts,
                                &mut kernel_inputs,
                                &mut reg_of,
                            );
                            FusedInst::Binary(*b, a, c)
                        }
                        _ => unreachable!("groups contain only elementwise ops"),
                    };
                    insts.push(inst);
                    reg_of.insert(m, insts.len() - 1);
                }
                debug_assert!(insts.len() <= crate::codegen::MAX_INSTS);
                let n_inputs = kernel_inputs.len();
                let inputs: Vec<NodeId> = kernel_inputs.iter().map(|k| remap[k]).collect();
                let shape = old_nodes[root.0 as usize].shape.clone();
                g.nodes.push(HloNode {
                    op: HloOp::Fused { insts, n_inputs },
                    inputs,
                    shape,
                });
                remap.insert(root, NodeId(g.nodes.len() as u32 - 1));
            }
        }
    }
    g.outputs = old_outputs.iter().map(|o| remap[o]).collect();
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
/// * **Binary**: both operands have the node's exact shape (no
///   broadcasting) and are *distinct* nodes, and the chosen one dies
///   here. Position 0 writes through `zip_apply_assign`, position 1
///   through `zip_apply_assign_rev`, preserving operand order.
/// * **Fused**: some *full-shape* input dies here. The compiled kernel
///   reads each chunk of a full-shape input before writing that chunk of
///   the output, so aliasing the two is safe; modulo-broadcast inputs are
///   never aliased (they are smaller, hence a different buffer).
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
                if a == b || !full_shape(a) || !full_shape(b) {
                    None
                } else if dies_here(a) {
                    Some(0)
                } else if dies_here(b) {
                    Some(1)
                } else {
                    None
                }
            }
            HloOp::Fused { insts, .. } => {
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
    fn plan_refuses_inplace_on_broadcast_or_self_pairs() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 3]);
        let bias = g.parameter(1, &[3]);
        let bc = g.binary(ElemBinary::Add, x, bias); // shapes differ
        let dbl = g.binary(ElemBinary::Add, bc, bc); // same node twice
        g.mark_output(dbl);
        let plan = plan_memory(&g);
        assert_eq!(plan.inplace[bc.0 as usize], None, "broadcast operand");
        assert_eq!(plan.inplace[dbl.0 as usize], None, "self-aliasing pair");
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
