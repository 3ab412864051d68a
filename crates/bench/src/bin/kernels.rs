//! CPU kernel microbenchmarks: GEMM, conv2d (forward and both gradients),
//! elementwise ops (same-shape and broadcasting), column reductions, fused
//! chains and pooling (forward and gradient) timed with the thread pool
//! pinned to 1 thread and to N threads in the same process, writing the
//! comparison to `BENCH_kernels.json`.
//!
//! ```sh
//! cargo run -p s4tf-bench --release --bin kernels            # full sizes
//! cargo run -p s4tf-bench --release --bin kernels -- --smoke # CI smoke
//! ```
//!
//! `--out PATH` overrides the output path (default `BENCH_kernels.json`
//! in the current directory). Each case carries its analytic FLOP count
//! from the cost model, so the artifact records achieved GFLOP/s per
//! thread configuration alongside the raw times — that is what the CI
//! regression gate compares against the checked-in baseline. The JSON
//! records the host's `available_parallelism` verbatim: on a single-core
//! runner the N-thread column measures pool overhead, not speedup, and
//! the file says so. The rows of one case (a conv's forward and both
//! gradients, a pool's four kernels) are timed with their trials
//! interleaved, so the ratios the gate takes between them do not follow
//! the host's speed from one row to the next.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf_bench::harness::{machine_value, measure_interleaved, TrialStats};
use s4tf_tensor::{cost, OpCost, Padding, Shape, Tensor};
use s4tf_xla::op::FusedInst;
use s4tf_xla::{ElemBinary, ElemUnary, HloOp};
use serde::Value;
use std::hint::black_box;

/// Thread count for the parallel column: `S4TF_NUM_THREADS` when it names
/// more than one thread, else 4 (the acceptance point of comparison).
fn parallel_threads() -> usize {
    std::env::var("S4TF_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 1)
        .unwrap_or(4)
}

struct Case {
    kernel: &'static str,
    name: String,
    cost: OpCost,
    /// Dispatch-path label override: fused cases pin their row to
    /// `codegen` (a compiled fused program, not a per-op SIMD/scalar kernel);
    /// `None` follows the process's SIMD dispatch label.
    path: Option<&'static str>,
    run: Box<dyn FnMut()>,
}

fn gemm_case(m: usize, k: usize, n: usize, rng: &mut ChaCha8Rng) -> Case {
    let a = Tensor::<f32>::randn(&[m, k], rng);
    let b = Tensor::<f32>::randn(&[k, n], rng);
    Case {
        kernel: "gemm",
        name: format!("{m}x{k}x{n}"),
        cost: cost::matmul(m, k, n),
        path: None,
        run: Box::new(move || {
            black_box(a.matmul(&b));
        }),
    }
}

fn matvec_case(m: usize, k: usize, rng: &mut ChaCha8Rng) -> Case {
    let a = Tensor::<f32>::randn(&[m, k], rng);
    let v = Tensor::<f32>::randn(&[k], rng);
    Case {
        kernel: "matvec",
        name: format!("{m}x{k}"),
        cost: cost::matvec(m, k),
        path: None,
        run: Box::new(move || {
            black_box(a.matvec(&v));
        }),
    }
}

/// One convolution shape as three rows sharing a case label: the forward
/// kernel and both gradient kernels, so the regression gate can hold each
/// gradient to its forward row (`ci/compare_bench.py`).
fn conv_cases(
    label: &str,
    x_dims: &[usize],
    w_dims: &[usize],
    strides: (usize, usize),
    padding: Padding,
    rng: &mut ChaCha8Rng,
) -> Vec<Case> {
    let x = Tensor::<f32>::randn(x_dims, rng);
    let w = Tensor::<f32>::randn(w_dims, rng);
    let (n, ih, iw, c_in) = (x_dims[0], x_dims[1], x_dims[2], x_dims[3]);
    let (kh, kw, c_out) = (w_dims[0], w_dims[1], w_dims[3]);
    let oh = padding.output_dim(ih, kh, strides.0);
    let ow = padding.output_dim(iw, kw, strides.1);
    let dy = Tensor::<f32>::randn(&[n, oh, ow, c_out], rng);
    let (x_elems, w_elems, dy_elems) = (x.num_elements(), w.num_elements(), dy.num_elements());
    let grad_cost = |read_elems, out_elems| {
        cost::conv2d_grad(n, c_in, kh, kw, c_out, oh, ow, read_elems, out_elems)
    };
    let case = |kernel, cost, run| Case {
        kernel,
        name: label.to_string(),
        cost,
        path: None,
        run,
    };
    // Tensor clones share storage (CoW): each closure owns its handles.
    let w_dims = w_dims.to_vec();
    vec![
        case(
            "conv2d",
            cost::conv2d(n, c_in, kh, kw, c_out, oh, ow, x_elems),
            Box::new({
                let (x, w) = (x.clone(), w.clone());
                move || {
                    black_box(x.conv2d(&w, strides, padding));
                }
            }),
        ),
        case(
            "conv2d_backward_input",
            grad_cost(w_elems + dy_elems, x_elems),
            Box::new({
                let (x, dy) = (x.clone(), dy.clone());
                move || {
                    black_box(x.conv2d_backward_input(&w, &dy, strides, padding));
                }
            }),
        ),
        case(
            "conv2d_backward_filter",
            grad_cost(x_elems + dy_elems, w_elems),
            Box::new(move || {
                black_box(x.conv2d_backward_filter(&w_dims, &dy, strides, padding));
            }),
        ),
    ]
}

/// The conv shapes of the two training workloads, forward and both
/// gradients each: LeNet's c1/c2 at batch `lenet_b`; one ResNet-8 3×3 per
/// stage (`out_w` 32, 16 and 8 — the GEMM's M per output row), its
/// stride-2 downsampling convs (16→32 and 32→64) and the 1×1 stride-2
/// shortcut beside each, at batch `resnet_b`.
fn all_conv_cases(lenet_b: usize, resnet_b: usize, rng: &mut ChaCha8Rng) -> Vec<Case> {
    let (l, r) = (lenet_b, resnet_b);
    let same = Padding::Same;
    let shapes = [
        ("lenet-c1", [l, 28, 28, 1], [5, 5, 1, 6], 1, same),
        ("lenet-c2", [l, 14, 14, 6], [5, 5, 6, 16], 1, Padding::Valid),
        ("resnet-16", [r, 32, 32, 16], [3, 3, 16, 16], 1, same),
        ("resnet-32", [r, 16, 16, 32], [3, 3, 32, 32], 1, same),
        ("resnet-64", [r, 8, 8, 64], [3, 3, 64, 64], 1, same),
        ("resnet-s2", [r, 32, 32, 16], [3, 3, 16, 32], 2, same),
        ("resnet-sc", [r, 32, 32, 16], [1, 1, 16, 32], 2, same),
        ("resnet-s3", [r, 16, 16, 32], [3, 3, 32, 64], 2, same),
        ("resnet-sc3", [r, 16, 16, 32], [1, 1, 32, 64], 2, same),
    ];
    let dims = |d: [usize; 4]| d.map(|v| v.to_string()).join("x");
    let mut cases = Vec::new();
    for (name, x, w, stride, padding) in shapes {
        let suffix = if stride == 1 { "" } else { "/2" };
        let label = format!("{name} {}*{}{suffix}", dims(x), dims(w));
        cases.extend(conv_cases(&label, &x, &w, (stride, stride), padding, rng));
    }
    cases
}

/// `b(x, y)` through `s4tf_xla::eval_op`: the unfused elementwise kernel
/// the eager and naive devices launch, per-variant dispatch included.
fn eval_binary(b: ElemBinary, x: &Tensor<f32>, y: &Tensor<f32>) -> Tensor<f32> {
    s4tf_xla::eval_op(&HloOp::Binary(b), &[x, y])
}

/// One pooling shape as four rows sharing a case label — average and max
/// pooling, forward and gradient — after a same-shape `add` over its input
/// (through [`eval_binary`]), the row `ci/compare_bench.py` holds LeNet's
/// average-pool rows to.
fn pool_cases(
    name: &str,
    x_dims: [usize; 4],
    (pool, stride): ((usize, usize), usize),
    padding: Padding,
    rng: &mut ChaCha8Rng,
) -> Vec<Case> {
    let dims = x_dims.map(|d| d.to_string()).join("x");
    let label = format!("{name} {dims} {}x{}/{stride} {padding:?}", pool.0, pool.1);
    let strides = (stride, stride);
    let x = Tensor::<f32>::randn(&x_dims, rng);
    let other = Tensor::<f32>::randn(&x_dims, rng);
    let dy = Tensor::<f32>::randn(x.avg_pool2d(pool, strides, padding).dims(), rng);
    let (x_elems, dy_elems) = (x.num_elements(), dy.num_elements());
    let window = pool.0 * pool.1;
    let forward = cost::pool2d(x_elems, dy_elems, window);
    let gradient = cost::pool2d(x_elems + dy_elems, x_elems, window);
    let case = |kernel, name: String, cost, run| Case {
        kernel,
        name,
        cost,
        path: None,
        run,
    };
    // Tensor clones share storage (CoW): each closure owns its handles.
    vec![
        case(
            "elementwise",
            format!("add {dims}+same"),
            cost::elementwise(x_elems, 2 * x_elems, 1),
            Box::new({
                let x = x.clone();
                move || {
                    black_box(eval_binary(ElemBinary::Add, &x, &other));
                }
            }),
        ),
        case(
            "avg_pool2d",
            label.clone(),
            forward,
            Box::new({
                let x = x.clone();
                move || {
                    black_box(x.avg_pool2d(pool, strides, padding));
                }
            }),
        ),
        case(
            "avg_pool2d_backward",
            label.clone(),
            gradient,
            Box::new({
                let (x, dy) = (x.clone(), dy.clone());
                move || {
                    black_box(x.avg_pool2d_backward(&dy, pool, strides, padding));
                }
            }),
        ),
        case(
            "max_pool2d",
            label.clone(),
            forward,
            Box::new({
                let x = x.clone();
                move || {
                    black_box(x.max_pool2d(pool, strides, padding));
                }
            }),
        ),
        case(
            "max_pool2d_backward",
            label,
            gradient,
            Box::new(move || {
                black_box(x.max_pool2d_backward(&dy, pool, strides, padding));
            }),
        ),
    ]
}

/// LeNet's two 2×2/2 average pools at batch 32 and one overlapping 3×3/1
/// `Same` window. Full size in smoke mode too: the gate compares them with
/// an `add` over the same input, which at a cache-resident size would
/// compare loop overheads, not passes over the data.
fn all_pool_cases(rng: &mut ChaCha8Rng) -> Vec<Case> {
    let shapes = [
        ("lenet-p1", [32, 28, 28, 6], ((2, 2), 2), Padding::Valid),
        ("lenet-p2", [32, 10, 10, 16], ((2, 2), 2), Padding::Valid),
        ("overlap", [16, 16, 16, 16], ((3, 3), 1), Padding::Same),
    ];
    let mut cases = Vec::new();
    for (name, x, window, padding) in shapes {
        cases.extend(pool_cases(name, x, window, padding, rng));
    }
    cases
}

fn elementwise_case(n: usize, rng: &mut ChaCha8Rng) -> Case {
    let x = Tensor::<f32>::randn(&[n], rng);
    Case {
        kernel: "elementwise",
        name: format!("map n={n}"),
        cost: cost::elementwise(n, n, 1),
        path: None,
        run: Box::new(move || {
            black_box(x.map(|v| v.mul_add(1.0001, 0.5)));
        }),
    }
}

/// ResNet-8's first-stage activation at the step benchmark's batch.
const RESNET_ACTIVATION: [usize; 4] = [16, 32, 32, 16];

/// The broadcasting rows of an `[N,H,W,C]` activation, each next to the
/// same-shape `add` the regression gate holds it to per element
/// (`ci/compare_bench.py`): a `[C]` bias add, a mask against a rank-0
/// threshold, and the `[C]` column sum that is their pullback. The
/// elementwise rows run through [`eval_binary`], so the gate holds the
/// path the eager and naive devices take.
fn broadcast_cases(dims: [usize; 4], rng: &mut ChaCha8Rng) -> Vec<Case> {
    let label = dims.map(|d| d.to_string()).join("x");
    let (n, c) = (dims.iter().product::<usize>(), dims[3]);
    let x = Tensor::<f32>::randn(&dims, rng);
    let y = Tensor::<f32>::randn(&dims, rng);
    let bias = Tensor::<f32>::randn(&[c], rng);
    let zero = Tensor::scalar(0.0f32);
    let case = |kernel, name: String, cost, run| Case {
        kernel,
        name,
        cost,
        path: None,
        run,
    };
    vec![
        case(
            "elementwise",
            format!("add {label}+same"),
            cost::elementwise(n, 2 * n, 1),
            Box::new({
                let x = x.clone();
                move || {
                    black_box(eval_binary(ElemBinary::Add, &x, &y));
                }
            }),
        ),
        case(
            "elementwise",
            format!("add {label}+[{c}]"),
            cost::elementwise(n, n + c, 1),
            Box::new({
                let x = x.clone();
                move || {
                    black_box(eval_binary(ElemBinary::Add, &x, &bias));
                }
            }),
        ),
        case(
            "elementwise",
            format!("greater_mask {label} vs scalar"),
            cost::elementwise(n, n + 1, 1),
            Box::new({
                let x = x.clone();
                move || {
                    black_box(eval_binary(ElemBinary::GreaterMask, &x, &zero));
                }
            }),
        ),
        case(
            "reduce",
            format!("reduce_to {label}→[{c}]"),
            cost::reduce(n, c, false),
            Box::new(move || {
                black_box(x.reduce_to_shape(&[c]));
            }),
        ),
    ]
}

/// One fused `FusedInst` program timed through the compiled kernel (its
/// own `path: codegen` row; the name keeps the `[codegen]` suffix the
/// committed baselines are keyed by). The FLOP/byte denominators come
/// from the fused cost model (the compiled IR's count).
fn fused_case(label: &str, insts: Vec<FusedInst>, inputs: Vec<Tensor<f32>>) -> Case {
    let op = HloOp::Fused {
        insts,
        n_inputs: inputs.len(),
        reduce_to: None,
    };
    let in_shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let out_shape = s4tf_xla::op::fused_extent(&in_shapes);
    let cost = s4tf_xla::op_cost(&op, &in_shapes, &out_shape);
    Case {
        kernel: "fused",
        name: format!("{label} [codegen]"),
        cost,
        path: Some("codegen"),
        run: Box::new(move || {
            let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
            black_box(s4tf_xla::eval_op(&op, &refs));
        }),
    }
}

/// The fused chains the tracer actually emits hot: an affine+relu map,
/// the SGD and momentum parameter updates, a broadcast bias+relu
/// epilogue, and batch norm's normalise+relu over `bn_dims` with its four
/// `[C]` operands.
fn all_fused_cases(
    n: usize,
    channels: usize,
    bn_dims: [usize; 4],
    rng: &mut ChaCha8Rng,
) -> Vec<Case> {
    let rows = n / channels;
    // x, μ, σ, γ, β — σ and γ kept away from zero.
    let mut bn_inputs = vec![Tensor::<f32>::randn(&bn_dims, rng)];
    for lo in [-0.5f32, 0.5, 0.5, -0.5] {
        bn_inputs.push(Tensor::rand_uniform(&[bn_dims[3]], lo, lo + 1.0, rng));
    }
    vec![
        // relu((x − μ)/σ·γ + β) — values staged through register rows, four
        // `[C]` broadcast operands cycled per chunk.
        fused_case(
            &format!(
                "bn-normalise+relu {}",
                bn_dims.map(|d| d.to_string()).join("x")
            ),
            vec![
                FusedInst::Input(0),
                FusedInst::Input(1),
                FusedInst::Binary(ElemBinary::Sub, 0, 1),
                FusedInst::Input(2),
                FusedInst::Binary(ElemBinary::Div, 2, 3),
                FusedInst::Input(3),
                FusedInst::Binary(ElemBinary::Mul, 4, 5),
                FusedInst::Input(4),
                FusedInst::Binary(ElemBinary::Add, 6, 7),
                FusedInst::Unary(ElemUnary::Relu, 8),
            ],
            bn_inputs,
        ),
        // relu(x·1.0001 + 0.5) — mul+add collapse into one MulBin and relu
        // rides on it as the epilogue: one pass, two scalar operands.
        fused_case(
            &format!("map n={n}"),
            vec![
                FusedInst::Input(0),
                FusedInst::Imm(1.0001),
                FusedInst::Binary(ElemBinary::Mul, 0, 1),
                FusedInst::Imm(0.5),
                FusedInst::Binary(ElemBinary::Add, 2, 3),
                FusedInst::Unary(ElemUnary::Relu, 4),
            ],
            vec![Tensor::<f32>::randn(&[n], rng)],
        ),
        // p ← p + g·(−lr) — the SGD update: one MulBin pass.
        fused_case(
            &format!("sgd-update n={n}"),
            vec![
                FusedInst::Input(0),
                FusedInst::Imm(-0.01),
                FusedInst::Binary(ElemBinary::Mul, 0, 1),
                FusedInst::Input(1),
                FusedInst::Binary(ElemBinary::Add, 3, 2),
            ],
            vec![
                Tensor::<f32>::randn(&[n], rng),
                Tensor::<f32>::randn(&[n], rng),
            ],
        ),
        // v ← v·μ + g·(−lr) — the momentum update: two products combined
        // in one pass.
        fused_case(
            &format!("momentum-update n={n}"),
            vec![
                FusedInst::Input(0),
                FusedInst::Imm(0.9),
                FusedInst::Binary(ElemBinary::Mul, 0, 1),
                FusedInst::Input(1),
                FusedInst::Imm(-0.01),
                FusedInst::Binary(ElemBinary::Mul, 3, 4),
                FusedInst::Binary(ElemBinary::Add, 2, 5),
            ],
            vec![
                Tensor::<f32>::randn(&[n], rng),
                Tensor::<f32>::randn(&[n], rng),
            ],
        ),
        // relu(x + bias) with a trailing-broadcast bias row — the layer
        // epilogue: one Add with a relu epilogue over a cycled operand.
        fused_case(
            &format!("bias+relu {rows}x{channels}"),
            vec![
                FusedInst::Input(0),
                FusedInst::Input(1),
                FusedInst::Binary(ElemBinary::Add, 0, 1),
                FusedInst::Unary(ElemUnary::Relu, 2),
            ],
            vec![
                Tensor::<f32>::randn(&[rows, channels], rng),
                Tensor::<f32>::randn(&[channels], rng),
            ],
        ),
    ]
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The rows of `group` timed with their runs interleaved
/// ([`measure_interleaved`]).
fn measure_group(warmup: usize, trials: usize, group: &mut [Case]) -> Vec<TrialStats> {
    let mut runs: Vec<&mut dyn FnMut()> = group.iter_mut().map(|c| &mut *c.run as _).collect();
    measure_interleaved(warmup, trials, &mut runs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads_n = parallel_threads();
    let (warmup, trials) = if smoke { (2, 9) } else { (2, 11) };
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    let mut cases: Vec<Case> = Vec::new();
    if smoke {
        // 256³ in smoke too: it is the row `ci/compare_bench.py` holds the
        // ≥ 16-channel conv rows to.
        for s in [64usize, 256] {
            cases.push(gemm_case(s, s, s, &mut rng));
        }
        cases.push(matvec_case(256, 256, &mut rng));
        cases.extend(all_conv_cases(8, 4, &mut rng));
        for n in [64usize, 4096, 65_536] {
            cases.push(elementwise_case(n, &mut rng));
        }
        // Full size in smoke too: at a cache-resident size the broadcast
        // rows' gate would compare loop overheads, not memory passes.
        cases.extend(broadcast_cases(RESNET_ACTIVATION, &mut rng));
        cases.extend(all_fused_cases(65_536, 64, RESNET_ACTIVATION, &mut rng));
        cases.extend(all_pool_cases(&mut rng));
    } else {
        for s in [128usize, 256, 512] {
            cases.push(gemm_case(s, s, s, &mut rng));
        }
        cases.push(matvec_case(1024, 1024, &mut rng));
        cases.extend(all_conv_cases(32, 16, &mut rng));
        for n in [64usize, 4096, 1 << 20] {
            cases.push(elementwise_case(n, &mut rng));
        }
        cases.extend(broadcast_cases(RESNET_ACTIVATION, &mut rng));
        cases.extend(all_fused_cases(1 << 20, 128, RESNET_ACTIVATION, &mut rng));
        cases.extend(all_pool_cases(&mut rng));
    }

    println!(
        "kernel bench: {} cases, median of {trials} (+{warmup} warmup), 1 vs {threads_n} threads \
         (host parallelism {host}){}",
        cases.len(),
        if smoke { ", smoke" } else { "" }
    );

    let machine = machine_value();
    // The active dispatch path (follows S4TF_SIMD + CPU detection); every
    // case is additionally timed on the scalar reference path at one
    // thread so the artifact carries both per-path GFLOP/s columns and
    // the CI gate can hold each path to its own baseline.
    let active_simd = s4tf_tensor::simd_enabled();
    let path = s4tf_tensor::path_label();
    let mut results = Vec::new();
    // Consecutive rows of one case (a conv's forward and both gradients, a
    // pool's four kernels) run interleaved, so the gates that compare them
    // see the same host speed.
    let mut rest = &mut cases[..];
    while !rest.is_empty() {
        let name = rest[0].name.clone();
        let len = rest.iter().take_while(|c| c.name == name).count();
        let (group, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        s4tf_threads::set_num_threads(1);
        let s1 = measure_group(warmup, trials, group);
        let scalar1 = if active_simd {
            s4tf_tensor::set_simd_enabled(false);
            let s = measure_group(warmup, trials, group);
            s4tf_tensor::set_simd_enabled(true);
            s
        } else {
            s1.clone()
        };
        s4tf_threads::set_num_threads(threads_n);
        let sn = measure_group(warmup, trials, group);
        for (((case, s1), scalar1), sn) in group.iter().zip(s1).zip(scalar1).zip(sn) {
            let (t1, tn) = (s1.median_ms, sn.median_ms);
            let speedup = t1 / tn;
            let (g1, gn) = (s1.gflops(case.cost.flops), sn.gflops(case.cost.flops));
            let gs1 = scalar1.gflops(case.cost.flops);
            let row_path = case.path.unwrap_or(path);
            println!(
                "  {:<11} {:<28} 1T {t1:>9.3} ms ({g1:>7.3} GF/s)   \
                 {threads_n}T {tn:>9.3} ms ({gn:>7.3} GF/s)   {speedup:>5.2}x   \
                 [{row_path}; scalar 1T {gs1:>7.3} GF/s]",
                case.kernel, case.name
            );
            results.push(obj(vec![
                ("kernel", Value::Str(case.kernel.to_string())),
                ("case", Value::Str(case.name.clone())),
                ("path", Value::Str(row_path.to_string())),
                ("threads_1_ms", Value::Float(t1)),
                ("threads_n_ms", Value::Float(tn)),
                ("threads_scalar_1_ms", Value::Float(scalar1.median_ms)),
                ("speedup", Value::Float(speedup)),
                ("threads_1_iqr_ms", Value::Float(s1.iqr_ms)),
                ("threads_n_iqr_ms", Value::Float(sn.iqr_ms)),
                ("flops", Value::UInt(case.cost.flops)),
                ("bytes", Value::UInt(case.cost.bytes)),
                ("gflops_1", Value::Float(g1)),
                ("gflops_n", Value::Float(gn)),
                ("gflops_scalar_1", Value::Float(gs1)),
                ("gbs_1", Value::Float(s1.gbps(case.cost.bytes))),
            ]));
        }
    }
    s4tf_threads::set_num_threads(1);

    let note = if host >= threads_n {
        "speedup = threads_1_ms / threads_n_ms on this host".to_string()
    } else {
        format!(
            "host has parallelism {host} < {threads_n} benchmark threads: the \
             N-thread column measures pool overhead under oversubscription, \
             not speedup; rerun on a >= {threads_n}-core host for the scaling \
             comparison"
        )
    };
    let report = obj(vec![
        ("bench", Value::Str("kernels".to_string())),
        ("smoke", Value::Bool(smoke)),
        ("host_parallelism", Value::UInt(host as u64)),
        (
            "threads_compared",
            Value::Array(vec![Value::UInt(1), Value::UInt(threads_n as u64)]),
        ),
        ("warmup", Value::UInt(warmup as u64)),
        ("trials", Value::UInt(trials as u64)),
        ("machine", machine),
        ("note", Value::Str(note)),
        ("results", Value::Array(results)),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json.as_bytes()).expect("write benchmark JSON");
    println!("wrote {out_path} ({} bytes)", json.len());
}
