//! Backend op benchmark: the core op families (GEMM, conv2d, elementwise,
//! reduction) timed through the full runtime dispatch path on all three
//! backends, writing achieved GFLOP/s per (op, case, backend) to
//! `BENCH_ops.json`.
//!
//! ```sh
//! cargo run -p s4tf-bench --release --bin ops            # full sizes
//! cargo run -p s4tf-bench --release --bin ops -- --smoke # CI smoke
//! ```
//!
//! `--out PATH` overrides the output path. Where `kernels` times the raw
//! tensor kernels, this bench goes through `DTensor` — so eager pays its
//! queue hop and lazy pays trace + (amortized) compile per observation.
//! Each result divides the cost model's analytic FLOPs by the median wall
//! time, which is exactly the per-op number the profiler's roofline
//! reports; the CI regression gate diffs these GFLOP/s values against the
//! checked-in baseline.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf_bench::harness::{machine_value, measure};
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::{cost, OpCost, Padding, Tensor};
use serde::Value;
use std::hint::black_box;

const BACKENDS: [&str; 3] = ["naive", "eager", "lazy"];

/// One timed invocation of the op under measurement.
type RunFn = Box<dyn FnMut()>;

struct Case {
    op: &'static str,
    name: String,
    cost: OpCost,
    /// Backends this case runs on (whole-model cases only make sense
    /// where their execution strategy applies).
    backends: &'static [&'static str],
    /// Dispatch-path label override for the emitted rows; `None` uses
    /// the machine-wide `s4tf_tensor::path_label()`.
    path: Option<&'static str>,
    /// Builds the run closure for one backend; inputs live on its device.
    make: Box<dyn Fn(&Device) -> RunFn>,
}

fn device_for(backend: &str) -> Device {
    match backend {
        "naive" => Device::naive(),
        "eager" => Device::eager(),
        "lazy" => Device::lazy(),
        _ => unreachable!(),
    }
}

fn gemm_case(m: usize, k: usize, n: usize) -> Case {
    Case {
        op: "gemm",
        name: format!("{m}x{k}x{n}"),
        cost: cost::matmul(m, k, n),
        backends: &BACKENDS,
        path: None,
        make: Box::new(move |device| {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let a = DTensor::from_tensor(Tensor::<f32>::randn(&[m, k], &mut rng), device);
            let b = DTensor::from_tensor(Tensor::<f32>::randn(&[k, n], &mut rng), device);
            Box::new(move || {
                black_box(a.matmul(&b).to_tensor());
            })
        }),
    }
}

fn conv_case(label: &str, x_dims: [usize; 4], w_dims: [usize; 4], padding: Padding) -> Case {
    let (n, ih, iw, c_in) = (x_dims[0], x_dims[1], x_dims[2], x_dims[3]);
    let (kh, kw, c_out) = (w_dims[0], w_dims[1], w_dims[3]);
    let (oh, ow) = match padding {
        Padding::Same => (ih, iw),
        Padding::Valid => (ih - kh + 1, iw - kw + 1),
    };
    Case {
        op: "conv2d",
        name: label.to_string(),
        cost: cost::conv2d(n, c_in, kh, kw, c_out, oh, ow, n * ih * iw * c_in),
        backends: &BACKENDS,
        path: None,
        make: Box::new(move |device| {
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let x = DTensor::from_tensor(Tensor::<f32>::randn(&x_dims, &mut rng), device);
            let w = DTensor::from_tensor(Tensor::<f32>::randn(&w_dims, &mut rng), device);
            Box::new(move || {
                black_box(x.conv2d(&w, (1, 1), padding).to_tensor());
            })
        }),
    }
}

fn elementwise_case(n: usize) -> Case {
    Case {
        op: "elementwise",
        name: format!("add n={n}"),
        // Binary add: one FLOP per output, reads both operands.
        cost: cost::elementwise(n, 2 * n, 1),
        backends: &BACKENDS,
        path: None,
        make: Box::new(move |device| {
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let a = DTensor::from_tensor(Tensor::<f32>::randn(&[n], &mut rng), device);
            let b = DTensor::from_tensor(Tensor::<f32>::randn(&[n], &mut rng), device);
            Box::new(move || {
                black_box(a.add(&b).to_tensor());
            })
        }),
    }
}

fn reduce_case(n: usize) -> Case {
    Case {
        op: "reduction",
        name: format!("sum n={n}"),
        cost: cost::reduce(n, 1, false),
        backends: &BACKENDS,
        path: None,
        make: Box::new(move |device| {
            let mut rng = ChaCha8Rng::seed_from_u64(19);
            let x = DTensor::from_tensor(Tensor::<f32>::randn(&[n], &mut rng), device);
            Box::new(move || {
                black_box(x.sum().to_tensor());
            })
        }),
    }
}

/// One full LeNet training step (forward, softmax cross-entropy,
/// pullback, momentum SGD update, barrier) on the lazy backend — the
/// end-to-end number the fused-kernel compiler has to move. The row keeps
/// the `[codegen]` suffix and `path: codegen` its committed baseline is
/// keyed by.
fn train_step_case(batch: usize) -> Case {
    use s4tf_models::LeNet;
    use s4tf_nn::optimizer::Sgd;
    use s4tf_nn::train::train_classifier_step;

    // Analytic step cost: forward = conv1 + conv2 + the three dense
    // matmuls (pools, bias adds and activations are noise next to
    // these); backward revisits each at roughly 2x (one pass per matmul
    // operand). Total ~= 3x forward, the standard training-step count.
    let fwd = [
        cost::conv2d(batch, 1, 5, 5, 6, 28, 28, batch * 28 * 28),
        cost::conv2d(batch, 6, 5, 5, 16, 10, 10, batch * 14 * 14 * 6),
        cost::matmul(batch, 400, 120),
        cost::matmul(batch, 120, 84),
        cost::matmul(batch, 84, 10),
    ];
    let step_cost = OpCost {
        flops: 3 * fwd.iter().map(|c| c.flops).sum::<u64>(),
        bytes: 3 * fwd.iter().map(|c| c.bytes).sum::<u64>(),
    };

    Case {
        op: "train-step",
        name: format!("lenet b={batch} [codegen]"),
        cost: step_cost,
        backends: &["lazy"],
        path: Some("codegen"),
        make: Box::new(move |device| {
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let mut model = LeNet::new(device, &mut rng);
            let mut opt = Sgd::<LeNet>::with_momentum(0.05, 0.9);
            let x =
                DTensor::from_tensor(Tensor::<f32>::randn(&[batch, 28, 28, 1], &mut rng), device);
            let labels = DTensor::from_tensor(Tensor::zeros(&[batch, 10]), device);
            Box::new(move || {
                black_box(train_classifier_step(&mut model, &mut opt, &x, &labels));
            })
        }),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_ops.json".to_string());
    let (warmup, trials) = if smoke { (2, 9) } else { (3, 11) };

    let mut cases: Vec<Case> = if smoke {
        vec![
            gemm_case(64, 64, 64),
            conv_case(
                "lenet-c1 4x28x28x1*5x5x1x6",
                [4, 28, 28, 1],
                [5, 5, 1, 6],
                Padding::Same,
            ),
            elementwise_case(4096),
            reduce_case(4096),
        ]
    } else {
        vec![
            gemm_case(128, 128, 128),
            gemm_case(256, 256, 256),
            conv_case(
                "lenet-c1 16x28x28x1*5x5x1x6",
                [16, 28, 28, 1],
                [5, 5, 1, 6],
                Padding::Same,
            ),
            conv_case(
                "lenet-c2 16x14x14x6*5x5x6x16",
                [16, 14, 14, 6],
                [5, 5, 6, 16],
                Padding::Valid,
            ),
            elementwise_case(4096),
            elementwise_case(1 << 18),
            reduce_case(1 << 18),
        ]
    };
    cases.push(train_step_case(if smoke { 4 } else { 16 }));

    println!(
        "op bench: {} cases x {} backends, median of {trials} (+{warmup} warmup){}",
        cases.len(),
        BACKENDS.len(),
        if smoke { ", smoke" } else { "" }
    );

    let machine = machine_value();
    // All backends share the tensor kernels, so one dispatch-path label
    // (S4TF_SIMD + CPU detection) covers the whole artifact.
    let path = s4tf_tensor::path_label();
    let mut results = Vec::new();
    for case in &cases {
        for &backend in case.backends {
            let device = device_for(backend);
            let mut run = (case.make)(&device);
            let stats = measure(warmup, trials, &mut run);
            let gflops = stats.gflops(case.cost.flops);
            let row_path = case.path.unwrap_or(path);
            println!(
                "  {:<11} {:<28} {backend:<6} {:>9.3} ms (iqr {:>7.3})  {gflops:>8.3} GF/s",
                case.op, case.name, stats.median_ms, stats.iqr_ms
            );
            let mut fields = vec![
                ("op", Value::Str(case.op.to_string())),
                ("case", Value::Str(case.name.clone())),
                ("backend", Value::Str(backend.to_string())),
                ("path", Value::Str(row_path.to_string())),
            ];
            fields.extend(stats.fields());
            fields.extend([
                ("flops", Value::UInt(case.cost.flops)),
                ("bytes", Value::UInt(case.cost.bytes)),
                ("gflops", Value::Float(gflops)),
                ("gbs", Value::Float(stats.gbps(case.cost.bytes))),
            ]);
            results.push(obj(fields));
        }
    }

    let report = obj(vec![
        ("bench", Value::Str("ops".to_string())),
        ("smoke", Value::Bool(smoke)),
        ("warmup", Value::UInt(warmup as u64)),
        ("trials", Value::UInt(trials as u64)),
        ("machine", machine),
        (
            "note",
            Value::Str(
                "times go through DTensor dispatch: eager includes the queue \
                 hop, lazy includes trace + amortized compile per observation"
                    .to_string(),
            ),
        ),
        ("results", Value::Array(results)),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json.as_bytes()).expect("write benchmark JSON");
    println!("wrote {out_path} ({} bytes)", json.len());
}
