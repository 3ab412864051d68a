//! Profile the Figure 6 LeNet-5 training loop on each of the three
//! execution backends, and print their side-by-side `ProfileReport`s:
//! where the naive backend spends everything in kernels, the eager
//! backend shows enqueue/observe pipelining and the lazy backend shows
//! barrier/compile/execute phases plus program-cache hit counters.
//!
//! ```sh
//! cargo run --release --example profiling
//! ```
//!
//! Pass a path to also write a Chrome-trace of the *last* (lazy) run,
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>:
//!
//! ```sh
//! cargo run --release --example profiling -- /tmp/s4tf-trace.json
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::data::{Dataset, ImageSpec};
use s4tf::models::LeNet;
use s4tf::nn::train::train_classifier_step;
use s4tf::prelude::*;
use s4tf::profile;

fn main() {
    let trace_path = std::env::args().nth(1);
    // Exercise the kernel thread pool even on single-core CI hosts (where
    // `available_parallelism` would otherwise pin it to one worker); an
    // explicit S4TF_NUM_THREADS still wins.
    if std::env::var("S4TF_NUM_THREADS").is_err() {
        s4tf::threads::set_num_threads(4);
    }
    let train = Dataset::generate(ImageSpec::mnist_like(), 256, 1);
    let batch_size = 32;
    let steps = train.batches_per_epoch(batch_size);

    profile::set_enabled(true);
    for device in [Device::naive(), Device::eager(), Device::lazy()] {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut model = LeNet::new(&device, &mut rng);
        let mut optimizer = Sgd::with_momentum(0.05, 0.9);

        profile::reset();
        let start = std::time::Instant::now();
        let mut loss = 0.0;
        for b in 0..steps {
            let batch = train.batch(batch_size, b, 0);
            let x = DTensor::from_tensor(batch.images.clone(), &device);
            let y = DTensor::from_tensor(batch.one_hot(10), &device);
            loss = train_classifier_step(&mut model, &mut optimizer, &x, &y);
        }
        let elapsed = start.elapsed().as_secs_f64();

        println!(
            "=== device: {} — {steps} steps in {elapsed:.2}s, final loss {loss:.4} ===",
            device.kind()
        );

        // The performance observatory in one rendering: the span report,
        // per-op achieved GFLOP/s against the machine's probed ceilings,
        // and the longest dependency chain with its queue / kernel /
        // compile / trace decomposition. Training dispatched real ops on
        // every backend, so neither derived view may come back empty.
        assert!(
            !profile::roofline().is_empty(),
            "{}: training steps must produce roofline rows",
            device.kind()
        );
        assert!(
            !profile::critical_path().is_empty(),
            "{}: training steps must produce a critical path",
            device.kind()
        );
        println!("{}", profile::perf_report());

        if let Some(stats) = device.cache_stats() {
            println!(
                "program cache: {} compiled, {} hits ({:.0}% hit rate)\n",
                stats.misses,
                stats.hits,
                stats.hit_ratio() * 100.0
            );
        } else {
            println!();
        }
    }

    // The memory ledger's totals are always on: the training loops above
    // allocated tensor storage, so the counters must have moved.
    let mem = s4tf::diag::memory_stats();
    assert!(mem.allocs > 0, "tensor allocations must be counted");
    assert!(mem.peak_bytes > 0, "peak bytes must be non-zero");
    println!(
        "memory: live {} B, peak {} B, {} allocs / {} frees",
        mem.live_bytes, mem.peak_bytes, mem.allocs, mem.frees
    );

    let stats = s4tf::threads::pool_stats();
    assert!(
        stats.tasks_run + stats.inline_runs > 0,
        "the training loops above must have driven the kernel pool"
    );
    println!(
        "kernel pool: {} workers, {} tasks ({} chunks), {} inline runs, {}us busy",
        stats.workers, stats.tasks_run, stats.chunks_dispatched, stats.inline_runs, stats.busy_us
    );

    // The profiler still holds the lazy run's events; export them.
    if let Some(path) = trace_path {
        let json = profile::chrome_trace_json();
        std::fs::write(&path, &json).expect("write Chrome trace");
        println!("wrote Chrome trace ({} bytes) to {path}", json.len());
    }
    profile::set_enabled(false);
}
