//! Host-speed correction. On a shared host the same code runs 25–50 %
//! slower for tens of seconds at a time (a neighbour on the core's other
//! thread, a frequency step), which no amount of repetition inside one run
//! averages out. So the timed phase interleaves a fixed, compute-bound
//! reference loop — this file's own code, the same machine code in every
//! build, independent of every layer under test — with the operations, and every end-to-end *time* is reported at
//! reference speed: divided by how much slower than [`REFERENCE_US`] the
//! loop ran around that moment. The raw times are printed beside them.
//!
//! A change to the repository cannot move the reference loop, so it cannot
//! hide in the correction; a change in the host's speed moves both and
//! cancels.

use std::hint::black_box;
use std::time::Instant;

/// Loops per burst; the burst reports their median.
const BURST: usize = 5;
/// Seconds between bursts while operations run.
const INTERVAL_S: f64 = 0.010;
/// Floats in each of the reference loop's two buffers: 8 KiB each, so both
/// stay in the first-level cache.
const LEN: usize = 2048;
/// Passes over the buffers per call.
const PASSES: u64 = 128;
/// What one loop takes on the reference host (this repository's build
/// sandbox in its fast state), microseconds. A time "at reference speed" is
/// the time the work would take on a host where the loop takes this long.
pub const REFERENCE_US: f64 = 16.0;

/// The reference loop: `c[j] += s · b[j]` over [`LEN`] floats, [`PASSES`]
/// times — the inner loop of a matrix product: loads, a multiply, an add
/// and a store per four lanes, like the kernels it stands in for. It is
/// written in assembly, at a fixed alignment, because it must be the same
/// machine code in every build: compiled from Rust, the loop ran 7 % slower
/// or faster depending on where an unrelated change to the binary happened
/// to place it — a bias between the very builds this benchmark compares.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn reference_loop(b: &[f32; LEN], c: &mut [f32; LEN]) {
    let scale = [1.0e-3f32; 4];
    // SAFETY: the block reads 16 bytes at `scale`, reads `LEN` floats at
    // `b` and reads and writes `LEN` floats at `c` — offsets 0 to
    // `LEN * 4` bytes, exactly the arrays the references guarantee — and
    // otherwise touches only the registers it declares as outputs. SSE2 is
    // part of the x86_64 baseline; unaligned moves need no alignment.
    unsafe {
        std::arch::asm!(
            "movups xmm8, [{scale}]",
            ".p2align 6",
            "2:",
            "xor {off:e}, {off:e}",
            "3:",
            "movups xmm0, [{b} + {off}]",
            "movups xmm1, [{b} + {off} + 16]",
            "movups xmm2, [{b} + {off} + 32]",
            "movups xmm3, [{b} + {off} + 48]",
            "mulps xmm0, xmm8",
            "mulps xmm1, xmm8",
            "mulps xmm2, xmm8",
            "mulps xmm3, xmm8",
            "movups xmm4, [{c} + {off}]",
            "movups xmm5, [{c} + {off} + 16]",
            "movups xmm6, [{c} + {off} + 32]",
            "movups xmm7, [{c} + {off} + 48]",
            "addps xmm4, xmm0",
            "addps xmm5, xmm1",
            "addps xmm6, xmm2",
            "addps xmm7, xmm3",
            "movups [{c} + {off}], xmm4",
            "movups [{c} + {off} + 16], xmm5",
            "movups [{c} + {off} + 32], xmm6",
            "movups [{c} + {off} + 48], xmm7",
            "add {off}, 64",
            "cmp {off}, {bytes}",
            "jb 3b",
            "dec {passes}",
            "jnz 2b",
            scale = in(reg) scale.as_ptr(),
            b = in(reg) b.as_ptr(),
            c = in(reg) c.as_mut_ptr(),
            off = out(reg) _,
            bytes = const LEN * 4,
            passes = inout(reg) PASSES => _,
            out("xmm0") _, out("xmm1") _, out("xmm2") _, out("xmm3") _,
            out("xmm4") _, out("xmm5") _, out("xmm6") _, out("xmm7") _,
            out("xmm8") _,
            options(nostack),
        );
    }
}

/// The same arithmetic where there is no assembly for it; its machine code
/// is then the compiler's choice.
#[cfg(not(target_arch = "x86_64"))]
#[inline(never)]
fn reference_loop(b: &[f32; LEN], c: &mut [f32; LEN]) {
    let scale = black_box(1.0e-3f32);
    for _ in 0..PASSES {
        for (c, b) in c.iter_mut().zip(b) {
            *c += scale * b;
        }
    }
}

/// One burst: when it ended (seconds since the epoch), how long it took,
/// and its loop time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Burst {
    at_s: f64,
    cost_s: f64,
    loop_us: f64,
}

/// Samples the host's speed over a run.
pub struct HostSpeed {
    epoch: Instant,
    bursts: Vec<Burst>,
    b: Box<[f32; LEN]>,
    c: Box<[f32; LEN]>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            epoch: Instant::now(),
            bursts: Vec::new(),
            b: Box::new([0.5; LEN]),
            c: Box::new([0.0; LEN]),
        }
    }

    /// Seconds since this sampler was created.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// `instant` on this sampler's clock (0 for one before its creation).
    pub fn seconds_at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.epoch).as_secs_f64()
    }

    /// Runs `f` between two bursts; returns its result and the host's mean
    /// slowdown across it. For measurements too short to interleave with.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        self.probe();
        let from_s = self.now_s();
        let out = f();
        let to_s = self.now_s();
        self.probe();
        (
            out,
            (self.slowdown_at(from_s) + self.slowdown_at(to_s)) / 2.0,
        )
    }

    /// Runs one burst now.
    pub fn probe(&mut self) {
        let begun = Instant::now();
        let mut loops = [0.0; BURST];
        // One untimed loop first: the operations before it left the cache
        // theirs, not the loop's.
        reference_loop(&self.b, &mut self.c);
        for slot in &mut loops {
            self.c.fill(0.0);
            let start = Instant::now();
            reference_loop(black_box(&self.b), &mut self.c);
            black_box(&mut self.c);
            *slot = start.elapsed().as_secs_f64() * 1e6;
        }
        loops.sort_by(f64::total_cmp);
        self.bursts.push(Burst {
            at_s: self.now_s(),
            cost_s: begun.elapsed().as_secs_f64(),
            loop_us: loops[BURST / 2],
        });
    }

    /// Probes for `seconds` and records the median burst as one: for the
    /// moments around a long stretch in which nothing can be interleaved (a
    /// set-up), where one burst on a just-woken core would carry its own
    /// noise into the whole stretch.
    pub fn probe_for(&mut self, seconds: f64) {
        let first = self.bursts.len();
        let begun_s = self.now_s();
        while self.now_s() - begun_s < seconds {
            self.probe();
        }
        let mut loops: Vec<f64> = self.bursts.drain(first..).map(|b| b.loop_us).collect();
        loops.sort_by(f64::total_cmp);
        let at_s = self.now_s();
        self.bursts.push(Burst {
            at_s,
            cost_s: at_s - begun_s,
            loop_us: loops[loops.len() / 2],
        });
    }

    /// Runs a burst if the last one is at least [`INTERVAL_S`] old.
    pub fn probe_if_due(&mut self) {
        let due = self
            .bursts
            .last()
            .is_none_or(|last| self.now_s() - last.at_s >= INTERVAL_S);
        if due {
            self.probe();
        }
    }

    /// How much slower than the reference host this host ran at `at_s`:
    /// the loop time interpolated between the bursts around that moment,
    /// over [`REFERENCE_US`]. 1 before any burst.
    pub fn slowdown_at(&self, at_s: f64) -> f64 {
        slowdown(&self.bursts, at_s)
    }

    /// The seconds `from_s..to_s` would have taken at reference speed: the
    /// interval, less the bursts inside it, each stretch between bursts
    /// divided by the mean slowdown at its two ends.
    pub fn reference_seconds(&self, from_s: f64, to_s: f64) -> f64 {
        reference_seconds(&self.bursts, from_s, to_s)
    }
}

fn reference_seconds(bursts: &[Burst], from_s: f64, to_s: f64) -> f64 {
    let mut total = 0.0;
    let mut cursor = from_s;
    let inside = bursts.iter().filter(|b| b.at_s > from_s && b.at_s <= to_s);
    for burst in inside {
        // The burst occupies the end of its stretch.
        let begun = (burst.at_s - burst.cost_s).max(cursor);
        let pace = (slowdown(bursts, cursor) + slowdown(bursts, begun)) / 2.0;
        total += (begun - cursor) / pace;
        cursor = burst.at_s;
    }
    let pace = (slowdown(bursts, cursor) + slowdown(bursts, to_s)) / 2.0;
    total + (to_s - cursor).max(0.0) / pace
}

fn slowdown(bursts: &[Burst], at_s: f64) -> f64 {
    let after = bursts.partition_point(|b| b.at_s < at_s);
    let loop_us = match (after.checked_sub(1).map(|i| bursts[i]), bursts.get(after)) {
        (Some(before), Some(after)) => {
            let span = after.at_s - before.at_s;
            let share = if span > 0.0 {
                (at_s - before.at_s) / span
            } else {
                0.0
            };
            before.loop_us + (after.loop_us - before.loop_us) * share
        }
        (Some(only), None) | (None, Some(&only)) => only.loop_us,
        (None, None) => return 1.0,
    };
    loop_us / REFERENCE_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_interpolates_between_bursts_and_holds_at_the_ends() {
        let bursts = [
            Burst {
                at_s: 1.0,
                cost_s: 0.0,
                loop_us: REFERENCE_US,
            },
            Burst {
                at_s: 3.0,
                cost_s: 0.0,
                loop_us: 2.0 * REFERENCE_US,
            },
        ];
        assert_eq!(slowdown(&bursts, 0.5), 1.0);
        assert_eq!(slowdown(&bursts, 1.0), 1.0);
        assert_eq!(slowdown(&bursts, 2.0), 1.5);
        assert_eq!(slowdown(&bursts, 3.0), 2.0);
        assert_eq!(slowdown(&bursts, 9.0), 2.0);
        assert_eq!(slowdown(&[], 1.0), 1.0);
    }

    #[test]
    fn probing_records_positive_loop_times_and_its_own_cost() {
        let mut host = HostSpeed::new();
        host.probe();
        host.probe_if_due(); // not due: the first burst just ended
        assert_eq!(host.bursts.len(), 1);
        assert!(host.bursts[0].loop_us > 0.0);
        assert!(host.bursts[0].cost_s > 0.0);
        assert!(host.slowdown_at(host.now_s()) > 0.0);
        assert!(host.reference_seconds(0.0, host.now_s()) >= 0.0);
    }

    #[test]
    fn reference_seconds_leave_out_bursts_and_divide_by_the_pace() {
        let burst = |at_s, cost_s, times: f64| Burst {
            at_s,
            cost_s,
            loop_us: times * REFERENCE_US,
        };
        // A host twice as slow as the reference throughout: 10 s, of which
        // 2 s were bursts, is 8 s of work, 4 s at reference speed.
        let slow = [burst(1.0, 1.0, 2.0), burst(10.0, 1.0, 2.0)];
        assert_eq!(reference_seconds(&slow, 0.0, 10.0), 4.0);
        // At reference speed an interval without bursts is itself.
        let even = [burst(0.0, 0.0, 1.0), burst(20.0, 0.0, 1.0)];
        assert_eq!(reference_seconds(&even, 2.0, 7.0), 5.0);
        assert_eq!(reference_seconds(&[], 2.0, 7.0), 5.0);
    }
}
