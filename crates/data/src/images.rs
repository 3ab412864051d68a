//! Synthetic labeled image datasets.
//!
//! Each class `c` has a deterministic spatial prototype — a superposition
//! of class-dependent sinusoidal gratings plus a class-positioned blob —
//! and samples are prototypes corrupted by Gaussian pixel noise and a
//! small random translation. The resulting problems are linearly
//! non-trivial but comfortably learnable by small convolutional networks,
//! giving real accuracy dynamics for the experiments that report them.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf_tensor::Tensor;

/// Geometry and difficulty of a synthetic image dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageSpec {
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Channels.
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    /// Pixel noise standard deviation (higher = harder).
    pub noise: f32,
}

impl ImageSpec {
    /// MNIST-like: 28×28×1, 10 classes.
    pub fn mnist_like() -> Self {
        ImageSpec {
            height: 28,
            width: 28,
            channels: 1,
            classes: 10,
            noise: 0.25,
        }
    }

    /// CIFAR-10-like: 32×32×3, 10 classes.
    pub fn cifar_like() -> Self {
        ImageSpec {
            height: 32,
            width: 32,
            channels: 3,
            classes: 10,
            noise: 0.35,
        }
    }

    fn prototype_pixel(&self, class: usize, y: usize, x: usize, c: usize) -> f32 {
        let fy = (class % 5 + 1) as f32;
        let fx = (class % 3 + 1) as f32;
        let phase = class as f32 * 0.7 + c as f32 * 1.3;
        let v = (fy * y as f32 * std::f32::consts::PI / self.height as f32 + phase).sin()
            * (fx * x as f32 * std::f32::consts::PI / self.width as f32).cos();
        // A class-positioned blob to break grating symmetry.
        let by = (class * self.height) / self.classes.max(1);
        let bx = ((class * 7) % self.width.max(1)) as f32;
        let dy = y as f32 - by as f32;
        let dx = x as f32 - bx;
        let blob = (-(dy * dy + dx * dx) / 18.0).exp();
        v * 0.6 + blob
    }
}

/// A labeled image dataset with deterministic batch iteration.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Images, `[n, h, w, c]`.
    pub images: Tensor<f32>,
    /// Integer class labels, length `n`.
    pub labels: Vec<usize>,
    /// The generating spec.
    pub spec: ImageSpec,
}

impl Dataset {
    /// Generates `n` samples (labels cycle through the classes).
    pub fn generate(spec: ImageSpec, n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * spec.height * spec.width * spec.channels);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % spec.classes;
            labels.push(class);
            let shift_y = rng.gen_range(-2i32..=2);
            let shift_x = rng.gen_range(-2i32..=2);
            for y in 0..spec.height {
                for x in 0..spec.width {
                    for c in 0..spec.channels {
                        let sy = (y as i32 + shift_y).rem_euclid(spec.height as i32) as usize;
                        let sx = (x as i32 + shift_x).rem_euclid(spec.width as i32) as usize;
                        let clean = spec.prototype_pixel(class, sy, sx, c);
                        let noise: f32 = {
                            // Box–Muller
                            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                            let u2: f32 = rng.gen_range(0.0..1.0);
                            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                        };
                        data.push(clean + spec.noise * noise);
                    }
                }
            }
        }
        Dataset {
            images: Tensor::from_vec(data, &[n, spec.height, spec.width, spec.channels]),
            labels,
            spec,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `i`-th minibatch under a seeded shuffle: `(images, labels)`.
    ///
    /// # Panics
    /// Panics if `batch_size` is 0 or exceeds the dataset size.
    pub fn batch(&self, batch_size: usize, index: usize, shuffle_seed: u64) -> Batch {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(batch_size <= self.len(), "batch larger than dataset");
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(shuffle_seed);
        // Fisher–Yates
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let n_batches = self.len() / batch_size;
        let b = index % n_batches;
        let rows: Vec<usize> = order[b * batch_size..(b + 1) * batch_size].to_vec();
        Batch {
            images: self.images.gather_rows(&rows),
            labels: rows.iter().map(|&r| self.labels[r]).collect(),
        }
    }

    /// Number of whole batches of the given size.
    pub fn batches_per_epoch(&self, batch_size: usize) -> usize {
        self.len() / batch_size
    }
}

/// One minibatch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images, `[b, h, w, c]`.
    pub images: Tensor<f32>,
    /// Integer labels, length `b`.
    pub labels: Vec<usize>,
}

impl Batch {
    /// One-hot float labels, `[b, classes]`.
    pub fn one_hot(&self, classes: usize) -> Tensor<f32> {
        Tensor::one_hot(&self.labels, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(ImageSpec::mnist_like(), 20, 42);
        let b = Dataset::generate(ImageSpec::mnist_like(), 20, 42);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
        let c = Dataset::generate(ImageSpec::mnist_like(), 20, 43);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn shapes_and_labels() {
        let d = Dataset::generate(ImageSpec::cifar_like(), 25, 1);
        assert_eq!(d.images.dims(), &[25, 32, 32, 3]);
        assert_eq!(d.len(), 25);
        assert!(!d.is_empty());
        assert!(d.labels.iter().all(|&l| l < 10));
        // Labels cycle: balanced classes.
        assert_eq!(d.labels[0], 0);
        assert_eq!(d.labels[11], 1);
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // Same-class samples must be closer to their prototype than to
        // other prototypes on average — the dataset is learnable.
        let spec = ImageSpec::mnist_like();
        let d = Dataset::generate(spec, 40, 7);
        let proto = |class: usize| -> Vec<f32> {
            let mut p = Vec::new();
            for y in 0..spec.height {
                for x in 0..spec.width {
                    p.push(spec.prototype_pixel(class, y, x, 0));
                }
            }
            p
        };
        let protos: Vec<Vec<f32>> = (0..10).map(proto).collect();
        let mut correct = 0;
        for i in 0..d.len() {
            let img = &d.images.as_slice()[i * 784..(i + 1) * 784];
            let mut best = (f32::INFINITY, 0);
            for (c, p) in protos.iter().enumerate() {
                let dist: f32 = img.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best.0 {
                    best = (dist, c);
                }
            }
            if best.1 == d.labels[i] {
                correct += 1;
            }
        }
        assert!(correct >= 36, "nearest-prototype got {correct}/40");
    }

    #[test]
    fn batching_covers_and_shuffles() {
        let d = Dataset::generate(ImageSpec::mnist_like(), 30, 3);
        let b0 = d.batch(10, 0, 5);
        assert_eq!(b0.images.dims(), &[10, 28, 28, 1]);
        assert_eq!(b0.labels.len(), 10);
        assert_eq!(d.batches_per_epoch(10), 3);
        // Distinct shuffle seeds give distinct batches.
        let b1 = d.batch(10, 0, 6);
        assert_ne!(b0.labels, b1.labels);
        // Same seed, same batch (reproducible).
        let b0_again = d.batch(10, 0, 5);
        assert_eq!(b0.labels, b0_again.labels);
        // All three batch indices together cover all 30 samples.
        let mut seen: Vec<usize> = (0..3).flat_map(|i| d.batch(10, i, 5).labels).collect();
        seen.sort_unstable();
        let mut expected = d.labels.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn one_hot_labels() {
        let d = Dataset::generate(ImageSpec::mnist_like(), 10, 9);
        let b = d.batch(4, 0, 1);
        let oh = b.one_hot(10);
        assert_eq!(oh.dims(), &[4, 10]);
        for (row, &l) in b.labels.iter().enumerate() {
            assert_eq!(oh.at(&[row, l]), 1.0);
        }
    }
}
