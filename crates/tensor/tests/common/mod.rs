//! The conv2d shape sweep shared by the thread-count and dispatch-path
//! consistency suites.

use s4tf_tensor::{Padding, Tensor};

pub struct ConvCase {
    pub x: Tensor<f32>,
    pub w: Tensor<f32>,
    pub dy: Tensor<f32>,
    pub strides: (usize, usize),
    pub padding: Padding,
}

impl ConvCase {
    /// Forward output and both gradients.
    pub fn run(&self) -> (Tensor<f32>, Tensor<f32>, Tensor<f32>) {
        let ConvCase {
            x,
            w,
            dy,
            strides,
            padding,
        } = self;
        (
            x.conv2d(w, *strides, *padding),
            x.conv2d_backward_input(w, dy, *strides, *padding),
            x.conv2d_backward_filter(w.dims(), dy, *strides, *padding),
        )
    }

    pub fn label(&self) -> String {
        format!(
            "{:?}*{:?} /{} {:?}",
            self.x.dims(),
            self.w.dims(),
            self.strides.1,
            self.padding
        )
    }
}

pub fn randn_f32(dims: &[usize], seed: u64) -> Tensor<f32> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Tensor::randn(dims, &mut rng)
}

/// stride ∈ {1, 2} × {Same, Valid} × `in_c` ∈ {1, 3, 6} (single-channel
/// k-major dx, odd, LeNet-c2) × `out_c` straddling the 8-wide lane and
/// the 16-column panel × `out_w` straddling the 6-row micro-tile, 5×5
/// kernels. The batch is sized so every case is past the direct-loop
/// threshold (2^15 MACs) and splits into several chunks at the kernels'
/// 2^16-MAC grain.
pub fn conv_cases() -> Vec<ConvCase> {
    const K: usize = 5;
    const IN_H: usize = 12;
    let mut cases = Vec::new();
    for stride in [1usize, 2] {
        for padding in [Padding::Same, Padding::Valid] {
            for in_c in [1usize, 3, 6] {
                for out_c in [7usize, 8, 9, 16, 17] {
                    for out_w in [5usize, 6, 7] {
                        let in_w = match padding {
                            Padding::Same => out_w * stride,
                            Padding::Valid => (out_w - 1) * stride + K,
                        };
                        let out_h = padding.output_dim(IN_H, K, stride);
                        let img_macs = out_h * out_w * out_c * K * K * in_c;
                        let batch = (1usize << 17).div_ceil(img_macs).max(4);
                        let seed = cases.len() as u64;
                        cases.push(ConvCase {
                            x: randn_f32(&[batch, IN_H, in_w, in_c], seed),
                            w: randn_f32(&[K, K, in_c, out_c], seed ^ 0x100),
                            dy: randn_f32(&[batch, out_h, out_w, out_c], seed ^ 0x200),
                            strides: (stride, stride),
                            padding,
                        });
                    }
                }
            }
        }
    }
    cases
}
