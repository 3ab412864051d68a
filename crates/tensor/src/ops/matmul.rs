//! Matrix multiplication: a packed, multi-threaded GEMM (see
//! [`super::gemm`]) with a cache-blocked serial path for small products,
//! plus the transposed variants needed by the Dense layer's pullback.

use super::gemm::{self, Layout};
use crate::dtype::Scalar;
use crate::tensor::Tensor;

/// Cache block edge (elements) for the serial kernel. 64×64 f32 blocks
/// fit comfortably in L1.
const BLOCK: usize = 64;

/// Products below this many multiply-accumulates (≈32³) run the serial
/// kernels: packing and pool dispatch cost more than they save.
const PACKED_MIN_MACS: usize = 1 << 15;

/// Dot products per matvec chunk (so tiny row counts stay inline).
const MATVEC_CHUNK_MACS: usize = 1 << 14;

fn gemm_serial<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    // C[m,n] += A[m,k] * B[k,n], blocked over all three loops with an
    // i-k-j inner order so the innermost loop streams B and C rows.
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    for kk in k0..k1 {
                        let aik = a[i * k + kk];
                        let brow = &b[kk * n + j0..kk * n + j1];
                        let crow = &mut c[i * n + j0..i * n + j1];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        }
    }
}

impl<T: Scalar> Tensor<T> {
    /// Matrix product of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
    ///
    /// Large products run on the thread pool (see DESIGN.md, "CPU
    /// parallelism"); results are bit-identical for every thread count.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching inner dims.
    pub fn matmul(&self, rhs: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {}x{k} vs {k2}x{n}", m);
        if n == 1 {
            // A column vector on the right is a matrix–vector product;
            // the dedicated row-dot kernel skips packing entirely.
            return self.matvec(&rhs.reshape(&[k])).reshape(&[m, 1]);
        }
        Tensor::build(&[m, n], T::zero(), |out| {
            if m * k * n < PACKED_MIN_MACS {
                gemm_serial(self.as_slice(), rhs.as_slice(), out, m, k, n);
            } else {
                gemm::gemm_parallel(
                    self.as_slice(),
                    Layout::row_major(k),
                    rhs.as_slice(),
                    Layout::row_major(n),
                    out,
                    k,
                    n,
                );
            }
        })
    }

    /// `selfᵀ × rhs`: `[k,m]ᵀ × [k,n] → [m,n]`, without materializing the
    /// transpose (used by the Dense-layer weight gradient).
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching leading dims.
    pub fn matmul_tn(&self, rhs: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_tn leading dims differ");
        let a = self.as_slice();
        let b = rhs.as_slice();
        Tensor::build(&[m, n], T::zero(), |out| {
            if m * k * n < PACKED_MIN_MACS {
                for kk in 0..k {
                    for i in 0..m {
                        let av = a[kk * m + i];
                        let brow = &b[kk * n..(kk + 1) * n];
                        let crow = &mut out[i * n..(i + 1) * n];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
            } else {
                // The transpose is only a stride swap on A; the micro-kernel
                // then reads its MR rows as contiguous runs of the stored A.
                gemm::gemm_parallel(a, Layout::transposed(m), b, Layout::row_major(n), out, k, n);
            }
        })
    }

    /// `self × rhsᵀ`: `[m,k] × [n,k]ᵀ → [m,n]`, without materializing the
    /// transpose (used by the Dense-layer input gradient).
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching trailing dims.
    pub fn matmul_nt(&self, rhs: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_nt trailing dims differ");
        let a = self.as_slice();
        let b = rhs.as_slice();
        Tensor::build(&[m, n], T::zero(), |out| {
            if m * k * n < PACKED_MIN_MACS {
                // Serial path: hoist the A row out of the j loop and walk j
                // in strips of NR accumulators so one pass over the row's k
                // range feeds NR dot products.
                const STRIP: usize = gemm::NR;
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let crow = &mut out[i * n..(i + 1) * n];
                    for j0 in (0..n).step_by(STRIP) {
                        let nr = STRIP.min(n - j0);
                        let mut acc = [T::zero(); STRIP];
                        for (s, slot) in acc.iter_mut().enumerate().take(nr) {
                            let brow = &b[(j0 + s) * k..(j0 + s + 1) * k];
                            let mut sum = T::zero();
                            for (&av, &bv) in arow.iter().zip(brow) {
                                sum += av * bv;
                            }
                            *slot = sum;
                        }
                        crow[j0..j0 + nr].copy_from_slice(&acc[..nr]);
                    }
                }
            } else {
                gemm::gemm_parallel(a, Layout::row_major(k), b, Layout::transposed(k), out, k, n);
            }
        })
    }

    /// Matrix–vector product: `[m,k] × [k] → [m]`, one dot product per
    /// output row, split across the thread pool for large `m`.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2, `rhs` rank 1 with matching dims.
    pub fn matvec(&self, rhs: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank 2");
        assert_eq!(rhs.rank(), 1, "matvec rhs must be rank 1");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        assert_eq!(
            k,
            rhs.dims()[0],
            "matvec inner dims differ: {m}x{k} vs {}",
            rhs.dims()[0]
        );
        let a = self.as_slice();
        let v = rhs.as_slice();
        Tensor::build(&[m], T::zero(), |out| {
            let grain = (MATVEC_CHUNK_MACS / k.max(1)).max(1);
            s4tf_threads::parallel_chunks_mut(out, 1, grain, |start, chunk| {
                if crate::simd::simd_enabled() {
                    if let (Some(af), Some(vf)) =
                        (crate::simd::as_f32_slice(a), crate::simd::as_f32_slice(v))
                    {
                        let cf = crate::simd::as_f32_slice_mut(chunk).expect("T is f32");
                        crate::simd::vectorize(|| {
                            for (r, slot) in cf.iter_mut().enumerate() {
                                *slot = crate::simd::dot_f32(
                                    &af[(start + r) * k..(start + r + 1) * k],
                                    vf,
                                );
                            }
                        });
                        return;
                    }
                }
                for (r, slot) in chunk.iter_mut().enumerate() {
                    let row = &a[(start + r) * k..(start + r + 1) * k];
                    let mut acc = T::zero();
                    for (&av, &vv) in row.iter().zip(v) {
                        acc += av * vv;
                    }
                    *slot = acc;
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn small_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul(&b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        assert_eq!(a.matmul(&b).as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn dim_mismatch() {
        t(&[1.0, 2.0], &[1, 2]).matmul(&t(&[1.0], &[1, 1]));
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Tensor::<f32>::randn(&[7, 5], &mut rng);
        let b = Tensor::<f32>::randn(&[7, 4], &mut rng);
        assert!(a.matmul_tn(&b).allclose(&a.t().matmul(&b), 1e-4));
        let c = Tensor::<f32>::randn(&[6, 5], &mut rng);
        let d = Tensor::<f32>::randn(&[9, 5], &mut rng);
        assert!(c.matmul_nt(&d).allclose(&c.matmul(&d.t()), 1e-4));
    }

    #[test]
    fn transposed_variants_match_above_packed_threshold() {
        // Sizes past PACKED_MIN_MACS so the packed engine (with its
        // stride-swapped layouts) is what actually runs.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = Tensor::<f32>::randn(&[90, 40], &mut rng);
        let b = Tensor::<f32>::randn(&[90, 35], &mut rng);
        assert!(a.matmul_tn(&b).allclose(&a.t().matmul(&b), 1e-3));
        let c = Tensor::<f32>::randn(&[40, 90], &mut rng);
        let d = Tensor::<f32>::randn(&[35, 90], &mut rng);
        assert!(c.matmul_nt(&d).allclose(&c.matmul(&d.t()), 1e-3));
    }

    #[test]
    fn blocked_gemm_matches_naive_large() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Tensor::<f32>::randn(&[70, 130], &mut rng);
        let b = Tensor::<f32>::randn(&[130, 65], &mut rng);
        let fast = a.matmul(&b);
        // naive reference
        let mut naive = vec![0.0f32; 70 * 65];
        for i in 0..70 {
            for j in 0..65 {
                let mut acc = 0.0;
                for k in 0..130 {
                    acc += a.as_slice()[i * 130 + k] * b.as_slice()[k * 65 + j];
                }
                naive[i * 65 + j] = acc;
            }
        }
        let naive = Tensor::from_vec(naive, &[70, 65]);
        assert!(fast.allclose(&naive, 1e-3));
    }

    #[test]
    fn matvec() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = t(&[1.0, 1.0], &[2]);
        assert_eq!(a.matvec(&v).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn matmul_with_column_vector_matches_matvec() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = Tensor::<f32>::randn(&[23, 17], &mut rng);
        let v = Tensor::<f32>::randn(&[17], &mut rng);
        let col = v.reshape(&[17, 1]);
        let via_matmul = a.matmul(&col);
        assert_eq!(via_matmul.dims(), &[23, 1]);
        assert_eq!(via_matmul.as_slice(), a.matvec(&v).as_slice());
    }

    #[test]
    #[should_panic(expected = "matvec inner dims differ")]
    fn matvec_dim_mismatch() {
        t(&[1.0, 2.0], &[1, 2]).matvec(&t(&[1.0], &[1]));
    }

    #[test]
    fn integer_matmul() {
        let a = Tensor::from_vec(vec![1i32, 2, 3, 4], &[2, 2]);
        let b = Tensor::from_vec(vec![1i32, 0, 0, 1], &[2, 2]);
        assert_eq!(a.matmul(&b), a);
    }
}
