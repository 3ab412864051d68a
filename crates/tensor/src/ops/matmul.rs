//! Matrix multiplication: every product of two matrices, and both
//! transposed variants the Dense layer's pullback needs, runs the packed,
//! multi-threaded GEMM (see [`super::gemm`]), which keeps products too
//! small to split inline on the calling thread. A column vector on the
//! right takes the row-dot [`Tensor::matvec`] instead.

use super::gemm::{self, Layout};
use crate::dtype::Scalar;
use crate::tensor::Tensor;

/// Dot products per matvec chunk (so tiny row counts stay inline).
const MATVEC_CHUNK_MACS: usize = 1 << 14;

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
            gemm::gemm_parallel(
                self.as_slice(),
                Layout::row_major(k),
                rhs.as_slice(),
                Layout::row_major(n),
                out,
                k,
                n,
            );
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
        // The transpose is only a stride swap on A; the micro-kernel then
        // reads its MR rows as contiguous runs of the stored A.
        Tensor::build(&[m, n], T::zero(), |out| {
            gemm::gemm_parallel(
                self.as_slice(),
                Layout::transposed(m),
                rhs.as_slice(),
                Layout::row_major(n),
                out,
                k,
                n,
            );
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
        Tensor::build(&[m, n], T::zero(), |out| {
            gemm::gemm_parallel(
                self.as_slice(),
                Layout::row_major(k),
                rhs.as_slice(),
                Layout::transposed(k),
                out,
                k,
                n,
            );
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

    /// `C[i, j] = Σ_kk a(i, kk)·b(kk, j)`, one k-order sum from zero per
    /// element.
    fn naive<T: Scalar>(
        a: impl Fn(usize, usize) -> T,
        b: impl Fn(usize, usize) -> T,
        (m, k, n): (usize, usize, usize),
    ) -> Tensor<T> {
        Tensor::from_fn(&[m, n], |x| {
            (0..k).fold(T::zero(), |acc, kk| acc + a(x / n, kk) * b(kk, x % n))
        })
    }

    /// Small integer values: every partial sum is exact in f32, so the
    /// packed GEMM must equal the triple loop bit for bit whatever its
    /// order or FMA rounding.
    fn small_int<T: Scalar>(i: usize, j: usize, salt: usize) -> T {
        T::from_usize((i * 31 + j * 7 + salt) % 13) - T::from_usize(6)
    }

    /// `matmul`, `matmul_tn` and `matmul_nt` on `[m,k] × [k,n]`, each
    /// against the triple loop.
    fn check_products<T: Scalar>((m, k, n): (usize, usize, usize)) {
        let a = |i, kk| small_int::<T>(i, kk, 0);
        let b = |kk, j| small_int::<T>(kk, j, 5);
        let want = naive(a, b, (m, k, n));
        let what = format!("{m}x{k}x{n} {}", std::any::type_name::<T>());
        let a_mk = Tensor::from_fn(&[m, k], |x| a(x / k, x % k));
        let a_km = Tensor::from_fn(&[k, m], |x| a(x % m, x / m));
        let b_kn = Tensor::from_fn(&[k, n], |x| b(x / n, x % n));
        let b_nk = Tensor::from_fn(&[n, k], |x| b(x % k, x / k));
        assert_eq!(a_mk.matmul(&b_kn), want, "nn {what}");
        assert_eq!(a_km.matmul_tn(&b_kn), want, "tn {what}");
        assert_eq!(a_mk.matmul_nt(&b_nk), want, "nt {what}");
    }

    /// Every small and degenerate shape (empty operands, an empty
    /// reduction, one row or column, tile edges) and the two dense heads
    /// LeNet and ResNet-8 run at batch 16.
    fn product_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        const DIMS: [usize; 7] = [0, 1, 2, 3, 5, 16, 17];
        let cube = DIMS
            .into_iter()
            .flat_map(|m| DIMS.into_iter().flat_map(move |k| DIMS.map(|n| (m, k, n))));
        cube.chain([(16, 84, 10), (16, 64, 10)])
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
        for shape in product_shapes() {
            check_products::<f32>(shape);
            check_products::<f64>(shape);
        }
        // Random values through the dense heads: the triple loop within
        // rounding.
        for (m, k, n) in [(16, 84, 10), (16, 64, 10)] {
            let x = Tensor::<f32>::randn(&[m, k], &mut rng);
            let w = Tensor::<f32>::randn(&[k, n], &mut rng);
            let want = naive(|i, kk| x.at(&[i, kk]), |kk, j| w.at(&[kk, j]), (m, k, n));
            assert!(x.matmul(&w).allclose(&want, 1e-4), "nn {m}x{k}x{n}");
            assert!(x.t().matmul_tn(&w).allclose(&want, 1e-4), "tn {m}x{k}x{n}");
            assert!(x.matmul_nt(&w.t()).allclose(&want, 1e-4), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn transposed_variants_match_above_packed_threshold() {
        // Sizes past one GEMM chunk, so the stride-swapped layouts run
        // split across the pool's tasks.
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
        for shape in product_shapes() {
            check_products::<i32>(shape);
            check_products::<i64>(shape);
        }
    }
}
