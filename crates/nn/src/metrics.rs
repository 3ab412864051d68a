//! Evaluation metrics.

use s4tf_tensor::Tensor;

/// Top-1 classification accuracy of logits against integer labels.
///
/// # Panics
/// Panics unless `logits` is `[batch, classes]` with `batch == labels.len()`.
pub fn accuracy(logits: &Tensor<f32>, labels: &[usize]) -> f64 {
    assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
    assert_eq!(logits.dims()[0], labels.len(), "batch size mismatch");
    let predictions = logits.argmax_axis(1);
    let correct = predictions
        .as_slice()
        .iter()
        .zip(labels)
        .filter(|(&p, &l)| p as usize == l)
        .count();
    correct as f64 / labels.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(
            vec![
                0.1, 0.9, 0.0, // → 1 ✓
                0.8, 0.1, 0.1, // → 0 ✓
                0.1, 0.2, 0.7, // → 2 ✗ (label 1)
                0.3, 0.3, 0.4, // → 2 ✓
            ],
            &[4, 3],
        );
        let acc = accuracy(&logits, &[1, 0, 1, 2]);
        assert!((acc - 0.75).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_zero_accuracy() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0]), 0.0);
    }
}
