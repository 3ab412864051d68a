//! Reinforcement learning with policy gradients — the application area the
//! paper highlights (§5: Jelly Bean World and DeepMind's OpenSpiel were
//! built on Swift for TensorFlow).
//!
//! A cart-pole environment is simulated in plain Rust (define-by-run: the
//! episode's control flow is ordinary host control flow, §3.3's composition
//! argument), and a two-layer softmax policy is trained with REINFORCE.
//! The policy gradient flows through the same `Layer` pullbacks as
//! supervised training — gradients are first-class values (§4.2), so the
//! per-episode return-weighted gradient is just a scaled `TangentVector`
//! accumulated across timesteps.
//!
//! ```sh
//! cargo run --release --example reinforce_cartpole
//! ```

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::prelude::*;

/// Classic cart-pole dynamics (Barto–Sutton–Anderson constants).
struct CartPole {
    x: f32,
    x_dot: f32,
    theta: f32,
    theta_dot: f32,
}

impl CartPole {
    fn reset(rng: &mut ChaCha8Rng) -> Self {
        let mut u = || rng.gen_range(-0.05f32..0.05);
        CartPole {
            x: u(),
            x_dot: u(),
            theta: u(),
            theta_dot: u(),
        }
    }

    fn observation(&self) -> [f32; 4] {
        [self.x, self.x_dot, self.theta, self.theta_dot]
    }

    /// Applies a force; returns false when the pole falls or the cart
    /// leaves the track.
    fn step(&mut self, push_right: bool) -> bool {
        let force = if push_right { 10.0 } else { -10.0 };
        let (g, mc, mp, l, dt) = (9.8, 1.0, 0.1, 0.5, 0.02);
        let total = mc + mp;
        let cos = self.theta.cos();
        let sin = self.theta.sin();
        let temp = (force + mp * l * self.theta_dot * self.theta_dot * sin) / total;
        let theta_acc = (g * sin - cos * temp) / (l * (4.0 / 3.0 - mp * cos * cos / total));
        let x_acc = temp - mp * l * theta_acc * cos / total;
        self.x += dt * self.x_dot;
        self.x_dot += dt * x_acc;
        self.theta += dt * self.theta_dot;
        self.theta_dot += dt * theta_acc;
        self.x.abs() < 2.4 && self.theta.abs() < 0.2095
    }
}

fn main() {
    let device = Device::naive();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // Policy: 4 → 16 → 2 softmax.
    let mut hidden = Dense::new(4, 16, Activation::Tanh, &device, &mut rng);
    let mut head = Dense::new(16, 2, Activation::Identity, &device, &mut rng);
    let learning_rate = 0.01f64;
    let gamma = 0.99f32;

    let mut recent: Vec<f64> = Vec::new();
    for episode in 0..400 {
        let mut env = CartPole::reset(&mut rng);
        // Per-step records: pullbacks + chosen action, for REINFORCE.
        let mut steps = Vec::new();
        let mut alive = true;
        while alive && steps.len() < 500 {
            let obs = DTensor::from_tensor(
                Tensor::from_vec(env.observation().to_vec(), &[1, 4]),
                &device,
            );
            // The observation's gradient is never used: parameters only.
            let (h, pb_hidden) = hidden.forward_with_pullback_wrt(&obs, Wrt::Parameters);
            let (logits, pb_head) = head.forward_with_pullback(&h);
            let probs = logits.softmax().to_tensor();
            let p_right = probs.at(&[0, 1]);
            let action_right = rng.gen_range(0.0f32..1.0) < p_right;
            alive = env.step(action_right);
            steps.push((pb_hidden, pb_head, probs, action_right));
        }

        // Discounted returns, normalized.
        let t_max = steps.len();
        let mut returns = vec![0.0f32; t_max];
        let mut acc = 0.0f32;
        for t in (0..t_max).rev() {
            acc = 1.0 + gamma * acc;
            returns[t] = acc;
        }
        let mean = returns.iter().sum::<f32>() / t_max as f32;
        let std = (returns.iter().map(|r| (r - mean).powi(2)).sum::<f32>() / t_max as f32)
            .sqrt()
            .max(1e-6);

        // REINFORCE: ∇ = Σ_t G_t · ∇ log π(a_t | s_t). The pullback seed is
        // d(−log π(a))/d(logits) = π − onehot(a), scaled by the return.
        let mut g_hidden: Option<<Dense as Differentiable>::TangentVector> = None;
        let mut g_head: Option<<Dense as Differentiable>::TangentVector> = None;
        for (t, (pb_hidden, pb_head, probs, action_right)) in steps.iter().enumerate() {
            let advantage = (returns[t] - mean) / std;
            let a = usize::from(*action_right);
            let mut seed = probs.clone();
            *seed.at_mut(&[0, a]) -= 1.0;
            let seed = DTensor::from_tensor(seed.mul_scalar(advantage), &device);
            let (gh, dh) = pb_head(&seed);
            let (gm, _) = pb_hidden(&dh);
            g_head = Some(match g_head.take() {
                None => gh,
                Some(acc) => acc.adding(&gh),
            });
            g_hidden = Some(match g_hidden.take() {
                None => gm,
                Some(acc) => acc.adding(&gm),
            });
        }
        // In-place policy update through unique borrows (§4.2).
        hidden.move_along(
            &g_hidden
                .expect("episode has steps")
                .scaled_by(-learning_rate),
        );
        head.move_along(&g_head.expect("episode has steps").scaled_by(-learning_rate));

        recent.push(t_max as f64);
        if recent.len() > 50 {
            recent.remove(0);
        }
        if episode % 50 == 49 {
            let avg = recent.iter().sum::<f64>() / recent.len() as f64;
            println!("episode {episode:3}: mean episode length (last 50) = {avg:.1}");
        }
    }

    let avg = recent.iter().sum::<f64>() / recent.len() as f64;
    println!("final mean episode length: {avg:.1} (untrained policy ≈ 20)");
    assert!(
        avg > 60.0,
        "policy gradient should at least triple the episode length"
    );
}
