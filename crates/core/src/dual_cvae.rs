//! The Dual-CVAE of Fig. 1: a source/target CVAE pair trained under the
//! five-term cross-domain objective of Eq. 8.
//!
//! `L = L_ELBO + L_MSE + L_Rec + β₁ L_MDI + β₂ L_ME`
//!
//! * `L_ELBO` (Eq. 2): BCE reconstruction of each domain's ratings plus the
//!   content-anchored KL of Eq. 3.
//! * `L_MSE` (Eq. 4): aligns the sampled latents to the content-encoder
//!   outputs so ratings can later be decoded from content alone.
//! * `L_Rec` (Eq. 5): cross-domain reconstruction — decode the source's
//!   ratings from the *target's* latent and vice versa, aligning the two
//!   latent spaces.
//! * `L_MDI` (Eq. 6): maximize `I(z_s, z_t)` via InfoNCE, preserving
//!   domain-shared *and* domain-specific latent structure.
//! * `L_ME` (Eq. 7): maximize `I(r̂_s, r̂_t)` between the two decoders'
//!   outputs via a projected-critic InfoNCE, pulling the target decoder
//!   toward the source's reconstruction patterns; across the k Dual-CVAEs
//!   (one per source) this is what makes the k generated ratings *diverse*.
//!
//! A training step interleaves forwards and backwards carefully because
//! each decoder is used twice (direct + cross reconstruction) and the
//! layer caches hold only the most recent forward: every decoder use is
//! backpropagated before the next use.

use metadpa_nn::infonce::InfoNce;
use metadpa_nn::kl::gaussian_kl_to_anchor;
use metadpa_nn::loss::{bce_with_logits, mse};
use metadpa_nn::module::{Mode, Params};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

use crate::critic::CriticInfoNce;
use crate::cvae::{Cvae, CvaeConfig};

/// Hyper-parameters of one Dual-CVAE.
#[derive(Clone, Copy, Debug)]
pub struct DualCvaeConfig {
    /// Hidden width of all encoder/decoder stacks.
    pub hidden_dim: usize,
    /// Latent dimensionality (shared by both domains so latents can cross).
    pub latent_dim: usize,
    /// Weight β₁ of the MDI constraint (paper optimum: 0.1).
    pub beta1: f32,
    /// Weight β₂ of the ME constraint (paper optimum: 1.0).
    pub beta2: f32,
    /// InfoNCE temperature for both constraints.
    pub temperature: f32,
    /// Projection dimensionality of the ME critic heads.
    pub critic_dim: usize,
    /// Enables the MDI term (disabled in the MetaDPA-ME ablation).
    pub enable_mdi: bool,
    /// Enables the ME term (disabled in the MetaDPA-MDI ablation).
    pub enable_me: bool,
}

impl Default for DualCvaeConfig {
    /// The paper's searched optimum: β₁ = 0.1, β₂ = 1 (both datasets).
    fn default() -> Self {
        Self {
            hidden_dim: 96,
            latent_dim: 24,
            beta1: 0.1,
            beta2: 1.0,
            temperature: 0.2,
            critic_dim: 32,
            enable_mdi: true,
            enable_me: true,
        }
    }
}

/// Per-term loss values of one training step (batch averages).
#[derive(Clone, Copy, Debug, Default)]
pub struct DualCvaeLosses {
    /// BCE reconstruction (both domains, Eq. 2 likelihood part).
    pub reconstruction: f32,
    /// Content-anchored KL (Eq. 3).
    pub kl: f32,
    /// Latent alignment MSE (Eq. 4).
    pub mse_align: f32,
    /// Cross-domain reconstruction (Eq. 5).
    pub cross_reconstruction: f32,
    /// MDI InfoNCE value (Eq. 6, pre-β₁).
    pub mdi: f32,
    /// ME InfoNCE value (Eq. 7, pre-β₂).
    pub me: f32,
}

impl DualCvaeLosses {
    /// The weighted total of Eq. 8.
    pub fn total(&self, beta1: f32, beta2: f32) -> f32 {
        self.reconstruction
            + self.kl
            + self.mse_align
            + self.cross_reconstruction
            + beta1 * self.mdi
            + beta2 * self.me
    }

    fn add(&mut self, other: &DualCvaeLosses) {
        self.reconstruction += other.reconstruction;
        self.kl += other.kl;
        self.mse_align += other.mse_align;
        self.cross_reconstruction += other.cross_reconstruction;
        self.mdi += other.mdi;
        self.me += other.me;
    }

    fn scale(&mut self, s: f32) {
        self.reconstruction *= s;
        self.kl *= s;
        self.mse_align *= s;
        self.cross_reconstruction *= s;
        self.mdi *= s;
        self.me *= s;
    }

    /// Averages a collection of per-batch losses.
    pub fn mean(batch: &[DualCvaeLosses]) -> DualCvaeLosses {
        let mut out = DualCvaeLosses::default();
        if batch.is_empty() {
            return out;
        }
        for l in batch {
            out.add(l);
        }
        out.scale(1.0 / batch.len() as f32);
        out
    }
}

/// A source/target CVAE pair with MDI and ME constraints.
pub struct DualCvae {
    /// The source-domain CVAE.
    pub source: Cvae,
    /// The target-domain CVAE (its content encoder and decoder form the
    /// augmentation path).
    pub target: Cvae,
    me_critic: CriticInfoNce,
    mdi_nce: InfoNce,
    config: DualCvaeConfig,
}

impl DualCvae {
    /// Builds the pair for the given catalogue sizes and content
    /// dimensionality.
    pub fn new(
        n_source_items: usize,
        n_target_items: usize,
        content_dim: usize,
        config: DualCvaeConfig,
        rng: &mut SeededRng,
    ) -> Self {
        let source = Cvae::new(
            CvaeConfig {
                n_items: n_source_items,
                content_dim,
                hidden_dim: config.hidden_dim,
                latent_dim: config.latent_dim,
            },
            rng,
        );
        let target = Cvae::new(
            CvaeConfig {
                n_items: n_target_items,
                content_dim,
                hidden_dim: config.hidden_dim,
                latent_dim: config.latent_dim,
            },
            rng,
        );
        let me_critic = CriticInfoNce::new(
            n_source_items,
            n_target_items,
            config.critic_dim,
            config.temperature,
            rng,
        );
        let mdi_nce = InfoNce::new(config.temperature);
        Self { source, target, me_critic, mdi_nce, config }
    }

    /// The configuration this pair was built with.
    pub fn config(&self) -> DualCvaeConfig {
        self.config
    }

    /// One full forward/backward pass over a shared-user batch
    /// `(r_s, r_t, x_s, x_t)`. Accumulates gradients into every parameter;
    /// the caller applies the optimizer step.
    ///
    /// Constraint terms (MDI, ME) require at least 2 rows (InfoNCE needs
    /// in-batch negatives) and are skipped otherwise.
    ///
    /// # Panics
    /// Panics on batch-size or dimensionality mismatches.
    pub fn train_step(
        &mut self,
        r_s: &Matrix,
        r_t: &Matrix,
        x_s: &Matrix,
        x_t: &Matrix,
        rng: &mut SeededRng,
    ) -> DualCvaeLosses {
        let _span = metadpa_obs::span!("dual_cvae.train_step");
        let b = r_s.rows();
        assert!(b > 0, "DualCvae::train_step: empty batch");
        assert_eq!(r_t.rows(), b, "DualCvae: r_t batch mismatch");
        assert_eq!(x_s.rows(), b, "DualCvae: x_s batch mismatch");
        assert_eq!(x_t.rows(), b, "DualCvae: x_t batch mismatch");
        let mut losses = DualCvaeLosses::default();

        // ---------------- Encoders + sampling ----------------
        let (z_s, mu_s, lv_s) = self.source.encode_and_sample(r_s, x_s, rng, Mode::Train);
        let (z_t, mu_t, lv_t) = self.target.encode_and_sample(r_t, x_t, rng, Mode::Train);
        let zx_s = self.source.content_encode(x_s, Mode::Train);
        let zx_t = self.target.content_encode(x_t, Mode::Train);

        // Gradient accumulators on the sampled latents.
        let mut dz_s = Matrix::zeros(b, self.config.latent_dim);
        let mut dz_t = Matrix::zeros(b, self.config.latent_dim);

        // ---------------- Direct reconstruction + ME ----------------
        let logits_s = self.source.decode(&z_s, x_s, Mode::Train);
        let logits_t = self.target.decode(&z_t, x_t, Mode::Train);
        let (rec_s, mut g_logits_s) = bce_with_logits(&logits_s, r_s);
        let (rec_t, mut g_logits_t) = bce_with_logits(&logits_t, r_t);
        losses.reconstruction = rec_s + rec_t;

        if self.config.enable_me && b >= 2 {
            let probs_s = logits_s.map(metadpa_nn::activation::sigmoid);
            let probs_t = logits_t.map(metadpa_nn::activation::sigmoid);
            let me = self.me_critic.forward_backward(&probs_s, &probs_t, self.config.beta2);
            losses.me = me.loss;
            // Chain through the sigmoid: dL/dlogit = dL/dp * p(1-p).
            g_logits_s.add_inplace(&me.grad_a.zip_map(&probs_s, |g, p| g * p * (1.0 - p)));
            g_logits_t.add_inplace(&me.grad_b.zip_map(&probs_t, |g, p| g * p * (1.0 - p)));
        }

        // Backprop each decoder's *direct* use before its cross use.
        dz_s.add_inplace(&self.source.backward_decoder(&g_logits_s));
        dz_t.add_inplace(&self.target.backward_decoder(&g_logits_t));

        // ---------------- Cross-domain reconstruction (Eq. 5) ----------
        // Decode source ratings from the target latent, and vice versa;
        // each term carries the 1/2 of Eq. 5.
        let logits_s_cross = self.source.decode(&z_t, x_s, Mode::Train);
        let (cross_s, g_cross_s) = bce_with_logits(&logits_s_cross, r_s);
        dz_t.add_inplace(&self.source.backward_decoder(&g_cross_s.scale(0.5)));

        let logits_t_cross = self.target.decode(&z_s, x_t, Mode::Train);
        let (cross_t, g_cross_t) = bce_with_logits(&logits_t_cross, r_t);
        dz_s.add_inplace(&self.target.backward_decoder(&g_cross_t.scale(0.5)));
        losses.cross_reconstruction = 0.5 * (cross_s + cross_t);

        // ---------------- MDI (Eq. 6) ----------------
        if self.config.enable_mdi && b >= 2 {
            let mdi = self.mdi_nce.forward(&z_s, &z_t);
            losses.mdi = mdi.loss;
            dz_s.add_scaled_inplace(&mdi.grad_a, self.config.beta1);
            dz_t.add_scaled_inplace(&mdi.grad_b, self.config.beta1);
        }

        // ---------------- KL (Eq. 3) ----------------
        let kl_s = gaussian_kl_to_anchor(&mu_s, &lv_s, &zx_s);
        let kl_t = gaussian_kl_to_anchor(&mu_t, &lv_t, &zx_t);
        losses.kl = kl_s.loss + kl_t.loss;

        // ---------------- Latent alignment MSE (Eq. 4) ----------------
        let (mse_s, g_mse_zs) = mse(&z_s, &zx_s);
        let (mse_t, g_mse_zt) = mse(&z_t, &zx_t);
        losses.mse_align = mse_s + mse_t;
        dz_s.add_inplace(&g_mse_zs);
        dz_t.add_inplace(&g_mse_zt);
        // d/d zx of ||z - zx||^2 is the negation of d/dz.
        let g_zx_s = &kl_s.grad_anchor - &g_mse_zs;
        let g_zx_t = &kl_t.grad_anchor - &g_mse_zt;

        // ---------------- Encoder backward ----------------
        self.source.backward_encoder(&dz_s, &kl_s.grad_mu, &kl_s.grad_logvar);
        self.target.backward_encoder(&dz_t, &kl_t.grad_mu, &kl_t.grad_logvar);
        self.source.backward_content_encoder(&g_zx_s);
        self.target.backward_content_encoder(&g_zx_t);

        losses
    }

    /// Loss-only evaluation on a held-out batch (deterministic: `ε = 0`).
    pub fn eval_losses(
        &mut self,
        r_s: &Matrix,
        r_t: &Matrix,
        x_s: &Matrix,
        x_t: &Matrix,
    ) -> DualCvaeLosses {
        let mut rng = SeededRng::new(0); // unused in Eval mode
        let b = r_s.rows();
        let mut losses = DualCvaeLosses::default();
        let (z_s, mu_s, lv_s) = self.source.encode_and_sample(r_s, x_s, &mut rng, Mode::Eval);
        let (z_t, mu_t, lv_t) = self.target.encode_and_sample(r_t, x_t, &mut rng, Mode::Eval);
        let zx_s = self.source.content_encode(x_s, Mode::Eval);
        let zx_t = self.target.content_encode(x_t, Mode::Eval);
        let logits_s = self.source.decode(&z_s, x_s, Mode::Eval);
        let logits_t = self.target.decode(&z_t, x_t, Mode::Eval);
        losses.reconstruction =
            bce_with_logits(&logits_s, r_s).0 + bce_with_logits(&logits_t, r_t).0;
        if self.config.enable_me && b >= 2 {
            let probs_s = logits_s.map(metadpa_nn::activation::sigmoid);
            let probs_t = logits_t.map(metadpa_nn::activation::sigmoid);
            losses.me = self.me_critic.loss(&probs_s, &probs_t);
        }
        let logits_s_cross = self.source.decode(&z_t, x_s, Mode::Eval);
        let logits_t_cross = self.target.decode(&z_s, x_t, Mode::Eval);
        losses.cross_reconstruction = 0.5
            * (bce_with_logits(&logits_s_cross, r_s).0 + bce_with_logits(&logits_t_cross, r_t).0);
        if self.config.enable_mdi && b >= 2 {
            losses.mdi = self.mdi_nce.forward(&z_s, &z_t).loss;
        }
        losses.kl = gaussian_kl_to_anchor(&mu_s, &lv_s, &zx_s).loss
            + gaussian_kl_to_anchor(&mu_t, &lv_t, &zx_t).loss;
        losses.mse_align = mse(&z_s, &zx_s).0 + mse(&z_t, &zx_t).0;
        losses
    }

    /// The augmentation path (Fig. 1 red line): generate target-domain
    /// rating probabilities from target content alone.
    pub fn generate_target_ratings(&mut self, target_content: &Matrix) -> Matrix {
        let _span = metadpa_obs::span!("dual_cvae.generate");
        self.target.generate_from_content(target_content)
    }
}

impl Params for DualCvae {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.source.visit_params(visitor);
        self.target.visit_params(visitor);
        self.me_critic.visit_params(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_nn::module::zero_grad;
    use metadpa_nn::optim::{Adam, Optimizer};

    fn toy_batch(rng: &mut SeededRng, b: usize) -> (Matrix, Matrix, Matrix, Matrix) {
        let r_s = Matrix::from_fn(b, 15, |_, _| if rng.bernoulli(0.25) { 1.0 } else { 0.0 });
        let r_t = Matrix::from_fn(b, 12, |_, _| if rng.bernoulli(0.25) { 1.0 } else { 0.0 });
        let x_s = rng.uniform_matrix(b, 6, 0.0, 1.0);
        let x_t = rng.uniform_matrix(b, 6, 0.0, 1.0);
        (r_s, r_t, x_s, x_t)
    }

    fn small_config() -> DualCvaeConfig {
        DualCvaeConfig { hidden_dim: 16, latent_dim: 5, critic_dim: 8, ..DualCvaeConfig::default() }
    }

    #[test]
    fn train_step_produces_finite_losses_and_gradients() {
        let mut rng = SeededRng::new(1);
        let mut dual = DualCvae::new(15, 12, 6, small_config(), &mut rng);
        let (r_s, r_t, x_s, x_t) = toy_batch(&mut rng, 6);
        zero_grad(&mut dual);
        let losses = dual.train_step(&r_s, &r_t, &x_s, &x_t, &mut rng);
        for v in [
            losses.reconstruction,
            losses.kl,
            losses.mse_align,
            losses.cross_reconstruction,
            losses.mdi,
            losses.me,
        ] {
            assert!(v.is_finite(), "loss term {v} not finite");
        }
        let mut grad_norm = 0.0;
        dual.visit_params(&mut |p| grad_norm += p.grad.frobenius_norm());
        assert!(grad_norm > 0.0, "every parameter group should receive gradient");
        assert!(grad_norm.is_finite());
    }

    #[test]
    fn training_reduces_the_total_objective() {
        let mut rng = SeededRng::new(2);
        let mut dual = DualCvae::new(15, 12, 6, small_config(), &mut rng);
        let (r_s, r_t, x_s, x_t) = toy_batch(&mut rng, 10);
        let mut opt = Adam::new(0.005);
        let before = dual.eval_losses(&r_s, &r_t, &x_s, &x_t);
        for _ in 0..120 {
            zero_grad(&mut dual);
            let _ = dual.train_step(&r_s, &r_t, &x_s, &x_t, &mut rng);
            opt.step(&mut dual);
        }
        let after = dual.eval_losses(&r_s, &r_t, &x_s, &x_t);
        let cfg = dual.config();
        assert!(
            after.total(cfg.beta1, cfg.beta2) < before.total(cfg.beta1, cfg.beta2),
            "objective should drop: {:?} -> {:?}",
            before,
            after
        );
        assert!(
            after.reconstruction < before.reconstruction,
            "reconstruction should improve: {} -> {}",
            before.reconstruction,
            after.reconstruction
        );
    }

    #[test]
    fn disabled_constraints_report_zero_and_skip_gradients() {
        let mut rng = SeededRng::new(3);
        let cfg = DualCvaeConfig { enable_mdi: false, enable_me: false, ..small_config() };
        let mut dual = DualCvae::new(15, 12, 6, cfg, &mut rng);
        let (r_s, r_t, x_s, x_t) = toy_batch(&mut rng, 5);
        zero_grad(&mut dual);
        let losses = dual.train_step(&r_s, &r_t, &x_s, &x_t, &mut rng);
        assert_eq!(losses.mdi, 0.0);
        assert_eq!(losses.me, 0.0);
        // Critic heads receive no gradient when ME is disabled.
        let mut critic_grad = 0.0;
        dual.me_critic.visit_params(&mut |p| critic_grad += p.grad.frobenius_norm());
        assert_eq!(critic_grad, 0.0);
    }

    #[test]
    fn single_row_batch_skips_infonce_terms() {
        let mut rng = SeededRng::new(4);
        let mut dual = DualCvae::new(15, 12, 6, small_config(), &mut rng);
        let (r_s, r_t, x_s, x_t) = toy_batch(&mut rng, 1);
        let losses = dual.train_step(&r_s, &r_t, &x_s, &x_t, &mut rng);
        assert_eq!(losses.mdi, 0.0);
        assert_eq!(losses.me, 0.0);
        assert!(losses.reconstruction.is_finite());
    }

    #[test]
    fn mdi_training_raises_latent_mutual_information() {
        // Train with a strong MDI weight; the InfoNCE loss between z_s and
        // z_t on held-out data should end below its untrained value
        // (i.e. the latents of the same shared user become aligned).
        let mut rng = SeededRng::new(5);
        let cfg = DualCvaeConfig { beta1: 2.0, enable_me: false, ..small_config() };
        let mut dual = DualCvae::new(15, 12, 6, cfg, &mut rng);
        let (r_s, r_t, x_s, x_t) = toy_batch(&mut rng, 12);
        let mut opt = Adam::new(0.005);
        let before = dual.eval_losses(&r_s, &r_t, &x_s, &x_t).mdi;
        for _ in 0..150 {
            zero_grad(&mut dual);
            let _ = dual.train_step(&r_s, &r_t, &x_s, &x_t, &mut rng);
            opt.step(&mut dual);
        }
        let after = dual.eval_losses(&r_s, &r_t, &x_s, &x_t).mdi;
        assert!(after < before, "MDI InfoNCE should drop: {before} -> {after}");
    }

    #[test]
    fn generated_ratings_are_probabilities() {
        let mut rng = SeededRng::new(6);
        let mut dual = DualCvae::new(15, 12, 6, small_config(), &mut rng);
        let x_t = rng.uniform_matrix(7, 6, 0.0, 1.0);
        let gen = dual.generate_target_ratings(&x_t);
        assert_eq!(gen.shape(), (7, 12));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn losses_mean_averages_terms() {
        let a = DualCvaeLosses { reconstruction: 1.0, kl: 2.0, ..Default::default() };
        let b = DualCvaeLosses { reconstruction: 3.0, kl: 0.0, ..Default::default() };
        let m = DualCvaeLosses::mean(&[a, b]);
        assert_eq!(m.reconstruction, 2.0);
        assert_eq!(m.kl, 1.0);
        assert_eq!(DualCvaeLosses::mean(&[]).reconstruction, 0.0);
    }
}
