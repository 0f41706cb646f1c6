//! One conditional VAE (half of a Dual-CVAE, paper Fig. 1).
//!
//! Three networks per domain:
//!
//! * **Rating encoder** `q_φ(z | r, x)`: a 2-layer net over the
//!   concatenation `[r ; x]` emitting `[μ ; log σ²]`.
//! * **Content encoder** `E^x` (`q_φx(z^x | x)`): a 2-layer net mapping the
//!   content embedding to the latent space. Its output anchors the KL term
//!   (Eq. 3) and aligns with sampled latents via the MSE term (Eq. 4), which
//!   is what lets the augmentation step decode ratings from content alone.
//! * **Decoder** `p_θ(r | z, x)`: a 2-layer net over `[z ; x]` producing
//!   per-item *logits*.
//!
//! On the output nonlinearity: the paper says the decoder output layer uses
//! softmax yet trains with binary cross-entropy. A softmax over hundreds of
//! items cannot reach the target value 1 for any single item, so (like the
//! HCVAE reference implementation the paper builds on) we use the sigmoid +
//! BCE-with-logits pairing; probabilities still land in `[0, 1]` as the
//! paper requires of the generated ratings.
//!
//! The struct exposes the forward pieces separately (encode /
//! reparameterize / decode / content-encode) because the Dual-CVAE training
//! step interleaves them with cross-domain paths; each `backward_*`
//! mirrors the most recent matching forward.

use metadpa_nn::activation::sigmoid;
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{Mode, Module, Params};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

/// Architecture hyper-parameters of one CVAE.
#[derive(Clone, Copy, Debug)]
pub struct CvaeConfig {
    /// Number of items in the domain (`r` dimensionality).
    pub n_items: usize,
    /// Content embedding dimensionality (`x` dimensionality).
    pub content_dim: usize,
    /// Hidden width of the 2-layer encoder/decoder stacks.
    pub hidden_dim: usize,
    /// Latent dimensionality `L`.
    pub latent_dim: usize,
}

/// The cached state of the most recent encode/reparameterize pass.
struct EncodeCache {
    logvar: Matrix,
    eps: Matrix,
}

/// Reused forward/backward scratch. Every buffer keeps its high-water
/// capacity, so a steady-state training step only allocates what the API
/// contracts return to the caller (`z`, `μ`, `logvar`, decode logits, `dz`)
/// plus the fresh noise draw.
#[derive(Default)]
struct CvaeScratch {
    enc_in: Matrix,
    enc_out: Matrix,
    dmu: Matrix,
    dlv: Matrix,
    up: Matrix,
    dx: Matrix,
    dec_in: Matrix,
    grad: Matrix,
    dinput: Matrix,
    dx_disc: Matrix,
}

/// One conditional VAE.
pub struct Cvae {
    config: CvaeConfig,
    encoder: Mlp,
    content_encoder: Mlp,
    decoder: Mlp,
    cache: Option<EncodeCache>,
    ws: CvaeScratch,
}

impl Cvae {
    /// Builds a CVAE with tanh hidden layers (following HCVAE).
    pub fn new(config: CvaeConfig, rng: &mut SeededRng) -> Self {
        assert!(config.latent_dim > 0 && config.hidden_dim > 0, "Cvae: zero-sized layers");
        let encoder = Mlp::new(
            &[config.n_items + config.content_dim, config.hidden_dim, 2 * config.latent_dim],
            Activation::Tanh,
            rng,
        );
        let content_encoder = Mlp::new(
            &[config.content_dim, config.hidden_dim, config.latent_dim],
            Activation::Tanh,
            rng,
        );
        let decoder = Mlp::new(
            &[config.latent_dim + config.content_dim, config.hidden_dim, config.n_items],
            Activation::Tanh,
            rng,
        );
        Self { config, encoder, content_encoder, decoder, cache: None, ws: CvaeScratch::default() }
    }

    /// Architecture parameters.
    pub fn config(&self) -> CvaeConfig {
        self.config
    }

    /// Encodes `(r, x)` into the posterior `(μ, log σ²)` and samples
    /// `z = μ + σ ⊙ ε` with fresh noise from `rng`. Caches everything the
    /// backward pass needs. Returns `(z, μ, logvar)`.
    pub fn encode_and_sample(
        &mut self,
        ratings: &Matrix,
        content: &Matrix,
        rng: &mut SeededRng,
        mode: Mode,
    ) -> (Matrix, Matrix, Matrix) {
        assert_eq!(ratings.rows(), content.rows(), "Cvae: batch size mismatch");
        let Self { config, encoder, cache, ws, .. } = self;
        ratings.hstack_into(content, &mut ws.enc_in);
        encoder.forward_into(&mut ws.enc_in, mode, &mut ws.enc_out);
        // Retained allocations: μ, logvar and z are all returned to the
        // caller, so they cannot live in the scratch buffers.
        let (mu, mut logvar) = ws.enc_out.hsplit(config.latent_dim);
        logvar.map_inplace(|v| v.clamp(-8.0, 8.0));
        let eps = if mode == Mode::Train {
            rng.normal_matrix(mu.rows(), mu.cols())
        } else {
            Matrix::zeros(mu.rows(), mu.cols())
        };
        // z = mu + exp(0.5 lv) * eps, fused but with the per-element
        // expression shape of the old sigma/hadamard/add chain.
        let mut z = logvar.zip_map(&eps, |v, e| (0.5 * v).exp() * e);
        z.zip_map_inplace(&mu, |t, m| m + t);
        match cache {
            Some(c) => {
                c.logvar.assign(&logvar);
                c.eps = eps;
            }
            None => *cache = Some(EncodeCache { logvar: logvar.clone(), eps }),
        }
        (z, mu, logvar)
    }

    /// Backpropagates through the sampler and encoder.
    ///
    /// `grad_z` is the gradient reaching the sampled latent; `grad_mu` and
    /// `grad_logvar` are *additional* direct gradients on the posterior
    /// parameters (from the KL term). Accumulates encoder parameter
    /// gradients; the gradient w.r.t. the inputs is discarded (ratings and
    /// content are data).
    ///
    /// # Panics
    /// Panics if called before [`Cvae::encode_and_sample`].
    pub fn backward_encoder(&mut self, grad_z: &Matrix, grad_mu: &Matrix, grad_logvar: &Matrix) {
        self.sampler_backward(grad_z, grad_mu, grad_logvar);
        let CvaeScratch { up, dx, .. } = &mut self.ws;
        self.encoder.backward_params(up, dx);
    }

    /// The gradient at the encoder output `[μ ; log σ²]`, into `ws.up`.
    fn sampler_backward(&mut self, grad_z: &Matrix, grad_mu: &Matrix, grad_logvar: &Matrix) {
        let Self { cache, ws, .. } = self;
        let cache = cache.as_ref().expect("Cvae::backward_encoder before encode");
        // z = mu + exp(0.5 lv) * eps
        // dz/dmu = 1; dz/dlv = 0.5 * exp(0.5 lv) * eps.
        // Each in-place step below keeps the old chain's per-element
        // expression shape: ((g * sigma) * eps) * 0.5 + grad_logvar.
        grad_z.zip_map_into(&cache.logvar, |g, v| g * (0.5 * v).exp(), &mut ws.dlv);
        ws.dlv.zip_map_inplace(&cache.eps, |t, e| t * e);
        ws.dlv.map_inplace(|t| t * 0.5);
        ws.dlv.zip_map_inplace(grad_logvar, |t, g| t + g);
        grad_z.zip_map_into(grad_mu, |a, b| a + b, &mut ws.dmu);
        ws.dmu.hstack_into(&ws.dlv, &mut ws.up);
    }

    /// Runs the content encoder `E^x`, returning the anchor `z^x`.
    pub fn content_encode(&mut self, content: &Matrix, mode: Mode) -> Matrix {
        self.content_encoder.forward(content, mode)
    }

    /// Backpropagates `grad` through the content encoder (parameter
    /// gradients accumulate; input gradient discarded).
    pub fn backward_content_encoder(&mut self, grad: &Matrix) {
        let Self { content_encoder, ws, .. } = self;
        ws.grad.assign(grad);
        content_encoder.backward_params(&mut ws.grad, &mut ws.dx);
    }

    /// Decodes `(z, x)` into per-item logits.
    pub fn decode(&mut self, z: &Matrix, content: &Matrix, mode: Mode) -> Matrix {
        assert_eq!(z.rows(), content.rows(), "Cvae::decode: batch size mismatch");
        assert_eq!(z.cols(), self.config.latent_dim, "Cvae::decode: latent dim mismatch");
        let Self { decoder, ws, .. } = self;
        z.hstack_into(content, &mut ws.dec_in);
        // Retained allocation: the logits are the return value.
        let mut logits = Matrix::default();
        decoder.forward_into(&mut ws.dec_in, mode, &mut logits);
        logits
    }

    /// Backpropagates through the *most recent* decode, returning the
    /// gradient w.r.t. the latent `z` (the content part is discarded).
    pub fn backward_decoder(&mut self, grad_logits: &Matrix) -> Matrix {
        let Self { config, decoder, ws, .. } = self;
        ws.grad.assign(grad_logits);
        decoder.backward_into(&mut ws.grad, &mut ws.dinput);
        // Retained allocation: `dz` is the return value.
        let mut dz = Matrix::default();
        ws.dinput.hsplit_into(config.latent_dim, &mut dz, &mut ws.dx_disc);
        dz
    }

    /// The augmentation path of Fig. 1 (red line): decode ratings *from
    /// content alone* by using the content-encoder output as the latent.
    /// Returns probabilities in `[0, 1]`.
    pub fn generate_from_content(&mut self, content: &Matrix) -> Matrix {
        let z = self.content_encode(content, Mode::Eval);
        let mut probs = self.decode(&z, content, Mode::Eval);
        probs.map_inplace(sigmoid);
        probs
    }
}

impl Params for Cvae {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(visitor);
        self.content_encoder.visit_params(visitor);
        self.decoder.visit_params(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_nn::loss::bce_with_logits;
    use metadpa_nn::module::zero_grad;
    use metadpa_nn::optim::{Adam, Optimizer};

    fn config() -> CvaeConfig {
        CvaeConfig { n_items: 20, content_dim: 8, hidden_dim: 16, latent_dim: 4 }
    }

    fn batch(rng: &mut SeededRng, n: usize) -> (Matrix, Matrix) {
        let ratings = Matrix::from_fn(n, 20, |_, _| if rng.bernoulli(0.2) { 1.0 } else { 0.0 });
        let content = rng.uniform_matrix(n, 8, 0.0, 1.0);
        (ratings, content)
    }

    #[test]
    fn shapes_flow_through_all_paths() {
        let mut rng = SeededRng::new(1);
        let mut cvae = Cvae::new(config(), &mut rng);
        let (r, x) = batch(&mut rng, 5);
        let (z, mu, lv) = cvae.encode_and_sample(&r, &x, &mut rng, Mode::Train);
        assert_eq!(z.shape(), (5, 4));
        assert_eq!(mu.shape(), (5, 4));
        assert_eq!(lv.shape(), (5, 4));
        let zx = cvae.content_encode(&x, Mode::Train);
        assert_eq!(zx.shape(), (5, 4));
        let logits = cvae.decode(&z, &x, Mode::Train);
        assert_eq!(logits.shape(), (5, 20));
        let gen = cvae.generate_from_content(&x);
        assert_eq!(gen.shape(), (5, 20));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn eval_mode_sampling_is_deterministic() {
        let mut rng = SeededRng::new(2);
        let mut cvae = Cvae::new(config(), &mut rng);
        let (r, x) = batch(&mut rng, 3);
        let (z1, mu1, _) = cvae.encode_and_sample(&r, &x, &mut rng, Mode::Eval);
        let (z2, _, _) = cvae.encode_and_sample(&r, &x, &mut rng, Mode::Eval);
        // In eval mode eps = 0, so z == mu and repeated calls agree.
        assert_eq!(z1, mu1);
        assert_eq!(z1, z2);
    }

    #[test]
    fn reconstruction_training_reduces_loss() {
        // Train the plain autoencoding path on a fixed batch; BCE must drop
        // substantially, demonstrating that gradients flow end-to-end
        // through sampler, encoder, and decoder.
        let mut rng = SeededRng::new(3);
        let mut cvae = Cvae::new(config(), &mut rng);
        let (r, x) = batch(&mut rng, 12);
        let mut opt = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            zero_grad(&mut cvae);
            let (z, _, _) = cvae.encode_and_sample(&r, &x, &mut rng, Mode::Train);
            let logits = cvae.decode(&z, &x, Mode::Train);
            let (loss, grad) = bce_with_logits(&logits, &r);
            let dz = cvae.backward_decoder(&grad);
            let zero = Matrix::zeros(dz.rows(), dz.cols());
            cvae.backward_encoder(&dz, &zero, &zero);
            opt.step(&mut cvae);
            first.get_or_insert(loss);
            last = loss;
        }
        let first = first.unwrap();
        assert!(last < first * 0.6, "reconstruction loss should drop: {first} -> {last}");
    }

    #[test]
    fn sampler_gradient_matches_finite_difference_through_mu() {
        // Freeze eps by capturing it from the cache; perturb encoder output
        // indirectly via grad check on mu-path: compare analytic dz->dmu
        // identity using the public API. Here we validate that with
        // grad_z = g, grad_mu = 0, the encoder receives exactly g on the mu
        // half (dz/dmu = I): train a 1-step SGD on a linear probe.
        let mut rng = SeededRng::new(4);
        let mut cvae = Cvae::new(config(), &mut rng);
        let (r, x) = batch(&mut rng, 4);
        let _ = cvae.encode_and_sample(&r, &x, &mut rng, Mode::Eval); // eps = 0
                                                                      // With eps = 0: dlv_from_z = 0, so upstream = [g ; grad_logvar].
                                                                      // Passing grad_logvar = 0 must not produce NaNs and must accumulate
                                                                      // some encoder gradient.
        let g = Matrix::filled(4, 4, 1.0);
        let zero = Matrix::zeros(4, 4);
        zero_grad(&mut cvae);
        cvae.backward_encoder(&g, &zero, &zero);
        let mut total = 0.0f32;
        cvae.visit_params(&mut |p| total += p.grad.frobenius_norm());
        assert!(total > 0.0, "encoder must receive gradient");
        assert!(total.is_finite());
    }

    #[test]
    fn encoder_backward_matches_the_full_backward_bitwise() {
        // `backward_encoder` / `backward_content_encoder` skip the input
        // gradients; the parameter gradients must equal those of the full
        // `backward_into` chain, at any thread count and SIMD setting, over
        // accumulating steps. Books-like widths take the blocked, SIMD and
        // row-parallel matmul paths.
        use metadpa_nn::module::{restore, snapshot, snapshot_grads};
        use metadpa_tensor::pool::with_threads;
        use metadpa_tensor::simd::{self, Policy};
        let cfg = CvaeConfig { n_items: 300, content_dim: 48, hidden_dim: 32, latent_dim: 8 };
        let bits = |ms: Vec<Matrix>| -> Vec<Vec<u32>> {
            ms.iter().map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
        };
        for threads in [1, 2] {
            for policy in [Policy::ForcedScalar, Policy::Auto] {
                with_threads(threads, || {
                    simd::with_policy(policy, || {
                        let mut rng = SeededRng::new(8);
                        let mut fast = Cvae::new(cfg, &mut rng);
                        let mut full = Cvae::new(cfg, &mut SeededRng::new(0));
                        restore(&mut full, &snapshot(&mut fast));
                        zero_grad(&mut fast);
                        zero_grad(&mut full);
                        for step in 0..3 {
                            let r =
                                Matrix::from_fn(160, 300, |i, j| ((i * 7 + j * step) % 5) as f32);
                            let x = rng.normal_matrix(160, 48);
                            let (gz, gmu, glv) = (
                                rng.normal_matrix(160, 8),
                                rng.normal_matrix(160, 8),
                                rng.normal_matrix(160, 8),
                            );
                            let gzx = rng.normal_matrix(160, 8);
                            let seed = rng.gen_index(1 << 30) as u64;
                            let _ = fast.encode_and_sample(
                                &r,
                                &x,
                                &mut SeededRng::new(seed),
                                Mode::Train,
                            );
                            let _ = full.encode_and_sample(
                                &r,
                                &x,
                                &mut SeededRng::new(seed),
                                Mode::Train,
                            );
                            let _ = fast.content_encode(&x, Mode::Train);
                            let _ = full.content_encode(&x, Mode::Train);

                            fast.backward_encoder(&gz, &gmu, &glv);
                            fast.backward_content_encoder(&gzx);
                            full.sampler_backward(&gz, &gmu, &glv);
                            let CvaeScratch { up, dx, .. } = &mut full.ws;
                            full.encoder.backward_into(up, dx);
                            let _ = full.content_encoder.backward(&gzx);

                            assert_eq!(
                                bits(snapshot_grads(&mut fast)),
                                bits(snapshot_grads(&mut full)),
                                "step {step}, threads {threads}, {policy:?}"
                            );
                        }
                    })
                });
            }
        }
    }

    #[test]
    fn generate_from_content_is_deterministic() {
        let mut rng = SeededRng::new(5);
        let mut cvae = Cvae::new(config(), &mut rng);
        let (_, x) = batch(&mut rng, 3);
        let a = cvae.generate_from_content(&x);
        let b = cvae.generate_from_content(&x);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "before encode")]
    fn backward_encoder_requires_forward() {
        let mut rng = SeededRng::new(6);
        let mut cvae = Cvae::new(config(), &mut rng);
        let z = Matrix::zeros(1, 4);
        cvae.backward_encoder(&z, &z, &z);
    }
}
