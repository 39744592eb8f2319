//! Long short-term memory (LSTM) layer with full backpropagation through
//! time, used by the paper's atmospheric-CO₂ autoregressive forecaster.

use crate::error::NnError;
use crate::layer::{Layer, Mode, Param};
use crate::plan::{OperandId, PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::gemm::gemm_prepacked_b;
use invnorm_tensor::scratch::uninit_slice;
use invnorm_tensor::{ops, vecmath, ArenaSlot, Rng, Scratch, Tensor};

/// Gate activations cached for one timestep.
#[derive(Debug, Clone)]
struct StepCache {
    x: Tensor,      // [N, F]
    h_prev: Tensor, // [N, H]
    c_prev: Tensor, // [N, H]
    i: Tensor,      // input gate
    f: Tensor,      // forget gate
    g: Tensor,      // cell candidate
    o: Tensor,      // output gate
    tanh_c: Tensor, // tanh(new cell state)
}

impl StepCache {
    /// A zeroed cache for one timestep, reused (overwritten in full) across
    /// training forwards with the same `[N, T, F]` geometry.
    fn zeros(n: usize, feat: usize, h: usize) -> Self {
        Self {
            x: Tensor::zeros(&[n, feat]),
            h_prev: Tensor::zeros(&[n, h]),
            c_prev: Tensor::zeros(&[n, h]),
            i: Tensor::zeros(&[n, h]),
            f: Tensor::zeros(&[n, h]),
            g: Tensor::zeros(&[n, h]),
            o: Tensor::zeros(&[n, h]),
            tanh_c: Tensor::zeros(&[n, h]),
        }
    }
}

/// A single-layer LSTM over `[N, T, F]` sequences.
///
/// With `return_sequences == true` the output is the full hidden sequence
/// `[N, T, H]`; otherwise only the final hidden state `[N, H]` is returned
/// (the usual choice before a regression head).
///
/// Gate order in the packed weight matrices is `input, forget, cell, output`.
///
/// Evaluation-mode forwards run a buffer-reusing fast path: the per-timestep
/// input slice and gate pre-activations live in a [`Scratch`] and the gate
/// math updates the recurrent state in place, so the Monte-Carlo hot loop
/// performs no per-timestep allocations. Training-mode forwards retain the
/// per-step caches needed by backpropagation through time. A compiled plan
/// runs the same recurrence on arena slots against the plan-owned faulty
/// `w_ih` and `w_hh` panels.
#[derive(Debug)]
pub struct Lstm {
    input_size: usize,
    hidden_size: usize,
    return_sequences: bool,
    w_ih: Param, // [4H, F]
    w_hh: Param, // [4H, H]
    bias: Param, // [4H]
    cache: Option<Vec<StepCache>>,
    scratch: Scratch,
    plan: Option<LstmPlan>,
}

/// Compiled-plan state: the ids of the two plan-owned weight operands, the
/// arena slots of one realization's recurrence (the staged input step, the
/// gate pre-activations and the `(h, c)` state) and the GEMM packing
/// workspace.
#[derive(Debug)]
struct LstmPlan {
    w_ih: OperandId,
    w_hh: OperandId,
    x_t: ArenaSlot,
    z: ArenaSlot,
    h: ArenaSlot,
    c: ArenaSlot,
    scratch: Scratch,
}

impl Lstm {
    /// Creates an LSTM layer.
    pub fn new(
        input_size: usize,
        hidden_size: usize,
        return_sequences: bool,
        rng: &mut Rng,
    ) -> Self {
        let bound = 1.0 / (hidden_size as f32).sqrt();
        Self {
            input_size,
            hidden_size,
            return_sequences,
            w_ih: Param::new(Tensor::rand_uniform(
                &[4 * hidden_size, input_size],
                -bound,
                bound,
                rng,
            )),
            w_hh: Param::new(Tensor::rand_uniform(
                &[4 * hidden_size, hidden_size],
                -bound,
                bound,
                rng,
            )),
            bias: Param::new(Tensor::rand_uniform(&[4 * hidden_size], -bound, bound, rng)),
            cache: None,
            scratch: Scratch::new(),
            plan: None,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Whether the full hidden sequence is returned.
    pub fn returns_sequences(&self) -> bool {
        self.return_sequences
    }

    /// Applies the gate nonlinearities to one staged pre-activation row
    /// `[i | f | g | o]` in place through the tier-dispatched vectorized
    /// kernels: `i`, `f` (contiguous) and `o` are sigmoids, `g` is tanh.
    fn activate_gates(zrow: &mut [f32], h: usize) {
        vecmath::sigmoid_mut(&mut zrow[..2 * h]);
        vecmath::tanh_mut(&mut zrow[2 * h..3 * h]);
        vecmath::sigmoid_mut(&mut zrow[3 * h..]);
    }
}

impl Lstm {
    /// Inference fast path: gate pre-activations and the input slice live in
    /// the layer scratch, the recurrent state is updated in place, and no
    /// step caches are built. Identical math to the training path.
    fn forward_eval(&mut self, input: &Tensor) -> Result<Tensor> {
        let d = input.dims();
        let (n, t, feat) = (d[0], d[1], d[2]);
        let h = self.hidden_size;
        let mut h_state = vec![0.0f32; n * h];
        let mut c_state = vec![0.0f32; n * h];
        let mut hidden_seq = vec![0.0f32; if self.return_sequences { n * t * h } else { 0 }];
        let (w_ih, w_hh) = (self.w_ih.value.data(), self.w_hh.value.data());
        Self::recur(
            input.data(),
            (n, t, feat),
            self.bias.value.data(),
            uninit_slice(&mut self.scratch.step, n * feat),
            uninit_slice(&mut self.scratch.out_mat, n * 4 * h),
            (&mut h_state, &mut c_state),
            self.return_sequences.then_some(hidden_seq.as_mut_slice()),
            |x_t, h_prev, z| {
                ops::gemm(false, true, n, 4 * h, feat, x_t, w_ih, false, z);
                ops::gemm(false, true, n, 4 * h, h, h_prev, w_hh, true, z);
            },
        );
        if self.return_sequences {
            Ok(Tensor::from_vec(hidden_seq, &[n, t, h])?)
        } else {
            Ok(Tensor::from_vec(h_state, &[n, h])?)
        }
    }

    /// The eval recurrence over `n` sequences of `t` steps of `feat`
    /// features, shared by the direct path and the planned node, which
    /// differ only in `project`. Per timestep it stages `x_t`, lets
    /// `project(x_t, h, z)` write the gate pre-activations
    /// `z = x_t W_ihᵀ + h W_hhᵀ` (`[n, 4H]`, the recurrent term accumulated
    /// into `z`), then adds the bias, applies the gates and updates the
    /// `(h, c)` state in place (zeroed by the caller). With `seq`, every
    /// step's hidden state also lands in its `[n, t, H]` slot.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn recur(
        input: &[f32],
        (n, t, feat): (usize, usize, usize),
        bias: &[f32],
        x_t: &mut [f32],
        z: &mut [f32],
        (h_state, c_state): (&mut [f32], &mut [f32]),
        mut seq: Option<&mut [f32]>,
        mut project: impl FnMut(&[f32], &[f32], &mut [f32]),
    ) {
        let h = bias.len() / 4;
        for ti in 0..t {
            for ni in 0..n {
                let src = (ni * t + ti) * feat;
                x_t[ni * feat..(ni + 1) * feat].copy_from_slice(&input[src..src + feat]);
            }
            project(x_t, h_state, z);
            for ni in 0..n {
                let zrow = &mut z[ni * 4 * h..(ni + 1) * 4 * h];
                for (zv, bv) in zrow.iter_mut().zip(bias) {
                    *zv += bv;
                }
                Self::activate_gates(zrow, h);
                for hi in 0..h {
                    let (i, f, g, o) = (zrow[hi], zrow[h + hi], zrow[2 * h + hi], zrow[3 * h + hi]);
                    let c = f * c_state[ni * h + hi] + i * g;
                    c_state[ni * h + hi] = c;
                    h_state[ni * h + hi] = o * vecmath::tanh_scalar(c);
                }
                if let Some(seq) = seq.as_deref_mut() {
                    let dst = (ni * t + ti) * h;
                    seq[dst..dst + h].copy_from_slice(&h_state[ni * h..(ni + 1) * h]);
                }
            }
        }
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let d = input.dims();
        if d.len() != 3 || d[2] != self.input_size {
            return Err(NnError::Config(format!(
                "Lstm expects [N, T, {}], got {d:?}",
                self.input_size
            )));
        }
        if !mode.is_train() {
            // No backward pass will follow; drop any stale training cache and
            // take the allocation-free path.
            self.cache = None;
            return self.forward_eval(input);
        }
        let (n, t, feat) = (d[0], d[1], d[2]);
        let h = self.hidden_size;
        // Reuse the previous training step's caches when the geometry
        // matches: every tensor below is overwritten in full, so a
        // steady-state training loop performs no per-timestep allocations
        // beyond the returned output.
        let mut caches = match self.cache.take() {
            Some(caches)
                if caches.len() == t
                    && caches
                        .first()
                        .is_some_and(|c| c.x.dims() == [n, feat] && c.i.dims() == [n, h]) =>
            {
                caches
            }
            _ => (0..t).map(|_| StepCache::zeros(n, feat, h)).collect(),
        };
        let mut h_state = vec![0.0f32; n * h];
        let mut c_state = vec![0.0f32; n * h];
        let mut hidden_seq = if self.return_sequences {
            vec![0.0f32; n * t * h]
        } else {
            Vec::new()
        };
        let id = input.data();
        let w_ih = self.w_ih.value.data();
        let w_hh = self.w_hh.value.data();
        let bd = self.bias.value.data();
        let z = uninit_slice(&mut self.scratch.out_mat, n * 4 * h);
        for (ti, cache) in caches.iter_mut().enumerate() {
            let StepCache {
                x,
                h_prev,
                c_prev,
                i,
                f,
                g,
                o,
                tanh_c,
            } = cache;
            // Stage x_t = input[:, ti, :] and the incoming recurrent state
            // directly into the step cache.
            let xd = x.data_mut();
            for ni in 0..n {
                let src = (ni * t + ti) * feat;
                xd[ni * feat..(ni + 1) * feat].copy_from_slice(&id[src..src + feat]);
            }
            h_prev.data_mut().copy_from_slice(&h_state);
            c_prev.data_mut().copy_from_slice(&c_state);
            // z = x W_ihᵀ + h_prev W_hhᵀ : [N, 4H], recurrent term accumulated
            // into z — the same two GEMMs as the eval fast path.
            ops::gemm(false, true, n, 4 * h, feat, xd, w_ih, false, z);
            ops::gemm(false, true, n, 4 * h, h, &h_state, w_hh, true, z);
            let (idata, fdata, gdata, odata, tdata) = (
                i.data_mut(),
                f.data_mut(),
                g.data_mut(),
                o.data_mut(),
                tanh_c.data_mut(),
            );
            for ni in 0..n {
                let zrow = &mut z[ni * 4 * h..(ni + 1) * 4 * h];
                for (zv, bv) in zrow.iter_mut().zip(bd.iter()) {
                    *zv += bv;
                }
                Self::activate_gates(zrow, h);
                for hi in 0..h {
                    let (iv, fv, gv, ov) =
                        (zrow[hi], zrow[h + hi], zrow[2 * h + hi], zrow[3 * h + hi]);
                    let c = fv * c_state[ni * h + hi] + iv * gv;
                    let tc = vecmath::tanh_scalar(c);
                    idata[ni * h + hi] = iv;
                    fdata[ni * h + hi] = fv;
                    gdata[ni * h + hi] = gv;
                    odata[ni * h + hi] = ov;
                    tdata[ni * h + hi] = tc;
                    c_state[ni * h + hi] = c;
                    h_state[ni * h + hi] = ov * tc;
                }
                if self.return_sequences {
                    let dst = (ni * t + ti) * h;
                    hidden_seq[dst..dst + h].copy_from_slice(&h_state[ni * h..(ni + 1) * h]);
                }
            }
        }
        self.cache = Some(caches);

        if self.return_sequences {
            Ok(Tensor::from_vec(hidden_seq, &[n, t, h])?)
        } else {
            Ok(Tensor::from_vec(h_state, &[n, h])?)
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let caches = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Lstm"))?;
        let t = caches.len();
        if t == 0 {
            return Err(NnError::Config("Lstm backward on empty sequence".into()));
        }
        let n = caches[0].x.dims()[0];
        let feat = self.input_size;
        let h = self.hidden_size;

        let mut grad_input = Tensor::zeros(&[n, t, feat]);
        // Recurrent state gradients: small per-call buffers reused across
        // timesteps. The larger staging matrices (packed gate gradients, the
        // input gradient slice and the bias column sums) live in the layer
        // scratch, so a steady-state training loop allocates nothing per
        // step.
        let mut dh = vec![0.0f32; n * h];
        let mut dh_next = vec![0.0f32; n * h];
        let mut dc_next = vec![0.0f32; n * h];
        let dz = uninit_slice(&mut self.scratch.step, n * 4 * h);
        let dx = uninit_slice(&mut self.scratch.cols, n * feat);
        let bias_sums = uninit_slice(&mut self.scratch.packed_b, 4 * h);
        let god = grad_output.data();

        for ti in (0..t).rev() {
            let cache = &caches[ti];
            // dh = external gradient on h_t + recurrent gradient.
            for ni in 0..n {
                for hi in 0..h {
                    let ext = if self.return_sequences {
                        god[(ni * t + ti) * h + hi]
                    } else if ti == t - 1 {
                        god[ni * h + hi]
                    } else {
                        0.0
                    };
                    dh[ni * h + hi] = ext + dh_next[ni * h + hi];
                }
            }
            let (id, fd, gd, od, td, cpd) = (
                cache.i.data(),
                cache.f.data(),
                cache.g.data(),
                cache.o.data(),
                cache.tanh_c.data(),
                cache.c_prev.data(),
            );
            for e in 0..n * h {
                // dо = dh·tanh(c); dc = dh·o·(1 − tanh²(c)) + dc_next.
                let do_ = dh[e] * td[e];
                let dc = dh[e] * od[e] * (1.0 - td[e] * td[e]) + dc_next[e];
                let di = dc * gd[e];
                let dg = dc * id[e];
                let df = dc * cpd[e];
                dc_next[e] = dc * fd[e];
                // Gate pre-activation gradients, packed [N, 4H] in gate
                // order (input, forget, cell, output).
                let (ni, hi) = (e / h, e % h);
                let base = ni * 4 * h;
                dz[base + hi] = di * id[e] * (1.0 - id[e]);
                dz[base + h + hi] = df * fd[e] * (1.0 - fd[e]);
                dz[base + 2 * h + hi] = dg * (1.0 - gd[e] * gd[e]);
                dz[base + 3 * h + hi] = do_ * od[e] * (1.0 - od[e]);
            }

            // Parameter gradients, accumulated in place.
            ops::gemm(
                true,
                false,
                4 * h,
                feat,
                n,
                dz,
                cache.x.data(),
                true,
                self.w_ih.grad.data_mut(),
            );
            ops::gemm(
                true,
                false,
                4 * h,
                h,
                n,
                dz,
                cache.h_prev.data(),
                true,
                self.w_hh.grad.data_mut(),
            );
            bias_sums.fill(0.0);
            for ni in 0..n {
                for (s, &g) in bias_sums.iter_mut().zip(&dz[ni * 4 * h..(ni + 1) * 4 * h]) {
                    *s += g;
                }
            }
            for (g, &s) in self.bias.grad.data_mut().iter_mut().zip(bias_sums.iter()) {
                *g += s;
            }

            // Input and recurrent gradients.
            ops::gemm(
                false,
                false,
                n,
                feat,
                4 * h,
                dz,
                self.w_ih.value.data(),
                false,
                dx,
            );
            ops::gemm(
                false,
                false,
                n,
                h,
                4 * h,
                dz,
                self.w_hh.value.data(),
                false,
                &mut dh_next,
            );

            // Scatter dx into grad_input[:, ti, :].
            let gid = grad_input.data_mut();
            for ni in 0..n {
                let dst = (ni * t + ti) * feat;
                for fi in 0..feat {
                    gid[dst + fi] += dx[ni * feat + fi];
                }
            }
        }
        Ok(grad_input)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.w_ih);
        visitor(&mut self.w_hh);
        visitor(&mut self.bias);
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        let batch = arenas.batch();
        let d = &input.dims;
        if d.len() != 3 || d[2] != self.input_size || !d[0].is_multiple_of(batch) {
            return Err(NnError::Config(format!(
                "Lstm expects input [N, T, {}] (N divisible by the plan batch {batch}), got {d:?}",
                self.input_size
            )));
        }
        let (rows, t, feat) = (d[0], d[1], d[2]);
        let (n, h) = (rows / batch, self.hidden_size);
        let weights = &mut arenas.weights;
        self.plan = Some(LstmPlan {
            w_ih: weights.register(self.w_ih.value.data(), feat, 4 * h, false)?,
            w_hh: weights.register(self.w_hh.value.data(), h, 4 * h, false)?,
            x_t: arenas.f.reserve(n * feat),
            z: arenas.f.reserve(n * 4 * h),
            h: arenas.f.reserve(n * h),
            c: arenas.f.reserve(n * h),
            scratch: Scratch::new(),
        });
        let dims = if self.return_sequences {
            vec![rows, t, h]
        } else {
            vec![rows, h]
        };
        Ok(PlanShape {
            slot: arenas.f.reserve(dims.iter().product()),
            dims,
        })
    }

    // lint: no_alloc
    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        _ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let Some(state) = self.plan.as_mut() else {
            return Err(not_compiled());
        };
        let batch = arenas.batch();
        let (t, feat) = (input.dims[1], input.dims[2]);
        // Realization b owns rows [b·n, (b+1)·n) of the stacked edges.
        let n = input.dims[0] / batch;
        arenas.weights[state.w_ih].refresh();
        arenas.weights[state.w_hh].refresh();
        let (w_ih, w_hh) = (&arenas.weights[state.w_ih], &arenas.weights[state.w_hh]);
        let [x, x_t, z, h_state, c_state, out] = arenas.f.many_mut([
            input.slot,
            state.x_t,
            state.z,
            state.h,
            state.c,
            output.slot,
        ]);
        let out_len = output.numel() / batch;
        let scratch = &mut state.scratch;
        for b in 0..batch {
            h_state.fill(0.0);
            c_state.fill(0.0);
            let out_b = &mut out[b * out_len..][..out_len];
            Self::recur(
                &x[b * n * t * feat..][..n * t * feat],
                (n, t, feat),
                self.bias.value.data(),
                x_t,
                z,
                (h_state, c_state),
                self.return_sequences.then_some(&mut *out_b),
                |x_t, h_prev, z| {
                    gemm_prepacked_b(false, n, x_t, w_ih.pack(b), false, z, scratch);
                    gemm_prepacked_b(false, n, h_prev, w_hh.pack(b), true, z, scratch);
                },
            );
            if !self.return_sequences {
                out_b.copy_from_slice(h_state);
            }
        }
        Ok(())
    }

    fn plan_end(&mut self) {
        self.plan = None;
    }

    fn name(&self) -> &'static str {
        "Lstm"
    }
}

// lint: alloc_ok(error path)
#[cold]
#[inline(never)]
fn not_compiled() -> NnError {
    NnError::Config("Lstm::plan_forward called without plan_compile".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed_from(1);
        let mut lstm = Lstm::new(3, 5, false, &mut rng);
        let x = Tensor::randn(&[4, 7, 3], 0.0, 1.0, &mut rng);
        let y = lstm.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[4, 5]);

        let mut lstm_seq = Lstm::new(3, 5, true, &mut rng);
        let y = lstm_seq.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[4, 7, 5]);
        assert!(lstm_seq.returns_sequences());
        assert_eq!(lstm_seq.hidden_size(), 5);
    }

    #[test]
    fn rejects_bad_input() {
        let mut rng = Rng::seed_from(2);
        let mut lstm = Lstm::new(3, 4, false, &mut rng);
        assert!(lstm
            .forward(&Tensor::zeros(&[4, 7, 2]), Mode::Train)
            .is_err());
        assert!(lstm.forward(&Tensor::zeros(&[4, 7]), Mode::Train).is_err());
        assert!(lstm.backward(&Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn hidden_values_are_bounded() {
        let mut rng = Rng::seed_from(3);
        let mut lstm = Lstm::new(2, 6, true, &mut rng);
        let x = Tensor::randn(&[2, 10, 2], 0.0, 5.0, &mut rng);
        let y = lstm.forward(&x, Mode::Train).unwrap();
        // h = o * tanh(c) with o in (0,1) so |h| < 1.
        assert!(y.max() <= 1.0 && y.min() >= -1.0);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn input_gradient_matches_numerical_last_hidden() {
        let mut rng = Rng::seed_from(4);
        let mut lstm = Lstm::new(2, 3, false, &mut rng);
        let x = Tensor::randn(&[1, 4, 2], 0.0, 1.0, &mut rng);
        let y = lstm.forward(&x, Mode::Train).unwrap();
        let grad_in = lstm.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(grad_in.dims(), x.dims());

        let eps = 1e-2f32;
        for idx in [0usize, 3, 5, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = lstm.forward(&xp, Mode::Train).unwrap().sum();
            let lm = lstm.forward(&xm, Mode::Train).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 2e-2,
                "lstm input grad mismatch at {idx}: num {num} ana {}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn input_gradient_matches_numerical_sequences() {
        let mut rng = Rng::seed_from(5);
        let mut lstm = Lstm::new(2, 3, true, &mut rng);
        let x = Tensor::randn(&[1, 3, 2], 0.0, 1.0, &mut rng);
        let y = lstm.forward(&x, Mode::Train).unwrap();
        let grad_in = lstm.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2f32;
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = lstm.forward(&xp, Mode::Train).unwrap().sum();
            let lm = lstm.forward(&xm, Mode::Train).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 2e-2,
                "lstm seq input grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_numerical() {
        let mut rng = Rng::seed_from(6);
        let mut lstm = Lstm::new(2, 2, false, &mut rng);
        let x = Tensor::randn(&[2, 3, 2], 0.0, 1.0, &mut rng);
        let y = lstm.forward(&x, Mode::Train).unwrap();
        lstm.backward(&Tensor::ones(y.dims())).unwrap();
        let analytic = lstm.w_ih.grad.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 11] {
            let orig = lstm.w_ih.value.data()[idx];
            lstm.w_ih.value.data_mut()[idx] = orig + eps;
            let lp = lstm.forward(&x, Mode::Train).unwrap().sum();
            lstm.w_ih.value.data_mut()[idx] = orig - eps;
            let lm = lstm.forward(&x, Mode::Train).unwrap().sum();
            lstm.w_ih.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 2e-2,
                "lstm w_ih grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed_from(7);
        let mut lstm = Lstm::new(3, 4, false, &mut rng);
        assert_eq!(lstm.param_count(), 4 * 4 * 3 + 4 * 4 * 4 + 4 * 4);
    }

    #[test]
    fn training_step_caches_reach_steady_state() {
        let mut rng = Rng::seed_from(9);
        let mut lstm = Lstm::new(3, 5, true, &mut rng);
        let x = Tensor::randn(&[4, 6, 3], 0.0, 1.0, &mut rng);
        // Warm up one train forward + backward so caches and scratch exist.
        let y = lstm.forward(&x, Mode::Train).unwrap();
        lstm.backward(&Tensor::ones(y.dims())).unwrap();
        let scratch_warm = lstm.scratch.capacity();
        let cache_ptrs: Vec<*const f32> = lstm
            .cache
            .as_ref()
            .unwrap()
            .iter()
            .map(|c| c.x.data().as_ptr())
            .collect();
        // Steady-state training loop: the same cache tensors are overwritten
        // in place and the scratch does not grow.
        for _ in 0..3 {
            let y = lstm.forward(&x, Mode::Train).unwrap();
            lstm.backward(&Tensor::ones(y.dims())).unwrap();
        }
        assert_eq!(lstm.scratch.capacity(), scratch_warm);
        let cache_ptrs_after: Vec<*const f32> = lstm
            .cache
            .as_ref()
            .unwrap()
            .iter()
            .map(|c| c.x.data().as_ptr())
            .collect();
        assert_eq!(
            cache_ptrs, cache_ptrs_after,
            "step caches must be reused, not reallocated"
        );
        // A geometry change rebuilds the caches (and still trains correctly).
        let x2 = Tensor::randn(&[2, 4, 3], 0.0, 1.0, &mut rng);
        let y2 = lstm.forward(&x2, Mode::Train).unwrap();
        assert_eq!(y2.dims(), &[2, 4, 5]);
        lstm.backward(&Tensor::ones(y2.dims())).unwrap();
    }

    #[test]
    fn planned_forward_is_bit_identical_to_eval_forward() {
        use crate::plan::Plan;
        let mut rng = Rng::seed_from(10);
        for return_sequences in [false, true] {
            let mut lstm = Lstm::new(3, 5, return_sequences, &mut rng);
            let x = Tensor::randn(&[2, 4, 3], 0.0, 1.0, &mut rng);
            let direct = lstm.forward(&x, Mode::Eval).unwrap();
            for batch in [1usize, 3] {
                let mut plan = Plan::compile_batched(&mut lstm, &x, batch).unwrap();
                let mut dims = direct.dims().to_vec();
                dims[0] *= batch;
                assert_eq!(plan.output_dims(), dims.as_slice());
                // Both recurrent matrices are operands, in visit order.
                assert_eq!(plan.weights_mut().len(), 2);
                let out = plan.forward(&mut lstm).unwrap();
                for rows in out.data().chunks_exact(direct.numel()) {
                    let identical = rows
                        .iter()
                        .zip(direct.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(identical, "seq={return_sequences} batch={batch}");
                }
                lstm.plan_end();
            }
            // A wrong feature count is rejected at compile time.
            assert!(Plan::compile(&mut lstm, &Tensor::zeros(&[2, 4, 2])).is_err());
        }
    }

    #[test]
    fn eval_fast_path_matches_train_forward() {
        let mut rng = Rng::seed_from(8);
        for &return_sequences in &[false, true] {
            let mut lstm = Lstm::new(3, 5, return_sequences, &mut rng);
            let x = Tensor::randn(&[4, 6, 3], 0.0, 1.0, &mut rng);
            let train = lstm.forward(&x, Mode::Train).unwrap();
            let eval = lstm.forward(&x, Mode::Eval).unwrap();
            assert!(
                eval.approx_eq(&train, 1e-6),
                "eval path must match train math (seq={return_sequences})"
            );
            // Repeated eval forwards reuse the scratch buffers.
            let warm = lstm.scratch.capacity();
            for _ in 0..3 {
                lstm.forward(&x, Mode::Eval).unwrap();
            }
            assert_eq!(lstm.scratch.capacity(), warm);
            // The eval pass dropped the training cache: backward must refuse.
            assert!(lstm.backward(&Tensor::ones(train.dims())).is_err());
        }
    }
}
