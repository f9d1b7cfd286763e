//! Optimizers and gradient utilities.
//!
//! Optimizer state (moments, velocity) is stored in the training dtype,
//! but the *update arithmetic* runs in `f64` regardless of element type:
//! the per-element cost is negligible next to the kernels, and keeping the
//! moment updates in double precision avoids `ε`-scale rounding artifacts
//! in the f32 path (`v̂` can underflow f32 granularity near convergence).
//! For `E = f64` the conversions are the identity, preserving the bitwise
//! trajectory contract.

use crate::{BoundParams, ParamId, ParamStoreBase};
use cf_tensor::{GradientsBase, Scalar, TensorBase};

/// A first-order optimizer updating a [`ParamStoreBase`] from tape
/// gradients.
pub trait Optimizer<E: Scalar = f64> {
    /// Applies one update step given the gradients of the current tape.
    fn step(
        &mut self,
        store: &mut ParamStoreBase<E>,
        bound: &BoundParams,
        grads: &GradientsBase<E>,
    );

    /// Applies one update from pre-collected `(param, grad)` pairs. Useful
    /// when gradients were accumulated across several tapes (mini-batches).
    fn step_pairs(&mut self, store: &mut ParamStoreBase<E>, pairs: &[(ParamId, TensorBase<E>)]);
}

/// Snapshot of an [`Adam`] optimizer's mutable state (step count, learning
/// rate, and first/second moment estimates), for exact checkpoint/resume.
/// The β/ε hyper-parameters are the fixed constants of [`AdamBase::new`],
/// not state.
#[derive(Debug, Clone)]
pub struct AdamStateBase<E: Scalar = f64> {
    /// Bias-correction step count.
    pub t: u64,
    /// Current learning rate (mutable via schedules).
    pub lr: f64,
    /// First-moment estimates, indexed by `ParamId`.
    pub m: Vec<Option<TensorBase<E>>>,
    /// Second-moment estimates, indexed by `ParamId`.
    pub v: Vec<Option<TensorBase<E>>>,
}

/// The `f64` Adam state (the historical API).
pub type AdamState = AdamStateBase<f64>;

/// Adam (Kingma & Ba) with bias correction — the optimizer the paper uses.
pub struct AdamBase<E: Scalar = f64> {
    lr: f64,
    t: u64,
    // Lazily sized first/second moment estimates, indexed by ParamId.
    m: Vec<Option<TensorBase<E>>>,
    v: Vec<Option<TensorBase<E>>>,
}

/// The `f64` Adam optimizer (the historical API).
pub type Adam = AdamBase<f64>;

const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

impl<E: Scalar> AdamBase<E> {
    /// Adam with the given learning rate and the standard hyper-parameters
    /// `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Copies out the optimizer's mutable state for checkpointing.
    pub fn export_state(&self) -> AdamStateBase<E> {
        AdamStateBase {
            t: self.t,
            lr: self.lr,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`AdamBase::export_state`]. The next
    /// [`Optimizer::step_pairs`] continues the exact update trajectory of
    /// the captured optimizer.
    pub fn import_state(&mut self, state: AdamStateBase<E>) {
        assert!(state.lr > 0.0, "learning rate must be positive");
        self.t = state.t;
        self.lr = state.lr;
        self.m = state.m;
        self.v = state.v;
    }

    fn ensure_len(&mut self, n: usize) {
        if self.m.len() < n {
            self.m.resize(n, None);
            self.v.resize(n, None);
        }
    }

    fn update_one(&mut self, store: &mut ParamStoreBase<E>, id: ParamId, grad: &TensorBase<E>) {
        let idx = id.index();
        self.ensure_len(idx + 1);
        let value = store.value_mut(id);
        let m = self.m[idx].get_or_insert_with(|| TensorBase::zeros(grad.shape()));
        let v = self.v[idx].get_or_insert_with(|| TensorBase::zeros(grad.shape()));
        let (b1, b2) = (BETA1, BETA2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        for i in 0..grad.len() {
            let g = grad.data()[i].to_f64();
            let mi = b1 * m.data()[i].to_f64() + (1.0 - b1) * g;
            let vi = b2 * v.data()[i].to_f64() + (1.0 - b2) * g * g;
            m.data_mut()[i] = E::from_f64(mi);
            v.data_mut()[i] = E::from_f64(vi);
            let m_hat = mi / bc1;
            let v_hat = vi / bc2;
            let next = value.data()[i].to_f64() - lr * m_hat / (v_hat.sqrt() + EPS);
            value.data_mut()[i] = E::from_f64(next);
        }
    }
}

impl<E: Scalar> Optimizer<E> for AdamBase<E> {
    fn step(
        &mut self,
        store: &mut ParamStoreBase<E>,
        bound: &BoundParams,
        grads: &GradientsBase<E>,
    ) {
        // Updates read the gradients in place — same visiting order as
        // `step_pairs`, without cloning each tensor first.
        self.t += 1;
        for (id, g) in bound.gradients(grads) {
            self.update_one(store, id, g);
        }
    }

    fn step_pairs(&mut self, store: &mut ParamStoreBase<E>, pairs: &[(ParamId, TensorBase<E>)]) {
        self.t += 1;
        for (id, g) in pairs {
            self.update_one(store, *id, g);
        }
    }
}

/// Plain stochastic gradient descent with optional momentum.
pub struct SgdBase<E: Scalar = f64> {
    lr: f64,
    momentum: f64,
    velocity: Vec<Option<TensorBase<E>>>,
}

/// The `f64` SGD optimizer (the historical API).
pub type Sgd = SgdBase<f64>;

impl<E: Scalar> SgdBase<E> {
    /// SGD without momentum.
    pub fn new(lr: f64) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    fn update_one(&mut self, store: &mut ParamStoreBase<E>, id: ParamId, g: &TensorBase<E>) {
        let idx = id.index();
        if self.velocity.len() <= idx {
            self.velocity.resize(idx + 1, None);
        }
        let value = store.value_mut(id);
        if self.momentum > 0.0 {
            let vel = self.velocity[idx].get_or_insert_with(|| TensorBase::zeros(g.shape()));
            for i in 0..g.len() {
                let v = self.momentum * vel.data()[i].to_f64() + g.data()[i].to_f64();
                vel.data_mut()[i] = E::from_f64(v);
                let next = value.data()[i].to_f64() - self.lr * v;
                value.data_mut()[i] = E::from_f64(next);
            }
        } else {
            value.axpy(-self.lr, g);
        }
    }
}

impl<E: Scalar> Optimizer<E> for SgdBase<E> {
    fn step(
        &mut self,
        store: &mut ParamStoreBase<E>,
        bound: &BoundParams,
        grads: &GradientsBase<E>,
    ) {
        // As with Adam: visit gradients by reference, no per-step clones.
        for (id, g) in bound.gradients(grads) {
            self.update_one(store, id, g);
        }
    }

    fn step_pairs(&mut self, store: &mut ParamStoreBase<E>, pairs: &[(ParamId, TensorBase<E>)]) {
        for (id, g) in pairs {
            self.update_one(store, *id, g);
        }
    }
}

/// Rescales a set of gradients in place so their *global* L2 norm is at most
/// `max_norm`. Returns the pre-clip norm. Standard recipe for keeping early
/// transformer steps stable. The norm accumulates in `f64` for both dtypes.
pub fn clip_global_norm<E: Scalar>(pairs: &mut [(ParamId, TensorBase<E>)], max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total: f64 = pairs
        .iter()
        .map(|(_, g)| {
            g.data()
                .iter()
                .map(|v| {
                    let v = v.to_f64();
                    v * v
                })
                .sum::<f64>()
        })
        .sum::<f64>()
        .sqrt();
    if total > max_norm {
        let scale = E::from_f64(max_norm / total);
        for (_, g) in pairs.iter_mut() {
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamStore;
    use cf_tensor::{Tape, Tensor};

    fn optimize(opt: &mut dyn Optimizer<f64>, steps: usize, target: f64) -> f64 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[0.0]));
        for _ in 0..steps {
            let mut tape = Tape::new();
            let bound = store.bind(&mut tape);
            let t = tape.constant(Tensor::from_slice(&[target]));
            let d = tape.sub(bound.var(w), t);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            opt.step(&mut store, &bound, &grads);
        }
        store.value(w).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.2);
        let w = optimize(&mut adam, 200, 3.0);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1);
        let w = optimize(&mut sgd, 200, -2.0);
        assert!((w + 2.0).abs() < 1e-4, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut sgd = Sgd::with_momentum(0.05, 0.9);
        let w = optimize(&mut sgd, 300, 1.5);
        assert!((w - 1.5).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[0.0]));
        let mut adam = Adam::new(0.1);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let t = tape.constant(Tensor::from_slice(&[1000.0]));
        let d = tape.sub(bound.var(w), t);
        let sq = tape.square(d);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        adam.step(&mut store, &bound, &grads);
        let step = store.value(w).item();
        assert!((step.abs() - 0.1).abs() < 1e-6, "step = {step}");
    }

    #[test]
    fn adam_state_roundtrip_continues_trajectory() {
        // Two optimizers: one runs 10 steps straight; the other runs 5,
        // exports, is rebuilt from the state, and runs 5 more. Parameter
        // trajectories must be bitwise identical.
        let run = |split: Option<usize>| -> f64 {
            let mut store = ParamStore::new();
            let w = store.register("w", Tensor::from_slice(&[0.0]));
            let mut adam = Adam::new(0.2);
            for step in 0..10 {
                if split == Some(step) {
                    let state = adam.export_state();
                    adam = Adam::new(123.0); // wrong lr on purpose
                    adam.import_state(state);
                }
                let g = Tensor::from_slice(&[store.value(w).item() - 3.0]);
                adam.step_pairs(&mut store, &[(w, g)]);
            }
            store.value(w).item()
        };
        assert_eq!(run(None).to_bits(), run(Some(5)).to_bits());
    }

    #[test]
    fn clip_global_norm_scales_down_only_when_needed() {
        let mut pairs = vec![
            (ParamId::from_raw(0), Tensor::from_slice(&[3.0])),
            (ParamId::from_raw(1), Tensor::from_slice(&[4.0])),
        ];
        let pre = clip_global_norm(&mut pairs, 1.0);
        assert_eq!(pre, 5.0);
        let post: f64 = pairs
            .iter()
            .map(|(_, g)| g.data().iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            .sqrt();
        assert!((post - 1.0).abs() < 1e-12);

        let mut small = vec![(ParamId::from_raw(0), Tensor::from_slice(&[0.1]))];
        clip_global_norm(&mut small, 1.0);
        assert_eq!(small[0].1.data()[0], 0.1); // untouched
    }

    #[test]
    fn f32_adam_converges_on_quadratic() {
        let mut store = ParamStoreBase::<f32>::new();
        let w = store.register("w", TensorBase::<f32>::from_slice(&[0.0]));
        let mut adam = AdamBase::<f32>::new(0.2);
        for _ in 0..200 {
            let g = TensorBase::<f32>::from_slice(&[store.value(w).item() - 3.0]);
            adam.step_pairs(&mut store, &[(w, g)]);
        }
        let val = store.value(w).item();
        assert!((val - 3.0).abs() < 1e-2, "w = {val}");
    }
}
