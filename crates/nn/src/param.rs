//! Named parameter storage shared across training steps.

use cf_tensor::{GradientsBase, Scalar, TapeBase, TensorBase, VarId};

/// Handle to a parameter registered in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Position of the parameter in its store (registration order).
    pub fn index(self) -> usize {
        self.0
    }

    /// Crate-internal constructor (used by unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn from_raw(i: usize) -> Self {
        ParamId(i)
    }
}

struct Param<E: Scalar> {
    name: String,
    value: TensorBase<E>,
}

/// Owns model parameters between steps.
///
/// The autodiff tape is rebuilt each training step; a `ParamStore` is
/// the durable home of the weights. [`ParamStoreBase::bind`] copies every
/// parameter onto a fresh tape as a gradient-requiring leaf and returns a
/// [`BoundParams`] that maps [`ParamId`] → [`VarId`] for that step.
#[derive(Default)]
pub struct ParamStoreBase<E: Scalar = f64> {
    params: Vec<Param<E>>,
}

/// The `f64` parameter store (the historical API).
pub type ParamStore = ParamStoreBase<f64>;

impl<E: Scalar> ParamStoreBase<E> {
    /// An empty store.
    pub fn new() -> Self {
        Self { params: Vec::new() }
    }

    /// Registers a parameter with an initial value. Names are for debugging
    /// and error messages; duplicates are allowed but discouraged.
    pub fn register(&mut self, name: impl Into<String>, value: TensorBase<E>) -> ParamId {
        self.params.push(Param {
            name: name.into(),
            value,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` iff no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &TensorBase<E> {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut TensorBase<E> {
        &mut self.params[id.0].value
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Iterates over all parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Copies all parameter values, in registration order (for early
    /// stopping's best-weights snapshot).
    pub fn snapshot(&self) -> Vec<TensorBase<E>> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restores values captured by [`ParamStoreBase::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store's parameters.
    pub fn restore(&mut self, snapshot: &[TensorBase<E>]) {
        assert_eq!(
            snapshot.len(),
            self.params.len(),
            "snapshot/store parameter count mismatch"
        );
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(
                p.value.shape(),
                s.shape(),
                "snapshot shape mismatch for {}",
                p.name
            );
            p.value = s.clone();
        }
    }

    /// Copies every parameter onto `tape` as a gradient-requiring leaf.
    pub fn bind(&self, tape: &mut TapeBase<E>) -> BoundParams {
        let vars = self
            .params
            .iter()
            .map(|p| tape.leaf(p.value.clone(), true))
            .collect();
        BoundParams { vars }
    }
}

/// The per-step mapping from [`ParamId`] to tape [`VarId`] produced by
/// [`ParamStoreBase::bind`]. Dtype-agnostic: it holds only the id mapping,
/// so the element type is inferred from the `Gradients` it is paired with.
pub struct BoundParams {
    vars: Vec<VarId>,
}

impl BoundParams {
    /// The tape variable bound to `id` this step.
    pub fn var(&self, id: ParamId) -> VarId {
        self.vars[id.index()]
    }

    /// Collects `(ParamId, gradient)` pairs for every bound parameter that
    /// received a gradient.
    pub fn gradients<'a, 'g: 'a, E: Scalar>(
        &'a self,
        grads: &'g GradientsBase<E>,
    ) -> impl Iterator<Item = (ParamId, &'g TensorBase<E>)> + 'a {
        self.vars
            .iter()
            .enumerate()
            .filter_map(move |(i, &v)| grads.get(v).map(|g| (ParamId(i), g)))
    }

    /// Moves every bound parameter's gradient out of `grads` into `sink` —
    /// the ownership counterpart of [`BoundParams::gradients`] for callers
    /// that would otherwise clone each tensor (the trainer ships per-window
    /// gradients to its reducer; moving keeps the buffers pooled).
    pub fn take_gradients<E: Scalar>(
        &self,
        grads: &mut GradientsBase<E>,
        mut sink: impl FnMut(ParamId, TensorBase<E>),
    ) {
        for (i, &v) in self.vars.iter().enumerate() {
            if let Some(g) = grads.take(v) {
                sink(ParamId(i), g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_tensor::{Tape, Tensor};

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(&[2, 3]));
        let b = store.register("b", Tensor::ones(&[4]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.value(b).sum(), 4.0);
    }

    #[test]
    fn bind_produces_grad_leaves() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::from_slice(&[3.0]));
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        assert!(tape.requires_grad(bound.var(a)));
        assert_eq!(tape.value(bound.var(a)).item(), 3.0);
    }

    #[test]
    fn gradients_iterator_pairs_params_with_grads() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::from_slice(&[2.0]));
        let unused = store.register("unused", Tensor::from_slice(&[1.0]));
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let sq = tape.square(bound.var(a));
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let collected: Vec<_> = bound.gradients(&grads).collect();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].0, a);
        assert_eq!(collected[0].1.item(), 4.0);
        assert_ne!(collected[0].0, unused);
    }

    #[test]
    fn f32_store_roundtrips_snapshot() {
        let mut store = ParamStoreBase::<f32>::new();
        let a = store.register("a", TensorBase::<f32>::zeros(&[2, 2]));
        let snap = store.snapshot();
        store.value_mut(a).data_mut()[0] = 5.0;
        store.restore(&snap);
        assert_eq!(store.value(a).data()[0], 0.0);
    }
}
