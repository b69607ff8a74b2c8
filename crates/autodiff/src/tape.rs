//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records one forward computation as a Wengert list. Values are
//! computed eagerly when an op is recorded, so every op can stash whatever
//! forward byproducts its backward pass needs (dropout masks, arg-max
//! indices, softmax outputs). [`Tape::backward`] then runs a single reverse
//! sweep and returns the gradient of a scalar output with respect to every
//! [`Param`] that participated.
//!
//! Parameters live outside the tape in a [`VarStore`], so the tape can be
//! rebuilt cheaply every training step (the idiom used by all GNN models in
//! this workspace).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::absint::{AbsVal, Dim};
use crate::audit::Arity;
use crate::dataflow::{GradReads, MemPlan};
use crate::matrix::Matrix;
use crate::pool;

/// Handle to a node on a [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tensor(pub(crate) usize);

impl Tensor {
    /// Index of this node on its tape (matches node indices in audit
    /// reports).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a trainable parameter in a [`VarStore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One differentiable operation.
///
/// Implementations receive the forward output, the incoming gradient, the
/// forward values of their inputs and the sweep's gradient-need mask for
/// those inputs, and return one optional gradient per input (in the same
/// order the inputs were wired on the tape).
///
/// `needs[k]` is false when no parameter the sweep differentiates into lies
/// below input `k` (a constant, or only weights during an α-only
/// [`Tape::backward_for`]). An op may return `None` for a masked input and
/// skip that work; `matmul`, `mul_scalar_tensor` and `add` do. The driver
/// drops any gradient still returned for a masked input, so an op that
/// ignores the mask stays correct and only wastes the work.
pub(crate) trait Op: Send + Sync {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        needs: &[bool],
    ) -> Vec<Option<Matrix>>;

    /// Human-readable name for error messages.
    fn name(&self) -> &'static str;

    /// Declared number of tape inputs, checked by the tape auditor.
    fn arity(&self) -> Arity;

    /// Declared set of forward values (output / inputs, shapes included)
    /// this op's [`Op::backward`] dereferences. The memory planner in
    /// [`crate::dataflow`] releases values whose declared reads are all in
    /// the past; the conservative default forfeits reuse but is always
    /// safe. Overrides are guarded by the bitwise plan-vs-eager parity
    /// test in the dataflow suite.
    fn grad_reads(&self) -> GradReads {
        GradReads::ALL
    }

    /// The op's shape contract, in abstract form: maps the abstract values
    /// of the inputs (in wiring order) to the abstract value of the output,
    /// or `Err` when the inputs violate the op's contract (e.g. `matmul`
    /// inner dimensions disagree, or a saved index list does not fit).
    ///
    /// This one function serves every client. The tape auditor's shape pass
    /// feeds it the recorded input shapes as [`Dim::Const`] dims and checks
    /// the result against the recorded output; [`crate::absint`] propagates
    /// symbolic dims and value facts through it; the rewrite checker and
    /// the genome preflight build on `absint`. Implementations live next to
    /// each op's `grad_reads` declaration and are property-checked in the
    /// absint suite: the abstract result must over-approximate every
    /// concrete execution.
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String>;
}

/// Leaf op for constants / external inputs: no gradient flows past it.
struct InputOp;
impl Op for InputOp {
    fn backward(&self, _: &Matrix, _: &Matrix, _: &[&Matrix], _: &[bool]) -> Vec<Option<Matrix>> {
        Vec::new()
    }
    fn name(&self) -> &'static str {
        "input"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(0)
    }
    fn transfer(&self, _: &[AbsVal]) -> Result<AbsVal, String> {
        Ok(AbsVal::top(Dim::Any, Dim::Any)) // never called: analyses skip leaves
    }
    fn grad_reads(&self) -> GradReads {
        GradReads::NONE // backward is never invoked on leaves
    }
}

/// Leaf op for trainable parameters; the backward driver routes the
/// accumulated gradient into [`Gradients`].
struct ParamOp;
impl Op for ParamOp {
    fn backward(&self, _: &Matrix, _: &Matrix, _: &[&Matrix], _: &[bool]) -> Vec<Option<Matrix>> {
        Vec::new()
    }
    fn name(&self) -> &'static str {
        "param"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(0)
    }
    fn transfer(&self, _: &[AbsVal]) -> Result<AbsVal, String> {
        Ok(AbsVal::top(Dim::Any, Dim::Any)) // never called: analyses skip leaves
    }
    fn grad_reads(&self) -> GradReads {
        GradReads::NONE // backward is never invoked on leaves
    }
}

pub(crate) struct Node {
    pub(crate) value: Arc<Matrix>,
    pub(crate) op: Box<dyn Op>,
    pub(crate) inputs: Vec<Tensor>,
    /// `Some` when this node is a parameter leaf.
    pub(crate) param: Option<ParamId>,
}

/// A single forward computation, recorded for reverse-mode differentiation.
///
/// Intermediate values are drawn from the thread-local [`crate::pool`] and
/// flow back into it when the tape is dropped, so the rebuild-every-step
/// idiom settles into zero steady-state allocation.
pub struct Tape {
    nodes: Vec<Node>,
    rng: StdRng,
    /// Pool counters at construction, so audits and telemetry can report
    /// per-tape activity instead of process-lifetime accumulation.
    pool_at_birth: pool::PoolStats,
}

impl Drop for Tape {
    fn drop(&mut self) {
        if sane_telemetry::active() {
            let resident: usize = self.nodes.iter().map(|n| n.value.len() * 4).sum();
            sane_telemetry::counter_add("tape.count", 1);
            sane_telemetry::counter_add("tape.ops", self.nodes.len() as u64);
            sane_telemetry::gauge_max("tape.peak_resident_bytes", resident as f64);
        }
        for node in self.nodes.drain(..) {
            // Values still shared (parameters in the `VarStore`, inputs or
            // outputs the caller kept an `Arc` to) fail the unwrap and drop
            // normally; everything tape-exclusive feeds the pool.
            if let Ok(value) = Arc::try_unwrap(node.value) {
                pool::put(value);
            }
        }
    }
}

impl Tape {
    /// Creates an empty tape. `seed` drives stochastic ops (dropout).
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::with_capacity(256),
            rng: StdRng::seed_from_u64(seed),
            pool_at_birth: pool::stats(),
        }
    }

    /// Buffer-pool activity attributable to this tape: counters since the
    /// tape was created (current pool contents stay absolute).
    pub fn pool_activity(&self) -> pool::PoolStats {
        pool::stats().since(&self.pool_at_birth)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Records a constant (no gradient) from a shared matrix.
    ///
    /// Use this for large fixed inputs — node features, adjacency-derived
    /// data — so each training step shares one allocation.
    pub fn input(&mut self, value: Arc<Matrix>) -> Tensor {
        self.push(value, Box::new(InputOp), Vec::new(), None)
    }

    /// Records a constant (no gradient), taking ownership of the matrix.
    pub fn constant(&mut self, value: Matrix) -> Tensor {
        self.input(Arc::new(value))
    }

    /// Records a `1 x 1` constant.
    pub fn scalar(&mut self, value: f32) -> Tensor {
        self.constant(Matrix::scalar(value))
    }

    /// Records a trainable parameter from `store`.
    pub fn param(&mut self, store: &VarStore, id: ParamId) -> Tensor {
        let value = store.value_arc(id);
        self.push(value, Box::new(ParamOp), Vec::new(), Some(id))
    }

    /// The forward value of `t`.
    pub fn value(&self, t: Tensor) -> &Matrix {
        &self.nodes[t.0].value
    }

    /// Shared handle to the forward value of `t`.
    pub fn value_arc(&self, t: Tensor) -> Arc<Matrix> {
        Arc::clone(&self.nodes[t.0].value)
    }

    pub(crate) fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub(crate) fn push(
        &mut self,
        value: Arc<Matrix>,
        op: Box<dyn Op>,
        inputs: Vec<Tensor>,
        param: Option<ParamId>,
    ) -> Tensor {
        debug_assert!(inputs.iter().all(|t| t.0 < self.nodes.len()), "op wired to future tensor");
        self.nodes.push(Node { value, op, inputs, param });
        Tensor(self.nodes.len() - 1)
    }

    pub(crate) fn push_op(
        &mut self,
        value: Matrix,
        op: Box<dyn Op>,
        inputs: Vec<Tensor>,
    ) -> Tensor {
        self.push(Arc::new(value), op, inputs, None)
    }

    /// Reverse sweep from `output`, which must be scalar (`1 x 1`).
    ///
    /// Returns the gradients of all parameters reachable from `output`.
    ///
    /// # Panics
    /// Panics if `output` is not `1 x 1`.
    pub fn backward(&self, output: Tensor) -> Gradients {
        self.assert_scalar(output);
        self.backward_seeded(output, Matrix::scalar(1.0))
    }

    /// Reverse sweep from the scalar `output` that differentiates into
    /// `params` only.
    ///
    /// Nodes below which no listed parameter lies are skipped, so an
    /// α-only sweep never computes weight gradients. Every returned
    /// gradient is bitwise identical to the same slot of
    /// [`Tape::backward`]: the skipped work only ever fed unlisted nodes.
    ///
    /// # Panics
    /// Panics if `output` is not `1 x 1`.
    pub fn backward_for(&self, output: Tensor, params: &[ParamId]) -> Gradients {
        self.assert_scalar(output);
        crate::parallel::timed("tape_backward", || {
            self.backward_seeded_inner(output, Matrix::scalar(1.0), Some(params))
        })
    }

    /// Reverse sweep with an explicit seed gradient (same shape as `output`).
    pub fn backward_seeded(&self, output: Tensor, seed: Matrix) -> Gradients {
        crate::parallel::timed("tape_backward", || self.backward_seeded_inner(output, seed, None))
    }

    fn assert_scalar(&self, output: Tensor) {
        assert_eq!(
            self.value(output).shape(),
            (1, 1),
            "backward requires a scalar output, got {:?}",
            self.value(output).shape()
        );
    }

    /// The one reverse-sweep driver behind [`Tape::backward_seeded`] and
    /// [`Tape::backward_for`]; `params: None` differentiates into every
    /// parameter.
    fn backward_seeded_inner(
        &self,
        output: Tensor,
        seed: Matrix,
        params: Option<&[ParamId]>,
    ) -> Gradients {
        assert_eq!(seed.shape(), self.value(output).shape(), "seed gradient shape mismatch");
        let needs = self.grad_needs(params);
        let mut skipped = 0u64;
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        if needs[output.0] {
            grads[output.0] = Some(seed);
        }
        let mut result = Gradients::default();

        // Only needed nodes ever hold a gradient, and every needed node is
        // a parameter or has inputs.
        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = grads[i].take() else { continue };
            if let Some(pid) = self.nodes[i].param {
                result.accumulate(pid, grad);
                continue;
            }
            let shape_of = |v: usize| self.nodes[v].value.shape();
            for (t, g) in self.input_grads(i, &grad, &needs, shape_of, &mut skipped) {
                accumulate(&mut grads[t], g);
            }
            // `grad` was fully distributed to the inputs; recycle it.
            pool::put(grad);
        }
        self.emit_prune_counters(output, &needs, skipped);
        result
    }

    /// Gradient-need mask of one sweep: `needs[i]` is true when node `i` is
    /// a requested parameter (`None` requests every parameter) or any of
    /// its inputs needs a gradient. One forward pass over the nodes.
    fn grad_needs(&self, params: Option<&[ParamId]>) -> Vec<bool> {
        let requested = params.map(ParamBits::of);
        let mut needs: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let need = match node.param {
                Some(pid) => requested.as_ref().is_none_or(|bits| bits.contains(pid)),
                None => node.inputs.iter().any(|t| needs[t.0]),
            };
            needs.push(need);
        }
        needs
    }

    /// Runs node `i`'s backward under the mask and returns the gradients
    /// of its needed inputs, each checked against `shape_of(input)`.
    /// Masked inputs are counted in `skipped`; a gradient an op still
    /// returns for one goes straight back to the pool.
    fn input_grads(
        &self,
        i: usize,
        grad: &Matrix,
        needs: &[bool],
        shape_of: impl Fn(usize) -> (usize, usize),
        skipped: &mut u64,
    ) -> Vec<(usize, Matrix)> {
        let node = &self.nodes[i];
        let input_vals: Vec<&Matrix> =
            node.inputs.iter().map(|t| &*self.nodes[t.0].value).collect();
        let input_needs: Vec<bool> = node.inputs.iter().map(|t| needs[t.0]).collect();
        let input_grads = node.op.backward(&node.value, grad, &input_vals, &input_needs);
        assert_eq!(
            input_grads.len(),
            node.inputs.len(),
            "op `{}` returned {} gradients for {} inputs",
            node.op.name(),
            input_grads.len(),
            node.inputs.len()
        );
        let mut kept = Vec::with_capacity(node.inputs.len());
        for ((t, need), g) in node.inputs.iter().zip(input_needs).zip(input_grads) {
            if !need {
                *skipped += 1;
                if let Some(g) = g {
                    pool::put(g);
                }
                continue;
            }
            let Some(g) = g else { continue };
            assert_eq!(
                g.shape(),
                shape_of(t.0),
                "op `{}` (node {i}) produced a gradient of the wrong shape for input node {}",
                node.op.name(),
                t.0
            );
            kept.push((t.0, g));
        }
        kept
    }

    /// Emits `tape.backward.pruned_nodes` (op nodes reachable from
    /// `output` that the mask kept out of the sweep) and
    /// `tape.backward.skipped_input_grads` (masked inputs of the ops that
    /// ran). The reachability pass only runs under an active recorder.
    fn emit_prune_counters(&self, output: Tensor, needs: &[bool], skipped: u64) {
        if !sane_telemetry::active() {
            return;
        }
        let mut live = vec![false; self.nodes.len()];
        live[output.0] = true;
        let mut pruned = 0u64;
        for i in (0..self.nodes.len()).rev() {
            let node = &self.nodes[i];
            if !live[i] || node.inputs.is_empty() {
                continue;
            }
            pruned += u64::from(!needs[i]);
            for t in &node.inputs {
                live[t.0] = true;
            }
        }
        sane_telemetry::counter_add("tape.backward.pruned_nodes", pruned);
        sane_telemetry::counter_add("tape.backward.skipped_input_grads", skipped);
    }

    /// Reverse sweep with memory instrumentation and, optionally,
    /// plan-driven buffer release.
    ///
    /// With `plan: None` this is an instrumented [`Tape::backward`]: the
    /// same sweep under the same gradient-need mask, plus exact accounting
    /// of resident bytes (all forward values held by the tape, plus every
    /// gradient buffer in flight, including accumulated parameter
    /// gradients). With a verified
    /// [`MemPlan`], each non-pinned value is additionally *released* into
    /// the [`crate::pool`] the moment its planned interval closes — values
    /// dead before backward go first, the rest retire step by step — so
    /// backward gradient buffers are drawn from memory the forward pass no
    /// longer needs. Gradients are bitwise identical either way; the
    /// dataflow test suite pins that.
    ///
    /// Releasing swaps the node's value for an empty matrix, so the tape
    /// must not be read through [`Tape::value`] afterwards (dropping or
    /// re-auditing it is fine). Values the caller still holds an `Arc` to
    /// are skipped and keep counting as resident.
    ///
    /// # Panics
    /// Panics if `output` is not `1 x 1`, or if `plan` does not cover this
    /// tape's nodes.
    pub fn backward_measured(
        &mut self,
        output: Tensor,
        plan: Option<&MemPlan>,
    ) -> (Gradients, ExecStats) {
        self.assert_scalar(output);
        let n = self.nodes.len();
        if let Some(plan) = plan {
            assert_eq!(plan.values.len(), n, "memory plan does not cover this tape");
        }

        // Planned release schedule: values whose last use predates the
        // backward sweep go before it; a value last used at backward time
        // `n + (n - 1 - j)` is released right after node j's step.
        let mut release_now: Vec<usize> = Vec::new();
        let mut release_after: Vec<Vec<usize>> = vec![Vec::new(); n];
        if let Some(plan) = plan {
            for (v, vp) in plan.values.iter().enumerate() {
                if vp.pinned || vp.len == 0 {
                    continue;
                }
                if vp.last_use < n {
                    release_now.push(v);
                } else if vp.last_use < 2 * n {
                    release_after[2 * n - 1 - vp.last_use].push(v);
                }
            }
        }

        let baseline_value_bytes: usize = self.nodes.iter().map(|nd| nd.value.len() * 4).sum();
        let mut value_bytes = baseline_value_bytes;
        let mut grad_bytes = 0usize;
        let mut released_values = 0usize;
        let mut released_bytes = 0usize;
        let mut peak = value_bytes;

        let release = |tape: &mut Tape, v: usize| {
            let husk = Arc::new(Matrix::from_vec(0, 0, Vec::new()));
            let old = std::mem::replace(&mut tape.nodes[v].value, husk);
            match Arc::try_unwrap(old) {
                Ok(m) => {
                    let bytes = m.len() * 4;
                    pool::put(m);
                    Some(bytes)
                }
                // The caller kept a handle; the buffer stays resident.
                Err(arc) => {
                    tape.nodes[v].value = arc;
                    None
                }
            }
        };
        for &v in &release_now {
            if let Some(bytes) = release(self, v) {
                value_bytes -= bytes;
                released_values += 1;
                released_bytes += bytes;
            }
        }

        // The planner's read model stays conservative: it assumes every
        // op's backward runs, so a pruned sweep only reads a subset of what
        // the plan keeps alive and every planned release is still safe.
        let needs = self.grad_needs(None);
        let mut skipped = 0u64;
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        if needs[output.0] {
            let seed = Matrix::scalar(1.0);
            grad_bytes += seed.len() * 4;
            grads[output.0] = Some(seed);
        }
        peak = peak.max(value_bytes + grad_bytes);
        let mut result = Gradients::default();

        for i in (0..n).rev() {
            if let Some(grad) = grads[i].take() {
                if let Some(pid) = self.nodes[i].param {
                    // Merging into an existing accumulator recycles `grad`;
                    // a fresh slot keeps it resident until the caller is
                    // done with the gradient set.
                    let bytes = grad.len() * 4;
                    if !result.accumulate(pid, grad) {
                        grad_bytes -= bytes;
                    }
                } else {
                    // Released inputs have lost their shape; the plan
                    // remembers what was recorded.
                    let shape_of = |v: usize| match plan {
                        Some(p) => p.values[v].shape,
                        None => self.nodes[v].value.shape(),
                    };
                    for (t, g) in self.input_grads(i, &grad, &needs, shape_of, &mut skipped) {
                        let bytes = g.len() * 4;
                        if accumulate(&mut grads[t], g) {
                            grad_bytes += bytes;
                        }
                    }
                    grad_bytes -= grad.len() * 4;
                    pool::put(grad);
                }
            }
            if plan.is_some() {
                // Take the list to end the borrow of `release_after`
                // before mutating `self`.
                let due = std::mem::take(&mut release_after[i]);
                for v in due {
                    if let Some(bytes) = release(self, v) {
                        value_bytes -= bytes;
                        released_values += 1;
                        released_bytes += bytes;
                    }
                }
            }
            peak = peak.max(value_bytes + grad_bytes);
        }

        self.emit_prune_counters(output, &needs, skipped);
        if sane_telemetry::active() {
            sane_telemetry::gauge_max("dataflow.actual_peak_bytes", peak as f64);
            sane_telemetry::counter_add("dataflow.released_bytes", released_bytes as u64);
        }
        let stats = ExecStats {
            peak_resident_bytes: peak,
            baseline_value_bytes,
            released_values,
            released_bytes,
        };
        (result, stats)
    }
}

/// Memory accounting from one [`Tape::backward_measured`] sweep.
#[derive(Clone, Copy, Debug)]
pub struct ExecStats {
    /// Max over the sweep of (forward values still held) + (gradient
    /// buffers in flight, including accumulated parameter gradients).
    pub peak_resident_bytes: usize,
    /// Bytes of forward values held when the sweep started — what an
    /// unplanned tape keeps resident throughout.
    pub baseline_value_bytes: usize,
    /// Values released into the pool under the plan.
    pub released_values: usize,
    /// Bytes those releases returned to the pool.
    pub released_bytes: usize,
}

/// Gradients of one backward sweep, keyed by [`ParamId`].
#[derive(Default)]
pub struct Gradients {
    slots: Vec<Option<Matrix>>,
}

/// Adds `grad` into `slot`, recycling it when the slot already holds an
/// accumulator. Returns true when `grad` became the slot's first value.
fn accumulate(slot: &mut Option<Matrix>, grad: Matrix) -> bool {
    match slot {
        Some(acc) => {
            acc.add_assign(&grad);
            pool::put(grad);
            false
        }
        None => {
            *slot = Some(grad);
            true
        }
    }
}

/// Bitset over [`ParamId`]s: the requested parameters of one sweep.
struct ParamBits(Vec<u64>);

impl ParamBits {
    fn of(ids: &[ParamId]) -> Self {
        let words = ids.iter().map(|id| id.0 / 64 + 1).max().unwrap_or(0);
        let mut bits = vec![0u64; words];
        for id in ids {
            bits[id.0 / 64] |= 1 << (id.0 % 64);
        }
        Self(bits)
    }

    fn contains(&self, id: ParamId) -> bool {
        self.0.get(id.0 / 64).is_some_and(|word| word >> (id.0 % 64) & 1 == 1)
    }
}

impl Gradients {
    /// Adds `grad` into `id`'s slot; true when the slot was empty.
    fn accumulate(&mut self, id: ParamId, grad: Matrix) -> bool {
        if self.slots.len() <= id.0 {
            self.slots.resize_with(id.0 + 1, || None);
        }
        accumulate(&mut self.slots[id.0], grad)
    }

    /// Gradient for `id`, if the parameter participated in the computation.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.slots.get(id.0).and_then(|s| s.as_ref())
    }

    /// Merges another gradient set into this one (summing overlaps).
    pub fn merge(&mut self, other: Gradients) {
        for (i, slot) in other.slots.into_iter().enumerate() {
            if let Some(g) = slot {
                self.accumulate(ParamId(i), g);
            }
        }
    }

    /// Adds `scale * other` into this gradient set (missing slots on either
    /// side are treated as zero). Used by the second-order bi-level update.
    pub fn add_scaled(&mut self, other: &Gradients, scale: f32) {
        for (id, g) in other.iter() {
            let mut scaled = pool::clone_of(g);
            scaled.scale_inplace(scale);
            self.accumulate(id, scaled);
        }
    }

    /// Joint L2 norm restricted to the given parameters.
    pub fn l2_norm_subset(&self, ids: &[ParamId]) -> f32 {
        let mut sq = 0.0f32;
        for &id in ids {
            if let Some(g) = self.get(id) {
                sq += g.data().iter().map(|v| v * v).sum::<f32>();
            }
        }
        sq.sqrt()
    }

    /// Global gradient-norm clipping: scales all gradients so the joint
    /// L2 norm does not exceed `max_norm`. Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let mut sq = 0.0f32;
        for slot in self.slots.iter().flatten() {
            sq += slot.data().iter().map(|v| v * v).sum::<f32>();
        }
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for slot in self.slots.iter_mut().flatten() {
                slot.scale_inplace(s);
            }
        }
        norm
    }

    /// True if no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Iterates over `(id, grad)` pairs that received gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|g| (ParamId(i), g)))
    }

    /// Consumes the gradient set, returning its buffers to the thread-local
    /// pool. Call after the optimiser step; skipping it only costs fresh
    /// allocations on the next backward sweep.
    pub fn recycle(self) {
        for slot in self.slots.into_iter().flatten() {
            pool::put(slot);
        }
    }
}

struct Slot {
    value: Arc<Matrix>,
    name: String,
}

/// Storage for trainable parameters, shared across training steps.
///
/// Values are held behind `Arc` so recording a parameter on a tape is a
/// reference-count bump, not a copy; optimizers mutate through
/// [`Arc::make_mut`] once the step's tapes are dropped.
#[derive(Default)]
pub struct VarStore {
    slots: Vec<Slot>,
}

impl VarStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value. Names are for debugging
    /// and need not be unique.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.slots.push(Slot { value: Arc::new(value), name: name.into() });
        ParamId(self.slots.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.slots[id.0].value
    }

    pub(crate) fn value_arc(&self, id: ParamId) -> Arc<Matrix> {
        Arc::clone(&self.slots[id.0].value)
    }

    /// Mutable access to a parameter's value (clones on write if a tape still
    /// holds the value).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.slots[id.0].value)
    }

    /// Replaces a parameter's value (shape may change; used when re-deriving
    /// architectures with different hidden sizes is *not* desired — prefer a
    /// fresh store for that).
    pub fn set(&mut self, id: ParamId, value: Matrix) {
        self.slots[id.0].value = Arc::new(value);
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.slots.len()).map(ParamId)
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Deep snapshot of every parameter value (for retrain-from-best logic).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.slots.iter().map(|s| (*s.value).clone()).collect()
    }

    /// Restores a snapshot taken with [`VarStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store's layout.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.slots.len(), "snapshot/store length mismatch");
        for (slot, value) in self.slots.iter_mut().zip(snapshot) {
            assert_eq!(
                slot.value.shape(),
                value.shape(),
                "snapshot shape mismatch for {}",
                slot.name
            );
            slot.value = Arc::new(value.clone());
        }
    }

    /// Re-initialises every parameter with `f(name, current) -> new`.
    pub fn reinit(&mut self, mut f: impl FnMut(&str, &Matrix) -> Matrix) {
        for slot in &mut self.slots {
            let new = f(&slot.name, &slot.value);
            assert_eq!(new.shape(), slot.value.shape(), "reinit changed shape of {}", slot.name);
            slot.value = Arc::new(new);
        }
    }
}

/// Fills a matrix with i.i.d. uniform values in `[-bound, bound]`.
pub fn uniform_init(rows: usize, cols: usize, bound: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

/// Glorot/Xavier uniform initialisation for a `rows x cols` weight.
pub fn glorot_init(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform_init(rows, cols, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_value_roundtrip() {
        let mut tape = Tape::new(0);
        let t = tape.constant(Matrix::scalar(3.0));
        assert_eq!(tape.value(t).as_scalar(), 3.0);
    }

    #[test]
    fn param_gradient_of_identity() {
        let mut store = VarStore::new();
        let p = store.add("w", Matrix::scalar(2.0));
        let mut tape = Tape::new(0);
        let t = tape.param(&store, p);
        let grads = tape.backward(t);
        assert_eq!(grads.get(p).unwrap().as_scalar(), 1.0);
    }

    #[test]
    #[should_panic(expected = "scalar output")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new(0);
        let t = tape.constant(Matrix::zeros(2, 2));
        let _ = tape.backward(t);
    }

    #[test]
    fn gradients_merge_sums_overlaps() {
        let mut a = Gradients::default();
        a.accumulate(ParamId(0), Matrix::scalar(1.0));
        let mut b = Gradients::default();
        b.accumulate(ParamId(0), Matrix::scalar(2.0));
        b.accumulate(ParamId(2), Matrix::scalar(5.0));
        a.merge(b);
        assert_eq!(a.get(ParamId(0)).unwrap().as_scalar(), 3.0);
        assert_eq!(a.get(ParamId(2)).unwrap().as_scalar(), 5.0);
        assert!(a.get(ParamId(1)).is_none());
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let mut g = Gradients::default();
        g.accumulate(ParamId(0), Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let norm = g.clip_global_norm(1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped = g.get(ParamId(0)).unwrap();
        assert!((clipped.frob_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn varstore_snapshot_restore() {
        let mut store = VarStore::new();
        let p = store.add("w", Matrix::scalar(1.0));
        let snap = store.snapshot();
        store.value_mut(p).data_mut()[0] = 9.0;
        store.restore(&snap);
        assert_eq!(store.value(p).as_scalar(), 1.0);
    }

    const N: usize = 12;
    const F: usize = 50;
    const H: usize = 4;

    /// A cora-shaped first layer: `x -> dropout -> spmm -> matmul` beside a
    /// direct `matmul` of the dropped-out features. With `features_param`
    /// the features are recorded as a parameter instead of a constant.
    fn layer_one_fixture(features_param: bool) -> (VarStore, Tape, Tensor) {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let w1 = store.add("w1", glorot_init(F, H, &mut rng));
        let w2 = store.add("w2", glorot_init(F, H, &mut rng));
        let bias = store.add("bias", Matrix::zeros(1, H));
        let x_val = Matrix::from_fn(N, F, |r, c| ((r * F + c) % 7) as f32 * 0.25);
        let fid = features_param.then(|| store.add("x", x_val.clone()));
        let ring: Vec<(u32, u32, f32)> =
            (0..N as u32).map(|r| (r, (r + 1) % N as u32, 0.5)).collect();
        let adj = Arc::new(crate::Csr::from_coo(N, N, &ring));

        let mut tape = Tape::new(9);
        let x = match fid {
            Some(id) => tape.param(&store, id),
            None => tape.constant(x_val),
        };
        let d = tape.dropout(x, 0.5);
        let agg = tape.spmm(&adj, d);
        let (tw1, tw2, tb) =
            (tape.param(&store, w1), tape.param(&store, w2), tape.param(&store, bias));
        let h1 = tape.matmul(agg, tw1);
        let h2 = tape.matmul(d, tw2);
        let sum = tape.add(h1, h2);
        let biased = tape.add_bias(sum, tb);
        let act = tape.relu(biased);
        let loss = tape.mean_all(act);
        (store, tape, loss)
    }

    /// Runs `f` under a memory recorder and returns its result plus the
    /// run's counters.
    fn with_counters<T>(f: impl FnOnce() -> T) -> (T, std::collections::BTreeMap<String, u64>) {
        let buf = sane_telemetry::MemoryBuffer::default();
        let guard = sane_telemetry::Recorder::new("grad-need").with_memory(buf.clone()).install();
        let out = f();
        drop(guard);
        let text = buf.borrow().clone();
        let summary = sane_telemetry::trace::summarize(&text).expect("valid trace");
        (out, summary.counters)
    }

    fn bits(g: &Gradients, id: ParamId) -> Option<Vec<u32>> {
        g.get(id).map(|m| m.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn constant_features_are_pruned_and_no_feature_sized_gradient_is_made() {
        let (grads, counters) = with_counters(|| {
            let (store, tape, loss) = layer_one_fixture(false);
            pool::reset();
            let grads = tape.backward(loss);
            // Every buffer the sweep creates and discards comes back to the
            // (emptied) pool, so an `n x f` gradient would show up here.
            assert_eq!(pool::held(N * F), 0, "the sweep built an n x f gradient");
            grads.iter().map(|(id, _)| store.name(id).to_string()).collect::<Vec<_>>()
        });
        assert_eq!(grads, ["w1", "w2", "bias"]);
        // The dropout and spmm over the features never run their backward;
        // both matmuls skip their dA.
        assert_eq!(counters.get("tape.backward.pruned_nodes"), Some(&2));
        assert_eq!(counters.get("tape.backward.skipped_input_grads"), Some(&2));

        // Control: with the features as a parameter the same probe sees
        // the n x f gradients.
        let (_, tape, loss) = layer_one_fixture(true);
        pool::reset();
        let grads = tape.backward(loss);
        assert!(pool::held(N * F) > 0);
        grads.recycle();
    }

    #[test]
    fn tape_without_constants_prunes_nothing() {
        let ((), counters) = with_counters(|| {
            let mut store = VarStore::new();
            let a = store.add("a", Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]));
            let b = store.add("b", Matrix::from_vec(2, 1, vec![0.25, -1.0]));
            let s = store.add("s", Matrix::scalar(1.5));
            let mut tape = Tape::new(0);
            let (ta, tb, ts) =
                (tape.param(&store, a), tape.param(&store, b), tape.param(&store, s));
            let ab = tape.matmul(ta, tb);
            let scaled = tape.mul_scalar_tensor(ab, ts);
            let sum = tape.add(scaled, ab);
            let loss = tape.sum_all(sum);
            assert_eq!(tape.backward(loss).iter().count(), 3);
        });
        assert_eq!(counters.get("tape.backward.pruned_nodes"), Some(&0));
        assert_eq!(counters.get("tape.backward.skipped_input_grads"), Some(&0));
    }

    #[test]
    fn measured_sweep_applies_the_same_mask() {
        let (store, tape, loss) = layer_one_fixture(false);
        let eager = tape.backward(loss);
        let (_, mut tape, loss) = layer_one_fixture(false);
        pool::reset();
        let (measured, stats) = tape.backward_measured(loss, None);
        assert_eq!(pool::held(N * F), 0, "the measured sweep built an n x f gradient");
        assert!(stats.peak_resident_bytes - stats.baseline_value_bytes < N * F * 4);
        for id in store.ids() {
            assert_eq!(bits(&measured, id), bits(&eager, id), "{}", store.name(id));
        }
    }

    #[test]
    fn param_bits_cover_ids_past_one_word() {
        let bits = ParamBits::of(&[ParamId(0), ParamId(70)]);
        assert!(bits.contains(ParamId(0)) && bits.contains(ParamId(70)));
        assert!(!bits.contains(ParamId(1)) && !bits.contains(ParamId(64)));
        assert!(!bits.contains(ParamId(200)));
        assert!(!ParamBits::of(&[]).contains(ParamId(0)));
    }

    #[test]
    fn glorot_bound_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = glorot_init(30, 50, &mut rng);
        let bound = (6.0 / 80.0f32).sqrt();
        assert!(w.max_abs() <= bound + 1e-6);
        assert!(w.max_abs() > bound * 0.5, "suspiciously small init");
    }
}
