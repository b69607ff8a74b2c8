//! Per-op shape-contract test: every tape op's [`Op::transfer`], fed the
//! concrete shapes its node was recorded with, must reproduce the recorded
//! output shape exactly, and must reject the malformed input shapes listed
//! for it. The tape auditor's shape pass relies on both halves.
//!
//! Fixture shapes follow the `transfer_over_approximates_*` suites in
//! [`crate::absint`].
//!
//! [`Op::transfer`]: crate::tape::Op::transfer

use std::sync::Arc;

use crate::absint::{AbsVal, Dim};
use crate::matrix::Matrix;
use crate::ops::Segments;
use crate::sparse::Csr;
use crate::tape::{Tape, Tensor};

type Shape = (usize, usize);
type Record = Box<dyn Fn(&mut Tape, &[Tensor]) -> Tensor>;

/// One op under test.
struct Case {
    /// Input shapes the node is recorded with.
    shapes: Vec<Shape>,
    /// Records the op under test on constants of `shapes`.
    record: Record,
    /// Input shape lists the contract must reject. Empty for ops whose
    /// contract accepts every input shape; those are re-recorded on a
    /// perturbed shape instead, see [`SHAPE_POLYMORPHIC`].
    malformed: Vec<Vec<Shape>>,
}

fn case(
    shapes: &[Shape],
    malformed: &[&[Shape]],
    record: impl Fn(&mut Tape, &[Tensor]) -> Tensor + 'static,
) -> Case {
    Case {
        shapes: shapes.to_vec(),
        record: Box::new(record),
        malformed: malformed.iter().map(|m| m.to_vec()).collect(),
    }
}

/// Every op on the tape, in [`cases`] order.
const ALL_OPS: [&str; 34] = [
    "add",
    "sub",
    "mul",
    "scale",
    "add_scalar",
    "mul_scalar_tensor",
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "sigmoid",
    "abs",
    "dropout",
    "matmul",
    "spmm",
    "add_bias",
    "concat_cols",
    "slice_cols",
    "row_sum",
    "sum_all",
    "mean_all",
    "softmax_rows",
    "log_softmax_rows",
    "max_stack",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "segment_attention",
    "gather_attention",
    "mul_col_broadcast",
    "cross_entropy",
    "bce_with_logits",
];

/// Unary ops whose contract accepts an input of any shape, so no malformed
/// input shape exists for them.
const SHAPE_POLYMORPHIC: [&str; 13] = [
    "scale",
    "add_scalar",
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "sigmoid",
    "abs",
    "row_sum",
    "sum_all",
    "mean_all",
    "softmax_rows",
    "log_softmax_rows",
];

fn cases() -> Vec<Case> {
    // Includes an empty segment, like the absint segment suite.
    let segs = Arc::new(Segments::from_lengths(&[3, 0, 4, 2, 1]));
    let e = segs.total_len();
    let idx: Arc<Vec<u32>> = Arc::new(vec![0, 3, 3, 1, 2, 0, 3, 2, 1, 0]);
    let sparse = Arc::new(Csr::from_coo(
        3,
        4,
        &[(0, 0, 1.0), (0, 3, 0.5), (1, 1, 2.0), (2, 0, -1.0), (2, 2, 0.25)],
    ));
    let labels: Arc<Vec<u32>> = Arc::new(vec![0, 1, 2, 3, 0, 1]);
    let rows: Arc<Vec<u32>> = Arc::new(vec![0, 1, 3, 4, 5]);
    let targets = Arc::new(Matrix::from_fn(6, 2, |r, c| [0.0, 1.0][(r + c) % 2]));
    let (s1, s2, s3, s4, s5, s6) =
        (segs.clone(), segs.clone(), segs.clone(), segs.clone(), segs.clone(), segs);
    let gi = idx.clone();
    let r1 = rows.clone();

    vec![
        case(&[(3, 2), (3, 2)], &[&[(3, 2), (3, 3)], &[(4, 2), (3, 2)]], |t, i| t.add(i[0], i[1])),
        case(&[(3, 2), (3, 2)], &[&[(3, 2), (3, 3)], &[(4, 2), (3, 2)]], |t, i| t.sub(i[0], i[1])),
        case(&[(3, 2), (3, 2)], &[&[(3, 2), (3, 3)], &[(4, 2), (3, 2)]], |t, i| t.mul(i[0], i[1])),
        case(&[(4, 3)], &[], |t, i| t.scale(i[0], -1.5)),
        case(&[(4, 3)], &[], |t, i| t.add_scalar(i[0], 2.5)),
        case(&[(3, 4), (1, 1)], &[&[(3, 4), (1, 2)], &[(3, 4), (2, 1)]], |t, i| {
            t.mul_scalar_tensor(i[0], i[1])
        }),
        case(&[(4, 3)], &[], |t, i| t.relu(i[0])),
        case(&[(4, 3)], &[], |t, i| t.leaky_relu(i[0], 0.2)),
        case(&[(4, 3)], &[], |t, i| t.elu(i[0])),
        case(&[(4, 3)], &[], |t, i| t.tanh(i[0])),
        case(&[(4, 3)], &[], |t, i| t.sigmoid(i[0])),
        case(&[(4, 3)], &[], |t, i| t.abs(i[0])),
        // The saved mask has 12 entries.
        case(&[(4, 3)], &[&[(4, 2)], &[(3, 3)]], |t, i| t.dropout(i[0], 0.5)),
        case(&[(3, 4), (4, 2)], &[&[(3, 4), (5, 2)]], |t, i| t.matmul(i[0], i[1])),
        case(&[(4, 2)], &[&[(5, 2)], &[(3, 2)]], move |t, i| t.spmm(&sparse, i[0])),
        case(&[(3, 4), (1, 4)], &[&[(3, 4), (1, 3)], &[(3, 4), (2, 4)]], |t, i| {
            t.add_bias(i[0], i[1])
        }),
        case(&[(3, 2), (3, 3)], &[&[(3, 2), (4, 3)], &[(3, 2), (3, 4)], &[(3, 2)]], |t, i| {
            t.concat_cols(&[i[0], i[1]])
        }),
        case(&[(3, 4)], &[&[(3, 2)]], |t, i| t.slice_cols(i[0], 1, 3)),
        case(&[(3, 4)], &[], |t, i| t.row_sum(i[0])),
        case(&[(3, 4)], &[], |t, i| t.sum_all(i[0])),
        case(&[(3, 4)], &[], |t, i| t.mean_all(i[0])),
        case(&[(3, 4)], &[], |t, i| t.softmax_rows(i[0])),
        case(&[(3, 4)], &[], |t, i| t.log_softmax_rows(i[0])),
        // The saved winners cover a 3x2 output.
        case(&[(3, 2), (3, 2)], &[&[(3, 2), (3, 3)], &[(4, 2), (4, 2)]], |t, i| {
            t.max_stack(&[i[0], i[1]])
        }),
        // Index 3 needs at least four source rows.
        case(&[(4, 3)], &[&[(3, 3)]], move |t, i| t.gather_rows(i[0], &idx)),
        case(&[(e, 3)], &[&[(e - 1, 3)]], move |t, i| t.segment_sum(i[0], &s1)),
        case(&[(e, 3)], &[&[(e + 1, 3)]], move |t, i| t.segment_mean(i[0], &s2)),
        // The saved winners are per (segment, column): recorded at 3
        // columns, the op cannot back-propagate into 2.
        case(&[(e, 3)], &[&[(e, 2)], &[(e - 1, 3)]], move |t, i| t.segment_max(i[0], &s3)),
        case(&[(e, 1)], &[&[(e, 2)], &[(e - 1, 1)]], move |t, i| t.segment_softmax(i[0], &s4)),
        case(&[(e, 1), (e, 3)], &[&[(e, 2), (e, 3)], &[(e, 1), (e - 1, 3)]], move |t, i| {
            t.segment_attention(i[0], i[1], &s5)
        }),
        case(&[(e, 1), (4, 3)], &[&[(e, 2), (4, 3)], &[(e, 1), (3, 3)]], move |t, i| {
            t.gather_attention(i[0], i[1], &gi, &s6)
        }),
        case(&[(3, 4), (3, 1)], &[&[(3, 4), (2, 1)], &[(3, 4), (3, 2)]], |t, i| {
            t.mul_col_broadcast(i[0], i[1])
        }),
        // Probabilities were saved for 4 classes; 5 must not pass.
        case(&[(6, 4)], &[&[(6, 5)], &[(5, 4)]], move |t, i| t.cross_entropy(i[0], &labels, &r1)),
        case(&[(6, 2)], &[&[(6, 3)], &[(5, 2)]], move |t, i| {
            t.bce_with_logits(i[0], &targets, &rows)
        }),
    ]
}

/// Records `case` on constants of `shapes`; returns the tape and the node.
fn record(case: &Case, shapes: &[Shape]) -> (Tape, Tensor) {
    let mut tape = Tape::new(7);
    let inputs: Vec<Tensor> = shapes
        .iter()
        .map(|&(r, c)| {
            // Values in [-1, 1]; the contract only looks at shapes.
            let value = |i: usize, j: usize| [-1.0, -0.5, 0.0, 0.5, 1.0][(i * 7 + j * 3) % 5];
            tape.constant(Matrix::from_fn(r, c, value))
        })
        .collect();
    let out = (case.record)(&mut tape, &inputs);
    (tape, out)
}

fn concrete(shapes: &[Shape]) -> Vec<AbsVal> {
    shapes.iter().map(|&(r, c)| AbsVal::top(Dim::Const(r), Dim::Const(c))).collect()
}

/// Runs `transfer` of the op recorded at `out` on its recorded input
/// shapes and compares the result with the recorded output shape.
fn check_recorded(tape: &Tape, out: Tensor, failures: &mut Vec<String>) {
    let node = tape.node(out.index());
    let name = node.op.name();
    let shapes: Vec<Shape> = node.inputs.iter().map(|&t| tape.value(t).shape()).collect();
    let recorded = node.value.shape();
    match node.op.transfer(&concrete(&shapes)) {
        Ok(v) if (v.rows.known(), v.cols.known()) == (Some(recorded.0), Some(recorded.1)) => {}
        Ok(v) => failures.push(format!(
            "{name}: inputs {shapes:?} give {}x{}, recorded {recorded:?}",
            v.rows, v.cols
        )),
        Err(e) => failures.push(format!("{name}: rejects its recorded inputs {shapes:?}: {e}")),
    }
}

#[test]
fn every_op_transfer_reproduces_recorded_shapes_and_rejects_malformed_ones() {
    let mut seen = Vec::new();
    let mut polymorphic = Vec::new();
    let mut failures = Vec::new();
    for case in cases() {
        let (tape, out) = record(&case, &case.shapes);
        let node = tape.node(out.index());
        assert!(!node.inputs.is_empty(), "a case must record an op, not return its input");
        let name = node.op.name();
        seen.push(name);
        check_recorded(&tape, out, &mut failures);

        for bad in &case.malformed {
            if let Ok(v) = node.op.transfer(&concrete(bad)) {
                failures.push(format!("{name}: accepts malformed inputs {bad:?} as {v}"));
            }
        }
        if case.malformed.is_empty() {
            // No input shape is malformed: the contract must follow the
            // input to a different shape too.
            polymorphic.push(name);
            let perturbed: Vec<Shape> = case.shapes.iter().map(|&(r, c)| (r + 4, c + 2)).collect();
            let (tape, out) = record(&case, &perturbed);
            check_recorded(&tape, out, &mut failures);
        }
    }
    assert_eq!(seen, ALL_OPS, "ops covered by the contract test");
    assert_eq!(polymorphic, SHAPE_POLYMORPHIC, "ops with no malformed input shape");
    assert!(failures.is_empty(), "shape-contract failures:\n{}", failures.join("\n"));
}
