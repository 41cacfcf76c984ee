//! Edge-case and failure-injection tests for the tensor engine:
//! degenerate shapes, empty tensors, extreme values, and every public
//! error path.

use gnnmark_tensor::{record, CsrMatrix, IntTensor, Tensor, TensorError};

#[test]
fn empty_tensors_are_usable() {
    let e = Tensor::zeros(&[0, 4]);
    assert_eq!(e.numel(), 0);
    assert_eq!(e.sparsity(), 0.0);
    let s = e.sum_all();
    assert_eq!(s.item().unwrap(), 0.0);
    let m = e.matmul(&Tensor::zeros(&[4, 2])).unwrap();
    assert_eq!(m.dims(), &[0, 2]);
    let cat = Tensor::concat_rows(&[&e, &Tensor::ones(&[2, 4])]).unwrap();
    assert_eq!(cat.dims(), &[2, 4]);
}

#[test]
fn single_element_everything() {
    let t = Tensor::from_vec(&[1, 1], vec![3.0]).unwrap();
    assert_eq!(t.matmul(&t).unwrap().get(&[0, 0]), 9.0);
    assert_eq!(t.transpose2d().unwrap().get(&[0, 0]), 3.0);
    assert_eq!(t.softmax_rows().unwrap().get(&[0, 0]), 1.0);
    assert_eq!(t.sum_rows().unwrap().as_slice(), &[3.0]);
    let v = t.reshape(&[1]).unwrap();
    assert_eq!(v.argsort().unwrap().as_slice(), &[0]);
}

#[test]
fn extreme_values_do_not_poison_softmax_or_bce() {
    let t = Tensor::from_vec(&[1, 3], vec![1e30, -1e30, 0.0]).unwrap();
    let s = t.softmax_rows().unwrap();
    assert!(s.as_slice().iter().all(|v| v.is_finite()));
    assert!((s.get(&[0, 0]) - 1.0).abs() < 1e-6);

    let z = Tensor::from_vec(&[2], vec![1e4, -1e4]).unwrap();
    let y = Tensor::from_vec(&[2], vec![1.0, 0.0]).unwrap();
    let loss = z.bce_with_logits_mean(&y).unwrap().item().unwrap();
    assert!(loss.is_finite());
    assert!(loss.abs() < 1e-3);
}

#[test]
fn nan_propagates_but_argsort_survives() {
    let t = Tensor::from_vec(&[3], vec![1.0, f32::NAN, 0.0]).unwrap();
    // Total order is unspecified around NaN but the permutation is valid.
    let perm = t.argsort().unwrap();
    let mut p = perm.as_slice().to_vec();
    p.sort_unstable();
    assert_eq!(p, vec![0, 1, 2]);
}

#[test]
fn error_paths_are_typed() {
    let a = Tensor::zeros(&[2, 3]);
    assert!(matches!(
        a.matmul(&Tensor::zeros(&[2, 3])),
        Err(TensorError::ShapeMismatch { op: "matmul", .. })
    ));
    assert!(matches!(
        a.argsort(),
        Err(TensorError::RankMismatch { op: "argsort", .. })
    ));
    assert!(matches!(
        a.slice_rows(1, 5),
        Err(TensorError::IndexOutOfBounds { .. })
    ));
    assert!(matches!(
        Tensor::from_vec(&[2], vec![1.0]),
        Err(TensorError::InvalidArgument { .. })
    ));
    assert!(matches!(
        CsrMatrix::new(1, 1, vec![0], vec![], vec![]),
        Err(TensorError::InvalidSparse { .. })
    ));
}

#[test]
fn gather_of_empty_index_is_empty() {
    let t = Tensor::ones(&[4, 2]);
    let idx = IntTensor::from_vec(&[0], vec![]).unwrap();
    let g = t.gather_rows(&idx).unwrap();
    assert_eq!(g.dims(), &[0, 2]);
    let s = g.scatter_add_rows(&idx, 4).unwrap();
    assert_eq!(s.as_slice(), Tensor::zeros(&[4, 2]).as_slice());
}

#[test]
fn spmm_with_empty_matrix() {
    let m = CsrMatrix::from_coo(3, 3, &[]).unwrap();
    let x = Tensor::ones(&[3, 2]);
    let y = m.spmm(&x).unwrap();
    assert!(y.as_slice().iter().all(|&v| v == 0.0));
    assert_eq!(m.nnz(), 0);
    assert_eq!(m.transpose().nnz(), 0);
}

#[test]
fn recording_survives_errors() {
    record::start_recording();
    let a = Tensor::zeros(&[2, 3]);
    let _ = a.matmul(&Tensor::zeros(&[5, 5])); // fails before any event
    let _ = a.relu(); // succeeds
    let events = record::stop_recording();
    assert_eq!(events.len(), 1, "failed ops must not emit events");
}

#[test]
fn conv2d_one_pixel() {
    use gnnmark_tensor::ops::conv::Conv2dSpec;
    let x = Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]).unwrap();
    let k = Tensor::from_vec(&[1, 1, 1, 1], vec![3.0]).unwrap();
    let y = x.conv2d(&k, Conv2dSpec::default()).unwrap();
    assert_eq!(y.as_slice(), &[6.0]);
    // Kernel larger than image errors.
    let big = Tensor::zeros(&[1, 1, 2, 2]);
    assert!(x.conv2d(&big, Conv2dSpec::default()).is_err());
}

#[test]
fn batched_ops_with_batch_of_one() {
    let a = Tensor::from_vec(&[1, 2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    let b = Tensor::from_vec(&[1, 3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
    let c = a.bmm(&b).unwrap();
    assert_eq!(c.dims(), &[1, 2, 2]);
    // Matches plain 2-D matmul on the squeezed operands.
    let a2 = a.reshape(&[2, 3]).unwrap();
    let b2 = b.reshape(&[3, 2]).unwrap();
    let c2 = a2.matmul(&b2).unwrap();
    assert_eq!(c.as_slice(), c2.as_slice());
}

#[test]
fn sort_already_sorted_and_reverse_sorted() {
    let asc = Tensor::from_vec(&[5], (0..5).map(|i| i as f32).collect()).unwrap();
    assert_eq!(asc.argsort().unwrap().as_slice(), &[0, 1, 2, 3, 4]);
    let desc = Tensor::from_vec(&[5], (0..5).rev().map(|i| i as f32).collect()).unwrap();
    assert_eq!(desc.argsort().unwrap().as_slice(), &[4, 3, 2, 1, 0]);
}

#[test]
fn clamp_and_maximum_edge_semantics() {
    let t = Tensor::from_vec(&[3], vec![-1.0, 0.5, 2.0]).unwrap();
    let c = t.clamp(0.0, 1.0);
    assert_eq!(c.as_slice(), &[0.0, 0.5, 1.0]);
}
