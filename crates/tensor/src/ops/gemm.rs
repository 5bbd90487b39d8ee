//! Matrix multiplication kernels.

use crate::quant::W4Matrix;
use crate::{Result, Tensor, TensorError};

fn check_mm(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    let (m, ka) = a.matrix_dims()?;
    let (kb, n) = b.matrix_dims()?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            context: format!("matmul [{m},{ka}] x [{kb},{n}]"),
        });
    }
    Ok((m, ka, n))
}

/// Naive triple-loop GEMM, the golden reference for tests.
pub fn matmul_ref(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_mm(a, b)?;
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Column-tile width: a `KB × NB` f32 panel of `b` is 64 KiB, sized
/// to sit in L2 while every row of `a` streams against it.
const NB: usize = 256;
/// Depth-tile height of the same panel.
const KB: usize = 64;

/// Blocked, cache-tiled GEMM.
///
/// Loops are ordered `(n-tile, k-tile, i, k, j)`: one `KB × NB` panel
/// of `b` is reused across **all** `m` rows of `a` before the next
/// panel is touched, so `b` — the large, streamed operand in the
/// untiled `i-k-j` order — is read from cache instead of DRAM once
/// `k·n` outgrows the LLC. Within a tile the inner kernel is the same
/// row-accumulation as before.
///
/// Produces bit-identical results to [`matmul_ref`] (and to the
/// untiled predecessor) because each output element still accumulates
/// its `k` terms in ascending order: `k`-tiles are visited in
/// ascending order and `k` ascends within each tile, and the
/// zero-skip is per `(i, k)` term exactly as before.
///
/// # Examples
///
/// ```
/// use hetero_tensor::{ops, Tensor};
///
/// let a = Tensor::ones(&[2, 4]);
/// let b = Tensor::ones(&[4, 3]);
/// let c = ops::matmul(&a, &b).unwrap();
/// assert!(c.data().iter().all(|&x| x == 4.0));
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_mm(a, b)?;
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    for jt in (0..n).step_by(NB) {
        let jhi = (jt + NB).min(n);
        for pt in (0..k).step_by(KB) {
            let phi = (pt + KB).min(k);
            for i in 0..m {
                let out_row = &mut out[i * n + jt..i * n + jhi];
                for p in pt..phi {
                    let aip = ad[i * k + p];
                    if aip == 0.0 {
                        continue;
                    }
                    let b_row = &bd[p * n + jt..p * n + jhi];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aip * bv;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// W4A16 GEMM: `a [m,k] x w [k,n]` where the weight is stored INT4 and
/// dequantized group-by-group into floating point before multiplying.
///
/// Numerically identical to `matmul(a, &w.dequantize())` — the weight
/// dequantization path is exact — which the tests assert.
pub fn matmul_w4(a: &Tensor, w: &W4Matrix) -> Result<Tensor> {
    let (m, ka) = a.matrix_dims()?;
    let (k, n) = w.dims();
    if ka != k {
        return Err(TensorError::ShapeMismatch {
            context: format!("matmul_w4 [{m},{ka}] x [{k},{n}]"),
        });
    }
    let deq = w.dequantize()?;
    matmul(a, &deq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::WeightRng;

    #[test]
    fn matmul_matches_reference() {
        let rng = WeightRng::new(10);
        let a = rng.uniform("a", &[7, 13], 1.0).unwrap();
        let b = rng.uniform("b", &[13, 5], 1.0).unwrap();
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_ref(&a, &b).unwrap();
        fast.assert_close(&slow, 1e-5);
    }

    /// The untiled `i-k-j` kernel the blocked [`matmul`] replaced,
    /// zero-skip included. Tiling must be *bit*-identical to it.
    fn matmul_untiled(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, ka) = a.matrix_dims().unwrap();
        let (_, n) = b.matrix_dims().unwrap();
        let k = ka;
        let mut out = vec![0.0f32; m * n];
        let (ad, bd) = (a.data(), b.data());
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let aip = ad[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let b_row = &bd[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aip * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    #[test]
    fn tiled_matmul_bit_identical_to_untiled() {
        let rng = WeightRng::new(16);
        // Shapes straddling both tile edges (KB = 64, NB = 256):
        // interior-only, exact-multiple, and ragged remainders.
        for (m, k, n) in [
            (3, 5, 7),
            (5, 64, 256),
            (4, 65, 257),
            (2, 130, 300),
            (1, 200, 513),
        ] {
            let mut a = rng
                .uniform(&format!("a{m}x{k}"), &[m, k], 1.0)
                .unwrap()
                .data()
                .to_vec();
            // Sprinkle exact and signed zeros so the zero-skip path is
            // exercised on both sides of a tile boundary.
            for (idx, v) in a.iter_mut().enumerate() {
                if idx % 7 == 0 {
                    *v = 0.0;
                }
                if idx % 11 == 0 {
                    *v = -0.0;
                }
            }
            let a = Tensor::from_vec(a, &[m, k]).unwrap();
            let b = rng.uniform(&format!("b{k}x{n}"), &[k, n], 1.0).unwrap();
            let tiled = matmul(&a, &b).unwrap();
            let flat = matmul_untiled(&a, &b);
            for (i, (x, y)) in tiled.data().iter().zip(flat.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "[{m},{k}]x[{k},{n}] element {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn identity_is_noop() {
        let a = WeightRng::new(11).uniform("a", &[4, 4], 1.0).unwrap();
        let c = matmul(&a, &Tensor::eye(4)).unwrap();
        c.assert_close(&a, 0.0);
    }

    #[test]
    fn shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_ref(&a, &b).is_err());
    }

    #[test]
    fn w4_matmul_equals_dequantized_matmul() {
        let rng = WeightRng::new(13);
        let a = rng.uniform("a", &[3, 64], 1.0).unwrap();
        let w = rng.uniform("w", &[64, 8], 0.2).unwrap();
        let q = W4Matrix::quantize(&w, 32).unwrap();
        let via_quant = matmul_w4(&a, &q).unwrap();
        let via_deq = matmul(&a, &q.dequantize().unwrap()).unwrap();
        via_quant.assert_close(&via_deq, 0.0);
    }

    #[test]
    fn row_partition_equivalence() {
        // Splitting the *weight* along its columns (the paper's
        // row-cutting on the transposed weight) and concatenating the
        // partial outputs must equal the whole product.
        let rng = WeightRng::new(14);
        let a = rng.uniform("a", &[5, 12], 1.0).unwrap();
        let b = rng.uniform("b", &[12, 10], 1.0).unwrap();
        let whole = matmul(&a, &b).unwrap();
        let left = matmul(&a, &b.slice_cols(0, 6).unwrap()).unwrap();
        let right = matmul(&a, &b.slice_cols(6, 10).unwrap()).unwrap();
        let merged = Tensor::concat_cols(&[&left, &right]).unwrap();
        merged.assert_close(&whole, 0.0);
    }

    #[test]
    fn sequence_partition_equivalence() {
        // Splitting the activation along the sequence (m) dimension and
        // concatenating row-wise must equal the whole product.
        let rng = WeightRng::new(15);
        let a = rng.uniform("a", &[9, 8], 1.0).unwrap();
        let b = rng.uniform("b", &[8, 6], 1.0).unwrap();
        let whole = matmul(&a, &b).unwrap();
        let top = matmul(&a.slice_rows(0, 4).unwrap(), &b).unwrap();
        let bot = matmul(&a.slice_rows(4, 9).unwrap(), &b).unwrap();
        let merged = Tensor::concat_rows(&[&top, &bot]).unwrap();
        merged.assert_close(&whole, 0.0);
    }
}
