//! Layer normalization (per row), as used inside the Transformer encoder.

use crate::{OpClass, Tape, Tensor, Var};

impl Tape {
    /// Row-wise layer normalization with learned gain and bias:
    /// `y = gain ⊙ (x − μ)/σ + bias`, where μ, σ are per-row statistics.
    ///
    /// * `x` — `[n, d]`
    /// * `gain`, `bias` — `[1, d]`
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        const EPS: f32 = 1e-5;
        let (vx, vg, vb) = (self.value(x), self.value(gain), self.value(bias));
        let (n, d) = vx.shape();
        assert_eq!(vg.shape(), (1, d), "gain must be [1, d]");
        assert_eq!(vb.shape(), (1, d), "bias must be [1, d]");

        let mut xhat = Tensor::zeros(n, d);
        let mut inv_std = vec![0.0f32; n];
        let mut out = Tensor::zeros(n, d);
        for r in 0..n {
            let row = vx.row(r);
            let mu: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std[r] = istd;
            for c in 0..d {
                let xh = (row[c] - mu) * istd;
                xhat.set2(r, c, xh);
                out.set2(r, c, vg.at2(0, c) * xh + vb.at2(0, c));
            }
        }

        let gain_c = vg.clone();
        self.custom_in_class(OpClass::Norm, out, &[x, gain, bias], move |g| {
            let mut gx = Tensor::zeros(n, d);
            let mut ggain = Tensor::zeros(1, d);
            let mut gbias = Tensor::zeros(1, d);
            let mut dxhat = vec![0.0f32; d];
            for r in 0..n {
                let grow = g.row(r);
                let xhrow = xhat.row(r);
                // dxhat = g ⊙ gain
                for (o, (&gv, &gn)) in dxhat.iter_mut().zip(grow.iter().zip(gain_c.row(0))) {
                    *o = gv * gn;
                }
                let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / d as f32;
                let mean_dxhat_xhat: f32 =
                    dxhat.iter().zip(xhrow).map(|(&a, &b)| a * b).sum::<f32>() / d as f32;
                let istd = inv_std[r];
                for c in 0..d {
                    gx.set2(r, c, istd * (dxhat[c] - mean_dxhat - xhrow[c] * mean_dxhat_xhat));
                    ggain.row_mut(0)[c] += grow[c] * xhrow[c];
                    gbias.row_mut(0)[c] += grow[c];
                }
            }
            vec![Some(gx), Some(ggain), Some(gbias)]
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::gradcheck::assert_grads;
    use crate::{Tape, Tensor};

    #[test]
    fn normalizes_rows_to_zero_mean_unit_var() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let g = t.constant(Tensor::row_vector(&[1.0, 1.0, 1.0, 1.0]));
        let b = t.constant(Tensor::zeros(1, 4));
        let y = t.layer_norm(x, g, b);
        let row = t.value(y).row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_grads_wrt_input() {
        assert_grads(Tensor::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 0.3, -0.8]]), 2e-2, |t, x| {
            let g = t.constant(Tensor::row_vector(&[1.2, 0.8, -0.5]));
            let b = t.constant(Tensor::row_vector(&[0.1, -0.2, 0.3]));
            let y = t.layer_norm(x, g, b);
            let w = t.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 1.5]]));
            let p = t.mul(y, w);
            t.sum(p)
        });
    }

    #[test]
    fn layer_norm_grads_wrt_gain_and_bias() {
        assert_grads(Tensor::row_vector(&[1.2, 0.8, -0.5]), 1e-2, |t, g| {
            let x = t.constant(Tensor::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 0.3, -0.8]]));
            let b = t.constant(Tensor::row_vector(&[0.1, -0.2, 0.3]));
            let y = t.layer_norm(x, g, b);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
        assert_grads(Tensor::row_vector(&[0.1, -0.2, 0.3]), 1e-2, |t, b| {
            let x = t.constant(Tensor::from_rows(&[&[0.5, -1.0, 2.0]]));
            let g = t.constant(Tensor::row_vector(&[1.2, 0.8, -0.5]));
            let y = t.layer_norm(x, g, b);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
    }
}
