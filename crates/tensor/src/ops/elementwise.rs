//! Elementwise arithmetic, broadcasting bias addition and nonlinearities.

use crate::{simd, OpClass, Tape, Tensor, Var};

impl Tape {
    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let mut out = va.clone();
        out.add_scaled(vb, 1.0);
        self.custom_in_class(OpClass::Elementwise, out, &[a, b], |g| {
            vec![Some(g.clone()), Some(g.clone())]
        })
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let mut out = va.clone();
        out.add_scaled(vb, -1.0);
        self.custom_in_class(OpClass::Elementwise, out, &[a, b], |g| {
            vec![Some(g.clone()), Some(g.map(|x| -x))]
        })
    }

    /// Elementwise `a * b` (Hadamard product, same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let mut out = va.clone();
        for (o, &x) in out.data_mut().iter_mut().zip(vb.data()) {
            *o *= x;
        }
        let (ca, cb) = (va.clone(), vb.clone());
        self.custom_in_class(OpClass::Elementwise, out, &[a, b], move |g| {
            let mut ga = g.clone();
            for (o, &x) in ga.data_mut().iter_mut().zip(cb.data()) {
                *o *= x;
            }
            let mut gb = g.clone();
            for (o, &x) in gb.data_mut().iter_mut().zip(ca.data()) {
                *o *= x;
            }
            vec![Some(ga), Some(gb)]
        })
    }

    /// `a * s` for a compile-time-known scalar `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).map(|x| x * s);
        self.custom_in_class(OpClass::Elementwise, out, &[a], move |g| vec![Some(g.map(|x| x * s))])
    }

    /// `a + s` elementwise for a scalar constant `s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).map(|x| x + s);
        self.custom_in_class(OpClass::Elementwise, out, &[a], |g| vec![Some(g.clone())])
    }

    /// Broadcast add: matrix `m` of shape `[n, d]` plus row vector `bias`
    /// of shape `[1, d]`, added to every row.
    pub fn add_bias(&mut self, m: Var, bias: Var) -> Var {
        let (vm, vb) = (self.value(m), self.value(bias));
        assert_eq!(vb.rows(), 1, "bias must be a row vector");
        assert_eq!(vm.cols(), vb.cols(), "bias width mismatch");
        let mut out = vm.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (o, &b) in row.iter_mut().zip(vb.data()) {
                *o += b;
            }
        }
        self.custom_in_class(OpClass::Elementwise, out, &[m, bias], |g| {
            let mut gb = Tensor::zeros(1, g.cols());
            for r in 0..g.rows() {
                let src = g.row(r);
                for (o, &x) in gb.data_mut().iter_mut().zip(src) {
                    *o += x;
                }
            }
            vec![Some(g.clone()), Some(gb)]
        })
    }

    /// Hyperbolic tangent, elementwise ([`simd::tanh`], lane-exact at every
    /// SIMD level).
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut out = self.value(a).clone();
        simd::tanh_in_place(out.data_mut());
        let y = out.clone();
        self.custom_in_class(OpClass::Elementwise, out, &[a], move |g| {
            let mut ga = g.clone();
            for (o, &v) in ga.data_mut().iter_mut().zip(y.data()) {
                *o *= 1.0 - v * v;
            }
            vec![Some(ga)]
        })
    }

    /// Logistic sigmoid, elementwise ([`simd::sigmoid`], lane-exact at
    /// every SIMD level).
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut out = self.value(a).clone();
        simd::sigmoid_in_place(out.data_mut());
        let y = out.clone();
        self.custom_in_class(OpClass::Elementwise, out, &[a], move |g| {
            let mut ga = g.clone();
            for (o, &v) in ga.data_mut().iter_mut().zip(y.data()) {
                *o *= v * (1.0 - v);
            }
            vec![Some(ga)]
        })
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&mut self, a: Var) -> Var {
        let x = self.value(a).clone();
        let out = x.map(|v| v.max(0.0));
        self.custom_in_class(OpClass::Elementwise, out, &[a], move |g| {
            let mut ga = g.clone();
            for (o, &v) in ga.data_mut().iter_mut().zip(x.data()) {
                if v <= 0.0 {
                    *o = 0.0;
                }
            }
            vec![Some(ga)]
        })
    }

    /// Natural exponential, elementwise.
    pub fn exp(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::exp);
        let y = out.clone();
        self.custom_in_class(OpClass::Elementwise, out, &[a], move |g| {
            let mut ga = g.clone();
            for (o, &v) in ga.data_mut().iter_mut().zip(y.data()) {
                *o *= v;
            }
            vec![Some(ga)]
        })
    }

    /// Affine layer convenience: `x·w + bias` with `x [n,k]`, `w [k,d]`,
    /// `bias [1,d]`.
    pub fn affine(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_bias(xw, bias)
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::gradcheck::assert_grads;
    use crate::{Tape, Tensor};

    fn probe() -> Tensor {
        Tensor::from_rows(&[&[0.3, -0.7, 1.2], &[-1.5, 0.0, 0.4]])
    }

    #[test]
    fn add_sub_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let c = t.constant(Tensor::full(2, 3, 0.5));
            let a = t.add(x, c);
            let b = t.sub(a, x); // == c, but exercises both paths
            let s = t.add(a, b);
            t.sum(s)
        });
    }

    #[test]
    fn mul_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let y = t.mul(x, x);
            t.sum(y)
        });
    }

    #[test]
    fn scale_and_add_scalar_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let y = t.scale(x, -2.5);
            let z = t.add_scalar(y, 3.0);
            let q = t.mul(z, z);
            t.sum(q)
        });
    }

    #[test]
    fn bias_broadcast_grads() {
        assert_grads(Tensor::row_vector(&[0.1, -0.2, 0.3]), 1e-2, |t, b| {
            let m = t.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
            let y = t.add_bias(m, b);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
    }

    #[test]
    fn nonlinearity_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let a = t.tanh(x);
            let b = t.sigmoid(a);
            let c = t.relu(b);
            let d = t.exp(c);
            t.sum(d)
        });
    }

    #[test]
    fn forward_values() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::row_vector(&[0.0, 1.0]));
        let s = t.sigmoid(x);
        assert!((t.value(s).data()[0] - 0.5).abs() < 1e-6);
        let neg = t.constant(Tensor::row_vector(&[-1.0, 2.0]));
        let r = t.relu(neg);
        assert_eq!(t.value(r).data(), &[0.0, 2.0]);
    }
}
