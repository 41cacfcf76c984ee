//! Dense layers: [`Linear`] and multi-layer perceptrons ([`Mlp`]).

use gnnmark_autograd::{Param, ParamSet, Tape, Var};
use gnnmark_tensor::Tensor;
use rand::Rng;

use crate::{init, Module, Result};

/// A fully-connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
}

impl Linear {
    /// Creates a layer with Glorot-initialized weights and a zero bias.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "Linear::new",
                reason: "dimensions must be positive".to_string(),
            });
        }
        Ok(Linear {
            weight: Param::new(format!("{name}.weight"), init::glorot(in_dim, out_dim, rng)),
            bias: Some(Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_dim]),
            )),
        })
    }

    /// Creates a layer without a bias term.
    ///
    /// # Errors
    /// Returns an error for zero-sized dimensions.
    pub fn without_bias<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let mut l = Linear::new(name, in_dim, out_dim, rng)?;
        l.bias = None;
        Ok(l)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weight.value().dim(0)
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.value().dim(1)
    }

    /// Applies the layer to `[n, in_dim]` input.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Result<Var> {
        let w = tape.read(&self.weight);
        let y = x.matmul(&w)?;
        match &self.bias {
            Some(b) => y.add_bias(&tape.read(b)),
            None => Ok(y),
        }
    }
}

impl Module for Linear {
    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.register(self.weight.clone());
        if let Some(b) = &self.bias {
            set.register(b.clone());
        }
        set
    }
}

/// Activation applied between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// `tanh(x)`.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a variable.
    pub fn apply(self, x: &Var) -> Var {
        match self {
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Identity => x.mul_scalar(1.0),
        }
    }
}

/// A multi-layer perceptron with a fixed hidden activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP from a width list (`[in, h1, …, out]`); the
    /// activation is applied between layers but not after the last.
    ///
    /// # Errors
    /// Returns an error if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        widths: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Result<Self> {
        if widths.len() < 2 {
            return Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "Mlp::new",
                reason: "need at least input and output widths".to_string(),
            });
        }
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.{i}"), w[0], w[1], rng))
            .collect::<Result<Vec<_>>>()?;
        Ok(Mlp { layers, activation })
    }

    /// Applies the MLP.
    ///
    /// # Errors
    /// Propagates shape errors from the tensor engine.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Result<Var> {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, &h)?;
            if i != last {
                h = self.activation.apply(&h);
            }
        }
        Ok(h)
    }
}

impl Module for Mlp {
    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for l in &self.layers {
            set.extend(&l.params());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_autograd::{Optimizer, Sgd};
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_params() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let l = Linear::new("l", 4, 3, &mut rng).unwrap();
        assert_eq!(l.in_dim(), 4);
        assert_eq!(l.out_dim(), 3);
        assert_eq!(l.num_parameters(), 4 * 3 + 3);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 4]));
        let y = l.forward(&tape, &x).unwrap();
        assert_eq!(y.dims(), vec![2, 3]);
        assert!(Linear::new("z", 0, 3, &mut rng).is_err());
    }

    #[test]
    fn without_bias_has_fewer_params() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let l = Linear::without_bias("l", 4, 3, &mut rng).unwrap();
        assert_eq!(l.num_parameters(), 12);
    }

    #[test]
    fn mlp_learns_xor_direction() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mlp = Mlp::new("m", &[2, 8, 1], Activation::Tanh, &mut rng).unwrap();
        let x = Tensor::from_vec(&[4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let y = Tensor::from_vec(&[4, 1], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let mut opt = Sgd::new(0.5);
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for step in 0..300 {
            mlp.params().zero_grad();
            let tape = Tape::new();
            let pred = mlp
                .forward(&tape, &tape.constant(x.clone()))
                .unwrap()
                .sigmoid();
            let target = tape.constant(y.clone());
            let loss = pred.sub(&target).unwrap().square().mean_all();
            tape.backward(&loss).unwrap();
            opt.step(&mlp.params()).unwrap();
            let l = loss.value().item().unwrap();
            if step == 0 {
                first_loss = l;
            }
            last_loss = l;
        }
        assert!(
            last_loss < first_loss * 0.25,
            "loss {first_loss} → {last_loss}"
        );
    }

    #[test]
    fn mlp_validates_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(Mlp::new("m", &[4], Activation::Relu, &mut rng).is_err());
    }
}
