//! Finite-difference validation of every autograd op, first and second order.

use pace_tensor::check::{assert_grad_close, assert_second_order_close};
use pace_tensor::{Graph, Matrix, Var};

const TOL: f32 = 2e-2;

fn mat(vals: &[f32]) -> Matrix {
    Matrix::row(vals)
}

fn m23() -> Matrix {
    Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.9, -1.4, 0.5])
}

#[test]
fn grad_add_mul() {
    assert_grad_close("add", &m23(), TOL, |g, x| {
        let y = g.add(x, x);
        let z = g.mul(y, x);
        g.sum_all(z)
    });
}

#[test]
fn grad_sub_neg() {
    assert_grad_close("sub_neg", &m23(), TOL, |g, x| {
        let c = g.leaf(Matrix::full(2, 3, 0.5));
        let y = g.sub(x, c);
        let z = g.neg(y);
        let w = g.mul(z, z);
        g.sum_all(w)
    });
}

#[test]
fn grad_div() {
    assert_grad_close("div", &mat(&[1.3, 2.0, -1.5]), TOL, |g, x| {
        let c = g.leaf(mat(&[2.0, 3.0, 4.0]));
        let y = g.div(c, x);
        g.sum_all(y)
    });
}

#[test]
fn grad_scalar_ops() {
    assert_grad_close("scalar_ops", &m23(), TOL, |g, x| {
        let y = g.mul_scalar(x, 3.0);
        let y = g.add_scalar(y, -1.0);
        let y = g.mul(y, y);
        g.mean_all(y)
    });
}

#[test]
fn grad_pow_scalar() {
    assert_grad_close("pow", &mat(&[1.5, 2.0, 0.7]), TOL, |g, x| {
        let y = g.pow_scalar(x, 3.0);
        g.sum_all(y)
    });
}

#[test]
fn grad_matmul() {
    assert_grad_close("matmul_lhs", &m23(), TOL, |g, x| {
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.2, -0.4, 0.8, 0.1, -0.6, 0.9]));
        let y = g.matmul(x, w);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    // And w.r.t. the right operand.
    let w = Matrix::from_vec(3, 2, vec![0.2, -0.4, 0.8, 0.1, -0.6, 0.9]);
    assert_grad_close("matmul_rhs", &w, TOL, |g, x| {
        let a = g.leaf(m23());
        let y = g.matmul(a, x);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
}

#[test]
fn grad_transpose() {
    assert_grad_close("transpose", &m23(), TOL, |g, x| {
        let xt = g.transpose(x);
        let y = g.matmul(x, xt);
        g.sum_all(y)
    });
}

#[test]
fn grad_activations() {
    for (name, f) in [
        ("sigmoid", Graph::sigmoid as fn(&mut Graph, Var) -> Var),
        ("tanh", Graph::tanh),
        ("exp", Graph::exp),
    ] {
        assert_grad_close(name, &m23(), TOL, move |g, x| {
            let y = f(g, x);
            let y2 = g.mul(y, y);
            g.sum_all(y2)
        });
    }
}

#[test]
fn grad_relu_abs_away_from_kink() {
    // Avoid x=0 where the sub-gradient is arbitrary.
    let x = mat(&[0.5, -0.8, 1.3, -2.0]);
    assert_grad_close("relu", &x, TOL, |g, v| {
        let y = g.relu(v);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("abs", &x, TOL, |g, v| {
        let y = g.abs(v);
        g.sum_all(y)
    });
}

#[test]
fn grad_ln_sqrt_positive_domain() {
    let x = mat(&[0.5, 1.5, 3.0]);
    assert_grad_close("ln", &x, TOL, |g, v| {
        let y = g.ln(v);
        g.sum_all(y)
    });
    assert_grad_close("sqrt", &x, TOL, |g, v| {
        let y = g.sqrt(v);
        g.sum_all(y)
    });
}

#[test]
fn grad_max_min_no_ties() {
    let x = mat(&[0.5, -0.8, 1.3]);
    assert_grad_close("maximum", &x, TOL, |g, v| {
        let c = g.leaf(mat(&[0.0, 0.0, 2.0]));
        let y = g.maximum(v, c);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("minimum", &x, TOL, |g, v| {
        let c = g.leaf(mat(&[0.0, 0.0, 2.0]));
        let y = g.minimum(v, c);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
}

#[test]
fn grad_reductions() {
    assert_grad_close("sum_rows", &m23(), TOL, |g, x| {
        let s = g.sum_rows(x);
        let s2 = g.mul(s, s);
        g.sum_all(s2)
    });
    assert_grad_close("mean_rows", &m23(), TOL, |g, x| {
        let s = g.mean_rows(x);
        let s2 = g.mul(s, s);
        g.sum_all(s2)
    });
    assert_grad_close("mean_all", &m23(), TOL, |g, x| {
        let m = g.mean_all(x);
        g.mul(m, m)
    });
}

#[test]
fn grad_broadcasts() {
    let row = mat(&[0.4, -0.9]);
    assert_grad_close("repeat_rows", &row, TOL, |g, x| {
        let r = g.repeat_rows(x, 3);
        let r2 = g.mul(r, r);
        g.sum_all(r2)
    });
    assert_grad_close("broadcast_scalar", &Matrix::scalar(1.7), TOL, |g, x| {
        let b = g.broadcast_scalar(x, 2, 2);
        let b2 = g.mul(b, b);
        g.sum_all(b2)
    });
    assert_grad_close("add_row_lhs", &m23(), TOL, |g, x| {
        let b = g.leaf(mat(&[0.1, -0.2, 0.3]));
        let y = g.add_row(x, b);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("add_row_rhs", &mat(&[0.1, -0.2, 0.3]), TOL, |g, x| {
        let a = g.leaf(m23());
        let y = g.add_row(a, x);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("mul_row_lhs", &m23(), TOL, |g, x| {
        let b = g.leaf(mat(&[0.5, -1.2, 0.8]));
        let y = g.mul_row(x, b);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("mul_row_rhs", &mat(&[0.5, -1.2, 0.8]), TOL, |g, x| {
        let a = g.leaf(m23());
        let y = g.mul_row(a, x);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
}

#[test]
fn grad_structural() {
    assert_grad_close("concat_cols", &m23(), TOL, |g, x| {
        let c = g.leaf(Matrix::from_vec(2, 1, vec![0.7, -0.3]));
        let y = g.concat_cols(&[x, c]);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("concat_rows", &m23(), TOL, |g, x| {
        let c = g.leaf(Matrix::from_vec(1, 3, vec![0.7, -0.3, 0.2]));
        let y = g.concat_rows(&[x, c]);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("slice_cols", &m23(), TOL, |g, x| {
        let y = g.slice_cols(x, 1, 3);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("slice_rows", &m23(), TOL, |g, x| {
        let y = g.slice_rows(x, 1, 2);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close("gather_rows", &m23(), TOL, |g, x| {
        let y = g.gather_rows(x, &[1, 0]);
        let w = g.leaf(Matrix::from_vec(2, 3, vec![0.7, -0.3, 0.2, 1.1, 0.4, -0.8]));
        let y2 = g.mul(y, w);
        let y3 = g.mul(y2, y);
        g.sum_all(y3)
    });
    assert_grad_close("scatter_rows", &m23(), TOL, |g, x| {
        let y = g.scatter_rows(x, &[2, 0], 4);
        let w = g.leaf(Matrix::from_vec(
            4,
            3,
            (0..12).map(|i| 0.1 * i as f32 - 0.5).collect(),
        ));
        let y2 = g.mul(y, w);
        let y3 = g.mul(y2, y);
        g.sum_all(y3)
    });
}

#[test]
fn grad_accumulates_over_fanout() {
    // x used by two paths: grad must be the sum of both.
    assert_grad_close("fanout", &m23(), TOL, |g, x| {
        let a = g.sigmoid(x);
        let b = g.tanh(x);
        let s = g.mul(a, b);
        g.sum_all(s)
    });
}

#[test]
fn grad_unused_wrt_is_zero() {
    let mut g = Graph::new();
    let x = g.leaf(mat(&[1.0, 2.0]));
    let unused = g.leaf(mat(&[5.0]));
    let y = g.mul(x, x);
    let y = g.sum_all(y);
    let grads = g.grad(y, &[x, unused]);
    assert_eq!(g.value(grads[1]).data(), &[0.0]);
}

// ---- second order ----------------------------------------------------------

#[test]
fn second_order_polynomial() {
    let x = mat(&[0.8, -1.1, 0.4]);
    let w = mat(&[1.0, 0.5, -0.7]);
    assert_second_order_close("x^3", &x, &w, 5e-2, |g, v| {
        let y = g.pow_scalar(v, 3.0);
        g.sum_all(y)
    });
}

#[test]
fn second_order_sigmoid_network() {
    let x = mat(&[0.3, -0.6]);
    let w = mat(&[0.9, 0.9]);
    assert_second_order_close("sigmoid_net", &x, &w, 5e-2, |g, v| {
        let wm = g.leaf(Matrix::from_vec(2, 2, vec![0.5, -0.3, 0.8, 0.2]));
        let h = g.matmul(v, wm);
        let h = g.sigmoid(h);
        let h2 = g.mul(h, h);
        g.sum_all(h2)
    });
}

#[test]
fn second_order_through_inner_gradient_descent_step() {
    // The PACE-critical pattern: θ' = θ − η ∇L(θ); outer loss evaluated at θ'.
    // Differentiate the outer loss with respect to an input that only affects
    // it through the inner gradient.
    let q = mat(&[0.7, -0.2]); // "poisoning query" stand-in
    let w = mat(&[1.0, 1.0]);
    let f = |g: &mut Graph, qv: Var| -> Var {
        let theta = g.leaf(mat(&[0.5, -0.4]));
        // inner loss: sum((theta * q)^2)
        let tq = g.mul(theta, qv);
        let tq2 = g.mul(tq, tq);
        let inner = g.sum_all(tq2);
        let gtheta = g.grad(inner, &[theta])[0];
        let step = g.mul_scalar(gtheta, 0.1);
        let theta1 = g.sub(theta, step);
        // outer loss: sum(theta1^2) — depends on q only via the inner gradient.
        let t2 = g.mul(theta1, theta1);
        g.sum_all(t2)
    };
    assert_grad_close("hypergradient", &q, 5e-2, f);
    assert_second_order_close("hypergradient2", &q, &w, 8e-2, f);
}

#[test]
fn third_order_smoke() {
    // x^4: third derivative = 24x. Chain three grads.
    let mut g = Graph::new();
    let x = g.leaf(Matrix::scalar(1.5));
    let y = g.pow_scalar(x, 4.0);
    let y = g.sum_all(y);
    let g1 = g.grad(y, &[x])[0];
    let s1 = g.sum_all(g1);
    let g2 = g.grad(s1, &[x])[0];
    let s2 = g.sum_all(g2);
    let g3 = g.grad(s2, &[x])[0];
    let got = g.value(g3).as_scalar();
    assert!((got - 24.0 * 1.5).abs() < 1e-3, "third derivative: {got}");
}

#[test]
fn second_order_every_op() {
    // Every differentiable op, squared-and-summed so the Hessian is
    // non-trivial wherever the op has curvature, double-backward checked
    // against finite differences. Piecewise-linear ops (relu, abs, max/min,
    // slicing) have zero curvature away from their kinks — the check then
    // verifies the second-order graph builds and agrees that it is zero.
    // `xtask lint` requires this body to build every non-`Leaf` `Op`.
    type F = fn(&mut Graph, Var) -> Var;
    fn sq_sum(g: &mut Graph, y: Var) -> Var {
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    }
    // Strictly positive input for domain-restricted ops (ln, sqrt, div, pow).
    fn p23() -> Matrix {
        Matrix::from_vec(2, 3, vec![0.4, 0.9, 1.3, 0.6, 1.1, 0.8])
    }
    let cases: Vec<(&str, Matrix, F)> = vec![
        ("add", m23(), |g, x| {
            let y = g.add(x, x);
            sq_sum(g, y)
        }),
        ("sub", m23(), |g, x| {
            let c = g.leaf(Matrix::full(2, 3, 0.3));
            let y = g.sub(x, c);
            sq_sum(g, y)
        }),
        ("mul", m23(), |g, x| {
            let y = g.mul(x, x);
            g.sum_all(y)
        }),
        ("div", p23(), |g, x| {
            let c = g.leaf(Matrix::full(2, 3, 2.0));
            let y = g.div(c, x);
            g.sum_all(y)
        }),
        ("neg", m23(), |g, x| {
            let y = g.neg(x);
            sq_sum(g, y)
        }),
        ("add_scalar", m23(), |g, x| {
            let y = g.add_scalar(x, 0.7);
            sq_sum(g, y)
        }),
        ("mul_scalar", m23(), |g, x| {
            let y = g.mul_scalar(x, 1.4);
            sq_sum(g, y)
        }),
        ("pow_scalar", p23(), |g, x| {
            let y = g.pow_scalar(x, 2.5);
            g.sum_all(y)
        }),
        ("matmul", m23(), |g, x| {
            let w = g.leaf(Matrix::from_vec(3, 2, vec![0.2, -0.4, 0.8, 0.1, -0.6, 0.9]));
            let y = g.matmul(x, w);
            sq_sum(g, y)
        }),
        ("transpose", m23(), |g, x| {
            let y = g.transpose(x);
            sq_sum(g, y)
        }),
        ("sigmoid", m23(), |g, x| {
            let y = g.sigmoid(x);
            g.sum_all(y)
        }),
        ("tanh", m23(), |g, x| {
            let y = g.tanh(x);
            g.sum_all(y)
        }),
        ("relu", m23(), |g, x| {
            let y = g.relu(x);
            sq_sum(g, y)
        }),
        ("exp", m23(), |g, x| {
            let y = g.exp(x);
            g.sum_all(y)
        }),
        ("ln", p23(), |g, x| {
            let y = g.ln(x);
            g.sum_all(y)
        }),
        ("sqrt", p23(), |g, x| {
            let y = g.sqrt(x);
            g.sum_all(y)
        }),
        ("abs", m23(), |g, x| {
            let y = g.abs(x);
            sq_sum(g, y)
        }),
        ("maximum", m23(), |g, x| {
            let c = g.leaf(Matrix::full(2, 3, 0.05));
            let y = g.maximum(x, c);
            sq_sum(g, y)
        }),
        ("minimum", m23(), |g, x| {
            let c = g.leaf(Matrix::full(2, 3, 0.05));
            let y = g.minimum(x, c);
            sq_sum(g, y)
        }),
        ("sum_all", m23(), |g, x| {
            let s = g.sum_all(x);
            g.mul(s, s)
        }),
        ("mean_all", m23(), |g, x| {
            let s = g.mean_all(x);
            g.mul(s, s)
        }),
        ("sum_rows", m23(), |g, x| {
            let s = g.sum_rows(x);
            sq_sum(g, s)
        }),
        ("mean_rows", m23(), |g, x| {
            let s = g.mean_rows(x);
            sq_sum(g, s)
        }),
        ("sum_cols", m23(), |g, x| {
            let s = g.sum_cols(x);
            sq_sum(g, s)
        }),
        ("repeat_rows", mat(&[0.4, -0.9, 0.6]), |g, x| {
            let r = g.repeat_rows(x, 3);
            sq_sum(g, r)
        }),
        (
            "repeat_cols",
            Matrix::from_vec(2, 1, vec![0.4, -0.9]),
            |g, x| {
                let r = g.repeat_cols(x, 3);
                sq_sum(g, r)
            },
        ),
        ("broadcast_scalar", Matrix::scalar(1.2), |g, x| {
            let b = g.broadcast_scalar(x, 2, 2);
            sq_sum(g, b)
        }),
        ("add_row", m23(), |g, x| {
            let b = g.leaf(mat(&[0.1, -0.2, 0.3]));
            let y = g.add_row(x, b);
            sq_sum(g, y)
        }),
        ("mul_row", m23(), |g, x| {
            let b = g.leaf(mat(&[0.5, -1.2, 0.8]));
            let y = g.mul_row(x, b);
            sq_sum(g, y)
        }),
        ("mul_col", m23(), |g, x| {
            let c = g.leaf(Matrix::from_vec(2, 1, vec![0.7, -1.3]));
            let y = g.mul_col(x, c);
            sq_sum(g, y)
        }),
        ("concat_cols", m23(), |g, x| {
            let c = g.leaf(Matrix::from_vec(2, 1, vec![0.7, -0.3]));
            let y = g.concat_cols(&[x, c]);
            sq_sum(g, y)
        }),
        ("concat_rows", m23(), |g, x| {
            let c = g.leaf(Matrix::from_vec(1, 3, vec![0.7, -0.3, 0.2]));
            let y = g.concat_rows(&[x, c]);
            sq_sum(g, y)
        }),
        ("slice_cols", m23(), |g, x| {
            let y = g.slice_cols(x, 1, 3);
            sq_sum(g, y)
        }),
        ("slice_rows", m23(), |g, x| {
            let y = g.slice_rows(x, 1, 2);
            sq_sum(g, y)
        }),
        ("gather_rows", m23(), |g, x| {
            let y = g.gather_rows(x, &[1, 0]);
            sq_sum(g, y)
        }),
        ("scatter_rows", m23(), |g, x| {
            let y = g.scatter_rows(x, &[2, 0], 4);
            sq_sum(g, y)
        }),
    ];
    for (name, x, f) in cases {
        let (r, c) = x.shape();
        let w = Matrix::from_vec(
            r,
            c,
            (0..r * c).map(|i| 0.3 + 0.2 * ((i % 3) as f32)).collect(),
        );
        assert_second_order_close(name, &x, &w, 8e-2, f);
    }
}

#[test]
fn grad_col_ops() {
    assert_grad_close("mul_col_lhs", &m23(), TOL, |g, x| {
        let c = g.leaf(Matrix::from_vec(2, 1, vec![0.7, -1.3]));
        let y = g.mul_col(x, c);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    assert_grad_close(
        "mul_col_rhs",
        &Matrix::from_vec(2, 1, vec![0.7, -1.3]),
        TOL,
        |g, x| {
            let a = g.leaf(m23());
            let y = g.mul_col(a, x);
            let y2 = g.mul(y, y);
            g.sum_all(y2)
        },
    );
    assert_grad_close("sum_cols", &m23(), TOL, |g, x| {
        let s = g.sum_cols(x);
        let s2 = g.mul(s, s);
        g.sum_all(s2)
    });
    assert_grad_close(
        "repeat_cols",
        &Matrix::from_vec(2, 1, vec![0.4, -0.9]),
        TOL,
        |g, x| {
            let r = g.repeat_cols(x, 3);
            let r2 = g.mul(r, r);
            g.sum_all(r2)
        },
    );
}
