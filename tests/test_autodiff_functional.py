"""Unit tests for elementwise functions, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.autodiff as ad
from repro.autodiff import kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(7)


finite_floats = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)
small_arrays = arrays(np.float64, st.integers(1, 6), elements=finite_floats)


class TestForwardValues:
    def test_exp_log_inverse(self, rng):
        x = rng.random(10) + 0.1
        assert np.allclose(ad.log(ad.exp(ad.Tensor(x))).data, x)

    def test_trig_identity(self, rng):
        x = rng.normal(size=10)
        s, c = ad.sin(ad.Tensor(x)), ad.cos(ad.Tensor(x))
        assert np.allclose(s.data**2 + c.data**2, 1.0)

    def test_sigmoid_range_and_stability(self):
        x = ad.Tensor(np.array([-1000.0, 0.0, 1000.0]))
        y = ad.sigmoid(x).data
        assert np.all((y >= 0) & (y <= 1))
        assert np.allclose(y, [0.0, 0.5, 1.0])
        assert np.isfinite(y).all()

    def test_silu_matches_definition(self, rng):
        x = rng.normal(size=20)
        expected = x / (1 + np.exp(-x))
        assert np.allclose(ad.silu(ad.Tensor(x)).data, expected)

    def test_softplus_large_input_stable(self):
        y = ad.softplus(ad.Tensor(np.array([800.0, -800.0]))).data
        assert np.isfinite(y).all()
        assert y[1] >= 0

    def test_relu_clip_abs(self, rng):
        x = rng.normal(size=10)
        assert np.allclose(ad.relu(ad.Tensor(x)).data, np.maximum(x, 0))
        assert np.allclose(ad.clip(ad.Tensor(x), -0.5, 0.5).data, np.clip(x, -0.5, 0.5))
        assert np.allclose(ad.absolute(ad.Tensor(x)).data, np.abs(x))

    def test_where_minimum_maximum(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(ad.maximum(a, b).data, np.maximum(a, b))
        assert np.allclose(ad.minimum(a, b).data, np.minimum(a, b))
        out = ad.where(a > 0, ad.Tensor(a), ad.Tensor(b)).data
        assert np.allclose(out, np.where(a > 0, a, b))

    def test_safe_norm_zero_vector_no_nan(self):
        x = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        n = ad.safe_norm(x, axis=-1)
        n.sum().backward()
        assert np.isfinite(n.data).all()
        assert np.isfinite(x.grad.data).all()


def _two_branch_sigmoid(v):
    """The masked two-branch logistic the kernel must reproduce bit for bit."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _bytes_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8)
    )


class TestSigmoidBitwise:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
               709.8, -745.2, 5e-324, -5e-324, 1e-300, -1e-300]

    @pytest.fixture(params=[np.float64, np.float32], ids=["f64", "f32"])
    def values(self, request, rng):
        v = np.concatenate([self.SPECIAL, rng.normal(size=997) * 20.0])
        rng.shuffle(v)
        return v.astype(request.param)

    def test_sigmoid_matches_two_branch_form(self, values):
        expected = _two_branch_sigmoid(values)
        with np.errstate(invalid="ignore"):
            assert _bytes_equal(ad.sigmoid(ad.Tensor(values)).data, expected)
            buf = np.empty_like(values)
            assert _bytes_equal(K.sigmoidk(buf, values), expected)

    def test_silu_matches_two_branch_form(self, values):
        with np.errstate(invalid="ignore"):
            expected = values * _two_branch_sigmoid(values)
            assert _bytes_equal(ad.silu(ad.Tensor(values)).data, expected)
            buf = np.empty_like(values)
            assert _bytes_equal(K.siluk(buf, values), expected)

    def test_zero_dim_input(self):
        for v in (0.5, -0.5, 0.0):
            arr = np.array(v)
            assert _bytes_equal(K.sigmoid_np(arr), _two_branch_sigmoid(arr))


class TestGradients:
    @pytest.mark.parametrize(
        "fn",
        [ad.exp, ad.sin, ad.cos, ad.tanh, ad.sigmoid, ad.silu, ad.softplus],
        ids=["exp", "sin", "cos", "tanh", "sigmoid", "silu", "softplus"],
    )
    def test_smooth_unary_gradcheck(self, fn, rng):
        ad.gradcheck(fn, [rng.normal(size=(3, 4))])

    def test_log_sqrt_gradcheck(self, rng):
        ad.gradcheck(ad.log, [0.5 + rng.random(5)])
        ad.gradcheck(ad.sqrt, [0.5 + rng.random(5)])

    def test_piecewise_gradcheck_away_from_kinks(self, rng):
        x = rng.normal(size=8)
        x = x[np.abs(x) > 0.1]
        ad.gradcheck(ad.relu, [x])
        ad.gradcheck(ad.absolute, [x])

    def test_maximum_minimum_where_gradcheck(self, rng):
        a = rng.normal(size=6)
        b = a + np.where(rng.random(6) > 0.5, 0.5, -0.5)  # keep apart from ties
        ad.gradcheck(ad.maximum, [a, b])
        ad.gradcheck(ad.minimum, [a, b])
        cond = rng.random(6) > 0.5
        ad.gradcheck(lambda x, y: ad.where(cond, x, y), [a, b])

    def test_safe_norm_gradcheck(self, rng):
        ad.gradcheck(lambda v: ad.safe_norm(v, axis=-1), [rng.normal(size=(5, 3))])
        ad.gradcheck(
            lambda v: ad.safe_norm(v, axis=0, keepdims=True), [rng.normal(size=(3, 2))]
        )

    def test_second_derivative_silu(self, rng):
        """d²/dx² via grad-of-grad must match finite differences of f'."""
        x0 = rng.normal(size=5)
        x = ad.Tensor(x0, requires_grad=True)
        (g,) = ad.grad(ad.silu(x).sum(), [x], create_graph=True)
        g.sum().backward()
        second = x.grad.data
        eps = 1e-5

        def fprime(v):
            t = ad.Tensor(v, requires_grad=True)
            (gg,) = ad.grad(ad.silu(t).sum(), [t])
            return gg.data

        num = (fprime(x0 + eps) - fprime(x0 - eps)) / (2 * eps)
        assert np.allclose(second, num, atol=1e-5)


class TestHypothesisProperties:
    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_silu_bounded_below(self, arr):
        y = ad.silu(ad.Tensor(arr)).data
        assert (y >= -0.2785).all()  # global minimum of x·σ(x)

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_symmetry(self, arr):
        s1 = ad.sigmoid(ad.Tensor(arr)).data
        s2 = ad.sigmoid(ad.Tensor(-arr)).data
        assert np.allclose(s1 + s2, 1.0, atol=1e-12)

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_exp_log_roundtrip(self, arr):
        y = ad.exp(ad.Tensor(arr)).data
        assert np.allclose(np.log(y), arr, atol=1e-10)

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_safe_norm_nonnegative_and_triangle(self, arr):
        v = arr.reshape(1, -1)
        n = ad.safe_norm(ad.Tensor(v), axis=-1).data
        assert (n >= 0).all()
        n2 = ad.safe_norm(ad.Tensor(2 * v), axis=-1).data
        assert np.allclose(n2, 2 * n, atol=1e-6)
