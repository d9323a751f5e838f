"""Unit tests for gather/scatter/concat/stack/pad — the neighbor-sum primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autodiff as ad
from repro.autodiff import kernels as K
from repro.engine import capture


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestGatherScatter:
    def test_gather_forward(self, rng):
        x = rng.normal(size=(5, 3))
        idx = np.array([0, 4, 4, 2])
        assert np.allclose(ad.gather(x, idx).data, x[idx])

    def test_gather_gradcheck(self, rng):
        idx = np.array([0, 2, 2, 1])
        ad.gradcheck(lambda a: ad.gather(a, idx), [rng.normal(size=(3, 4))])

    def test_scatter_add_forward(self, rng):
        src = rng.normal(size=(4, 2))
        idx = np.array([0, 1, 0, 2])
        out = ad.scatter_add(src, idx, 3).data
        expected = np.zeros((3, 2))
        np.add.at(expected, idx, src)
        assert np.allclose(out, expected)

    def test_scatter_add_gradcheck(self, rng):
        idx = np.array([0, 1, 0, 2, 1])
        ad.gradcheck(lambda a: ad.scatter_add(a, idx, 3), [rng.normal(size=(5, 2))])

    def test_scatter_gather_adjoint(self, rng):
        """⟨scatter(x), y⟩ == ⟨x, gather(y)⟩ — the adjoint identity."""
        idx = rng.integers(0, 4, size=10)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(4, 3))
        lhs = float((ad.scatter_add(x, idx, 4).data * y).sum())
        rhs = float((x * ad.gather(y, idx).data).sum())
        assert np.isclose(lhs, rhs)

    def test_scatter_rejects_bad_index_shape(self):
        with pytest.raises(ValueError):
            ad.scatter_add(np.ones((3, 2)), np.array([0, 1]), 2)

    def test_index_must_be_integer(self):
        with pytest.raises(TypeError):
            ad.gather(np.ones((3, 2)), np.array([0.5, 1.5]))

    @given(st.integers(1, 8), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_scatter_preserves_sum(self, n_bins, n_rows):
        rng = np.random.default_rng(n_bins * 100 + n_rows)
        src = rng.normal(size=(n_rows, 2))
        idx = rng.integers(0, n_bins, size=n_rows)
        out = ad.scatter_add(src, idx, n_bins).data
        assert np.allclose(out.sum(axis=0), src.sum(axis=0))


def _bytes_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def _add_at_reference(src, idx, n_rows):
    """The scatter formula the kernel must reproduce bit for bit."""
    out = np.zeros((n_rows,) + src.shape[1:], dtype=src.dtype)
    np.add.at(out, idx, src)
    return out


class TestScatterBitwise:
    @pytest.mark.parametrize("trailing", [(), (3,), (4, 9)])
    @pytest.mark.parametrize("order", ["sorted", "shuffled", "empty"])
    def test_scatter_add_equals_add_at(self, trailing, order, rng):
        n_edges = 0 if order == "empty" else 700
        idx = rng.integers(0, 37, size=n_edges)
        if order == "sorted":
            idx.sort()
        # Wide dynamic range so a different summation order would show.
        src = rng.normal(size=(n_edges,) + trailing) * 10.0 ** rng.integers(
            -8, 9, size=(n_edges,) + trailing
        )
        expected = _add_at_reference(src, idx, 37)
        assert _bytes_equal(ad.scatter_add(src, idx, 37).data, expected)
        # Replay path: the kernel writes into a caller's (dirty) buffer.
        buf = np.full_like(expected, np.nan)
        assert K.scatter_addk(buf, src, idx, 37) is buf
        assert _bytes_equal(buf, expected)

    def test_float32_keeps_dtype_and_equals_add_at(self, rng):
        idx = rng.integers(0, 9, size=300)
        src = rng.normal(size=(300, 3)).astype(np.float32)
        out = ad.scatter_add(src, idx, 9).data
        assert out.dtype == np.float32
        assert _bytes_equal(out, _add_at_reference(src, idx, 9))

    def test_put_at_repeated_fancy_index_accumulates(self, rng):
        g = rng.normal(size=(4, 3))
        idx = (slice(None), np.array([1, 1, 0]))
        expected = np.zeros((4, 2))
        np.add.at(expected, idx, g)
        out = K.put_at(None, g, idx, (4, 2), np.float64)
        assert _bytes_equal(out, expected)
        assert np.array_equal(out[:, 1], g[:, 0] + g[:, 1])

    @pytest.mark.parametrize(
        "idx",
        [np.s_[1:3], np.s_[:, 2], np.s_[..., None, 1], np.s_[2, ::2]],
        ids=["rows", "column", "newaxis", "strided"],
    )
    def test_put_at_basic_index_equals_add_at(self, idx, rng):
        x = rng.normal(size=(4, 5))
        g = rng.normal(size=x[idx].shape)
        g.flat[0] = -0.0
        expected = np.zeros(x.shape)
        np.add.at(expected, idx, g)
        assert _bytes_equal(K.put_at(None, g, idx, x.shape, np.float64), expected)
        # ... and through the getitem backward on the tape.
        t = ad.Tensor(x, requires_grad=True)
        (t[idx] * ad.Tensor(g)).sum().backward()
        assert _bytes_equal(t.grad.data, expected)


class TestIndexRange:
    """An out-of-range index raises; numpy would wrap a negative one."""

    def test_scatter_add_negative_index_raises(self):
        with pytest.raises(IndexError, match="index -1 out of range for 3 rows"):
            ad.scatter_add(np.ones((3, 2)), np.array([0, -1, 1]), 3)

    def test_scatter_add_index_past_end_raises(self):
        with pytest.raises(IndexError, match="index 3 out of range for 3 rows"):
            ad.scatter_add(np.ones(3), np.array([0, 3, 1]), 3)

    def test_gather_negative_index_raises(self):
        with pytest.raises(IndexError, match="index -2 out of range for 3 rows"):
            ad.gather(np.ones((3, 2)), np.array([0, -2]))

    def test_gather_index_past_end_raises(self):
        with pytest.raises(IndexError, match="index 4 out of range for 3 rows"):
            ad.gather(np.ones((3, 2)), np.array([4, 0]))

    def test_empty_index_is_valid(self):
        idx = np.array([], dtype=np.int64)
        assert ad.gather(np.ones((3, 2)), idx).shape == (0, 2)
        out = ad.scatter_add(np.ones((0, 2)), idx, 3).data
        assert out.dtype == np.float64 and np.array_equal(out, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_scatter_add_replay_rejects_rebound_index(self, bad):
        idx_buf = np.array([0, 2, 1], dtype=np.int64)
        _, plan = capture(lambda: ad.scatter_add(np.ones((3, 2)), idx_buf, 3).sum())
        (total,) = plan.execute()
        assert float(total) == 6.0
        idx_buf[1] = bad
        with pytest.raises(IndexError, match=f"index {bad} out of range for 3 rows"):
            plan.execute()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_gather_replay_rejects_rebound_index(self, bad):
        idx_buf = np.array([0, 2, 1], dtype=np.int64)
        x = np.arange(6.0).reshape(3, 2)
        _, plan = capture(lambda: ad.gather(ad.Tensor(x), idx_buf).sum())
        (total,) = plan.execute()
        assert float(total) == 15.0
        idx_buf[1] = bad
        with pytest.raises(IndexError, match=f"index {bad} out of range for 3 rows"):
            plan.execute()


class TestAssembly:
    def test_concatenate_gradcheck(self, rng):
        ad.gradcheck(
            lambda a, b: ad.concatenate([a, b], axis=-1),
            [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))],
        )
        ad.gradcheck(
            lambda a, b: ad.concatenate([a, b], axis=0),
            [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))],
        )

    def test_stack_gradcheck(self, rng):
        ad.gradcheck(
            lambda a, b: ad.stack([a, b], axis=0),
            [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))],
        )
        ad.gradcheck(
            lambda a, b: ad.stack([a, b], axis=-1),
            [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))],
        )

    def test_pad_rows_forward_and_grad(self, rng):
        x = rng.normal(size=(3, 2))
        out = ad.pad_rows(x, 5, fill=7.0)
        assert out.shape == (5, 2)
        assert np.allclose(out.data[3:], 7.0)
        ad.gradcheck(lambda a: ad.pad_rows(a, 6), [x])

    def test_pad_rows_noop_and_error(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 2)))
        assert ad.pad_rows(x, 3) is x
        with pytest.raises(ValueError):
            ad.pad_rows(x, 2)

    def test_pad_rows_gradient_ignores_padding(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        y = ad.pad_rows(x, 4)
        (y * y).sum().backward()
        assert np.allclose(x.grad.data, 2.0)
