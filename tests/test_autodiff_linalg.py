"""Unit tests for matmul and einsum, including the precision hooks."""

import sys
import threading

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff.tensor import config


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestMatmul:
    def test_forward_matches_numpy(self, rng):
        for sa, sb in [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))]:
            a, b = rng.normal(size=sa), rng.normal(size=sb)
            assert np.allclose(ad.matmul(a, b).data, a @ b)

    def test_vector_cases(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert np.allclose(ad.matmul(a, b).data, a @ b)
        M = rng.normal(size=(4, 5))
        assert np.allclose(ad.matmul(a, M).data, a @ M)
        assert np.allclose(ad.matmul(M.T, a).data, M.T @ a)

    @pytest.mark.parametrize(
        "sa,sb",
        [
            ((3, 4), (4, 5)),
            ((2, 3, 4), (4, 5)),
            ((2, 3, 4), (2, 4, 5)),
            ((4,), (4, 5)),
            ((3, 4), (4,)),
            ((4,), (4,)),
        ],
    )
    def test_gradcheck(self, sa, sb, rng):
        ad.gradcheck(ad.matmul, [rng.normal(size=sa), rng.normal(size=sb)])

    def test_operator_form(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad is not None and b.grad is not None


class TestEinsum:
    def test_forward_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        assert np.allclose(ad.einsum("ij,jk->ik", a, b).data, np.einsum("ij,jk->ik", a, b))

    @pytest.mark.parametrize(
        "spec,shapes",
        [
            ("ij,jk->ik", [(3, 4), (4, 5)]),
            ("zua,zub,abc->zuc", [(5, 2, 4), (5, 2, 3), (4, 3, 6)]),
            ("zij->z", [(4, 2, 3)]),
            ("ij->ji", [(3, 4)]),
            ("zi,zj->zij", [(4, 2), (4, 3)]),
            ("p,pabc->abc", [(3,), (3, 2, 2, 2)]),
            ("znl,ld->znd", [(4, 2, 3), (3, 5)]),
        ],
    )
    def test_gradcheck(self, spec, shapes, rng):
        ad.gradcheck(lambda *ops: ad.einsum(spec, *ops), [rng.normal(size=s) for s in shapes])

    def test_pure_reduction_broadcast_backward(self, rng):
        # Index appearing only in one operand must broadcast back in grad.
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ad.einsum("ij->i", x).sum().backward()
        assert np.allclose(x.grad.data, 1.0)

    def test_requires_explicit_output(self):
        with pytest.raises(ValueError):
            ad.einsum("ij,jk", np.ones((2, 2)), np.ones((2, 2)))

    def test_rejects_repeated_index_in_operand(self):
        with pytest.raises(NotImplementedError):
            ad.einsum("ii->i", np.ones((2, 2)))

    def test_rejects_ellipsis(self):
        with pytest.raises(NotImplementedError):
            ad.einsum("...i->...", np.ones((2, 2)))

    def test_operand_count_mismatch(self):
        with pytest.raises(ValueError):
            ad.einsum("ij,jk->ik", np.ones((2, 2)))


class TestPrecisionHooks:
    def test_input_cast_applied(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        try:
            config.matmul_input_cast = lambda x: np.zeros_like(x)
            out = ad.matmul(a, b)
            assert np.allclose(out.data, 0.0)
        finally:
            config.matmul_input_cast = None

    def test_output_cast_applied(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        try:
            config.matmul_precision = lambda x: np.round(x)
            out = ad.einsum("ij,jk->ik", a, b)
            assert np.allclose(out.data, np.round(a @ b))
        finally:
            config.matmul_precision = None

    def test_hooks_do_not_leak(self, rng):
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        assert np.allclose(ad.matmul(a, b).data, a @ b)


class TestBlockedMatmulScratch:
    """The tail-block scratch of the row-blocked 2-D matmul kernel."""

    def test_concurrent_callers_match_single_thread_bitwise(self):
        from repro.autodiff.kernels import _blocked_matmul

        n_threads, n_calls = 4, 1500  # more threads than a small CI host's cores
        rng = np.random.default_rng(0)
        b = rng.normal(size=(64, 64))
        # 200 rows = one full 128-row block + a 72-row tail through the scratch.
        inputs = [
            [rng.normal(size=(200, 64)) for _ in range(4)] for _ in range(n_threads)
        ]
        expected = [[_blocked_matmul(a, b, None) for a in row] for row in inputs]
        wrong = [0] * n_threads
        start = threading.Barrier(n_threads)

        def worker(t):
            start.wait()
            for k in range(n_calls):
                out = _blocked_matmul(inputs[t][k % 4], b, None)
                wrong[t] += not np.array_equal(out, expected[t][k % 4])

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == [0] * n_threads

    def test_scratch_is_capped(self):
        from repro.autodiff import kernels

        rng = np.random.default_rng(1)
        for k in range(50):
            a, b = rng.normal(size=(130, 10 + k)), rng.normal(size=(10 + k, 3))
            np.testing.assert_allclose(kernels._blocked_matmul(a, b, None), a @ b)
        assert len(kernels._mm_scratch()) <= kernels._MM_SCRATCH_CAP


class TestTensorProductEinsumBitwise:
    """The fused tensor-product contraction ``P+a, P+b, W -> P+c``."""

    SPECS = ["zua,zub,abc->zuc", "zuc,zub,abc->zua", "zuc,zua,abc->zub"]

    @staticmethod
    def _broadcast_reference(spec, x, y, w):
        """Broadcast outer product, then the row-blocked matmul."""
        from repro.autodiff.kernels import _blocked_matmul

        (sx, sy, sw), so = spec.split("->")[0].split(","), spec.split("->")[1]
        perm = tuple(sw.index(s) for s in (sx[-1], sy[-1], so[-1]))
        w_mat = np.ascontiguousarray(w.transpose(perm))
        na, nb, nc = w_mat.shape
        outer = x[..., :, None] * y[..., None, :]
        flat = outer.reshape(-1, na * nb)
        res = _blocked_matmul(flat, w_mat.reshape(na * nb, nc), None)
        return res.reshape(outer.shape[:-2] + (nc,))

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("n_pad", [0, 37], ids=["unpadded", "padded"])
    def test_matches_broadcast_outer_product(self, spec, n_pad, rng):
        from repro.autodiff.kernels import einsumk

        n_edges = 301
        x = rng.normal(size=(n_edges, 4, 9))
        y = rng.normal(size=(n_edges, 4, 9))
        w = rng.normal(size=(9, 9, 9))
        expected = self._broadcast_reference(spec, x, y, w)
        pad = np.zeros((n_pad, 4, 9))
        xp, yp = np.concatenate([x, pad]), np.concatenate([y, pad])
        out = ad.einsum(spec, xp, yp, w).data
        buf = np.empty_like(out)
        assert einsumk(buf, xp, yp, w, spec=spec) is buf
        for res in (out, buf):
            assert res.shape == (n_edges + n_pad, 4, 9)
            assert np.array_equal(res[:n_edges].view(np.uint8), expected.view(np.uint8))
