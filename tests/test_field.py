"""The field rule: float64 when every input is real by value, else
complex128.

Each case below is a linear problem (T, d, x0) with a weight.  The run
sees its iterates, the Krylov check sees T, d and x0 themselves, and
both must compute in the field the values decide, not the dtypes: a
complex array of real values (what ``iterate`` and ``read_matrix``
return) is real data.
"""

import tracemalloc

import numpy as np
import pytest

from wextrap import (
    FixedPointProblem,
    WeightOperator,
    iterate,
    load_history,
    mgs_factorize,
    run,
    save_history,
)
from wextrap.krylov import _problem, _Stages

from conftest import random_pd_matrix, run_grown

K = 5

#: case -> the field every computation on it must run in
CASES = {
    "real": float,
    "complex_dtype_real_values": float,
    "complex_data": complex,
    "real_data_complex_weight": complex,
    "complex_t": complex,
}


def field_case(name):
    """(t, d, x0, weight) of one case; T is a real contraction unless
    the case makes it complex."""
    rng = np.random.default_rng(300)
    n = 8
    t = 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
    d, x0 = rng.standard_normal(n), rng.standard_normal(n)
    m = random_pd_matrix(rng, n, complex_=False)
    if name == "complex_dtype_real_values":
        t, d, x0, m = (a.astype(complex) for a in (t, d, x0, m))
    elif name == "complex_data":
        d = d + 1j * rng.standard_normal(n)
    elif name == "real_data_complex_weight":
        m = random_pd_matrix(rng, n, complex_=True)
    elif name == "complex_t":
        t = t + 0.1j * np.eye(n)
    return t, d, x0, WeightOperator.dense(m)


def iterates(t, d, x0, name):
    xs = np.asarray(iterate(FixedPointProblem.linear(t, d, x0), K + 1))
    # iterate returns complex128; the real case hands run float64 data
    return xs.real.copy() if name == "real" else xs


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_and_its_reload_compute_in_the_field(tmp_path, name):
    field = CASES[name]
    t, d, x0, weight = field_case(name)
    hist, grown = run_grown(iterates(t, d, x0, name), weight, k_max=K)
    assert len(hist.records) == K + 1
    for a in (grown.q, grown.r, grown.p, hist.factors.q, hist.factors.p,
              hist.differences, hist.x0):
        assert a.dtype == field
    for rec in hist.records:
        for solve in (rec.mpe, rec.rre):
            assert solve.gamma.dtype == field and solve.s.dtype == field
            assert type(solve.alpha) in (complex, type(None))
    one_shot = mgs_factorize(hist.differences[:, :K + 1], weight)
    assert one_shot.q.dtype == one_shot.r.dtype == one_shot.p.dtype == field

    path = tmp_path / "hist.json"
    save_history(hist, path)
    back = load_history(path)
    for a in (back.factors.q, back.factors.r, back.factors.p):
        assert a.dtype == field
    # the regrown factors are the run's, bit for bit
    assert np.array_equal(back.factors.q, grown.q)
    assert np.array_equal(back.factors.r, grown.r)
    assert np.array_equal(back.factors.p, grown.p)


@pytest.mark.parametrize("name", sorted(CASES))
def test_krylov_process_computes_in_the_field(name):
    t, d, x0, weight = field_case(name)
    stages = _Stages(*_problem(t, d, x0, weight), K)
    assert stages.basis.shape[1] == K + 1
    assert stages.basis.dtype == stages.hess.dtype == CASES[name]
    w_gmr, w_fom, _, _ = stages.every([K])
    assert w_gmr.dtype == w_fom.dtype == CASES[name]


def test_callable_t_is_complex():
    # a callable cannot be inspected, so it may return complex values
    t, d, x0, weight = field_case("real")
    stages = _Stages(*_problem(lambda v: t @ v, d, x0, weight), K)
    assert stages.basis.dtype == complex


def test_mgs_factorize_decides_by_values():
    rng = np.random.default_rng(301)
    a = rng.standard_normal((6, 3))
    for weight in (WeightOperator.identity(6),
                   WeightOperator.diagonal(rng.uniform(0.5, 2.0, 6)),
                   WeightOperator.dense(random_pd_matrix(rng, 6, False))):
        real = mgs_factorize(a, weight)
        assert real.q.dtype == float
        # the same values in a complex array: the same real factors
        same = mgs_factorize(a.astype(complex), weight)
        assert same.q.dtype == float
        assert np.array_equal(same.q, real.q)
        assert np.array_equal(same.r, real.r)
        assert mgs_factorize(a + 1e-3j, weight).q.dtype == complex


def test_real_dense_weight_on_complex_vectors_is_exact_and_copy_free():
    # a real M applies to complex data as one real product on the real
    # and imaginary parts, never through a complex copy of M
    rng = np.random.default_rng(302)
    n, m = 300, 5
    a = rng.standard_normal((n, n))
    matrix = a @ a.T / n + np.eye(n)
    weight = WeightOperator.dense(matrix)
    assert weight.matrix().dtype == float
    reference = matrix.astype(complex)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = np.asfortranarray(rng.standard_normal((n, m))
                              + 1j * rng.standard_normal((n, m)))
    for v in (z, block, np.ascontiguousarray(block)):
        got, want = weight.apply(v), reference @ v
        assert got.dtype == complex and got.shape == v.shape
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        forms = np.sqrt(np.einsum("i...,i...->...", v.conj(), want).real)
        assert np.all(np.abs(weight.norm(v) - forms) <= 1e-15 * forms)
    for v in (z, block):
        tracemalloc.start()
        try:
            weight.apply(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


def test_single_precision_real_values_compute_in_float64():
    # complex64 arrays of real values are real data, computed in
    # float64 like every other real input, never in their float32 parts
    t, d, x0, weight = field_case("complex_dtype_real_values")
    xs = iterates(t, d, x0, "complex_dtype_real_values").astype(np.complex64)
    hist = run(xs, weight, k_max=K)
    assert hist.differences.dtype == hist.factors.q.dtype == float
    assert mgs_factorize(hist.differences.astype(np.complex64),
                         weight).q.dtype == float
    stages = _Stages(*_problem(t.astype(np.complex64), d, x0, weight), K)
    assert stages.basis.dtype == float
