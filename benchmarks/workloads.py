"""Seeded benchmark inputs and the numpy-only reference extrapolants.

Every workload iterates x_{m+1} = T x_m + d from x_0 = 0, where T is a
real normal matrix whose 2x2 blocks rotate by an angle theta ~ U(0, pi)
and scale by 0.98.  Equal-modulus eigenvalues keep the difference block
R_k well conditioned, so every identity check of the library holds on
these inputs and no operation is expected to fail.

The two workloads stress different layers:

``dense-weight``
    N=500, k=20, dense SPD weight M = A A^T / N + I, T = Q B Q^T formed.
    Every inner product is an N^2 matvec, so the weight operator
    dominates the numerics and the N^2 weight dominates the history file.
``deep-identity``
    N=300, k=80, identity weight, T formed.  M-products are free; the
    cost is the per-column Python loop of the QR, the O(k^2) per-stage
    work of the extrapolation and relations, and the repeated Arnoldi
    of the Krylov check.

A change to the weight operator should move ``dense-weight`` and leave
``deep-identity`` flat; a change to the QR loop, the stage solves or the
Arnoldi process shows on ``deep-identity`` first.

``tiny`` shrinks every workload to a few dozen unknowns for smoke tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: modulus of every eigenvalue of T
RADIUS = 0.98


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    k: int
    weight: str  # identity | dense


WORKLOADS = {
    "dense-weight": Spec("dense-weight", 500, 20, "dense"),
    "deep-identity": Spec("deep-identity", 300, 80, "identity"),
}

TINY = {
    "dense-weight": Spec("dense-weight", 24, 6, "dense"),
    "deep-identity": Spec("deep-identity", 20, 8, "identity"),
}


def spec_for(name: str, tiny: bool = False) -> Spec:
    return (TINY if tiny else WORKLOADS)[name]


def block_rotation(theta) -> np.ndarray:
    """blockdiag(RADIUS * rotation(theta_j)), one 2x2 block per angle."""
    c, s = RADIUS * np.cos(theta), RADIUS * np.sin(theta)
    n = 2 * c.size
    t = np.zeros((n, n))
    idx = np.arange(0, n, 2)
    t[idx, idx] = c
    t[idx, idx + 1] = -s
    t[idx + 1, idx] = s
    t[idx + 1, idx + 1] = c
    return t


@dataclass
class Inputs:
    spec: Spec
    t: np.ndarray
    d: np.ndarray
    x0: np.ndarray
    weight_raw: np.ndarray | None  # M when dense
    weight: object  # wextrap.WeightOperator
    iterates: np.ndarray  # x_0 .. x_{k+1}, one per row

    def cli_args(self, workdir: str) -> list:
        """Input flags of ``accelerate`` reading the files :func:`build`
        wrote into ``workdir``."""
        def path(name):
            return os.path.join(workdir, name)

        args = ["--linear", path("T.mtx"), path("d.vec")]
        if self.spec.weight == "dense":
            args += ["--weight", "dense:" + path("M.mtx")]
        return args + ["--k-max", str(self.spec.k)]


def build(spec: Spec, seed: int, workdir: str | None = None) -> Inputs:
    """Generate the inputs of one workload from ``seed``.

    Validates the weight (the Cholesky factorization of a dense M) and
    iterates the map with the library, as a user would.  With
    ``workdir`` the CLI input files are written there too.
    """
    import wextrap

    rng = np.random.default_rng([seed, spec.n, spec.k])
    n, k = spec.n, spec.k
    rot = block_rotation(rng.uniform(0.0, np.pi, n // 2))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q @ rot @ q.T
    d = rng.standard_normal(n)
    x0 = np.zeros(n)
    if spec.weight == "dense":
        a = rng.standard_normal((n, n))
        m = a @ a.T / n + np.eye(n)
        weight_raw = 0.5 * (m + m.T)
        weight = wextrap.WeightOperator.dense(weight_raw)
    else:
        weight_raw = None
        weight = wextrap.WeightOperator.identity(n)

    problem = wextrap.FixedPointProblem.linear(t, d, x0)
    iterates = np.asarray(wextrap.iterate(problem, k + 1))

    if workdir is not None:
        wextrap.write_matrix(os.path.join(workdir, "T.mtx"), t)
        wextrap.write_vector(os.path.join(workdir, "d.vec"), d)
        if spec.weight == "dense":
            wextrap.write_matrix(os.path.join(workdir, "M.mtx"), weight_raw)
    return Inputs(spec, t, d, x0, weight_raw, weight, iterates)


class WeightedFrame:
    """Maps vectors to coordinates where the weighted norm is Euclidean:
    |||z||| = ||L^H z||_2 for the Cholesky factor M = L L^H."""

    def __init__(self, inputs: Inputs):
        self._lh = None
        if inputs.spec.weight == "dense":
            self._lh = np.linalg.cholesky(inputs.weight_raw).conj().T

    def __call__(self, z):
        return z if self._lh is None else self._lh @ z

    def norm(self, z) -> float:
        return float(np.linalg.norm(self(z)))


def reference_extrapolants(inputs: Inputs, frame: WeightedFrame):
    """Final-stage (s_mpe, s_rre) from numpy alone.

    Both are constrained least-squares solves on B = L^H U_k, with U_k
    the difference block: RRE minimizes ||B gamma|| subject to
    sum(gamma) = 1 through the Householder QR of B; MPE fixes the last
    coefficient to 1, solves the unconstrained problem for the others
    and normalizes.
    """
    k = inputs.spec.k
    x = inputs.iterates.astype(complex)
    b = frame((x[1:k + 2] - x[:k + 1]).T)
    _, r = np.linalg.qr(b)
    y = np.linalg.solve(r.conj().T, np.ones(k + 1))
    h = np.linalg.solve(r, y)
    gamma_rre = h / h.sum()
    cprime = np.linalg.lstsq(b[:, :k], -b[:, k], rcond=None)[0]
    c = np.append(cprime, 1.0)
    gamma_mpe = c / c.sum()
    xs = x[:k + 1].T
    return xs @ gamma_mpe, xs @ gamma_rre


def model_counts(spec: Spec) -> dict:
    """Operation counts the algebra requires, computed from N, k and the
    weight kind (not measured).

    ``mproducts_per_column``: weight applications per new column when
    M Q is kept beside Q (identity weights need none).
    ``qr_flops``: real flops of one-pass Gram-Schmidt on the n = k+1
    complex difference columns (8 flops per complex multiply-add, one
    inner product and one update per basis vector, two norms per
    column) plus one M-product of 8 N^2 flops per column for dense M.
    ``t_applications``: applications of T the Krylov check needs, one
    per generated iterate.
    """
    n, cols = spec.n, spec.k + 1
    dense = spec.weight == "dense"
    return {
        "mproducts_per_column": int(dense),
        "qr_flops": 8 * n * cols * (cols - 1) + 16 * n * cols
        + dense * cols * 8 * n * n,
        "t_applications": spec.k + 1,
    }
