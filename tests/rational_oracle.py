"""Exact-rational oracle for the coefficient solves.

Pure `fractions.Fraction` arithmetic over the normal equations — a
deliberately different route from the package's triangular-factor
solves, sharing no code with it.  Real sequences only; that covers
every fixture that needs exact values.
"""

from fractions import Fraction

import numpy as np


def frac_vectors(rows):
    return [[Fraction(v) for v in row] for row in rows]


def solve_exact(a, b):
    """Gauss-Jordan over Fractions; ``a`` is a list of n rows."""
    n = len(a)
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("exactly singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def wdot(y, z, w=None):
    if w is None:
        return sum(a * b for a, b in zip(y, z))
    return sum(a * wi * b for a, wi, b in zip(y, w, z))


def differences(xs):
    return [[b - a for a, b in zip(xi, xj)] for xi, xj in zip(xs, xs[1:])]


def _combine(vectors, coeffs):
    out = [Fraction(0)] * len(vectors[0])
    for coeff, vec in zip(coeffs, vectors):
        out = [o + coeff * v for o, v in zip(out, vec)]
    return out


def mpe_stage(xs, k, w=None):
    """Unconstrained least squares min ||sum c_i u_i + u_k|| over c_0..c_{k-1}."""
    us = differences(xs)
    grams = [[wdot(us[i], us[j], w) for j in range(k)] for i in range(k)]
    rhs = [-wdot(us[i], us[k], w) for i in range(k)]
    c = (solve_exact(grams, rhs) if k else []) + [Fraction(1)]
    alpha = sum(c)
    out = {"c": c, "alpha": alpha, "exists": alpha != 0}
    if alpha != 0:
        gamma = [ci / alpha for ci in c]
        resid = _combine(us[:k + 1], gamma)
        out.update(gamma=gamma, s=_combine(xs[:k + 1], gamma),
                   phi2=wdot(resid, resid, w), residual=resid)
    return out


def rre_stage(xs, k, w=None):
    """Constrained least squares min ||sum gamma_i u_i||, sum gamma_i = 1."""
    us = differences(xs)
    grams = [[wdot(us[i], us[j], w) for j in range(k + 1)]
             for i in range(k + 1)]
    y = solve_exact(grams, [Fraction(1)] * (k + 1))
    lam = 1 / sum(y)
    gamma = [lam * yi for yi in y]
    resid = _combine(us[:k + 1], gamma)
    return {"gamma": gamma, "lam": lam, "s": _combine(xs[:k + 1], gamma),
            "phi2": wdot(resid, resid, w), "residual": resid}


def rre_gammas(columns):
    """Exact reduced-rank gamma at every stage 0..m-1 of the m real
    difference columns given (floats, each taken at its exact value),
    under the Euclidean product, from one Gram matrix and its leading
    blocks."""
    us = [[Fraction(float(v)) for v in col] for col in columns]
    m = len(us)
    grams = [[wdot(us[i], us[j]) for j in range(m)] for i in range(m)]
    out = []
    for k in range(m):
        y = solve_exact([row[:k + 1] for row in grams[:k + 1]],
                        [Fraction(1)] * (k + 1))
        lam = 1 / sum(y)
        out.append([lam * yi for yi in y])
    return out


def as_float(fracs):
    return np.array([float(f) for f in fracs])


def as_float_rows(rows):
    return np.array([[float(v) for v in row] for row in rows])


def demo_iterates(m=6):
    """x_{j+1} = T x_j + d for T = diag(1/2, 1/4), d = (1/2, 3/4), x_0 = 0."""
    t = (Fraction(1, 2), Fraction(1, 4))
    d = (Fraction(1, 2), Fraction(3, 4))
    xs = [[Fraction(0), Fraction(0)]]
    for _ in range(m):
        xs.append([t[0] * xs[-1][0] + d[0], t[1] * xs[-1][1] + d[1]])
    return xs
