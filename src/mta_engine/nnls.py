"""Nonnegative least squares by the Lawson-Hanson active-set method."""

from __future__ import annotations

import numpy as np


def nnls(A, b):
    """Solve ``min ||A x - b||_2`` subject to ``x >= 0``.

    Parameters
    ----------
    A : array_like, shape (m, n)
        Design matrix.
    b : array_like, shape (m,)
        Target vector.

    Returns
    -------
    x : numpy.ndarray, shape (n,)
        Nonnegative solution vector.
    rnorm : float
        Residual norm ``||A x - b||_2``.

    Notes
    -----
    The KKT tolerance on the dual vector ``w = A.T (b - A x)`` is
    ``1e-10 * max(1, ||A.T b||_inf)``, and after ``10 * n`` backtracking
    steps the current feasible point is returned.

    Classic algorithm of Lawson and Hanson, *Solving Least Squares
    Problems*, SIAM 1974, chapter 23. The passive-set subproblems are
    solved with ``numpy.linalg.lstsq``, so rank-deficient passive sets take
    the least-norm solution.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} and {b.shape}")
    m, n = A.shape
    grad0 = A.T @ b
    tol = 1e-10 * max(1.0, float(np.max(np.abs(grad0))) if n else 1.0)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = grad0.copy()

    def solve_passive() -> np.ndarray:
        z = np.zeros(n)
        cols = np.flatnonzero(passive)
        z[cols] = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
        return z

    iters = 0
    while np.any(~passive):
        candidates = np.where(~passive, w, -np.inf)
        best = int(np.argmax(candidates))
        if candidates[best] <= tol:
            break
        passive[best] = True
        z = solve_passive()
        # Back off along x -> z until the passive solution is feasible,
        # dropping coordinates that hit the boundary.
        while np.any(z[passive] <= 0.0):
            iters += 1
            if iters > 10 * max(n, 1):
                return x, float(np.linalg.norm(A @ x - b))
            blocking = np.flatnonzero(passive & (z <= 0.0))
            denom = x[blocking] - z[blocking]
            ratios = np.where(denom > 0.0, x[blocking] / np.where(denom > 0.0, denom, 1.0), 0.0)
            k = int(np.argmin(ratios))
            x = x + ratios[k] * (z - x)
            x[blocking[k]] = 0.0
            dropped = passive & (x <= 0.0)
            passive[dropped] = False
            x[dropped] = 0.0
            z = solve_passive()
        x = z
        w = A.T @ (b - A @ x)

    x = np.where(passive, x, 0.0)
    return x, float(np.linalg.norm(A @ x - b))
