"""The slice solver's interior-point kernel in its plain form.

`hinge_qp` is the Mehrotra predictor-corrector that `dispatchlab.transfer`
uses on each slice's coupled-cell QP, written without the kernel's per-call
trimming: `np.tile` times a sign vector and times the pair counts,
`np.clip`, two concatenates per Newton step, and `A.T @ y` formed afresh
for the dual residual and for the dual bound. Like the kernel, it takes
one hinge weight and one count of slice pairs per pair and keeps its
iterates on the feasible path (z = lam - y and w = A x + xi - margin from
the start, so neither residual is formed).
`dispatchlab.transfer._hinge_qp` must perform the same floating-point
operations, so for equal inputs both return the same iterates, objectives,
dual bound, multipliers and iteration count, bit for bit.
"""
from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from dispatchlab.transfer import GAP_FLOOR, STALL_ITERS, OptimizerSettings


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps x + step * dx nonnegative, for x > 0."""
    return -1.0 / min(-1.0, float((dx / x).min()))


def hinge_qp(
    li: np.ndarray,
    lj: np.ndarray,
    s: np.ndarray,
    d: np.ndarray,
    a: np.ndarray,
    lam: np.ndarray,
    mult: np.ndarray,
    margin: float,
    opt: OptimizerSettings,
) -> Tuple[np.ndarray, float, float, np.ndarray, List[float], int]:
    """Mehrotra predictor-corrector for the coupled-cell QP of a slice.

        min_x  g(x) = sum_c d_c (x_c - a_c)^2 + sum_p lam_p xi_p
        s.t.   w_p = s_p (x_j - x_i) + xi_p - margin >= 0,  xi_p >= 0

    for pairs p = (i, j) = (li[p], lj[p]), with multipliers y >= 0 on w and
    z >= 0 on xi (y + z = lam at optimality). On the feasible path the
    Newton step needs only the dual residual 2 d (x - a) - A^T y and the
    complementarity residual; margin - A x is read as xi - w. Eliminating
    the slacks leaves the k x k normal matrix 2 diag(d) + A^T diag(1 /
    theta) A, where A is the signed pair incidence and theta = w / y + xi /
    z; it is factored once per iteration and serves both the predictor and
    the corrector solve. Pair p stands for mult[p] pairs of the slice: the
    mean complementarity is taken over sum(mult) pairs, and pair p is
    centred toward mult[p] times it.

    Any y in [0, lam] gives the lower bound D(y) = margin * sum(y) -
    sum_c (u_c^2 / (4 d_c) + a_c u_c) with u = A^T y, so g(x) - max D is a
    certified duality gap. Returns the iterate of lowest g, g recomputed
    there from A x, the best dual bound and its multipliers, g after each
    iteration, and the iteration count.
    """
    p, k = len(s), len(d)
    rows = np.arange(p)
    A = np.zeros((p, k))
    A[rows, lj] = s
    A[rows, li] = -s
    # flat positions of the (i,i), (j,j), (i,j), (j,i) entries of the normal matrix
    flat = np.concatenate([li * (k + 1), lj * (k + 1), li * k + lj, lj * k + li])
    signs = np.repeat([1.0, 1.0, -1.0, -1.0], p)
    diag = np.arange(k) * (k + 1)

    x = a
    Ax = A @ x
    xi = np.maximum(margin - Ax, 0.0) + margin
    y = 0.1 * lam
    # the state: slacks X = (w, xi) and their multipliers Y = (y, z), on the feasible path
    state = np.concatenate([Ax + xi - margin, xi, y, lam - y])
    best_x, best_g, dual, best_y, best_gap = x, math.inf, -math.inf, np.zeros(p), math.inf
    objs: List[float] = []
    iters = stalls = 0
    while iters < opt.max_iters:
        iters += 1
        X, Y = state[: 2 * p], state[2 * p :]
        y, z = Y[:p], Y[p:]
        r_dual = 2.0 * d * (x - a) - A.T @ y
        XY = X * Y
        ratio = X / Y
        inv_theta = 1.0 / (ratio[:p] + ratio[p:])
        normal = np.bincount(flat, np.tile(inv_theta, 4) * signs, k * k)
        normal[diag] += 2.0 * d
        factor, info = dpotrf(normal.reshape(k, k))
        if info != 0:
            break  # the normal matrix is no longer positive definite in double precision

        def newton(rc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # rc is the complementarity residual X * Y - target
            rhs = rc[p:] / z - rc[:p] / y
            dx = dpotrs(factor, A.T @ (rhs * inv_theta) - r_dual)[0]
            dy = (rhs - A @ dx) * inv_theta
            dY = np.concatenate([dy, -dy])
            return dx, np.concatenate([-(rc + X * dY) / Y, dY])

        dx, dstate = newton(XY)
        step = _max_step(state, dstate)
        trial = state + step * dstate
        mu = XY.sum() / (2 * mult.sum())
        sigma = ((trial[: 2 * p] * trial[2 * p :]).sum() / (2 * mult.sum()) / mu) ** 3
        dX, dY = dstate[: 2 * p], dstate[2 * p :]
        dx, dstate = newton(XY + dX * dY - sigma * mu * np.tile(mult, 2))
        step = min(1.0, 0.99 * _max_step(state, dstate))
        x = x + step * dx
        state += step * dstate

        state[2 * p : 3 * p] = np.clip(state[2 * p : 3 * p], 0.0, lam)
        y_box = state[2 * p : 3 * p]
        u = A.T @ y_box
        bound = margin * float(y_box.sum()) - float(u @ (u / (4.0 * d) + a))
        if bound > dual:
            dual, best_y = bound, y_box.copy()
        g = float(d @ (x - a) ** 2) + float(lam @ np.maximum(0.0, state[p : 2 * p] - state[:p]))
        objs.append(g)
        if g < best_g:
            best_x, best_g = x, g
        gap = g - dual
        stalls = 0 if gap < best_gap else stalls + 1
        best_gap = min(best_gap, gap)
        if not gap > max(opt.tol, GAP_FLOOR) * max(1.0, g) or stalls == STALL_ITERS:
            break
    g = float(d @ (best_x - a) ** 2) + float(lam @ np.maximum(0.0, margin - A @ best_x))
    return best_x, g, dual, best_y, objs, iters
