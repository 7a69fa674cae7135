"""Output checks that do not trust the program's own numbers.

Row checks look only at what the public GPI calls return. Layer checks
recompute a layer's result from its inputs with independent code: an LP
solve for a matching, a plain backward induction for a DP table, the
penalized slice objective written out from the docstrings, and a QP solve
for the slice optimum.
"""
from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


class CheckError(AssertionError):
    """A program output failed one of the benchmark's checks."""


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- rows returned by the public GPI calls ----------------------------------


def check_day_rows(rows_by_policy: Dict[str, Sequence], mean_orders: float) -> None:
    """DayRow sanity, common random numbers, and order counts vs. demand rates.

    `mean_orders` is the sum of the target model's Poisson rates over one day,
    so each day's order count must lie within 5 sigma of it.
    """
    created_by_day: Dict[int, Tuple[str, int]] = {}
    sigma = math.sqrt(mean_orders)
    for policy, rows in rows_by_policy.items():
        for r in rows:
            where = f"{policy} day {r.day}"
            if not r.reward > 0:
                raise CheckError(f"{where}: reward {r.reward} is not > 0")
            for name in ("answer_rate", "completion_rate"):
                value = getattr(r, name)
                if not 0.0 <= value <= 1.0:
                    raise CheckError(f"{where}: {name} {value} outside [0, 1]")
            if not r.orders_completed <= r.orders_answered <= r.orders_created:
                raise CheckError(
                    f"{where}: completed {r.orders_completed} <= answered "
                    f"{r.orders_answered} <= created {r.orders_created} does not hold"
                )
            if abs(r.orders_created - mean_orders) > 5.0 * sigma:
                raise CheckError(
                    f"{where}: {r.orders_created} orders, expected {mean_orders:.1f} +- 5 * {sigma:.1f}"
                )
            first = created_by_day.setdefault(r.day, (policy, r.orders_created))
            if first[1] != r.orders_created:
                raise CheckError(
                    f"day {r.day}: {first[0]} saw {first[1]} orders but {policy} saw "
                    f"{r.orders_created}; demand must not depend on the policy"
                )


def check_repeat_rows(rows_by_policy: Dict[str, Sequence]) -> None:
    """RepeatRow sanity: positive rewards, value_delta inf on pass 0, finite after."""
    for policy, rows in rows_by_policy.items():
        for r in rows:
            where = f"{policy} pass {r.iteration}"
            if not r.reward > 0:
                raise CheckError(f"{where}: reward {r.reward} is not > 0")
            if r.iteration == 0:
                if r.value_delta != math.inf:
                    raise CheckError(f"{where}: value_delta {r.value_delta} should be inf")
            elif not (math.isfinite(r.value_delta) and r.value_delta >= 0):
                raise CheckError(f"{where}: value_delta {r.value_delta} is not finite and >= 0")


# -- dispatch: one window's matching ----------------------------------------


def matching_objective(scores: np.ndarray, feasible: np.ndarray, assignment: Sequence) -> float:
    """Objective of an assignment after checking it is feasible and one-to-one.

    scores/feasible have the MatchProblem layout: column 0 is the idle option,
    column k + 1 is order k.
    """
    m, width = scores.shape
    n = width - 1
    if len(assignment) != m:
        raise CheckError(f"assignment has {len(assignment)} entries for {m} drivers")
    taken = set()
    total = 0.0
    for l, k in enumerate(assignment):
        if k is None:
            total += float(scores[l, 0])
            continue
        if not 0 <= k < n:
            raise CheckError(f"driver {l} assigned to order {k}, outside [0, {n})")
        if k in taken:
            raise CheckError(f"order {k} assigned to two drivers")
        if not feasible[l, k + 1]:
            raise CheckError(f"driver {l} assigned to infeasible order {k}")
        taken.add(k)
        total += float(scores[l, k + 1])
    return total


def lp_matching_optimum(scores: np.ndarray, feasible: np.ndarray) -> float:
    """Optimum of the bipartite assignment LP (HiGHS).

    One variable per feasible (driver, option) cell; every driver takes
    exactly one option, every order goes to at most one driver. The
    constraint matrix is totally unimodular, so the LP optimum is the
    assignment optimum.
    """
    m, width = scores.shape
    rows, cols = np.nonzero(feasible)
    c = -scores[rows, cols]
    nv = len(rows)
    a_eq = sparse.csr_matrix((np.ones(nv), (rows, np.arange(nv))), shape=(m, nv))
    is_order = cols > 0
    a_ub = sparse.csr_matrix(
        (np.ones(int(is_order.sum())), (cols[is_order] - 1, np.nonzero(is_order)[0])),
        shape=(width - 1, nv),
    )
    res = linprog(
        c,
        A_ub=a_ub if width > 1 else None,
        b_ub=np.ones(width - 1) if width > 1 else None,
        A_eq=a_eq,
        b_eq=np.ones(m),
        bounds=(0, 1),
        method="highs",
    )
    if res.status != 0:
        raise CheckError(f"assignment LP did not solve: {res.message}")
    return -float(res.fun)


def check_matching_optimal(scores: np.ndarray, feasible: np.ndarray, assignment: Sequence) -> None:
    own = matching_objective(scores, feasible, assignment)
    best = lp_matching_optimum(scores, feasible)
    if not _rel_close(own, best, 1e-7):
        raise CheckError(f"matching objective {own!r} differs from the LP optimum {best!r}")


# -- valuation: DP tables ----------------------------------------------------


def backward_induction(
    start_t: np.ndarray,
    start_cell: np.ndarray,
    finish_t: np.ndarray,
    finish_cell: np.ndarray,
    reward: np.ndarray,
    duration: np.ndarray,
    horizon: int,
    n_cells: int,
    gamma: float,
    init: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-(t, cell) mean of gamma^duration * V(finish) + reward, from t = T-1 down.

    Cells without tuples at t keep `init` (or zero); row T is zero.
    """
    values = np.zeros((horizon + 1, n_cells)) if init is None else np.array(init, dtype=float)
    values[horizon] = 0.0
    for t in range(horizon - 1, -1, -1):
        at = start_t == t
        if not at.any():
            continue
        target = gamma ** duration[at].astype(float) * values[finish_t[at], finish_cell[at]]
        target += reward[at]
        sums = np.zeros(n_cells)
        counts = np.zeros(n_cells)
        np.add.at(sums, start_cell[at], target)
        np.add.at(counts, start_cell[at], 1.0)
        seen = counts > 0
        values[t, seen] = sums[seen] / counts[seen]
    return values


def check_table(values: np.ndarray, reference: np.ndarray) -> None:
    if values.shape != reference.shape:
        raise CheckError(f"table shape {values.shape} != reference {reference.shape}")
    bad = ~np.isclose(values, reference, rtol=1e-9, atol=1e-9)
    if bad.any():
        t, c = np.argwhere(bad)[0]
        raise CheckError(
            f"{int(bad.sum())} table cells differ from the backward induction, first "
            f"(t={t}, cell={c}): {values[t, c]!r} vs {reference[t, c]!r}"
        )


# -- transfer: slice solves --------------------------------------------------


def _ordered_pairs(
    v_src_t: np.ndarray, pairs: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs the source table orders, with sign(v_src[j] - v_src[i]); ties drop out."""
    pi = np.array([p[0] for p in pairs], dtype=np.int64)
    pj = np.array([p[1] for p in pairs], dtype=np.int64)
    sign = np.sign(v_src_t[pj] - v_src_t[pi])
    keep = sign != 0
    return pi[keep], pj[keep], sign[keep]


def penalized_objective(
    v: np.ndarray,
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    lam: float,
    margin: float,
) -> float:
    """Squared TD error over the slice plus lam * sum of hinge terms.

    Each pair the source orders adds max(0, margin - sign_src * (v[j] - v[i])).
    """
    resid = v[cells] - targets
    total = float(resid @ resid)
    if lam > 0 and len(pairs):
        pi, pj, sign = _ordered_pairs(v_src_t, pairs)
        total += lam * float(np.maximum(0.0, margin - sign * (v[pj] - v[pi])).sum())
    return total


def check_not_worse(f_result: float, f_warm: float) -> None:
    if f_result > f_warm + 1e-9 * max(1.0, abs(f_warm)):
        raise CheckError(
            f"slice solve returned objective {f_result!r}, above its warm start {f_warm!r}"
        )


def slice_optimum(
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    lam: float,
    margin: float,
) -> np.ndarray:
    """Minimizer of penalized_objective from a convex QP solved by HiGHS.

    Variables are the slice values v and one slack xi_p >= 0 per ordered
    pair with xi_p + sign_p * (v[j] - v[i]) >= margin; the objective is
    sum_c n_c (v_c - mean_c)^2 + lam * sum xi (the TD error up to a
    constant). Cells without tuples get a 1e-8 curvature so the QP is
    strictly convex; that moves the optimum by a negligible amount.
    """
    from scipy.optimize._highspy import _core as highs

    n = len(v_src_t)
    pi, pj, sign = _ordered_pairs(v_src_t, pairs)
    p = len(pi)
    counts = np.bincount(cells, minlength=n).astype(float)
    sums = np.bincount(cells, weights=targets, minlength=n)
    mean = np.divide(sums, counts, out=np.zeros(n), where=counts > 0)
    inf = highs.kHighsInf
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("time_limit", 30.0)
    empty_i = np.array([], dtype=np.int32)
    h.addCols(
        n + p,
        np.concatenate([-2.0 * counts * mean, np.full(p, float(lam))]),
        np.concatenate([np.full(n, -inf), np.zeros(p)]),
        np.full(n + p, inf),
        0,
        empty_i,
        empty_i,
        np.array([], dtype=float),
    )
    if p:
        index = np.stack([pj, pi, n + np.arange(p)], axis=1).ravel().astype(np.int32)
        value = np.stack([sign, -sign, np.ones(p)], axis=1).ravel().astype(float)
        h.addRows(
            p,
            np.full(p, float(margin)),
            np.full(p, inf),
            3 * p,
            np.arange(0, 3 * p, 3, dtype=np.int32),
            index,
            value,
        )
    diag = np.where(counts > 0, 2.0 * counts, 2e-8)
    h.passHessian(
        n + p,
        n,
        highs.HessianFormat.kTriangular,
        np.concatenate([np.arange(n + 1), np.full(p, n)]).astype(np.int32),
        np.arange(n, dtype=np.int32),
        diag,
    )
    h.run()
    status = h.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise CheckError(f"slice QP did not solve: {h.modelStatusToString(status)}")
    return np.array(h.getSolution().col_value[:n])


def objective_excess(
    v: np.ndarray,
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    lam: float,
    margin: float,
) -> float:
    """Relative excess of the objective at v over the QP reference optimum."""
    f_v = penalized_objective(v, cells, targets, v_src_t, pairs, lam, margin)
    v_ref = slice_optimum(cells, targets, v_src_t, pairs, lam, margin)
    f_ref = penalized_objective(v_ref, cells, targets, v_src_t, pairs, lam, margin)
    if f_ref > f_v + 1e-6 * max(1.0, abs(f_v)):
        raise CheckError(f"QP reference {f_ref!r} is above the solver's objective {f_v!r}")
    return (f_v - f_ref) / max(f_ref, 1e-12)
