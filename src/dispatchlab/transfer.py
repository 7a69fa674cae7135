"""Concordance machinery: pair sets, hinge penalty, and the penalized TD solver.

The transfer idea: a value table estimated in an earlier (source) environment
still ranks certain cell pairs correctly in the current (target) environment,
even when the absolute values drifted. A hinge penalty on those pairs is added
to the squared TD error, and each time slice is solved by subgradient descent
with a diminishing step size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .valuation import BufferLike, TupleArrays, ValueTable, as_arrays
from .world import GridWorld


class OptimizationError(RuntimeError):
    """The subgradient solver produced a non-finite objective."""


@dataclass
class ConcordanceSpec:
    """Pair set E with penalty weight and hinge margin.

    Pairs are unordered cell pairs; the source table decides the favored side
    of each pair at solve time. Weighting over pairs is uniform.
    """

    pairs: List[Tuple[int, int]]
    lam: float = 1.0
    margin: float = 1.0

    def __post_init__(self):
        seen = set()
        for i, j in self.pairs:
            if i == j:
                raise ValueError(f"self-pair ({i}, {j}) is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate pair ({i}, {j})")
            seen.add(key)
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        self._pi = np.array([p[0] for p in self.pairs], dtype=np.int64)
        self._pj = np.array([p[1] for p in self.pairs], dtype=np.int64)

    @property
    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._pi, self._pj


@dataclass
class OptimizerSettings:
    """Diminishing-step subgradient descent knobs (alpha_k = alpha0 / sqrt(k)).

    alpha0 = None auto-scales to 0.5 / n_max, where n_max is the largest tuple
    count per cell in the slice, keeping the quadratic part contractive.
    """

    alpha0: Optional[float] = None
    max_iters: int = 2000
    tol: float = 1e-13
    patience: int = 25


def concordance_loss(v: ValueTable, v_src: ValueTable, spec: ConcordanceSpec) -> float:
    """Fraction of (time, pair) combinations whose ranking flips between tables.

    Ties (either difference exactly zero) count as concordant. The terminal
    row is excluded (it is identically zero in both tables).
    """
    if v.values.shape != v_src.values.shape:
        raise ValueError("value table shapes do not match")
    if len(spec.pairs) == 0:
        raise ValueError("concordance loss needs a nonempty pair set")
    pi, pj = spec.pair_arrays
    d1 = v.values[:-1, pi] - v.values[:-1, pj]
    d2 = v_src.values[:-1, pi] - v_src.values[:-1, pj]
    return float(np.mean(d1 * d2 < 0))


def hinge_penalty(v_t: np.ndarray, v_src_t: np.ndarray, spec: ConcordanceSpec) -> float:
    """Hinge surrogate for the per-slice discordance count (source ties skip)."""
    if len(spec.pairs) == 0:
        return 0.0
    pi, pj = spec.pair_arrays
    sign_src = np.sign(v_src_t[pj] - v_src_t[pi])
    d = v_t[pj] - v_t[pi]
    terms = np.maximum(0.0, spec.margin - sign_src * d)
    return float(np.sum(terms[sign_src != 0]))


def td_slice(
    arr: TupleArrays, t: int, values: np.ndarray, gamma: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Cells and backup targets for the tuples starting at time t.

    Later-time rows of `values` must already be final; each target is
    gamma^duration * V(finish) + discounted reward.
    """
    sl = arr.slice_at(t)
    cells = arr.start_cell[sl]
    targets = (
        gamma ** arr.duration[sl].astype(float)
        * values[arr.finish_t[sl], arr.finish_cell[sl]]
        + arr.reward[sl]
    )
    return cells, targets


def penalized_objective(
    v_t: np.ndarray,
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    spec: ConcordanceSpec,
) -> float:
    """Squared TD error over the slice plus lambda times the hinge penalty."""
    resid = v_t[cells] - targets
    obj = float(np.dot(resid, resid))
    if spec.lam > 0:
        obj += spec.lam * hinge_penalty(v_t, v_src_t, spec)
    return obj


def objective_gradient(
    v_t: np.ndarray,
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    spec: ConcordanceSpec,
) -> np.ndarray:
    """Subgradient of penalized_objective w.r.t. the slice values.

    Exact gradient away from hinge kinks: each active pair pushes the
    source-favored coordinate up and its partner down by lambda.
    """
    n = len(v_t)
    resid = v_t[cells] - targets
    grad = 2.0 * np.bincount(cells, weights=resid, minlength=n)
    if spec.lam > 0 and len(spec.pairs) > 0:
        pi, pj = spec.pair_arrays
        sign_src = np.sign(v_src_t[pj] - v_src_t[pi])
        d = v_t[pj] - v_t[pi]
        active = (sign_src != 0) & (sign_src * d < spec.margin)
        if np.any(active):
            s = sign_src[active]
            grad += spec.lam * np.bincount(pi[active], weights=s, minlength=n)
            grad -= spec.lam * np.bincount(pj[active], weights=s, minlength=n)
    return grad


@dataclass
class SolveResult:
    values: np.ndarray
    best_objective: float
    trace: np.ndarray
    iterations: int


def solve_time_step(
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    spec: ConcordanceSpec,
    opt: OptimizerSettings,
    warm_start: Optional[np.ndarray] = None,
) -> SolveResult:
    """Minimize the penalized slice objective by diminishing-step subgradient descent.

    Returns the best iterate seen; the recorded trace is the best objective so
    far, hence nonincreasing. Stops at max_iters or when the best objective
    has not improved by more than tol for `patience` consecutive iterations.
    """
    n = len(v_src_t)
    v = np.zeros(n) if warm_start is None else np.array(warm_start, dtype=float)
    if opt.alpha0 is not None:
        alpha0 = opt.alpha0
    else:
        n_max = int(np.bincount(cells, minlength=n).max()) if len(cells) else 1
        alpha0 = 0.5 / max(1, n_max)
        if spec.lam > 0 and len(spec.pairs) > 0:
            # keep the first hinge step well inside the margin
            deg = int(np.bincount(np.concatenate(spec.pair_arrays)).max())
            alpha0 = min(alpha0, spec.margin / (2.0 * spec.lam * deg))
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be > 0, got {alpha0}")

    penalty = spec.lam > 0 and len(spec.pairs) > 0
    if not penalty:
        # the objective is a decoupled quadratic; its exact minimizer is the
        # per-cell target mean, with uncovered cells kept at the warm start
        counts = np.bincount(cells, minlength=n)
        covered = counts > 0
        sums = np.bincount(cells, weights=targets, minlength=n)
        v[covered] = sums[covered] / counts[covered]
        resid = v[cells] - targets
        obj = float(np.dot(resid, resid))
        return SolveResult(v, obj, np.array([obj]), 0)
    pi, pj = spec.pair_arrays
    sign_src = np.sign(v_src_t[pj] - v_src_t[pi])
    src_ordered = sign_src != 0

    best_obj = math.inf
    best_v = v.copy()
    trace = []
    stall = 0
    iters = 0
    for k in range(opt.max_iters + 1):
        # objective and (sub)gradient share the residual/active-set work
        resid = v[cells] - targets
        obj = float(np.dot(resid, resid))
        grad = 2.0 * np.bincount(cells, weights=resid, minlength=n)
        if penalty:
            d = v[pj] - v[pi]
            slack = spec.margin - sign_src * d
            obj += spec.lam * float(np.sum(np.maximum(0.0, slack[src_ordered])))
            active = src_ordered & (slack > 0)
            if np.any(active):
                s = sign_src[active]
                grad += spec.lam * np.bincount(pi[active], weights=s, minlength=n)
                grad -= spec.lam * np.bincount(pj[active], weights=s, minlength=n)
        if not math.isfinite(obj):
            raise OptimizationError(
                f"non-finite objective at iteration {k}: obj={obj}, "
                f"alpha0={alpha0}, |D(t)|={len(cells)}, max|v|={np.max(np.abs(v))}"
            )
        if obj < best_obj - opt.tol:
            stall = 0
        else:
            stall += 1
        if obj < best_obj:
            best_obj = obj
            best_v = v.copy()
        trace.append(best_obj)
        if k == opt.max_iters or stall >= opt.patience:
            iters = k
            break
        v = v - (alpha0 / math.sqrt(k + 1)) * grad
    return SolveResult(best_v, best_obj, np.array(trace), iters)


def transfer_evaluate(
    buffer: BufferLike,
    v_src: ValueTable,
    spec: ConcordanceSpec,
    world: GridWorld,
    gamma: float,
    opt: Optional[OptimizerSettings] = None,
    init: Optional[ValueTable] = None,
) -> ValueTable:
    """Backward pass solving the concordance-penalized TD problem per time step."""
    T, n = world.horizon, world.n_cells
    if v_src.values.shape != (T + 1, n):
        raise ValueError(
            f"source table shape {v_src.values.shape} does not match world ({T + 1}, {n})"
        )
    opt = opt or OptimizerSettings()
    arr = as_arrays(buffer)
    if init is not None:
        values = init.values.copy()
        values[T, :] = 0.0
    else:
        values = np.zeros((T + 1, n))
    penalty_active = spec.lam > 0 and len(spec.pairs) > 0
    empty_cache: dict = {}
    for t in range(T - 1, -1, -1):
        cells, targets = td_slice(arr, t, values, gamma)
        if len(cells) == 0:
            if not penalty_active:
                continue
            # data-free slices with the same warm start and source ordering
            # solve the identical problem; reuse the result
            pi, pj = spec.pair_arrays
            key = (
                values[t].tobytes(),
                np.sign(v_src.values[t, pj] - v_src.values[t, pi]).tobytes(),
            )
            if key not in empty_cache:
                empty_cache[key] = solve_time_step(
                    cells, targets, v_src.values[t], spec, opt, warm_start=values[t]
                ).values
            values[t] = empty_cache[key]
            continue
        result = solve_time_step(
            cells, targets, v_src.values[t], spec, opt, warm_start=values[t]
        )
        values[t] = result.values
    return ValueTable(values, gamma)


def tier_size(n: int, q: float) -> int:
    """Number of cells in each of the top-q and bottom-q tiers of n cells."""
    if not 0 < q <= 0.5:
        raise ValueError(f"tier fraction q must be in (0, 0.5], got {q}")
    k = int(n * q)
    if k < 1:
        raise ValueError(f"q={q} yields an empty tier for N={n}")
    return k


def default_pair_set(v_src: ValueTable, q: float) -> List[Tuple[int, int]]:
    """All (hot, cold) cell pairs from the top-q and bottom-q tiers.

    Cells are ranked by their time-averaged source value (terminal row
    excluded); rank ties break toward the lower cell index.
    """
    n = v_src.n_cells
    k = tier_size(n, q)
    avg = v_src.values[:-1].mean(axis=0)
    ranked = sorted(range(n), key=lambda i: (-avg[i], i))
    hot = ranked[:k]
    cold = ranked[-k:]
    return [(h, c) for h in hot for c in cold]


@dataclass
class ConcordanceReport:
    aggregate: float
    per_time: np.ndarray


def concordance_rate_report(
    v_a: ValueTable, v_b: ValueTable, spec: ConcordanceSpec
) -> ConcordanceReport:
    """Concordance rate (1 - loss), both aggregate and per time slice."""
    if v_a.values.shape != v_b.values.shape:
        raise ValueError("value table shapes do not match")
    if len(spec.pairs) == 0:
        raise ValueError("concordance report needs a nonempty pair set")
    pi, pj = spec.pair_arrays
    d1 = v_a.values[:-1, pi] - v_a.values[:-1, pj]
    d2 = v_b.values[:-1, pi] - v_b.values[:-1, pj]
    discord = d1 * d2 < 0
    return ConcordanceReport(
        aggregate=float(1.0 - np.mean(discord)),
        per_time=1.0 - discord.mean(axis=1),
    )
