"""Concordance machinery: pair sets, hinge penalty, and the penalized TD solver.

The transfer idea: a value table estimated in an earlier (source) environment
still ranks certain cell pairs correctly in the current (target) environment,
even when the absolute values drifted. A hinge penalty on those pairs is added
to the squared TD error. Each time slice is a convex quadratic program, solved
exactly by a primal-dual interior-point method that stops on a certified
duality gap (`solve_time_step`).
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .valuation import BufferLike, ValueTable, backup_start, closed_form, td_slice
from .world import GridWorld

# a slice's source-ordered pairs (i, j, s), as ConcordanceSpec.ordered_pairs gives them
OrderedPairs = Tuple[np.ndarray, np.ndarray, np.ndarray]
# Weight of the pull toward the warm start on coupled cells without data. It
# makes the slice minimizer unique (see solve_time_step) and is small enough
# not to trade against the data or the hinge.
TIE_BREAK_RHO = 1e-6
# A relative duality gap below GAP_FLOOR is rounding noise, so a smaller
# tolerance stops there. A solve also ends once STALL_ITERS iterations in a
# row fail to reduce the smallest gap so far: near the limit of double
# precision the gap stops falling, while on the way a single step may raise it.
GAP_FLOOR = 64 * np.finfo(float).eps
STALL_ITERS = 3


class OptimizationError(RuntimeError):
    """A slice objective is not finite (non-finite targets or warm start)."""


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

    def check_cells(self, n: int) -> None:
        """Raise ValueError unless every pair names two cells of [0, n)."""
        for i, j in self.pairs:
            if min(i, j) < 0 or max(i, j) >= n:
                raise ValueError(f"pair ({i}, {j}) names a cell outside [0, N) for N = {n}")

    def ordered_pairs(self, v_src_t: np.ndarray) -> OrderedPairs:
        """The pairs (i, j) the source orders at this row, with s = sign(v_src_t[j] - v_src_t[i]).

        s is the side the source favours. Pairs stay in pair order; a source
        tie (s = 0) is left out, so it drops out of the hinge.
        """
        s = np.sign(v_src_t[self._pj] - v_src_t[self._pi])
        ordered = s != 0
        return self._pi[ordered], self._pj[ordered], s[ordered]


@dataclass
class OptimizerSettings:
    """Stopping rule of the slice solver, and its one set of defaults.

    A solve stops once its relative duality gap is at most `tol`, or after
    `max_iters` interior-point iterations. `patience` belonged to the earlier
    subgradient solver; it is accepted and ignored, so that callers written
    for that solver (such as perfbench/test_checks.py) still construct settings.
    """

    max_iters: int = 250
    tol: float = 1e-5
    patience: InitVar[Optional[int]] = None


def _pair_gaps(v_a: ValueTable, v_b: ValueTable, spec: ConcordanceSpec) -> List[np.ndarray]:
    """Each table's (time, pair) differences v[t, i] - v[t, j].

    The terminal row is left out (it is identically zero in both tables).
    """
    if v_a.values.shape != v_b.values.shape:
        raise ValueError("value table shapes do not match")
    if len(spec.pairs) == 0:
        raise ValueError("concordance needs a nonempty pair set")
    spec.check_cells(v_a.n_cells)
    pi, pj = spec.pair_arrays
    return [v.values[:-1, pi] - v.values[:-1, pj] for v in (v_a, v_b)]


def _discord_mask(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """(time, pair) mask of the pairs that two tables, given by their
    `_pair_gaps` d1 and d2, rank in opposite order.

    Ties (either difference exactly zero) count as concordant.
    """
    return d1 * d2 < 0


def concordance_loss(v: ValueTable, v_src: ValueTable, spec: ConcordanceSpec) -> float:
    """Fraction of (time, pair) combinations whose ranking flips between tables."""
    return float(np.mean(_discord_mask(*_pair_gaps(v, v_src, spec))))


def _hinge(v_t: np.ndarray, pairs: OrderedPairs, margin: float) -> np.ndarray:
    """The hinge terms max(0, margin - s (v_j - v_i)) of the pairs."""
    i, j, s = pairs
    return np.maximum(0.0, margin - s * (v_t[j] - v_t[i]))


def hinge_penalty(v_t: np.ndarray, v_src_t: np.ndarray, spec: ConcordanceSpec) -> float:
    """Hinge surrogate for the per-slice discordance count (source ties skip)."""
    return float(np.sum(_hinge(v_t, spec.ordered_pairs(v_src_t), spec.margin)))


def _objective(v_t, cells, targets, pairs: OrderedPairs, spec: ConcordanceSpec) -> float:
    """`penalized_objective` over the slice's source-ordered `pairs`."""
    resid = v_t[cells] - targets
    obj = float(np.dot(resid, resid))
    if spec.lam > 0:
        obj += spec.lam * float(np.sum(_hinge(v_t, pairs, spec.margin)))
    return obj


def penalized_objective(
    v_t: np.ndarray,
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    spec: ConcordanceSpec,
) -> float:
    """Squared TD error over the slice plus lambda times the hinge penalty."""
    return _objective(v_t, cells, targets, spec.ordered_pairs(v_src_t), spec)


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
    if spec.lam > 0:
        pairs = i, j, s = spec.ordered_pairs(v_src_t)
        active = _hinge(v_t, pairs, spec.margin) > 0
        if np.any(active):
            s = s[active]
            grad += spec.lam * np.bincount(i[active], weights=s, minlength=n)
            grad -= spec.lam * np.bincount(j[active], weights=s, minlength=n)
    return grad


@dataclass
class SolveResult:
    """Outcome of one slice solve.

    `best_objective` is `penalized_objective` at `values`. `trace` starts at
    the warm start and holds, after each iteration, the lowest solved
    objective so far (the penalized objective plus the tie-break term), so it
    is nonincreasing. `gap` is the relative duality gap certified for
    `values`; 0 when the slice has a closed form. `multipliers` holds the
    pair multipliers y whose dual bound D(y) (see `_hinge_qp`) certifies
    that gap, one per source-ordered pair in the order of
    `ConcordanceSpec.ordered_pairs`, each in [0, lam]; all 0 when the slice
    has a closed form.
    """

    values: np.ndarray
    best_objective: float
    trace: np.ndarray
    iterations: int
    gap: float
    multipliers: np.ndarray


def solve_time_step(
    cells: np.ndarray,
    targets: np.ndarray,
    v_src_t: np.ndarray,
    spec: ConcordanceSpec,
    opt: OptimizerSettings,
    warm_start: Optional[np.ndarray] = None,
) -> SolveResult:
    """Minimize the penalized slice objective exactly.

    Up to a constant the objective is sum_c n_c (v_c - mean_c)^2 plus lambda
    times the hinge over the source-ordered pairs, where n_c and mean_c are
    the count and mean of cell c's targets. Cells that no source-ordered pair
    touches have a closed form (`valuation.closed_form`): their target mean,
    else the warm start. The coupled cells are solved as the QP

        min  sum_c n_c (v_c - mean_c)^2 + lambda * sum_p xi_p
        s.t. xi_p >= margin - s_p (v_j - v_i),  xi_p >= 0

    by `_hinge_qp`, unless the closed form of every cell (the target mean, or
    the warm start without data) already meets every pair's margin: then it
    is the exact minimizer and is returned with `iterations` 0 and `gap` 0.
    Tie-break: a coupled cell without data is not pinned by
    the objective, so it gets a pull TIE_BREAK_RHO * (v_c - warm_c)^2 toward
    its warm start. The minimizer is then unique: among the optimal slices,
    the one closest to the warm start. Such a cell is only as accurate as the
    gap allows: the pull has curvature 2 TIE_BREAK_RHO, so an absolute gap g
    certifies it to within sqrt(g / TIE_BREAK_RHO), and a loose `tol` lets
    it drift.

    Coupled cells that the QP cannot tell apart share one variable (see
    `_cell_classes`): the QP is strictly convex, so its one minimizer gives
    them one value. A class's weight is the sum of its cells' weights, and
    the mu pairs between two classes become one pair of weight lambda * mu.
    That QP's objective at the class values equals the slice's at the
    scattered values, and its multiplier Y on a class pair lifts to y_p =
    Y / mu on each of the mu pairs, in [0, lambda], where the slice's dual
    bound equals the class QP's: the gap certifies the slice itself. The
    class QP also centres on the slice's central path (`_hinge_qp` is given
    mu), so its iterates are the slice's own, gathered into classes, and it
    stops where the unmerged solve would, up to rounding.

    The solve stops when the relative duality gap is at most
    max(opt.tol, GAP_FLOOR), when STALL_ITERS iterations in a row no longer
    reduce the gap, or after `opt.max_iters` iterations. The result is
    whichever of the solution and the warm start has the lower solved
    objective, so it is never worse than the warm start.
    """
    n = len(v_src_t)
    warm = np.zeros(n) if warm_start is None else np.array(warm_start, dtype=float)
    pairs = pi, pj, s = spec.ordered_pairs(v_src_t)
    f_warm = _objective(warm, cells, targets, pairs, spec)
    if not math.isfinite(f_warm):
        raise OptimizationError(
            f"non-finite slice objective {f_warm} at the warm start: |D(t)|={len(cells)}, "
            f"{np.count_nonzero(~np.isfinite(targets))} non-finite targets"
        )
    v, counts = closed_form(cells, targets, warm)
    covered = counts > 0
    resid = v[cells] - targets
    const = float(np.dot(resid, resid))  # objective at the per-cell means
    if spec.lam == 0 or not np.any(_hinge(v, pairs, spec.margin) > 0):
        # every hinge term is >= 0 and vanishes at the closed form, where the
        # quadratic is least and the cells without data sit at their warm
        # start: it is the exact, tie-broken minimizer
        return SolveResult(v, const, np.array([f_warm, const]), 0, 0.0, np.zeros(len(s)))

    in_pair = np.zeros(n, dtype=bool)
    in_pair[pi] = in_pair[pj] = True
    coupled = np.flatnonzero(in_pair)
    local = np.cumsum(in_pair) - 1  # a coupled cell's position in `coupled`
    li, lj = local[pi], local[pj]
    weight = np.where(covered[coupled], counts[coupled], TIE_BREAK_RHO)
    a = v[coupled]
    cls = _cell_classes(li, lj, s, weight, a)
    k = int(cls.max()) + 1
    centre = np.empty(k)
    centre[cls] = a  # the members of a class share their a
    # each pair's class pair, whatever its orientation; mu counts the pairs
    # of a class pair, and any one of them stands for it
    ci, cj = cls[li], cls[lj]
    key = np.minimum(ci, cj) * k + np.maximum(ci, cj)
    _, rep, pair_class, mu = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    x, qp_obj, dual, y, objs, iters = _hinge_qp(
        ci[rep],
        cj[rep],
        s[rep],
        np.bincount(cls, weight),
        centre,
        spec.lam * mu,
        mu,
        spec.margin,
        opt,
    )
    trace = np.minimum.accumulate(np.array([f_warm] + [const + o for o in objs]))
    if f_warm <= const + qp_obj:
        v, qp_obj = warm, f_warm - const
    else:
        v[coupled] = x[cls]
    gap = (qp_obj - dual) / max(1.0, qp_obj)
    # a class pair's multiplier, shared out over the pairs it stands for
    y = np.minimum(y[pair_class] / mu[pair_class], spec.lam)
    return SolveResult(v, _objective(v, cells, targets, pairs, spec), trace, iters, gap, y)


def _cell_classes(
    li: np.ndarray, lj: np.ndarray, s: np.ndarray, weight: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Each coupled cell's class of cells that the slice QP cannot tell apart.

    Cells c and c' fall in one class when they have the same weight d, the
    same closed-form value a and the same signed partner row: for every
    other cell e, the coefficient of x_c in the pair between c and e equals
    that of x_c' in the pair between c' and e (0 for no pair). Swapping two
    such cells maps the QP onto itself. A cell paired with another has that
    cell in its row, which the other's row lacks, so no class holds a pair.
    Classes are numbered 0, 1, ... in the order of their first cell.
    """
    k = len(weight)
    keys = np.zeros((k, k + 2))
    keys[:, 0], keys[:, 1] = weight, a
    keys[li, 2 + lj] = -s
    keys[lj, 2 + li] = s
    flat, width = keys.tobytes(), keys.itemsize * (k + 2)
    label: Dict[bytes, int] = {}
    return np.array(
        [label.setdefault(flat[c : c + width], len(label)) for c in range(0, len(flat), width)]
    )


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps x + step * dx nonnegative, for x > 0.

    It is min(1, -x / dx over dx < 0) = -1 / min(-1, dx / x), to within one
    rounding, with one division and one reduction and no mask. The iterates
    keep x > 0, since each step goes at most 0.99 of the way to the boundary.
    """
    return -1.0 / min(-1.0, float((dx / x).min()))


@np.errstate(divide="ignore", invalid="ignore")  # entered once per solve, for _max_step
def _hinge_qp(
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

    for pairs p = (i, j) = (li[p], lj[p]) with weights lam_p > 0, and
    multipliers y >= 0 on w and z >= 0 on xi. The iterates stay on the
    feasible path: they start with z = lam - y and w = A x + xi - margin,
    where A is the signed pair incidence, and each Newton step keeps both
    equalities, so neither residual is formed, and margin - A x is read as
    xi - w. Eliminating the slacks leaves the k x k normal matrix
    2 diag(d) + A^T diag(1 / theta) A, where theta = w / y + xi / z; it is
    factored once per iteration and serves both the predictor and the
    corrector solve.

    Pair p stands for mult[p] pairs of the slice (see `solve_time_step`),
    and the central path is the slice's: the mean complementarity is taken
    over sum(mult) pairs and pair p is centred toward mult[p] times it. Its
    iterates are then the slice's own, gathered into classes, so a merged
    solve stops where the unmerged one would. With mult all 1 this is the
    plain Mehrotra step.

    Any y in [0, lam] gives the lower bound D(y) = margin * sum(y) -
    sum_c (u_c^2 / (4 d_c) + a_c u_c) with u = A^T y, so g(x) - max D is a
    certified duality gap. Returns the iterate of lowest g, g recomputed
    there from A x, the best dual bound and the multipliers y that give it,
    g after each iteration, and the iteration count.

    A slice has at most a few hundred pairs, so the cost is per numpy call,
    not per element. The loop makes as few calls as it can without changing
    a floating-point operation: tests/reference_hinge_qp.py keeps the plain
    form, and both must agree bit for bit.
    """
    p, k = len(s), len(d)
    rows = np.arange(p)
    A = np.zeros((p, k))
    A[rows, lj] = s
    A[rows, li] = -s
    At = A.T
    # flat positions of the (i,i), (j,j), (i,j), (j,i) entries of the normal matrix
    flat = np.concatenate([li * (k + 1), lj * (k + 1), li * k + lj, lj * k + li])
    diag = np.arange(k) * (k + 1)
    d2, d4 = 2.0 * d, 4.0 * d
    n_comp = 2 * mult.sum()  # the slice's complementarity products, two per pair
    mult2 = np.concatenate([mult, mult]).astype(float)

    x = a
    Ax = A @ x
    xi = np.maximum(margin - Ax, 0.0) + margin
    # the state: slacks X = (w, xi) and their multipliers Y = (y, z). The
    # multipliers start on the slack side, y = lam / 10: at the optimum most
    # pairs are slack (y = 0), and pairs between cells without data carry
    # multipliers of order TIE_BREAK_RHO.
    y0 = 0.1 * lam
    state = np.concatenate([Ax + xi - margin, xi, y0, lam - y0])
    X, Y = state[: 2 * p], state[2 * p :]
    w, xi = X[:p], X[p:]
    y, z = Y[:p], Y[p:]
    u = At @ y
    best_x, best_g, dual, best_y, best_gap = x, math.inf, -math.inf, np.zeros(p), math.inf
    objs: List[float] = []
    iters = stalls = 0
    while iters < opt.max_iters:
        iters += 1
        r_dual = d2 * (x - a) - u
        XY = X * Y
        ratio = X / Y
        inv_theta = 1.0 / (ratio[:p] + ratio[p:])
        normal = np.bincount(
            flat, np.concatenate([inv_theta, inv_theta, -inv_theta, -inv_theta]), k * k
        )
        normal[diag] += d2
        factor, info = dpotrf(normal.reshape(k, k))
        if info != 0:
            break  # the normal matrix is no longer positive definite in double precision

        def newton(rc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # rc is the complementarity residual X * Y - target
            rhs = rc[p:] / z - rc[:p] / y
            dx = dpotrs(factor, At @ (rhs * inv_theta) - r_dual)[0]
            dstate = np.empty(4 * p)
            dX, dY = dstate[: 2 * p], dstate[2 * p :]
            np.multiply(rhs - A @ dx, inv_theta, out=dY[:p])
            np.negative(dY[:p], out=dY[p:])
            np.divide(-(rc + X * dY), Y, out=dX)
            return dx, dstate

        dx, dstate = newton(XY)
        step = _max_step(state, dstate)
        trial = state + step * dstate
        mu = XY.sum() / n_comp
        sigma = ((trial[: 2 * p] * trial[2 * p :]).sum() / n_comp / mu) ** 3
        dX, dY = dstate[: 2 * p], dstate[2 * p :]
        dx, dstate = newton(XY + dX * dY - sigma * mu * mult2)
        step = min(1.0, 0.99 * _max_step(state, dstate))
        x = x + step * dx
        state += step * dstate

        # y > 0 stays so, and y <= lam holds but for rounding, which this clips
        np.minimum(y, lam, out=y)
        u = At @ y
        bound = margin * float(y.sum()) - float(u @ (u / d4 + a))
        if bound > dual:
            dual, best_y = bound, y.copy()
        g = float(d @ (x - a) ** 2) + float(lam @ np.maximum(0.0, xi - w))
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
    spec.check_cells(n)
    opt = opt or OptimizerSettings()
    arr, values = backup_start(buffer, world, init)
    for t in range(T - 1, -1, -1):
        cells, targets = td_slice(arr, t, values, gamma)
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
    """Concordance rates of two tables over the (time, pair) entries.

    `aggregate` and `per_time` are 1 - the discordant share, counting a tie
    as agreement. `tied_share` is the share of entries whose difference is
    exactly 0 in either table. `strict_rate` is 1 - discordant / untied, over
    the untied entries only; NaN when every entry is tied.
    """

    aggregate: float
    per_time: np.ndarray
    tied_share: float
    strict_rate: float


def concordance_rate_report(
    v_a: ValueTable, v_b: ValueTable, spec: ConcordanceSpec
) -> ConcordanceReport:
    """Concordance rate (1 - loss), aggregate and per time slice, with the tie counts."""
    d1, d2 = _pair_gaps(v_a, v_b, spec)
    discord = _discord_mask(d1, d2)
    untied = int(np.count_nonzero((d1 != 0) & (d2 != 0)))
    return ConcordanceReport(
        aggregate=float(1.0 - np.mean(discord)),
        per_time=1.0 - discord.mean(axis=1),
        tied_share=1.0 - untied / discord.size,
        strict_rate=1.0 - int(np.count_nonzero(discord)) / untied if untied else math.nan,
    )
