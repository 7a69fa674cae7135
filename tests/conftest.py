import numpy as np
import pytest

from dispatchlab import DriverBatch, GridWorld, OrderRequest, State, TupleArrays
from dispatchlab.valuation import discount_table

from reference_objects import TransitionTuple

# Pass/fail lines recorded by the acceptance tests, echoed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def small_world():
    # 2 cells, adjacent, short day
    return GridWorld(2, 6, np.array([[1, 1], [1, 1]]))


def make_world(n_cells=4, horizon=8, travel=None):
    if travel is None:
        travel = np.ones((n_cells, n_cells), dtype=int)
    return GridWorld(n_cells, horizon, travel)


def driver_batch(slots, t=0):
    """DriverBatch of DriverSlot objects that all wait at the same window."""
    if slots:
        t = slots[0].state.t
        assert all(s.state.t == t for s in slots)
    return DriverBatch([s.driver_id for s in slots], [s.state.cell for s in slots], t)


def random_buffer(rng, world, n_tuples, reward_scale=1.0):
    """Random but consistent transition tuples (finish.t > start.t, <= T)."""
    T, n = world.horizon, world.n_cells
    tuples = []
    for _ in range(n_tuples):
        t = int(rng.integers(0, T))
        cell = int(rng.integers(0, n))
        duration = int(rng.integers(1, 4))
        finish_t = min(t + duration, T)
        if rng.random() < 0.3:
            tuples.append(
                TransitionTuple(State(t, cell), None, 0.0, State(min(t + 1, T), cell), 1)
            )
        else:
            dest = int(rng.integers(0, n))
            order = OrderRequest(cell, dest, float(rng.random() * 10), duration, t)
            reward = float(rng.random() * reward_scale)
            tuples.append(
                TransitionTuple(State(t, cell), order, reward, State(finish_t, dest), duration)
            )
    return tuples


def assert_tuple_dtypes(arr):
    """A TupleArrays keeps its five index columns in 32 bits and its reward in float64."""
    for name in ("start_t", "start_cell", "finish_t", "finish_cell", "duration"):
        assert getattr(arr, name).dtype == np.int32, name
    assert arr.reward.dtype == np.float64


TUPLE_COLUMNS = ("start_t", "start_cell", "finish_t", "finish_cell", "reward", "duration")


class FullPart:
    """Every column of every row stored in full, stably sorted by start time:
    the reference for the compact storage of `TupleArrays`."""

    def __init__(self, start_t, start_cell, finish_t, finish_cell, reward, duration):
        order = np.argsort(np.asarray(start_t), kind="stable")
        for name, values in zip(TUPLE_COLUMNS, (start_t, start_cell, finish_t, finish_cell)):
            setattr(self, name, np.asarray(values).astype(np.int32)[order])
        self.reward = np.asarray(reward, dtype=np.float64)[order]
        self.duration = np.asarray(duration).astype(np.int32)[order]

    @classmethod
    def from_tuples(cls, tuples):
        return cls(
            [tr.start.t for tr in tuples],
            [tr.start.cell for tr in tuples],
            [tr.finish.t for tr in tuples],
            [tr.finish.cell for tr in tuples],
            [tr.reward_discounted for tr in tuples],
            [tr.duration for tr in tuples],
        )

    def slice_at(self, t):
        lo, hi = np.searchsorted(self.start_t, [t, t + 1]).tolist()
        return slice(lo, hi) if hi > lo else slice(0, 0)

    def td_slice(self, t, values, gamma):
        """Cells and targets of slice t by the backup formula on the full columns."""
        sl = self.slice_at(t)
        if sl.stop == sl.start:
            return np.empty(0, dtype=np.intp), np.empty(0)
        duration = self.duration[sl]
        discount = discount_table(gamma, int(duration.max()) + 1).take(duration)
        targets = discount * values[self.finish_t[sl], self.finish_cell[sl]] + self.reward[sl]
        return self.start_cell[sl].astype(np.intp), targets


def idle_rows(start_t, start_cell, finish_t, finish_cell, reward, duration):
    """Which rows are idle transitions, bit for bit: from (t, cell) to
    (t + 1, cell) with reward +0.0 (never -0.0) and duration 1."""
    reward = np.asarray(reward, dtype=np.float64)
    return (
        (np.asarray(finish_t) == np.asarray(start_t) + 1)
        & (np.asarray(finish_cell) == np.asarray(start_cell))
        & (np.asarray(duration) == 1)
        & (reward.view(np.int64) == 0)
    )


def compact_part(start_t, start_cell, finish_t, finish_cell, reward, duration):
    """The rows, stably sorted by start time, as one `TupleArrays.window` per
    start time joined: the compact form of a simulated day, where only the
    rows that are not `idle_rows` are kept in full."""
    cols = [np.asarray(c) for c in (start_t, start_cell, finish_t, finish_cell, reward, duration)]
    order = np.argsort(cols[0], kind="stable")
    start_t, start_cell, finish_t, finish_cell, reward, duration = (c[order] for c in cols)
    full = ~idle_rows(start_t, start_cell, finish_t, finish_cell, reward, duration)
    windows = []
    for t in np.unique(start_t).tolist():
        at = start_t == t
        rows = np.flatnonzero(full[at])
        windows.append(
            TupleArrays.window(
                t,
                start_cell[at].astype(np.int32),
                rows,
                finish_t[at][rows],
                finish_cell[at][rows],
                duration[at][rows],
                reward[at][rows].astype(np.float64),
            )
        )
    return TupleArrays.join(windows)


def assert_same_part(got, want):
    """Two TupleArrays hold the same rows bit for bit. `got.start_t` is built
    from its per-time bounds, so they are checked too."""
    for name in TUPLE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def grid_search_oracle(cells, targets, v_src, spec, lo, hi, res=1e-3):
    """Exhaustive 2-cell minimization of the penalized objective on a lattice.

    The lattice is scored 256 values of cell 0 at a time, each against every
    value of cell 1, with the same operations per point as one row at a time."""
    axis = np.arange(lo, hi + res, res)
    pi, pj = spec.pair_arrays
    sign_src = np.sign(v_src[pj] - v_src[pi])
    t0 = targets[cells == 0]
    t1 = targets[cells == 1]
    q1 = np.sum((axis[:, None] - t1[None, :]) ** 2, axis=1)
    best = np.inf
    for start in range(0, len(axis), 256):
        v0 = axis[start : start + 256, None]
        q = np.sum((v0 - t0) ** 2, axis=1, keepdims=True) + q1
        d = np.where(pj[0] == 1, axis - v0, v0 - axis)
        h = np.maximum(0.0, spec.margin - sign_src[0] * d) * (sign_src[0] != 0)
        best = min(best, (q + spec.lam * h).min())
    return best


def brute_force_match(problem):
    """Exhaustive search over feasible assignments; returns (objective, assignment)."""
    m, n = len(problem.drivers), len(problem.orders)
    best = [-np.inf, None]

    def recurse(l, used, chosen, total):
        if l == m:
            if total > best[0]:
                best[0] = total
                best[1] = list(chosen)
            return
        # null option
        chosen.append(None)
        recurse(l + 1, used, chosen, total + problem.scores[l, 0])
        chosen.pop()
        for k in range(n):
            if k in used or not problem.feasible[l, k + 1]:
                continue
            used.add(k)
            chosen.append(k)
            recurse(l + 1, used, chosen, total + problem.scores[l, k + 1])
            chosen.pop()
            used.remove(k)

    recurse(0, set(), [], 0.0)
    return best[0], best[1]


def null_expansion_match(problem):
    """Exact matching as an m x (n + m) assignment; returns (objective, assignment).

    One column per order plus an m x m block whose diagonal is each driver's
    null score; every other cell of that block, and every masked pair, is
    -inf. An oracle independent of the gain-matrix reduction in `km_match`.
    """
    from scipy.optimize import linear_sum_assignment

    m, n = len(problem.drivers), len(problem.orders)
    if m == 0:
        return 0.0, []
    cost = np.full((m, n + m), -np.inf)
    cost[:, :n] = np.where(problem.feasible[:, 1:], problem.scores[:, 1:], -np.inf)
    cost[np.arange(m), n + np.arange(m)] = problem.scores[:, 0]
    rows, cols = linear_sum_assignment(cost, maximize=True)
    assignment = [None] * m
    for r, c in zip(rows.tolist(), cols.tolist()):
        assignment[r] = c if c < n else None
    objective = 0.0
    for l, k in enumerate(assignment):
        objective += float(problem.scores[l, 0 if k is None else k + 1])
    return objective, assignment


def qp_reference(cells, targets, v_src_t, spec):
    """Minimizer of the penalized slice objective from scipy's bundled HiGHS.

    An oracle independent of `solve_time_step`: the QP over the slice values
    v and one slack xi_p >= 0 per source-ordered pair, with
    xi_p + s_p (v_j - v_i) >= margin, minimizing
    sum_c n_c (v_c - mean_c)^2 + lam * sum xi (the TD error up to a constant).
    Cells without data get a 1e-8 curvature so the QP is strictly convex.
    """
    from scipy.optimize._highspy import _core as highs

    n = len(v_src_t)
    pi, pj = spec.pair_arrays
    sign = np.sign(v_src_t[pj] - v_src_t[pi])
    keep = sign != 0
    pi, pj, sign = pi[keep], pj[keep], sign[keep]
    p = len(pi)
    counts = np.bincount(cells, minlength=n).astype(float)
    sums = np.bincount(cells, weights=targets, minlength=n)
    mean = np.divide(sums, counts, out=np.zeros(n), where=counts > 0)
    inf = highs.kHighsInf
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("time_limit", 30.0)
    no_index = np.array([], dtype=np.int32)
    h.addCols(
        n + p,
        np.concatenate([-2.0 * counts * mean, np.full(p, float(spec.lam))]),
        np.concatenate([np.full(n, -inf), np.zeros(p)]),
        np.full(n + p, inf),
        0,
        no_index,
        no_index,
        np.array([], dtype=float),
    )
    index = np.stack([pj, pi, n + np.arange(p)], axis=1).ravel().astype(np.int32)
    value = np.stack([sign, -sign, np.ones(p)], axis=1).ravel().astype(float)
    h.addRows(
        p,
        np.full(p, float(spec.margin)),
        np.full(p, inf),
        3 * p,
        np.arange(0, 3 * p, 3, dtype=np.int32),
        index,
        value,
    )
    h.passHessian(
        n + p,
        n,
        highs.HessianFormat.kTriangular,
        np.concatenate([np.arange(n + 1), np.full(p, n)]).astype(np.int32),
        np.arange(n, dtype=np.int32),
        np.where(counts > 0, 2.0 * counts, 2e-8),
    )
    h.run()
    assert h.getModelStatus() == highs.HighsModelStatus.kOptimal
    return np.array(h.getSolution().col_value[:n])


def slice_bounds(cells, targets, v_src_t, spec, warm, values, y):
    """The primal value g(values) and the dual bound D(y) of a slice, so that
    g - D bounds how far `values` are from the slice optimum.

    Written from the `_hinge_qp` docstring, on the slice's own cells and
    source-ordered pairs (no class merging). Cell c has weight d_c, its tuple
    count, or the tie-break pull TIE_BREAK_RHO when it has no data, and
    centre a_c, its target mean or else its warm start. The primal value is

        g(v) = sum_c d_c (v_c - a_c)^2 + lam * sum_p max(0, margin - s_p (v_j - v_i)),

    the tie-broken slice objective less its value at the target means. For y
    in [0, lam], D(y) = margin * sum(y) - sum_c (u_c^2 / (4 d_c) + a_c u_c)
    with u = A^T y, where row p of A is +s_p at j and -s_p at i, bounds g
    from below. The objective grows by at least d_c (v_c - v*_c)^2 away from
    its minimizer v*, so g - D also bounds each cell: |v_c - v*_c| <=
    sqrt((g - D) / d_c).
    """
    from dispatchlab.transfer import TIE_BREAK_RHO

    n = len(v_src_t)
    y = np.asarray(y, dtype=float)
    pi, pj = spec.pair_arrays
    sign = np.sign(v_src_t[pj] - v_src_t[pi])
    keep = sign != 0
    pi, pj, sign = pi[keep], pj[keep], sign[keep]
    assert y.shape == sign.shape
    assert np.all((0.0 <= y) & (y <= spec.lam))
    counts = np.bincount(cells, minlength=n).astype(float)
    sums = np.bincount(cells, weights=targets, minlength=n)
    d = np.where(counts > 0, counts, TIE_BREAK_RHO)
    a = np.where(counts > 0, sums / np.maximum(counts, 1.0), warm)
    hinge = np.maximum(0.0, spec.margin - sign * (values[pj] - values[pi]))
    g = float(np.sum(d * (values - a) ** 2) + spec.lam * np.sum(hinge))
    u = np.zeros(n)
    np.add.at(u, pj, sign * y)
    np.add.at(u, pi, -sign * y)
    dual = spec.margin * float(np.sum(y)) - float(np.sum(u * u / (4.0 * d) + a * u))
    return g, dual
