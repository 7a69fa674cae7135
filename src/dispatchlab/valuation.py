"""Tabular state values: the columnar transition buffer, its backup targets and the DP fit."""
from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .world import GridWorld


@lru_cache(maxsize=None)
def discount_table(gamma: float, n: int) -> np.ndarray:
    """gamma ** k for k < n, by Python's float power: the factors of the scalar
    reward in tests/reference_objects.py on every numpy build (numpy's AVX-512
    array power rounds 0.9 ** 12 and 0.9 ** 23 differently). Every discount of
    the simulator, the matcher and the backup is read from such a table.

    Tables are cached per (gamma, n), so the array is read-only.
    """
    table = np.array([gamma**k for k in range(n)])
    table.setflags(write=False)
    return table


def served_transition(
    t, pickup, duration, revenue, horizon: int, gamma: float, powers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total duration, truncated finish time and reward of serving orders.

    The reward is elementwise `gamma ** pickup * truncated_discounted_reward(
    revenue, duration, gamma, horizon - (t + pickup))` of
    tests/reference_objects.py, with the same operations in the same order:
    what the matcher scores is what the simulator pays. The arguments
    broadcast; `powers` is `discount_table(gamma, n)` with n > every pickup +
    duration.
    """
    total = pickup + duration
    finish_t = np.minimum(t + total, horizon)
    # revenue >= 0, so paid == 0 gives 0.0 as the scalar definition does
    paid = np.minimum(duration, np.maximum(horizon - (t + pickup), 0))
    per_step = revenue / duration
    if gamma == 1.0:
        installments = per_step * paid
    else:
        installments = per_step * (1.0 - powers.take(paid)) / (1.0 - gamma)
    return total, finish_t, powers.take(pickup) * installments


@dataclass
class ValueTable:
    """Dense (T+1) x N table of state values for one policy/environment."""

    values: np.ndarray
    gamma: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must have shape (T+1, N)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if np.any(self.values[-1] != 0.0):
            raise ValueError("terminal row values[T] must be identically zero")

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_cells(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, horizon: int, n_cells: int, gamma: float) -> "ValueTable":
        return cls(np.zeros((horizon + 1, n_cells)), gamma)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="\n", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["t", "cell", "value"])
            for t in range(self.values.shape[0]):
                for i in range(self.values.shape[1]):
                    w.writerow([t, i, repr(float(self.values[t, i]))])

    @classmethod
    def load_csv(cls, path, gamma: float) -> "ValueTable":
        """Read a table written by `save_csv`: one (t, cell, value) row per entry.

        The shape is (largest t + 1, largest cell + 1); every entry of it must
        be listed exactly once, with a finite value.
        """

        def finite(text: str) -> float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"value {text!r} is not finite")
            return value

        with open(path, newline="", encoding="utf-8") as f:
            r = csv.reader(f)
            header = next(r, None)
            if header != ["t", "cell", "value"]:
                raise ValueError(f"unexpected value-table header: {header}")
            try:
                rows = [(int(t), int(c), finite(v)) for t, c, v in r]
            except ValueError as e:
                raise ValueError(f"value table line {r.line_num}: {e}") from e
        if not rows:
            raise ValueError("value table has no rows")
        t, cell, value = (np.array(col) for col in zip(*rows))
        if min(t.min(), cell.min()) < 0:
            raise ValueError("value table has a negative t or cell")
        # counted without a dense array: the extents come from the file, and a
        # stray index of 10**15 must not allocate before it is rejected
        shape = (int(t.max()) + 1, int(cell.max()) + 1)
        _, counts = np.unique(np.stack([t, cell], axis=1), axis=0, return_counts=True)
        missing = shape[0] * shape[1] - len(counts)
        repeated = np.count_nonzero(counts > 1)
        if missing or repeated:
            raise ValueError(
                f"value table of shape {shape} must list each (t, cell) once: "
                f"{missing} missing, {repeated} repeated"
            )
        values = np.zeros(shape)
        values[t, cell] = value
        return cls(values, gamma)


# dtype of the index columns of a TupleArrays; times, cells and durations
# stay below the horizon or the cell count, far inside its range
INDEX_DTYPE = np.int32
_INDEX_RANGE = np.iinfo(INDEX_DTYPE)


def _column(values, name: str, rows: int) -> np.ndarray:
    """`values` as the tuple column `name` of `rows` rows: float64 for
    `reward`, INDEX_DTYPE for the others. A column of another length raises
    ValueError, and so does an index outside INDEX_DTYPE's range, where a
    cast would wrap it around to another index."""
    column = np.asarray(values, dtype=float if name == "reward" else None)
    if column.shape != (rows,):
        raise ValueError(f"tuple column {name} has shape {column.shape}, start_t has ({rows},)")
    if name == "reward" or column.dtype == INDEX_DTYPE:
        return column
    lo, hi = _INDEX_RANGE.min, _INDEX_RANGE.max
    if rows and (column.min() < lo or column.max() > hi):
        raise ValueError(f"tuple column {name} has a value outside [{lo}, {hi}]")
    return column.astype(INDEX_DTYPE)


# the columns of a TupleArrays, in constructor order
COLUMNS = ("start_t", "start_cell", "finish_t", "finish_cell", "reward", "duration")


def _joined(pieces: List[np.ndarray]) -> np.ndarray:
    """The arrays end to end, or a lone one as it is."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class TupleArrays:
    """Columnar copy of a transition buffer, stably sorted by start time.

    Most rows of a simulated day are idle transitions, from (t, cell) to
    (t + 1, cell) with reward 0.0 and duration 1, whose finish, reward and
    duration follow from the row's start. So every row stores only its
    INDEX_DTYPE `start_cell`, and each row kept in full also has a row of
    `full`, in row order: a C-contiguous INDEX_DTYPE block whose columns are
    the row's position among the rows of its start time, its `finish_t`,
    `finish_cell` and `duration`, with its float64 reward in `full_reward`.
    An idle row costs 4 bytes, a full one 28. Only `window` leaves rows out
    of `full`, those the simulator knows are idle; the sorting constructor
    keeps every row in full.

    Start times are kept per time, not per row: `_times` lists the start
    times that have rows, ascending; rows `_bounds[i]` to `_bounds[i + 1]`
    start at `_times[i]`, and rows `_kept[i]` to `_kept[i + 1]` of `full`
    are the full ones among them. All three are short Python lists, so
    finding the rows of a time is a bisection with no numpy call. `start_t`,
    `finish_t`, `finish_cell`, `reward` and `duration` are derived as new
    read-only full columns; only `as_arrays`, tests and perfbench/layers.py
    read them.
    """

    __slots__ = ("start_cell", "full", "full_reward", "_times", "_bounds", "_kept")

    def __init__(self, start_t, start_cell, finish_t, finish_cell, reward, duration):
        """A stably start-time-sorted copy of the columns: never a view of them."""
        start_t = np.asarray(start_t)
        if start_t.ndim != 1:
            raise ValueError(f"tuple column start_t has shape {start_t.shape}, not one axis")
        rows = len(start_t)
        start_t = _column(start_t, "start_t", rows)
        start_cell = _column(start_cell, "start_cell", rows)
        finish_t = _column(finish_t, "finish_t", rows)
        finish_cell = _column(finish_cell, "finish_cell", rows)
        reward = _column(reward, "reward", rows)
        duration = _column(duration, "duration", rows)
        order = np.argsort(start_t, kind="stable")
        sorted_t = start_t[order]
        if rows and sorted_t[0] < 0:
            raise ValueError("tuple column start_t has a value below 0")
        # the first row of each start time, and how many rows start then
        firsts = np.flatnonzero(np.diff(sorted_t, prepend=-1))
        counts = np.diff(firsts, append=rows)
        # each row's position among the rows of its start time, then its fields
        full = np.empty((rows, 4), INDEX_DTYPE)
        full.T[:] = (
            np.arange(rows) - np.repeat(firsts, counts),
            finish_t[order],
            finish_cell[order],
            duration[order],
        )
        counts = counts.tolist()
        self._set(sorted_t[firsts].tolist(), counts, counts, start_cell[order], full, reward[order])

    def _set(self, times, counts, kept, start_cell, full, full_reward) -> "TupleArrays":
        """Take the columns as they are: the first `counts[0]` rows start at
        `times[0]` and the first `kept[0]` rows of `full` are theirs, and so
        on, with `times` ascending. A time with a count of 0 is left out."""
        self._times = [t for t, k in zip(times, counts) if k]
        self._bounds = list(accumulate((k for k in counts if k), initial=0))
        self._kept = list(accumulate((j for j, k in zip(kept, counts) if k), initial=0))
        self.start_cell, self.full, self.full_reward = start_cell, full, full_reward
        return self

    @classmethod
    def window(cls, t, start_cell, rows, finish_t, finish_cell, duration, reward) -> "TupleArrays":
        """One window's part: every row starts at time t, with no check or sort.

        `start_cell` (INDEX_DTYPE) is kept as it is. The rows at positions
        `rows`, ascending, are kept in full with the given finish, duration
        and float64 `reward`; every other row must be an idle transition.
        """
        full = np.empty((len(rows), 4), INDEX_DTYPE)
        full.T[:] = rows, finish_t, finish_cell, duration
        return cls.__new__(cls)._set([t], [len(start_cell)], [len(full)], start_cell, full, reward)

    @classmethod
    def join(cls, parts: Sequence["TupleArrays"]) -> "TupleArrays":
        """The parts end to end, without a sort: each part's start times must
        all come after the previous parts'. `join([])` is the empty part."""
        if not parts:
            return cls(*[()] * 6)
        return cls.__new__(cls)._set(
            [t for p in parts for t in p._times],
            [b - a for p in parts for a, b in zip(p._bounds, p._bounds[1:])],
            [b - a for p in parts for a, b in zip(p._kept, p._kept[1:])],
            _joined([p.start_cell for p in parts]),
            _joined([p.full for p in parts]),
            _joined([p.full_reward for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.start_cell)

    def _derived(self, column: np.ndarray, values: np.ndarray) -> np.ndarray:
        """`column`, which holds the idle rows' values, with the full rows' `values` in place."""
        firsts = np.repeat(np.array(self._bounds[:-1], dtype=INDEX_DTYPE), np.diff(self._kept))
        column[firsts + self.full[:, 0]] = values
        column.flags.writeable = False
        return column

    @property
    def start_t(self) -> np.ndarray:
        """The start time of each row, as a new read-only INDEX_DTYPE array."""
        start_t = np.repeat(np.array(self._times, dtype=INDEX_DTYPE), np.diff(self._bounds))
        start_t.flags.writeable = False
        return start_t

    @property
    def finish_t(self) -> np.ndarray:
        return self._derived(self.start_t + 1, self.full[:, 1])

    @property
    def finish_cell(self) -> np.ndarray:
        return self._derived(self.start_cell.copy(), self.full[:, 2])

    @property
    def reward(self) -> np.ndarray:
        return self._derived(np.zeros(len(self)), self.full_reward)

    @property
    def duration(self) -> np.ndarray:
        return self._derived(np.ones(len(self), dtype=INDEX_DTYPE), self.full[:, 3])

    @classmethod
    def from_tuples(cls, tuples) -> "TupleArrays":
        """The sorted columns of records with `.start` and `.finish` (each with
        `.t` and `.cell`), `.reward_discounted` and `.duration`. Tests build
        buffers with it, and perfbench/layers.py times it."""
        rows = [
            (tr.start.t, tr.start.cell, tr.finish.t, tr.finish.cell, tr.reward_discounted, tr.duration)
            for tr in tuples
        ]
        # the constructor range-checks the Python ints as it builds the columns
        return cls(*(list(zip(*rows)) or [()] * 6))

    def _span(self, t: int) -> Optional[Tuple[int, int, int, int]]:
        """(first, end) of the rows that start at t and (first, end) of their
        rows in `full`; None if no row starts at t."""
        times = self._times
        i = bisect_left(times, t)
        if i == len(times) or times[i] != t:
            return None
        return self._bounds[i], self._bounds[i + 1], self._kept[i], self._kept[i + 1]


BufferLike = Union[TupleArrays, Sequence[TupleArrays]]


def as_parts(buffer: BufferLike) -> List[TupleArrays]:
    """The buffer as a list of parts, each sorted by start time: a
    `TupleArrays` is one part. An empty buffer is []."""
    return [buffer] if isinstance(buffer, TupleArrays) else list(buffer)


def as_arrays(buffer: BufferLike) -> TupleArrays:
    """The buffer as one `TupleArrays`: its parts merged, stably by start
    time. Only tests and perfbench/layers.py (to check dp_evaluate) merge."""
    parts = as_parts(buffer)
    if len(parts) < 2:
        return TupleArrays.join(parts)
    return TupleArrays(*(np.concatenate([getattr(p, name) for p in parts]) for name in COLUMNS))


def backup_start(
    buffer: BufferLike, world: GridWorld, init: Optional[ValueTable] = None
) -> Tuple[List[TupleArrays], np.ndarray]:
    """The parts of the buffer and the starting table of a backward pass.

    The table is a copy of `init` (zero when it is None) with the terminal
    row zeroed. A table of the wrong shape, a tuple outside the world's
    times and cells, or one that does not move forward in time raises
    ValueError.
    """
    parts = as_parts(buffer)
    T, n = world.horizon, world.n_cells
    for arr in parts:
        if not len(arr):
            continue
        # the constructors keep start times ascending and at least 0
        if arr._times[-1] >= T:
            raise ValueError(f"tuple column start_t has a value outside [0, {T})")
        if arr.start_cell.min() < 0 or arr.start_cell.max() >= n:
            raise ValueError(f"tuple column start_cell has a value outside [0, {n})")
        # an idle row finishes at t + 1 <= T in its own cell: only full rows can break a rule
        full = arr.full
        if not len(full):
            continue
        for name, column, end in (("finish_t", full[:, 1], T + 1), ("finish_cell", full[:, 2], n)):
            if column.min() < 0 or column.max() >= end:
                raise ValueError(f"tuple column {name} has a value outside [0, {end})")
        # the earliest finish among the full rows of each start time that has any
        kept = arr._kept
        firsts = [i for i in range(len(arr._times)) if kept[i] < kept[i + 1]]
        earliest = np.minimum.reduceat(full[:, 1], [kept[i] for i in firsts])
        if np.any(earliest <= [arr._times[i] for i in firsts]):
            raise ValueError("all tuples must satisfy finish.t > start.t")
    if init is None:
        values = np.zeros((T + 1, n))
    else:
        if init.values.shape != (T + 1, n):
            raise ValueError(
                f"init table shape {init.values.shape} does not match world ({T + 1}, {n})"
            )
        values = init.values.copy()
        values[T, :] = 0.0
    return parts, values


def td_slice(
    parts: Sequence[TupleArrays], t: int, values: np.ndarray, gamma: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Cells and backup targets for the tuples starting at time t.

    Later-time rows of `values` must already be final; each target is
    gamma^duration * V(finish) + discounted reward. This is the one backup
    target of dp_evaluate and transfer_evaluate (and of the lstsq
    `td_evaluate` in tests/reference_objects.py).

    The rows come part by part, each part in its own order: the order of
    slice t of the stable start-time sort of all parts joined, so the
    result equals the slice of `as_arrays(parts)` bit for bit.
    """
    spans = [(arr, span) for arr in parts if (span := arr._span(t)) is not None]
    if not spans:
        return np.empty(0, dtype=np.intp), np.empty(0)

    # cast once: the callers gather by cell several times per slice, and numpy
    # gathers about 3x slower by int32 indices than by intp ones
    cells = _joined([arr.start_cell[a:b] for arr, (a, b, _, _) in spans]).astype(np.intp)
    full = _joined([arr.full[ka:kb] for arr, (_, _, ka, kb) in spans])
    duration = full[:, 3]
    powers = discount_table(gamma, int(duration.max(initial=1)) + 1)
    # every row's target as an idle row's, gamma^1 * V(t + 1, cell) + 0.0, then
    # the full rows' in their places: the same operations as for the full columns
    targets = powers[1] * values[t + 1].take(cells) + 0.0
    if len(full):
        rows = full[:, 0]
        if len(spans) > 1:
            # each part's rows at t follow the rows of the parts before it
            offsets, counts, start = [], [], 0
            for _, (a, b, ka, kb) in spans:
                offsets.append(start)
                counts.append(kb - ka)
                start += b - a
            rows = rows + np.repeat(offsets, counts)
        reward = _joined([arr.full_reward[ka:kb] for arr, (_, _, ka, kb) in spans])
        targets[rows] = powers.take(duration) * values[full[:, 1], full[:, 2]] + reward
    return cells, targets


def closed_form(cells, targets, warm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each cell's mean backup target, or its `warm` value if it has none, and
    its target count: the fit of `dp_evaluate`, and of `solve_time_step` on
    every cell that no source-ordered pair couples."""
    counts = np.bincount(cells, minlength=len(warm))
    covered = counts > 0
    v = warm.copy()
    v[covered] = np.bincount(cells, weights=targets, minlength=len(warm))[covered] / counts[covered]
    return v, counts


def dp_evaluate(
    buffer: BufferLike,
    world: GridWorld,
    gamma: float,
    init: Optional[ValueTable] = None,
) -> ValueTable:
    """Backward-induction value estimate: per-(t, cell) mean of backup targets.

    Cells with no tuples at a time step keep their initialization (zero, or
    the warm-start table when given).
    """
    arr, values = backup_start(buffer, world, init)
    for t in range(world.horizon - 1, -1, -1):
        cells, targets = td_slice(arr, t, values, gamma)
        values[t] = closed_form(cells, targets, values[t])[0]
    return ValueTable(values, gamma)
