"""Scheduling domain model: gantry statuses, problem sizes, daily schedules.

A daily schedule covers ``n_g`` treatment gantries over ``n_t`` one-minute
time slots.  Each slot records the gantry status and, unless the gantry is
idle, the patient occupying it.  A treatment follows a fixed status cycle;
its working portion (ready through disposal) spans 26 consecutive minutes,
so a schedule can only contain a finished treatment when ``n_t >= 26``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

VACANT = -1  # patient field value while a gantry is idle


class ConfigError(ValueError):
    """Invalid problem, parameter, or configuration input."""


class GantryStatus(IntEnum):
    """Operational state of a gantry, numbered along the treatment cycle."""

    IDLE = 0
    READY = 1
    WAIT_PATIENT = 2
    ADJUST_TARGET = 3
    WAIT_CONTROL = 4
    WAIT_ACCELERATOR = 5
    IRRADIATE = 6
    DISPOSE = 7


N_STATUSES = 8

# Minutes each status lasts, indexed by status value.
STATUS_DURATIONS = np.array([1, 1, 3, 15, 1, 1, 1, 4], dtype=np.int64)


def status_duration(status: GantryStatus | int) -> int:
    """Return the nominal duration of a status in slots."""
    return int(STATUS_DURATIONS[int(status)])


def cycle_status_pattern() -> np.ndarray:
    """The 26-slot status sequence of one complete working cycle."""
    return np.repeat(np.arange(1, N_STATUSES, dtype=np.int8), STATUS_DURATIONS[1:])


def _check_int(name: str, value: object, low: int, high: float = math.inf) -> None:
    """Reject bools and anything but an int in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ConfigError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def _check_real(name: str, value: object, low: float, high: float) -> None:
    """Reject anything but a finite real number (bools excluded) in [low, high]."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # exact comparisons: NaN, infinities and ints too large for a float fail
    if not (real and low <= value <= high and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number in [{low}, {high}], got {value!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Size of a scheduling problem: gantries, patients, and time slots."""

    n_g: int
    n_p: int
    n_t: int

    def __post_init__(self) -> None:
        for name in ("n_g", "n_p", "n_t"):  # patient ids are int32; no larger grid fits 2 GiB
            _check_int(name, getattr(self, name), 1, 2**31)

    @property
    def n_cells(self) -> int:
        return self.n_g * self.n_t


class _CellGrids:
    """Immutable value over read-only grids whose first two axes are (gantry, slot).

    A subclass names its grids in ``_GRIDS``, first grid first; a trailing
    axis holds per-cell data.  Equality compares every grid by content.
    Population arenas hold values as rows, the cells flattened, and a row
    kernel ``kernel(grids, rows, *args)`` rewrites the listed rows in place.
    """

    __slots__ = ()
    _GRIDS: tuple[str, ...] = ()

    @classmethod
    def _adopt(cls, *grids: np.ndarray) -> _CellGrids:
        """Wrap arrays that the caller owns and built valid, unchecked."""
        obj = object.__new__(cls)
        for name, grid in zip(cls._GRIDS, grids):
            grid.setflags(write=False)
            setattr(obj, name, grid)
        return obj

    @classmethod
    def _from_row(cls, grids: tuple[np.ndarray, ...], row: int, shape: tuple[int, int]):
        """The value in row ``row`` of a population's grids, cells reshaped to (n_g, n_t) ``shape``.

        Its grids are read-only views of the row, so they change when the row is rewritten.
        """
        return cls._adopt(*(grid[row].reshape(*shape, *grid.shape[2:]) for grid in grids))

    def _one_row(self) -> tuple[np.ndarray, ...]:
        """A writable copy of the grids as a population of one row, the cells flattened."""
        return tuple(grid.reshape(1, self.n_cells, *grid.shape[2:]).copy() for grid in self.grids)

    def _through(self, kernel, *args):
        """The value that ``kernel(grids, [0], *args)`` makes of a one-row copy of this one."""
        grids = self._one_row()
        kernel(grids, [0], *args)
        return type(self)._from_row(grids, 0, (self.n_g, self.n_t))

    @property
    def grids(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self._GRIDS)

    @property
    def n_g(self) -> int:
        return getattr(self, self._GRIDS[0]).shape[0]

    @property
    def n_t(self) -> int:
        return getattr(self, self._GRIDS[0]).shape[1]

    @property
    def n_cells(self) -> int:
        return self.n_g * self.n_t

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self._GRIDS)

    __hash__ = None  # array-backed equality; instances are not hashable

    def __reduce__(self):  # copies and pickles come back read-only, unchecked
        return type(self)._adopt, self.grids


class Chromosome(_CellGrids):
    """A full daily schedule held as per-gantry status and patient arrays.

    Instances are immutable value objects: the backing arrays are read-only
    and all operations produce new chromosomes.  ``patients`` is ``VACANT``
    wherever the status is idle and a valid patient id everywhere else.
    """

    _GRIDS = ("statuses", "patients")
    __slots__ = _GRIDS

    def __new__(cls, statuses, patients, *, n_p: int | None = None) -> Chromosome:
        given = (np.asarray(statuses), np.asarray(patients))
        if given[0].dtype.kind not in "iu" or given[1].dtype.kind not in "iu":
            raise ValueError("statuses and patients must be integer arrays")
        statuses = given[0].astype(np.int8)
        patients = given[1].astype(np.int32)
        # Narrowing must not wrap, so the checks below see the values as given.
        for stored, value in zip((statuses, patients), given):
            if stored.dtype != value.dtype and not np.array_equal(stored, value):
                raise ValueError("values must fit int8 statuses and int32 patient ids")
        if statuses.ndim != 2 or statuses.shape != patients.shape:
            raise ValueError("statuses and patients must be equal-shape 2-d arrays")
        if statuses.size == 0:
            raise ValueError("a chromosome needs at least one gantry and one slot")
        if statuses.min() < 0 or statuses.max() >= N_STATUSES:
            raise ValueError("status values must lie in [0, 8)")
        idle = statuses == 0
        if not np.all(patients[idle] == VACANT):
            raise ValueError("idle cells must be vacant")
        busy_patients = patients[~idle]
        if busy_patients.size and busy_patients.min() < 0:
            raise ValueError("non-idle cells must hold a patient id")
        if n_p is not None and busy_patients.size and busy_patients.max() >= n_p:
            raise ValueError(f"patient ids must lie in [0, {n_p})")
        return cls._adopt(statuses, patients)

    def __repr__(self) -> str:
        return f"Chromosome(n_g={self.n_g}, n_t={self.n_t})"


def random_chromosome(spec: ProblemSpec, rng: np.random.Generator) -> Chromosome:
    """Draw a schedule with uniform statuses and uniform patients when busy."""
    statuses = rng.integers(0, N_STATUSES, size=(spec.n_g, spec.n_t), dtype=np.int8)
    patients = rng.integers(0, spec.n_p, size=(spec.n_g, spec.n_t), dtype=np.int32)
    patients[statuses == 0] = VACANT
    return Chromosome._adopt(statuses, patients)
