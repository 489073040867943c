"""Construction and validation of absorbing Markov generators.

A generator lives on states 1..n plus one absorbing point (written oo below).
Only off-diagonal rates are stored: internal transitions as sparse triplets
and the absorption column as a per-state rate.  Diagonals are derived so that
every full row sums to zero, which keeps the row-sum invariant exact up to a
single rounding per row.

Construction is one numpy pass.  The triplets and the absorption pairs are
converted to column arrays once, every check runs on those arrays, and the
same pass sets the derived arrays, read-only: the canonical CSR matrix of
the positive internal rates (0-based, rows in order, columns sorted, no
repeats), the absorption rate per state and the diagonal.  Every structural
query reads the CSR: the strong-connectivity check, rate lookups, the graph
searches of the bounds, the reversibility test and minors of the spectra,
and the jump table of the Monte Carlo kernel.

build_general and build_graph_walk read user input entry by entry, so they
type-check each entry and merge duplicates before construction.
build_birth_death lays out the sorted triplets of its checked rate arrays
with numpy and constructs the generator directly; build_rho_chain is one
build_birth_death call.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    EmptyResult,
    InvalidParameter,
    NegativeRate,
    NoAbsorption,
    NonIrreducible,
)


@dataclass(frozen=True)
class AbsorbingGenerator:
    """Validated absorbing generator.

    Attributes
    ----------
    n_states : number of surviving states, labelled 1..n_states.
    transitions : tuple of (from_state, to_state, rate) with positive rates,
        strictly increasing in (from_state, to_state); 1-based labels.
    absorption : tuple of (state, rate) with positive absorption rates.
    absorption_rates : read-only array, the absorption rate per state
        (length n_states, 0-based order).
    diagonal : read-only array, the derived diagonal of the full generator:
        minus the total exit rate per state.

    Only the first three are dataclass fields, so ==, hash, repr and JSON
    read those.  Construction rejects, with InvalidParameter unless noted,
    entries that are not numbers, labels that are not integers in 1..n,
    diagonal entries, NaN or infinite rates, negative rates (NegativeRate),
    unsorted or repeated (from, to) keys, no positive absorption
    (NoAbsorption) and a chain that is not strongly connected
    (NonIrreducible).
    """

    n_states: int
    transitions: tuple
    absorption: tuple

    def __post_init__(self):
        n = self.n_states
        if n < 1:
            raise InvalidParameter("need at least one surviving state")
        i, j, r = _columns(self.transitions, 3,
                           "transitions must be (from, to, rate) triples of numbers")
        at, kill = _columns(self.absorption, 2, "absorption must be (state, rate) pairs of numbers")
        _check_entries(self.transitions, np.concatenate((i, j)), r, n, "transition ({0},{1})",
                       "rate {2} on ({0},{1})")
        rows, cols = i.astype(np.int64) - 1, j.astype(np.int64) - 1
        if np.count_nonzero(rows == cols):
            raise InvalidParameter("diagonal entries are derived, not supplied")
        if np.count_nonzero(np.diff(rows * n + cols) <= 0):
            raise InvalidParameter("transitions must be sorted by (from, to) without repeats")
        _check_entries(self.absorption, at, kill, n, "absorption state {0}",
                       "absorption rate {1} at state {0}")
        keep = r > 0
        rows, cols, vals = rows[keep], cols[keep], r[keep].astype(float)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        csr = csr_matrix((vals, cols, indptr), shape=(n, n))
        absorption_rates = np.bincount(at.astype(np.int64) - 1, weights=kill, minlength=n)
        if not np.count_nonzero(absorption_rates > 0):
            raise NoAbsorption("no state has a positive absorption rate")
        n_comp, _ = connected_components(csr, directed=True, connection="strong")
        if n_comp != 1:
            raise NonIrreducible(f"killed chain splits into {n_comp} strongly connected components")
        diagonal = -(np.bincount(rows, weights=vals, minlength=n) + absorption_rates)
        for arr in (csr.data, csr.indices, csr.indptr, absorption_rates, diagonal):
            arr.setflags(write=False)
        # the dataclass is frozen: derived attributes go into the instance dict
        vars(self).update(_csr=csr, absorption_rates=absorption_rates, diagonal=diagonal)

    # -- derived structure -------------------------------------------------

    @cached_property
    def _coo(self):
        """(rows, cols, rates) of _csr: the internal edges in (from, to) order,
        rows as int64."""
        csr = self._csr
        rows = np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(csr.indptr))
        return rows, csr.indices, csr.data

    @cached_property
    def absorbing_set(self) -> tuple:
        """States with a positive absorption rate (1-based, sorted)."""
        return tuple(int(i) + 1 for i in np.nonzero(self.absorption_rates > 0)[0])

    @property
    def max_rate(self) -> float:
        return float(np.max(-self.diagonal))

    def k_matrix(self) -> np.ndarray:
        """Dense killed generator (the n x n minor over surviving states)."""
        k = self._csr.toarray()
        np.fill_diagonal(k, self.diagonal)
        return k

    def rate(self, i: int, j: int) -> float:
        """Off-diagonal rate from i to j (1-based); j=0 queries absorption."""
        n = self.n_states
        if not (1 <= i <= n and 0 <= j <= n):
            raise InvalidParameter(f"rate ({i},{j}) out of range for {n} states")
        if j == 0:
            return float(self.absorption_rates[i - 1])
        csr = self._csr
        lo, hi = csr.indptr[i - 1 : i + 1]
        k = lo + np.searchsorted(csr.indices[lo:hi], j - 1)
        return float(csr.data[k]) if k < hi and csr.indices[k] == j - 1 else 0.0

    # -- birth-death structure ---------------------------------------------

    @cached_property
    def is_birth_death(self) -> bool:
        """True when jumps only connect neighbours and absorption exits state 1."""
        rows, cols, _ = self._coo
        if np.any(np.abs(rows - cols) != 1):
            return False
        return self.absorbing_set == (1,)

    def birth_death_rates(self):
        """Return (b, d): up-rates b_1..b_{n-1} and down-rates d_1..d_n.

        d_1 is the absorption rate out of state 1; requires is_birth_death.
        """
        if not self.is_birth_death:
            raise InvalidParameter("generator is not birth-death absorbed from state 1")
        rows, cols, vals = self._coo
        up = cols > rows
        b = np.zeros(self.n_states - 1)
        b[rows[up]] = vals[up]
        d = np.zeros(self.n_states)
        d[0] = self.absorption_rates[0]
        d[rows[~up]] = vals[~up]
        return b, d

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n_states": self.n_states,
            "transitions": [
                {"from": i, "to": j, "rate": r} for i, j, r in self.transitions
            ],
            "absorption": [{"state": i, "rate": r} for i, r in self.absorption],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AbsorbingGenerator":
        if not isinstance(obj, dict):
            raise InvalidParameter("generator JSON must be an object")
        if not isinstance(obj.get("n_states"), int):
            raise InvalidParameter("generator JSON needs an integer 'n_states'")
        return build_general(
            obj["n_states"],
            _json_entries(obj, "transitions", ("from", "to", "rate")),
            dict(_json_entries(obj, "absorption", ("state", "rate"))),
        )


def _columns(entries, width: int, message: str) -> list:
    """The columns of entries, rows of width numbers, as integer or float arrays.

    np.asarray never parses a string or reads None as NaN, so such entries
    keep a dtype that is rejected here, as are rows of other lengths.
    """
    try:
        cols = [np.asarray(c) for c in zip(*entries, strict=True)]
        if not len(entries):
            cols = [np.zeros(0)] * width
    except (TypeError, ValueError):
        raise InvalidParameter(message) from None
    if len(cols) != width or any(c.ndim != 1 or c.dtype.kind not in "iuf" for c in cols):
        raise InvalidParameter(message)
    return cols


def _check_entries(entries, labels, rates, n: int, entry: str, rate: str) -> None:
    """Raise for an entry whose labels are not integers in 1..n, or whose
    rate is not finite and nonnegative (NegativeRate when it is negative).

    labels holds the entries' label columns one after another; entry and
    rate are format strings over an entry that name it and its rate.
    """
    for mask, error, message in (
        (labels != np.floor(labels), InvalidParameter, entry + ": state labels must be integers"),
        ((labels < 1) | (labels > n), InvalidParameter, entry + " out of range"),
        (~np.isfinite(rates), InvalidParameter, rate + " is not a finite number"),
        (rates < 0, NegativeRate, rate),
    ):
        if np.count_nonzero(mask):
            raise error(message.format(*entries[mask.argmax() % len(entries)]))


def _json_entries(obj: dict, field: str, keys: tuple) -> list:
    """The entries of obj[field] as tuples of their keys' values."""
    entries = obj.get(field, [])
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and all(k in e for k in keys) for e in entries
    ):
        raise InvalidParameter(
            f"'{field}' must be a list of objects with keys {', '.join(keys)}"
        )
    return [tuple(e[k] for k in keys) for e in entries]


def build_general(
    n_states: int,
    transitions: Iterable,
    absorption_rates,
) -> AbsorbingGenerator:
    """Build and validate a generator from sparse rate data.

    Parameters
    ----------
    n_states : number of surviving states.
    transitions : iterable of (from_state, to_state, rate), 1-based labels.
        Duplicate entries are summed; zero rates are dropped.  Each entry is
        type-checked as it is read: a rate that is not a finite real number,
        or a label that is not an integer (bools included), raises
        InvalidParameter.
    absorption_rates : mapping state -> rate, or iterable of (state, rate).
    """
    merged: dict = {}
    for i, j, r in transitions:
        i, j = _state_label(i), _state_label(j)
        if not _is_finite_number(r):
            raise InvalidParameter(f"rate {r!r} on ({i},{j}) is not a finite number")
        if r < 0:
            raise NegativeRate(f"rate {r} on ({i},{j})")
        if r > 0:
            merged[(i, j)] = merged.get((i, j), 0.0) + float(r)
    if isinstance(absorption_rates, Mapping):
        absorption_rates = absorption_rates.items()
    absorb: dict = {}
    for i, r in absorption_rates:
        i = _state_label(i)
        if not _is_finite_number(r):
            raise InvalidParameter(f"absorption rate {r!r} at state {i} is not a finite number")
        if r < 0:
            raise NegativeRate(f"absorption rate {r} at state {i}")
        if r > 0:
            absorb[i] = absorb.get(i, 0.0) + float(r)
    transitions = tuple(sorted((i, j, r) for (i, j), r in merged.items()))
    return AbsorbingGenerator(int(n_states), transitions, tuple(sorted(absorb.items())))


def _is_finite_number(r) -> bool:
    if type(r) is float:  # the common case, without the slower ABC check
        return math.isfinite(r)
    return isinstance(r, numbers.Real) and math.isfinite(r)


def _state_label(i) -> int:
    """i as a state label: any integer type (numpy's too), not a bool."""
    if type(i) is int:  # the common case, without the slower ABC check
        return i
    if not isinstance(i, numbers.Integral) or isinstance(i, bool):
        raise InvalidParameter(f"state label {i!r} is not an integer")
    return int(i)


def build_rho_chain(n: int, rho: float) -> AbsorbingGenerator:
    """Finite drifted chain on 1..n absorbed below state 1.

    Up-rate rho from every state x <= n-1, down-rate 1 from interior states,
    absorption rate 1 out of state 1, and down-rate 1+rho from the top state.
    """
    if n < 2:
        raise InvalidParameter("chain needs an interior; n >= 2")
    if rho <= 0:
        raise InvalidParameter("rho must be positive")
    return build_birth_death(np.full(n - 1, float(rho)), np.r_[np.ones(n - 1), 1.0 + float(rho)])


def build_graph_walk(edges: Iterable, absorbing_from: Iterable) -> AbsorbingGenerator:
    """Unit-rate walk on a directed edge set with absorption out of given states."""
    edges = list(edges)
    states = {v for e in edges for v in e}
    if not states:
        raise InvalidParameter("empty edge set")
    transitions = [(i, j, 1.0) for i, j in edges]
    return build_general(max(states), transitions, {x: 1.0 for x in absorbing_from})


def build_birth_death(b: Sequence, d: Sequence) -> AbsorbingGenerator:
    """Birth-death generator on 1..n from rate arrays.

    b holds up-rates b_1..b_{n-1}; d holds down-rates d_1..d_n, where d_1 is
    the absorption rate out of state 1.  The top state only jumps down (a
    reflecting cut at n).
    """
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    n = len(d)
    if n < 1 or len(b) != n - 1:
        raise InvalidParameter("need len(b) == len(d) - 1 >= 0")
    if np.any(b <= 0) or np.any(d <= 0):
        raise InvalidParameter("birth-death rates must be strictly positive")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
        raise InvalidParameter("birth-death rates must be finite numbers")
    # (x, x+1, b_x) then (x+1, x, d_{x+1}) for x = 1..n-1: the (from, to) order
    x = np.arange(1, n)
    transitions = zip(np.column_stack((x, x + 1)).ravel().tolist(),
                      np.column_stack((x + 1, x)).ravel().tolist(),
                      np.column_stack((b, d[1:])).ravel().tolist())
    return AbsorbingGenerator(n, tuple(transitions), ((1, float(d[0])),))


@dataclass(frozen=True)
class Path:
    """Ordered state list (1-based); consecutive pairs must be positive-rate edges."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices) - 1

    def validate(self, gen: AbsorbingGenerator) -> None:
        for v in self.vertices:
            if not 1 <= v <= gen.n_states:
                raise InvalidParameter(f"vertex {v} out of range")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if gen.rate(u, v) <= 0:
                raise InvalidParameter(f"({u},{v}) is not a positive-rate edge")


def minor(gen: AbsorbingGenerator, removed) -> np.ndarray:
    """Dense restriction of the killed generator to the surviving complement.

    Rows keep their diagonal, so rate mass toward removed states acts as
    extra killing.  Removing every state raises EmptyResult.
    """
    removed = {int(x) for x in removed}
    for x in removed:
        if not 1 <= x <= gen.n_states:
            raise InvalidParameter(f"state {x} out of range")
    keep = [x for x in range(1, gen.n_states + 1) if x not in removed]
    if not keep:
        raise EmptyResult("removed every state")
    idx = np.array(keep) - 1
    return gen.k_matrix()[np.ix_(idx, idx)]


def load_generator(path) -> AbsorbingGenerator:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"generator file is not valid JSON: {exc}") from None
    return AbsorbingGenerator.from_json_dict(obj)


def save_generator(gen: AbsorbingGenerator, path) -> None:
    with open(path, "w") as fh:
        json.dump(gen.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
