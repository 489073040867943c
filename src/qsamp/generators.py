"""Construction and validation of absorbing Markov generators.

A generator lives on states 1..n plus one absorbing point (written oo below).
Only off-diagonal rates are stored: internal transitions as sparse triplets
and the absorption column as a per-state rate.  Diagonals are derived so that
every full row sums to zero, which keeps the row-sum invariant exact up to a
single rounding per row.

The validated triplets give one derived structure, the canonical CSR matrix
of the positive internal rates (0-based, rows in order, columns sorted, no
repeats), built once and read-only.  Every structural query reads it: the
strong-connectivity check, rate lookups, the graph searches of the bounds,
the reversibility test and minors of the spectra, and the jump table of
the Monte Carlo kernel.
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
    """

    n_states: int
    transitions: tuple
    absorption: tuple

    def __post_init__(self):
        if self.n_states < 1:
            raise InvalidParameter("need at least one surviving state")
        for i, j, r in self.transitions:
            if not (1 <= i <= self.n_states and 1 <= j <= self.n_states):
                raise InvalidParameter(f"transition ({i},{j}) out of range")
            if i == j:
                raise InvalidParameter("diagonal entries are derived, not supplied")
            if r < 0:
                raise NegativeRate(f"rate {r} on ({i},{j})")
        csr = self._csr  # rejects unsorted or repeated (from, to) pairs
        for i, r in self.absorption:
            if not 1 <= i <= self.n_states:
                raise InvalidParameter(f"absorption state {i} out of range")
            if r < 0:
                raise NegativeRate(f"absorption rate {r} at state {i}")
        if not self.absorbing_set:
            raise NoAbsorption("no state has a positive absorption rate")
        n, _ = connected_components(csr, directed=True, connection="strong")
        if n != 1:
            raise NonIrreducible(
                f"killed chain splits into {n} strongly connected components"
            )

    # -- derived structure -------------------------------------------------

    @cached_property
    def _csr(self) -> csr_matrix:
        """The positive internal rates as a canonical CSR matrix (0-based).

        Built straight from the triplets, whose (from, to) keys must
        increase strictly, so no rate is summed or reordered on the way.
        """
        n = self.n_states
        rows = np.array([i - 1 for i, _, r in self.transitions if r > 0], dtype=np.int64)
        cols = np.array([j - 1 for _, j, r in self.transitions if r > 0], dtype=np.int64)
        vals = np.array([r for _, _, r in self.transitions if r > 0], dtype=float)
        if np.any(np.diff(rows * n + cols) <= 0):
            raise InvalidParameter("transitions must be sorted by (from, to) without repeats")
        indptr = np.searchsorted(rows, np.arange(n + 1))
        csr = csr_matrix((vals, cols, indptr), shape=(n, n))
        for a in (csr.data, csr.indices, csr.indptr):
            a.setflags(write=False)
        return csr

    @cached_property
    def _coo(self):
        """(rows, cols, rates) of _csr: the internal edges in (from, to) order,
        rows as int64."""
        csr = self._csr
        rows = np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(csr.indptr))
        return rows, csr.indices, csr.data

    @cached_property
    def absorption_rates(self) -> np.ndarray:
        """Absorption rate per state (length n_states, 0-based order)."""
        a = np.zeros(self.n_states)
        for i, r in self.absorption:
            a[i - 1] += r
        a.setflags(write=False)
        return a

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Derived diagonal of the full generator: minus the total exit rate."""
        rows, _, vals = self._coo
        out = np.zeros(self.n_states)
        np.add.at(out, rows, vals)
        out += self.absorption_rates
        out = -out
        out.setflags(write=False)
        return out

    @cached_property
    def absorbing_set(self) -> tuple:
        """States with a positive absorption rate (1-based, sorted)."""
        return tuple(int(i) + 1 for i in np.nonzero(self.absorption_rates > 0)[0])

    @property
    def max_rate(self) -> float:
        return float(np.max(-self.diagonal))

    def k_matrix(self) -> np.ndarray:
        """Dense killed generator (the n x n minor over surviving states)."""
        rows, cols, vals = self._coo
        k = np.zeros((self.n_states, self.n_states))
        np.add.at(k, (rows, cols), vals)
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
        Duplicate entries are summed; zero rates are dropped.  NaN or
        infinite rates and labels that are not integers raise
        InvalidParameter here, which every other constructor passes through.
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
        pairs = absorption_rates.items()
    else:
        pairs = absorption_rates
    absorb: dict = {}
    for i, r in pairs:
        i = _state_label(i)
        if not _is_finite_number(r):
            raise InvalidParameter(f"absorption rate {r!r} at state {i} is not a finite number")
        if r < 0:
            raise NegativeRate(f"absorption rate {r} at state {i}")
        if r > 0:
            absorb[i] = absorb.get(i, 0.0) + float(r)
    return AbsorbingGenerator(
        n_states=int(n_states),
        transitions=tuple(sorted((i, j, r) for (i, j), r in merged.items())),
        absorption=tuple(sorted(absorb.items())),
    )


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
    transitions = [(x, x + 1, float(rho)) for x in range(1, n)]
    transitions += [(x + 1, x, 1.0) for x in range(1, n - 1)]
    transitions.append((n, n - 1, 1.0 + float(rho)))
    return build_general(n, transitions, {1: 1.0})


def build_graph_walk(edges: Iterable, absorbing_from: Iterable) -> AbsorbingGenerator:
    """Unit-rate walk on a directed edge set with absorption out of given states."""
    edges = list(edges)
    states = sorted({v for e in edges for v in e})
    if not states:
        raise InvalidParameter("empty edge set")
    n = max(states)
    transitions = [(i, j, 1.0) for i, j in edges]
    return build_general(n, transitions, {x: 1.0 for x in absorbing_from})


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
    transitions = [(x, x + 1, float(b[x - 1])) for x in range(1, n)]
    transitions += [(x, x - 1, float(d[x - 1])) for x in range(2, n + 1)]
    return build_general(n, transitions, {1: float(d[0])})


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
