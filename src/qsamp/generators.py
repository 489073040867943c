"""Construction and validation of absorbing Markov generators.

A generator lives on states 1..n plus one absorbing point (written oo below).
Only off-diagonal rates are stored: internal transitions as a sparse matrix
and the absorption column as a per-state rate.  Diagonals are derived so that
every full row sums to zero, which keeps the row-sum invariant exact up to a
single rounding per row.

A generator has one representation, built once and read-only: the canonical
CSR matrix of its positive internal rates (0-based, rows in order, columns
sorted, no repeats) and the absorption rate per state, with the diagonal set
in the same pass.  Every structural query reads the CSR: the
strong-connectivity check, rate lookups, the graph searches of the bounds,
the reversibility test and minors of the spectra, the band order of the
spectral solves, and the jump table of the Monte Carlo kernel.  The triplet
tuples transitions and absorption are derived from it when something reads
them (JSON, repr).

Every way in shares one set of checks on whole columns.  The constructor
and build_general read their entries as columns of labels and rates and
reject labels that are not integers in 1..n (bools, floats, strings and
None included), rates that are not finite nonnegative reals, and diagonal
entries.  The constructor also asks for keys sorted without repeats, while
build_general drops zero rates and sums repeated keys in input order.
build_graph_walk runs the same label checks on its edge columns, with unit
rates.  The package's other argument checks live here too: _integer,
_state and _finite_real (scalars), _real_array (arrays, build_birth_death's
rates among them), _generator (generators) and _read_json (JSON files).
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import EmptyResult, InvalidParameter, NegativeRate, NoAbsorption, NonIrreducible


# frozen makes every assignment raise; construction, ==, hash and repr are
# the class's own, over the arrays that _assemble puts in the instance dict
@dataclass(frozen=True, eq=False, init=False, repr=False)
class AbsorbingGenerator:
    """Validated absorbing generator.

    Attributes
    ----------
    n_states : number of surviving states, labelled 1..n_states.
    absorption_rates : read-only array, the absorption rate per state
        (length n_states, 0-based order).
    diagonal : read-only array, the derived diagonal of the full generator:
        minus the total exit rate per state.
    transitions : tuple of (from_state, to_state, rate) with positive rates,
        strictly increasing in (from_state, to_state); 1-based labels.
    absorption : tuple of (state, rate) with positive absorption rates,
        increasing in state.

    The last two are derived from the CSR matrix when read.  ==, hash and
    repr read the rates, so two generators with the same rates are equal
    however they were built; the object is immutable.

    AbsorbingGenerator(n_states, transitions, absorption) takes entries laid
    out as the last two attributes, except that zero rates are allowed (and
    dropped) and absorption states need not be sorted (repeats add up).  It
    rejects, with InvalidParameter unless noted, an n_states that is not a
    positive integer, entries that are not numbers, labels that are not
    integers in 1..n (bools included), diagonal entries, NaN or infinite
    rates, negative rates (NegativeRate), unsorted or repeated (from, to)
    keys, no positive absorption (NoAbsorption) and a chain that is not
    strongly connected (NonIrreducible).
    """

    def __init__(self, n_states: int, transitions, absorption):
        _build(self, n_states, transitions, absorption, strict=True)

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, AbsorbingGenerator) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"AbsorbingGenerator(n_states={self.n_states!r}, "
                f"transitions={self.transitions!r}, absorption={self.absorption!r})")

    # -- derived structure -------------------------------------------------

    @cached_property
    def _key(self) -> tuple:
        """What == and hash read: n_states and the bytes of the rate arrays."""
        csr = self._csr
        arrays = (csr.indptr, csr.indices, csr.data, self.absorption_rates)
        return (self.n_states, *(a.tobytes() for a in arrays))

    @cached_property
    def transitions(self) -> tuple:
        rows, cols, rates = self._coo
        return tuple(zip((rows + 1).tolist(), (cols + 1).tolist(), rates.tolist()))

    @cached_property
    def absorption(self) -> tuple:
        states = np.flatnonzero(self.absorption_rates)
        return tuple(zip((states + 1).tolist(), self.absorption_rates[states].tolist()))

    @cached_property
    def _coo(self):
        """(rows, cols, rates) of _csr: the internal edges in (from, to) order,
        rows as int64."""
        csr = self._csr
        rows = np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(csr.indptr))
        return rows, csr.indices, csr.data

    @cached_property
    def _band_order(self) -> np.ndarray:
        """The states (0-based) in reverse Cuthill-McKee order (Cuthill &
        McKee 1969; George & Liu 1981), which puts the rates in a narrow
        band.  The order is taken on the symmetric pattern of the rates: the
        CSR itself where every edge is two-way (each key then appears twice
        among the keys of the edges and their reverses), else the union of
        both key sets."""
        n = self.n_states
        rows, cols, _ = self._coo
        keys = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
        pattern = self._csr
        if not (keys[::2] == keys[1::2]).all():
            keys = keys[np.append(True, keys[1:] != keys[:-1])]
            rows, cols = np.divmod(keys, n)
            pattern = csr_matrix((np.ones(len(keys)), cols, np.searchsorted(rows, np.arange(n + 1))),
                                 shape=(n, n))
        return reverse_cuthill_mckee(pattern, symmetric_mode=True)

    @cached_property
    def _ground(self):
        """The ground pair of -K (spectral.GroundPair), solved on first use
        and kept for every reader of lambda0, phi or the QSD; ==, hash, repr
        and JSON never read it."""
        from .spectral import _solve_ground  # spectral imports this module
        return _solve_ground(self)

    @cached_property
    def absorbing_set(self) -> tuple:
        """States with a positive absorption rate (1-based, sorted)."""
        return tuple(state for state, _ in self.absorption)

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
        i, j, n = _integer(i), _integer(j), self.n_states
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
        return self.absorbing_set == (1,) and not np.any(np.abs(rows - cols) != 1)

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
        return {"n_states": self.n_states,
                "transitions": [{"from": i, "to": j, "rate": r} for i, j, r in self.transitions],
                "absorption": [{"state": i, "rate": r} for i, r in self.absorption]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AbsorbingGenerator":
        if not isinstance(obj, dict):
            raise InvalidParameter("generator JSON must be an object")
        return build_general(obj.get("n_states"),
                             _json_entries(obj, "transitions", ("from", "to", "rate")),
                             _json_entries(obj, "absorption", ("state", "rate")))


def _build(gen, n_states, transitions, absorption, strict: bool):
    """Check the entries of transitions and absorption and assemble gen.

    strict gives the constructor's rules: zero rates are checked like any
    other, keys must be sorted without repeats, a label that is not an
    integer is named by its entry and a rate that is not a number by the
    malformed input.  Otherwise (build_general) zero rates are dropped before
    the keys are checked, repeated keys add up, and a bad label or rate is
    named by itself.
    """
    n = _integer(n_states, "n_states")
    if n < 1:
        raise InvalidParameter("need at least one surviving state")
    (rows, cols), rates = _entries(
        transitions, 3, n, strict, "transitions must be (from, to, rate) triples of numbers",
        "transition ({0},{1})", "rate {2} on ({0},{1})")
    return _finish(gen, n, rows, cols, rates, absorption, strict)


def _finish(gen, n: int, rows, cols, rates, absorption, strict: bool):
    """_build after the transitions' entries are checked: the diagonal and
    order checks, then the absorption entries."""
    if np.count_nonzero(rows == cols):
        raise InvalidParameter("diagonal entries are derived, not supplied")
    if strict and np.count_nonzero(np.diff(rows * n + cols) <= 0):
        raise InvalidParameter("transitions must be sorted by (from, to) without repeats")
    (states,), kill = _entries(
        absorption, 2, n, strict, "absorption must be (state, rate) pairs of numbers",
        "absorption state {0}", "absorption rate {1} at state {0}")
    return _assemble(gen, n, rows, cols, rates, states, kill)


def _entries(entries, width: int, n: int, strict: bool, shape: str, entry: str, rate: str | None):
    """The label columns of entries, rows of width values, as 0-based int64
    arrays, and their rate column (the last, or unit rates where rate is
    None) as a float array.

    Raises InvalidParameter for rows that are not of width values (message
    shape), for the first label that is not an integer (bools included), for
    the first rate that is not a finite real number and for the first label
    outside 1..n, and NegativeRate for the first negative rate.  entry and
    rate are format strings over a row that name it and its rate; see
    _build for strict.
    """
    try:
        entries = tuple(entries)
        cols = list(zip(*entries, strict=True)) if entries else [()] * width
    except (TypeError, ValueError):
        cols = ()
    if len(cols) != width:
        raise InvalidParameter(shape)
    *labels, rates = cols if rate else (*cols, (1.0,) * len(entries))
    for c in labels:
        k = _first_of_type(c, _is_label_type)
        if k is not None:
            if not strict:
                _integer(c[k])
            raise InvalidParameter(entry.format(*entries[k]) + ": state labels must be integers")
    k = _first_of_type(rates, lambda t: issubclass(t, numbers.Real))
    if k is None:
        r = np.array(rates, dtype=float)
        k = _first(~np.isfinite(r))
    elif strict:
        raise InvalidParameter(shape)
    if k is not None:
        raise InvalidParameter(rate.format(*entries[k][:-1], repr(rates[k]))
                               + " is not a finite number")
    k = _first(r < 0)
    if k is not None:
        raise NegativeRate(rate.format(*entries[k]))
    labels = [np.asarray(c) for c in labels]
    if not strict:
        labels, r = [c[r > 0] for c in labels], r[r > 0]
    k = _first(np.any([(c < 1) | (c > n) for c in labels], axis=0))
    if k is not None:
        raise InvalidParameter(entry.format(*(c[k] for c in labels)) + " out of range")
    return [c.astype(np.int64) - 1 for c in labels], r


def _first_of_type(values, ok) -> int | None:
    """Index of the first of values whose type fails ok, or None; ok is
    asked once per type."""
    bad = {t for t in set(map(type, values)) if not ok(t)}
    return next(k for k, x in enumerate(values) if type(x) in bad) if bad else None


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if np.count_nonzero(mask) else None


def _assemble(gen, n: int, rows, cols, rates, states, kill):
    """Set gen's arrays from its internal rates (0-based rows and cols; zero
    rates are dropped and repeated keys add up in input order) and its
    absorption rates at states, after the NoAbsorption and NonIrreducible
    checks."""
    keep = rates > 0
    keys, inverse = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    rates = np.bincount(inverse, weights=rates[keep]).astype(float, copy=False)
    rows, cols = np.divmod(keys, n)
    csr = csr_matrix((rates, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    absorption_rates = np.bincount(states, weights=kill, minlength=n)
    if not np.count_nonzero(absorption_rates > 0):
        raise NoAbsorption("no state has a positive absorption rate")
    n_comp, _ = connected_components(csr, directed=True, connection="strong")
    if n_comp != 1:
        raise NonIrreducible(f"killed chain splits into {n_comp} strongly connected components")
    diagonal = -(np.bincount(rows, weights=rates, minlength=n) + absorption_rates)
    for arr in (csr.data, csr.indices, csr.indptr, absorption_rates, diagonal):
        arr.setflags(write=False)
    # the instance is frozen: its arrays go straight into the instance dict
    vars(gen).update(n_states=n, _csr=csr, absorption_rates=absorption_rates, diagonal=diagonal)
    return gen


def _json_entries(obj: dict, field: str, keys: tuple) -> list:
    """The entries of obj[field] as tuples of their keys' values."""
    entries = obj.get(field, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) and all(k in e for k in keys)
                                                for e in entries):
        raise InvalidParameter(f"'{field}' must be a list of objects with keys {', '.join(keys)}")
    return [tuple(e[k] for k in keys) for e in entries]


def build_general(n_states: int, transitions: Iterable, absorption_rates) -> AbsorbingGenerator:
    """Build and validate a generator from sparse rate data.

    Parameters
    ----------
    n_states : number of surviving states, an integer (not a bool).
    transitions : iterable of (from_state, to_state, rate), 1-based labels.
        Duplicate entries are summed in input order; zero rates are dropped.
        A rate that is not a finite real number, or a label that is not an
        integer (bools included), raises InvalidParameter.
    absorption_rates : mapping state -> rate, or iterable of (state, rate).
    """
    if isinstance(absorption_rates, Mapping):
        absorption_rates = absorption_rates.items()
    return _build(object.__new__(AbsorbingGenerator), n_states, transitions, absorption_rates,
                  strict=False)


def _is_label_type(t) -> bool:
    """Whether t is a type of state labels: any integer type (numpy's too),
    not bool."""
    return t is int or (issubclass(t, numbers.Integral) and not issubclass(t, bool))


def _integer(x, name: str = "state label", least: int | None = None) -> int:
    """x as an int; InvalidParameter unless an integer (not a bool), >= least."""
    if not _is_label_type(type(x)):
        raise InvalidParameter(f"{name} {x!r} is not an integer")
    if least is not None and x < least:
        raise InvalidParameter(f"{name} must be at least {least}, got {x!r}")
    return int(x)


def _state(gen: AbsorbingGenerator, x, what: str = "state") -> int:
    """x as a state of gen; InvalidParameter unless an integer in 1..n_states."""
    x = _integer(x)
    if not 1 <= x <= gen.n_states:
        raise InvalidParameter(f"{what} {x} out of range")
    return x


def _finite_real(x, name: str) -> float:
    """x as a float, or InvalidParameter unless it is a finite real number."""
    if not (isinstance(x, numbers.Real) and math.isfinite(x)):
        raise InvalidParameter(f"{name} {x!r} is not a finite number")
    return float(x)


def build_rho_chain(n: int, rho: float) -> AbsorbingGenerator:
    """Finite drifted chain on 1..n absorbed below state 1.

    Up-rate rho from every state x <= n-1, down-rate 1 from interior states,
    absorption rate 1 out of state 1, and down-rate 1+rho from the top state.
    """
    n = _integer(n, "n", 2)  # the chain needs an interior
    if _finite_real(rho, "rho") <= 0:
        raise InvalidParameter("rho must be positive")
    return build_birth_death(np.full(n - 1, float(rho)), np.r_[np.ones(n - 1), 1.0 + float(rho)])


def build_graph_walk(edges: Iterable, absorbing_from: Iterable) -> AbsorbingGenerator:
    """Unit-rate walk on a directed edge set with absorption out of given states.

    edges holds (from, to) pairs of state labels, and the states are 1..n for
    the largest label n.  A repeated edge adds up; a repeated absorbing state
    does not.
    """
    # n is the largest label, so only labels below 1 can be out of range
    (rows, cols), rates = _entries(edges, 2, np.iinfo(np.int64).max, False,
                                   "edges must be (from, to) pairs", "transition ({0},{1})", None)
    if not len(rates):
        raise InvalidParameter("empty edge set")
    n = int(max(rows.max(), cols.max())) + 1
    try:
        absorption = dict.fromkeys(absorbing_from, 1.0).items()
    except TypeError:  # not iterable, or unhashable entries
        raise InvalidParameter("absorbing_from must be an iterable of state labels") from None
    return _finish(object.__new__(AbsorbingGenerator), n, rows, cols, rates, absorption,
                   strict=False)


def build_birth_death(b: Sequence, d: Sequence) -> AbsorbingGenerator:
    """Birth-death generator on 1..n from rate arrays.

    b holds up-rates b_1..b_{n-1}; d holds down-rates d_1..d_n, where d_1 is
    the absorption rate out of state 1.  The top state only jumps down (a
    reflecting cut at n).
    """
    b, d = (_real_array(x, "birth-death rates must be finite numbers") for x in (b, d))
    n = d.size
    if b.ndim != 1 or d.ndim != 1 or n < 1 or b.size != n - 1:
        raise InvalidParameter("need 1-D arrays with len(b) == len(d) - 1 >= 0")
    if np.any(b <= 0) or np.any(d <= 0):
        raise InvalidParameter("birth-death rates must be strictly positive")
    x = np.arange(n - 1)  # x -> x+1 at b_x, x+1 -> x at d_{x+1} (0-based)
    return _assemble(object.__new__(AbsorbingGenerator), n, np.r_[x, x + 1], np.r_[x + 1, x],
                     np.r_[b, d[1:]], np.zeros(1, dtype=np.int64), d[:1])


def _real_array(values, message: str, shape=None) -> np.ndarray:
    """values as a float array, or InvalidParameter(message) unless every
    entry is a finite real number (not a string, None or ragged nesting) and,
    where shape is given, the array has it (a None entry matches any length).
    Only an array of objects is checked entry by entry."""
    try:
        a = np.asarray(values)
        if a.dtype.kind == "O" and all(isinstance(x, numbers.Real) for x in a.flat):
            a = a.astype(float)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if (a.dtype.kind not in "biuf" or not np.all(np.isfinite(a)) or shape is not None
            and (a.ndim != len(shape) or any(s not in (None, t) for s, t in zip(shape, a.shape)))):
        raise InvalidParameter(message)
    return a.astype(float, copy=False)


def _generator(gen, what: str) -> None:
    """InvalidParameter unless gen is an AbsorbingGenerator; what names the caller."""
    if not isinstance(gen, AbsorbingGenerator):
        raise InvalidParameter(f"{what} needs an AbsorbingGenerator")


@dataclass(frozen=True)
class Path:
    """Ordered state list (1-based); consecutive pairs must be positive-rate edges."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices) - 1

    def validate(self, gen: AbsorbingGenerator) -> None:
        _generator(gen, "a path")
        if not np.iterable(self.vertices):
            raise InvalidParameter("a path must be a sequence of state labels")
        for v in self.vertices:
            _state(gen, v, "vertex")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if gen.rate(u, v) <= 0:
                raise InvalidParameter(f"({u},{v}) is not a positive-rate edge")


def minor(gen: AbsorbingGenerator, removed) -> np.ndarray:
    """Dense restriction of the killed generator to the surviving complement.

    Rows keep their diagonal, so rate mass toward removed states acts as
    extra killing.  Removing every state raises EmptyResult.
    """
    _generator(gen, "minor")
    if not np.iterable(removed):
        raise InvalidParameter("removed must be an iterable of state labels")
    removed = {_state(gen, x) for x in removed}
    keep = [x for x in range(1, gen.n_states + 1) if x not in removed]
    if not keep:
        raise EmptyResult("removed every state")
    idx = np.array(keep) - 1
    return gen.k_matrix()[np.ix_(idx, idx)]


def _read_json(path, what: str):
    """The JSON value in the file at path, or InvalidParameter for a path
    that names no readable file and for text that is not valid JSON."""
    try:
        with open(os.fspath(path)) as fh:
            return json.load(fh)
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"{what} file is unreadable or not valid JSON: {exc}") from None


def load_generator(path) -> AbsorbingGenerator:
    return AbsorbingGenerator.from_json_dict(_read_json(path, "generator"))


def save_generator(gen: AbsorbingGenerator, path) -> None:
    """Write gen as JSON to the file at path, or raise InvalidParameter for
    a path that names no writable file."""
    _generator(gen, "save_generator")
    try:
        with open(os.fspath(path), "w") as fh:
            json.dump(gen.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (OSError, TypeError) as exc:
        raise InvalidParameter(f"generator file cannot be written: {exc}") from None
