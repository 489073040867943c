import inspect
import itertools
import json
import math
import numbers
from collections.abc import Mapping
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qsamp
from qsamp import (
    AbsorbingGenerator,
    EmptyResult,
    InvalidParameter,
    NegativeRate,
    NoAbsorption,
    NonIrreducible,
    Path,
    build_birth_death,
    build_general,
    build_graph_walk,
    build_rho_chain,
    load_generator,
    minor,
    save_generator,
)
from conftest import grid_walk, random_reversible_generator


def test_singleton():
    gen = build_general(1, [], {1: 1.0})
    np.testing.assert_allclose(gen.k_matrix(), [[-1.0]])
    assert gen.absorbing_set == (1,)


def test_two_state_chain(golden):
    np.testing.assert_allclose(golden.k_matrix(), [[-2.0, 1.0], [1.0, -1.0]])


def test_one_way_chain_not_irreducible():
    with pytest.raises(NonIrreducible):
        build_general(2, [(1, 2, 1.0)], {1: 1.0})


def test_no_absorption_rejected():
    with pytest.raises(NoAbsorption):
        build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rate_rejected(bad):
    with pytest.raises(InvalidParameter):
        build_general(2, [(1, 2, bad), (2, 1, 1.0)], {1: 1.0})
    with pytest.raises(InvalidParameter):
        build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {1: bad, 2: 1.0})
    with pytest.raises(InvalidParameter):
        build_birth_death([bad], [1.0, 1.0])
    with pytest.raises(InvalidParameter):
        build_birth_death([1.0], [bad, 1.0])


@pytest.mark.parametrize("rate", [2.5, 2, np.float64(2.5), True])
def test_real_rate_types_accepted(rate):
    gen = build_general(2, [(1, 2, rate), (2, 1, 1.0)], {1: rate})
    assert gen.transitions[0] == (1, 2, float(rate))
    assert gen.absorption == ((1, float(rate)),)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1.0", 1 + 0j, Decimal("1.0")])
def test_non_real_or_non_finite_rate_rejected(bad):
    with pytest.raises(InvalidParameter, match="not a finite number"):
        build_general(2, [(1, 2, bad), (2, 1, 1.0)], {1: 1.0})
    with pytest.raises(InvalidParameter, match="not a finite number"):
        build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {1: bad})


@pytest.mark.parametrize("bad", [1.5, 2.0, "a", "2", None, True])
def test_non_integer_label_rejected(bad):
    # a label is never truncated or parsed: 1.5 once read as state 1
    with pytest.raises(InvalidParameter, match="not an integer"):
        build_general(2, [(bad, 2, 1.0), (2, 1, 1.0)], {1: 1.0})
    with pytest.raises(InvalidParameter, match="not an integer"):
        build_general(2, [(1, 2, 1.0), (2, bad, 1.0)], {1: 1.0})
    with pytest.raises(InvalidParameter, match="not an integer"):
        build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], {bad: 1.0})
    with pytest.raises(InvalidParameter, match="not an integer"):
        build_general(2, [(1, 2, 1.0), (2, 1, 1.0)], [(bad, 1.0)])


def test_numpy_integer_labels_accepted(golden):
    one, two = np.int64(1), np.int32(2)
    gen = build_general(2, [(one, two, 1.0), (two, one, 1.0)], {one: 1.0})
    assert gen == golden
    assert all(type(v) is int for t in gen.transitions for v in t[:2])


def test_birth_death_arrays_checked():
    with pytest.raises(InvalidParameter):
        build_birth_death([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(InvalidParameter):
        build_birth_death([], [])
    with pytest.raises(InvalidParameter):
        build_birth_death([0.0], [1.0, 1.0])
    with pytest.raises(InvalidParameter):
        build_birth_death([1.0], [1.0, -1.0])


def test_negative_rate_rejected():
    with pytest.raises(NegativeRate):
        build_general(2, [(1, 2, -1.0), (2, 1, 1.0)], {1: 1.0})
    with pytest.raises(NegativeRate):
        build_general(1, [], {1: -2.0})


def test_rho_chain_n2():
    gen = build_rho_chain(2, 1.0)
    assert gen.rate(1, 2) == 1.0
    assert gen.rate(2, 1) == 2.0
    assert gen.rate(1, 0) == 1.0
    np.testing.assert_allclose(gen.k_matrix(), [[-2.0, 1.0], [2.0, -2.0]])


def test_rho_chain_n3_rho2():
    gen = build_rho_chain(3, 2.0)
    assert gen.rate(1, 2) == 2.0
    assert gen.rate(2, 3) == 2.0
    assert gen.rate(2, 1) == 1.0
    assert gen.rate(3, 2) == 3.0
    assert gen.rate(1, 0) == 1.0


def test_rate_rejects_labels_out_of_range():
    # absorbed at states 1 and 3: a wrapped index would read state 3's rate
    gen = build_general(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
                        {1: 2.0, 3: 5.0})
    assert (gen.rate(3, 0), gen.rate(2, 2), gen.rate(1, 3), gen.rate(3, 2)) == (5.0, 0.0, 0.0, 1.0)
    for i, j in ((0, 0), (4, 0), (1, 4), (0, 1), (2, -1)):
        with pytest.raises(InvalidParameter, match="out of range"):
            gen.rate(i, j)


def test_rho_chain_needs_interior():
    with pytest.raises(InvalidParameter):
        build_rho_chain(1, 1.0)


def test_rho_chain_detailed_balance():
    # pi from the product formula, applied to this chain's own rates
    for n, rho in ((6, 0.5), (9, 1.0), (7, 3.0)):
        gen = build_rho_chain(n, rho)
        b, d = gen.birth_death_rates()
        pi = np.ones(n)
        for x in range(1, n):
            pi[x] = pi[x - 1] * b[x - 1] / d[x]
        k = gen.k_matrix()
        for x in range(n - 1):
            lhs = pi[x] * k[x, x + 1]
            rhs = pi[x + 1] * k[x + 1, x]
            assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)


def test_graph_walk_cycle():
    gen = build_graph_walk([(1, 2), (2, 3), (3, 1)], [1])
    k = gen.k_matrix()
    assert k[0, 1] == 1.0 and k[1, 2] == 1.0 and k[2, 0] == 1.0
    assert k[0, 0] == -2.0  # one edge out plus absorption


def test_graph_walk_complete():
    edges = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    gen = build_graph_walk(edges, [1, 2, 3])
    for row in gen.k_matrix() + np.diag(gen.absorption_rates):
        assert row.sum() == pytest.approx(0.0, abs=1e-14)
    assert np.all(gen.diagonal == -3.0)


def test_graph_walk_disjoint_cycles():
    with pytest.raises(NonIrreducible):
        build_graph_walk([(1, 2), (2, 1), (3, 4), (4, 3)], [1])


def test_minor_examples(golden):
    gen = build_rho_chain(2, 1.0)
    np.testing.assert_allclose(minor(gen, {1}), [[-2.0]])
    np.testing.assert_allclose(minor(gen, set()), gen.k_matrix())
    np.testing.assert_allclose(minor(golden, {2}), [[-2.0]])
    with pytest.raises(EmptyResult):
        minor(golden, {1, 2})


def test_row_sums_zero_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        gen = random_reversible_generator(rng)
        k = gen.k_matrix()
        rows = k.sum(axis=1) + gen.absorption_rates
        assert np.abs(rows).max() <= 1e-12 * gen.max_rate


def _strongly_connected_oracle(n, edges):
    # boolean transitive closure (Floyd-Warshall)
    reach = np.eye(n, dtype=bool)
    for i, j in edges:
        reach[i - 1, j - 1] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return bool(reach.all())


def test_irreducibility_matches_transitive_closure_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 2 * n + 1))
        edges = set()
        for _ in range(m):
            i, j = rng.integers(1, n + 1, size=2)
            if i != j:
                edges.add((int(i), int(j)))
        edges = sorted(edges)
        expected = _strongly_connected_oracle(n, edges)
        try:
            build_general(n, [(i, j, 1.0) for i, j in edges], {1: 1.0})
            got = True
        except NonIrreducible:
            got = False
        assert got == expected


def test_duplicate_transitions_are_summed():
    gen = build_general(2, [(1, 2, 0.5), (1, 2, 0.5), (2, 1, 1.0)], {1: 1.0})
    assert gen.rate(1, 2) == 1.0


def test_transitions_must_be_sorted():
    # every ordering but the sorted one would mislead the jump table and the
    # path search, which read the triplets in (from, to) order
    ordered = ((1, 2, 1.0), (1, 3, 0.3), (2, 1, 2.0), (2, 3, 1.5), (3, 1, 0.5), (3, 2, 0.7))
    gen = AbsorbingGenerator(3, ordered, ((1, 1.0),))
    assert gen == build_general(3, ordered, {1: 1.0})
    for perm in itertools.permutations(ordered):
        if perm != ordered:
            with pytest.raises(InvalidParameter):
                AbsorbingGenerator(3, perm, ((1, 1.0),))
    with pytest.raises(InvalidParameter):
        AbsorbingGenerator(3, ordered[:1] + ordered, ((1, 1.0),))


def test_birth_death_detection(golden):
    assert golden.is_birth_death
    b, d = golden.birth_death_rates()
    assert b == pytest.approx([1.0])
    assert d == pytest.approx([1.0, 1.0])
    ring = build_graph_walk([(1, 2), (2, 3), (3, 1)], [1])
    assert not ring.is_birth_death


def test_build_birth_death_round_trip():
    b = np.array([2.0, 3.0])
    d = np.array([0.5, 1.5, 2.5])
    gen = build_birth_death(b, d)
    bb, dd = gen.birth_death_rates()
    assert bb == pytest.approx(b)
    assert dd == pytest.approx(d)


def test_path_validation(golden):
    Path((1, 2)).validate(golden)
    Path((2,)).validate(golden)
    with pytest.raises(InvalidParameter):
        Path((1, 1)).validate(golden)
    with pytest.raises(InvalidParameter):
        Path((0, 1)).validate(golden)


def test_json_round_trip(tmp_path, golden):
    path = tmp_path / "gen.json"
    save_generator(golden, path)
    again = load_generator(path)
    assert again == golden
    obj = json.loads(path.read_text())
    assert obj["n_states"] == 2
    assert {t["from"] for t in obj["transitions"]} == {1, 2}


def test_immutability(golden):
    with pytest.raises(Exception):
        golden.n_states = 5
    assert not golden.absorption_rates.flags.writeable


GOLDEN_TRANSITIONS = ((1, 2, 1.0), (2, 1, 1.0))


@pytest.mark.parametrize("transitions, absorption, message", [
    (((1, 2, 1.0), (1.5, 1, 1.0)), ((1, 1.0),), r"transition \(1.5,1\): state labels must be integers"),
    (((1, 2, np.inf), (2, 1, 1.0)), ((1, 1.0),), r"rate inf on \(1,2\) is not a finite number"),
    (GOLDEN_TRANSITIONS, ((1, np.inf),), "absorption rate inf at state 1 is not a finite number"),
    (((1, 2, np.nan), (2, 1, 1.0)), ((1, 1.0),), r"rate nan on \(1,2\) is not a finite number"),
    (GOLDEN_TRANSITIONS, ((1, 1.0), (2, np.nan)), "absorption rate nan at state 2 is not"),
    (((1, 2, "1.0"), (2, 1, 1.0)), ((1, 1.0),), r"\(from, to, rate\) triples of numbers"),
    (((1, 2), (2, 1, 1.0)), ((1, 1.0),), r"\(from, to, rate\) triples of numbers"),
    (GOLDEN_TRANSITIONS, ((1.5, 1.0),), "absorption state 1.5: state labels must be integers"),
], ids=["float-label", "inf-rate", "inf-absorption", "nan-rate", "nan-absorption", "string-rate",
        "pair-for-triple", "float-absorption-state"])
def test_direct_construction_rejects_what_build_general_rejects(transitions, absorption, message):
    # each of these was once accepted, misread (1.5 as state 1) or ended in
    # a raw TypeError, ValueError or IndexError
    with pytest.raises(InvalidParameter, match=message):
        AbsorbingGenerator(2, transitions, absorption)


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_general(0, [], {}), InvalidParameter, "need at least one surviving state"),
    (lambda: build_general(2, [(1, 3, 1.0), (2, 1, 1.0)], {1: 1.0}), InvalidParameter,
     r"^transition \(1,3\) out of range$"),
    (lambda: build_general(2, [(1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], {1: 1.0}),
     InvalidParameter, "^diagonal entries are derived, not supplied$"),
    (lambda: build_general(2, GOLDEN_TRANSITIONS, {3: 1.0}), InvalidParameter,
     "^absorption state 3 out of range$"),
    (lambda: AbsorbingGenerator(2, ((1, 2, -1.0), (2, 1, 1.0)), ((1, 1.0),)), NegativeRate,
     r"^rate -1.0 on \(1,2\)$"),
    (lambda: AbsorbingGenerator(2, GOLDEN_TRANSITIONS, ((1, 1.0), (2, -2.0))), NegativeRate,
     "^absorption rate -2.0 at state 2$"),
    (lambda: build_graph_walk([(1, 2), (2, 3), (3, 1)], [1]).birth_death_rates(),
     InvalidParameter, "^generator is not birth-death absorbed from state 1$"),
    (lambda: build_rho_chain(5, 0), InvalidParameter, "^rho must be positive$"),
    (lambda: build_graph_walk([], [1]), InvalidParameter, "^empty edge set$"),
    (lambda: minor(build_rho_chain(3, 1.0), {4}), InvalidParameter, "^state 4 out of range$"),
    (lambda: build_birth_death([np.inf], [1.0, 1.0]), InvalidParameter,
     "^birth-death rates must be finite numbers$"),
    (lambda: minor(build_rho_chain(3, 1.0), [1.5]), InvalidParameter,
     "^state label 1.5 is not an integer$"),
    (lambda: minor(build_rho_chain(3, 1.0), [True]), InvalidParameter,
     "^state label True is not an integer$"),
    (lambda: build_rho_chain(3, 1.0).rate(1.5, 2), InvalidParameter,
     "^state label 1.5 is not an integer$"),
    (lambda: build_rho_chain(3, 1.0).rate(1.0, 0), InvalidParameter,
     "^state label 1.0 is not an integer$"),
    (lambda: Path((1.5, 2)).validate(build_rho_chain(3, 1.0)), InvalidParameter,
     "^state label 1.5 is not an integer$"),
    (lambda: Path(("1", 2)).validate(build_rho_chain(3, 1.0)), InvalidParameter,
     "^state label '1' is not an integer$"),
    (lambda: build_general(2.5, GOLDEN_TRANSITIONS, {1: 1.0}), InvalidParameter,
     "^n_states 2.5 is not an integer$"),
    (lambda: build_general("2", GOLDEN_TRANSITIONS, {1: 1.0}), InvalidParameter,
     "^n_states '2' is not an integer$"),
    (lambda: build_general(True, [], {1: 1.0}), InvalidParameter,
     "^n_states True is not an integer$"),
    (lambda: build_graph_walk([(1, 2, 3), (2, 1)], [1]), InvalidParameter,
     r"^edges must be \(from, to\) pairs$"),
    (lambda: build_birth_death([[1.0]], [[1.0], [1.0]]), InvalidParameter,
     r"^need 1-D arrays with len\(b\) == len\(d\) - 1 >= 0$"),
    (lambda: build_birth_death(["a"], ["1", "1"]), InvalidParameter,
     "^birth-death rates must be finite numbers$"),
    (lambda: build_birth_death(["2"], ["1", "1"]), InvalidParameter,
     "^birth-death rates must be finite numbers$"),
    (lambda: build_birth_death([1.0, None], [1.0, 1.0, 1.0]), InvalidParameter,
     "^birth-death rates must be finite numbers$"),
    (lambda: build_birth_death([[1.0], [1.0, 2.0]], [1.0, 1.0, 1.0]), InvalidParameter,
     "^birth-death rates must be finite numbers$"),
    (lambda: build_rho_chain(2.5, 1.0), InvalidParameter, r"^n 2\.5 is not an integer$"),
    (lambda: build_rho_chain(3, "1"), InvalidParameter, "^rho '1' is not a finite number$"),
    (lambda: build_rho_chain(3, math.nan), InvalidParameter, "^rho nan is not a finite number$"),
    (lambda: build_graph_walk([(1, 2), (2, 1)], 1), InvalidParameter,
     "^absorbing_from must be an iterable of state labels$"),
    (lambda: minor(build_rho_chain(3, 1.0), 1), InvalidParameter,
     "^removed must be an iterable of state labels$"),
    (lambda: Path((1, 2)).validate(None), InvalidParameter, "^a path needs an AbsorbingGenerator$"),
    (lambda: load_generator("no/such/generator.json"), InvalidParameter,
     r"^generator file is unreadable or not valid JSON: \[Errno 2\]"),
    (lambda: load_generator("."), InvalidParameter,
     r"^generator file is unreadable or not valid JSON: \[Errno 21\]"),
    (lambda: load_generator(None), InvalidParameter,
     "^generator file is unreadable or not valid JSON: expected str"),
    (lambda: save_generator(build_rho_chain(3, 1.0), None), InvalidParameter,
     "^generator file cannot be written: expected str"),
    (lambda: save_generator(build_rho_chain(3, 1.0), 5.5), InvalidParameter,
     "^generator file cannot be written: expected str"),
    (lambda: save_generator(build_rho_chain(3, 1.0), "no/such/dir/generator.json"),
     InvalidParameter, r"^generator file cannot be written: \[Errno 2\]"),
], ids=["no-state", "label-above-n", "diagonal", "absorption-above-n", "negative-rate",
        "negative-absorption", "ring-birth-death-rates", "rho-zero", "empty-walk", "minor-above-n",
        "inf-birth-death-rate", "minor-float-label", "minor-bool-label", "rate-float-label",
        "rate-float-absorption-label", "path-float-label", "path-string-label", "float-n-states",
        "string-n-states", "bool-n-states", "walk-triple-for-pair", "birth-death-2d",
        "birth-death-letter-rate", "birth-death-string-rate", "birth-death-none-rate",
        "birth-death-ragged", "rho-float-n", "rho-string-rho", "rho-nan-rho",
        "walk-scalar-absorbing", "minor-scalar-removed", "path-of-no-generator",
        "load-missing-file", "load-directory", "load-none-path", "save-none-path",
        "save-float-path", "save-missing-directory"])
def test_public_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _first_parameter(fn):
    return next(iter(inspect.signature(fn).parameters), None)


#: the public functions whose first argument is a generator or a rate family,
#: found by signature, so that a new one is checked here as soon as it exists
ENTRY_POINTS = [(name, _first_parameter(fn)) for name, fn in sorted(vars(qsamp).items())
                if inspect.isfunction(fn) and not name.startswith("_")
                and _first_parameter(fn) in ("gen", "rates")]


def _valid_arguments(golden):
    """A valid value, by parameter name, for every required parameter after
    the first of an entry point: on the golden chain, or on an 8-state
    truncation of a rate family.  x is 2, since hitting_time_from returns 0
    from state 1 without reading its family."""
    return {"lambda0": 0.3, "lam": 0.1, "x": 2, "y": 1, "start": 1, "target": 2, "n": 8, "seed": 1,
            "rng": np.random.default_rng(0), "path": (1, 2), "removed": [1],
            "eigenpair": qsamp.dirichlet_eigenpair(golden), "mu0": [0.5, 0.5], "times": [1.0],
            "cutoff": 100, "n_max": 1, "schedule": [4, 8], "tol": 1e-6, "n_used": 1,
            "phi": np.ones(8), "f": np.ones(8)}


def test_entry_points_are_found():
    assert sum(first == "gen" for _, first in ENTRY_POINTS) >= 19
    assert sum(first == "rates" for _, first in ENTRY_POINTS) >= 9


@pytest.mark.parametrize("bad", [None, "chain"], ids=["none", "string"])
@pytest.mark.parametrize("name, first", ENTRY_POINTS, ids=[name for name, _ in ENTRY_POINTS])
def test_every_entry_point_checks_its_generator_or_rate_family(golden, name, first, bad):
    # the shared check raises before anything else touches the argument
    fn = getattr(qsamp, name)
    valid = _valid_arguments(golden)
    args = [valid[p.name] for p in list(inspect.signature(fn).parameters.values())[1:]
            if p.default is p.empty]
    message = ("needs an AbsorbingGenerator$" if first == "gen"
               else f"^rates must be a RateFamily, not {type(bad).__name__}$")
    with pytest.raises(InvalidParameter, match=message):
        fn(bad, *args)


def test_birth_death_rates_of_any_real_type():
    # an array of objects is checked entry by entry; numeric arrays are not
    expect = build_birth_death([0.5, 2.0], [1.0, 1.0, 3.0])
    assert build_birth_death(np.array([0.5, 2], dtype=object), [True, 1, np.int8(3)]) == expect
    assert build_birth_death(np.array([0.5, 2.0], dtype=np.float32), [1, 1, 3]) == expect
    with pytest.raises(InvalidParameter, match="^birth-death rates must be finite numbers$"):
        build_birth_death(np.array([Decimal("0.5"), 2.0], dtype=object), [1, 1, 3])


def test_path_length_counts_edges():
    assert len(Path((1, 2, 3))) == 2
    assert len(Path((2,))) == 0


@pytest.mark.parametrize("b, d", [
    ([], [0.5]),
    ([2.0], [1.0, 3.0]),
    ([2.0, 3.0, 0.25], [0.5, 1.5, 2.5, 1e-300]),
])
def test_birth_death_builders_equal_build_general(b, d):
    # the numpy layout of build_birth_death gives build_general's triplets,
    # bit for bit, and so the same ==, hash and derived arrays
    n = len(d)
    triplets = [(x, x + 1, b[x - 1]) for x in range(1, n)] + [(x, x - 1, d[x - 1]) for x in range(2, n + 1)]
    want = build_general(n, triplets, {1: d[0]})
    got = build_birth_death(b, d)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    for name in ("diagonal", "absorption_rates"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.k_matrix().tobytes() == want.k_matrix().tobytes()
    assert build_rho_chain(3, 2.0) == build_general(
        3, [(1, 2, 2.0), (2, 1, 1.0), (2, 3, 2.0), (3, 2, 3.0)], {1: 1.0})


def test_derived_arrays_are_read_only(golden):
    csr = golden._csr
    for arr in (golden.diagonal, golden.absorption_rates, csr.data, csr.indices, csr.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_equal_rates_make_equal_generators():
    # ==, hash and repr read the rates, not the entries they were given as
    direct = AbsorbingGenerator(3, ((1, 2, 1.0), (1, 3, 0.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)),
                                ((3, 0.0), (1, 0.5), (1, 0.5)))
    built = build_general(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)], {1: 1.0})
    assert direct == built and hash(direct) == hash(built) and repr(direct) == repr(built)
    assert direct.transitions == built.transitions and direct.absorption == ((1, 1.0),)
    assert direct != build_general(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 2.0)], {1: 1.0})
    assert direct != build_general(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)], {1: 2.0})
    assert direct != direct.transitions


def test_triplet_tuples_are_derived_when_read():
    gen = grid_walk(24, 24)
    assert "transitions" not in vars(gen) and "absorption" not in vars(gen)
    assert gen.transitions[:2] == ((1, 2, 1.0), (1, 25, 1.0)) and gen.absorption == ((1, 1.0),)
    assert len(gen.transitions) == gen._csr.nnz == 4 * 24 * 23


def _reference_state_label(i) -> int:
    if type(i) is int:
        return i
    if not isinstance(i, numbers.Integral) or isinstance(i, bool):
        raise InvalidParameter(f"state label {i!r} is not an integer")
    return int(i)


def _reference_is_finite_number(r) -> bool:
    if type(r) is float:
        return math.isfinite(r)
    return isinstance(r, numbers.Real) and math.isfinite(r)


def reference_build_general(n_states, transitions, absorption_rates):
    """build_general as it once read its input, entry by entry: each entry
    type-checked in Python, duplicates merged in two dicts and the merged
    triplets sorted before construction."""
    merged: dict = {}
    for i, j, r in transitions:
        i, j = _reference_state_label(i), _reference_state_label(j)
        if not _reference_is_finite_number(r):
            raise InvalidParameter(f"rate {r!r} on ({i},{j}) is not a finite number")
        if r < 0:
            raise NegativeRate(f"rate {r} on ({i},{j})")
        if r > 0:
            merged[(i, j)] = merged.get((i, j), 0.0) + float(r)
    if isinstance(absorption_rates, Mapping):
        absorption_rates = absorption_rates.items()
    absorb: dict = {}
    for i, r in absorption_rates:
        i = _reference_state_label(i)
        if not _reference_is_finite_number(r):
            raise InvalidParameter(f"absorption rate {r!r} at state {i} is not a finite number")
        if r < 0:
            raise NegativeRate(f"absorption rate {r} at state {i}")
        if r > 0:
            absorb[i] = absorb.get(i, 0.0) + float(r)
    transitions = tuple(sorted((i, j, r) for (i, j), r in merged.items()))
    return AbsorbingGenerator(int(n_states), transitions, tuple(sorted(absorb.items())))


RATES = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e-300, 2.5, 1e300]),
                  st.floats(0, 10, allow_nan=False), st.integers(0, 3), st.booleans(),
                  st.integers(0, 3).map(np.int64))
LABEL_TYPES = st.sampled_from([int, np.int64, np.int32])
FAULTS = {
    "rate": [math.nan, math.inf, -math.inf, np.float64(math.nan), -0.5, -2, np.int64(-1),
             np.float64(-0.5), "1.0", None, 1 + 0j],
    "label": [1.5, 2.0, True, False, "1", None, 0, -1, 7],
}


@st.composite
def entry_lists(draw):
    """(n, transitions, absorption) for build_general: a ring through
    every state with positive rates, random extra entries (repeats, zero
    rates and every accepted number type among them), absorption as a dict
    or as pairs, all shuffled, and at most one corrupted entry."""
    n = draw(st.integers(1, 6))
    label = draw(LABEL_TYPES)
    ring = [(x, x % n + 1, draw(st.floats(0.1, 10))) for x in range(1, n + 1)] if n > 1 else []
    keys = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    pool = draw(st.sampled_from([keys, keys[:1]]))  # one key: many repeats to sum
    extra = [(*draw(st.sampled_from(pool)), draw(RATES))
             for _ in range(draw(st.integers(0, 8) if keys else st.just(0)))]
    transitions = [(label(i), label(j), r) for i, j, r in draw(st.permutations(ring + extra))]
    absorption = [(label(draw(st.integers(1, n))), draw(RATES))
                  for _ in range(draw(st.integers(0, 3)))]
    absorption.insert(draw(st.integers(0, len(absorption))), (1, draw(st.floats(0.1, 10))))
    fault = draw(st.sampled_from([None, "rate", "label", "diagonal"]))
    if fault == "diagonal":
        x = label(draw(st.integers(1, n)))
        transitions.insert(draw(st.integers(0, len(transitions))), (x, x, draw(RATES)))
    elif fault is not None:
        table = transitions if transitions and draw(st.booleans()) else absorption
        k = draw(st.integers(0, len(table) - 1))
        row = list(table[k])
        if fault == "rate":
            row[-1] = draw(st.sampled_from(FAULTS["rate"]))
        else:
            row[draw(st.integers(0, len(row) - 2))] = draw(st.sampled_from(FAULTS["label"]))
        table[k] = tuple(row)
    if draw(st.booleans()):
        absorption = dict(absorption)
    return n, transitions, absorption


def _outcome(build, args):
    try:
        return build(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(entry_lists())
@example((2, [(1, 2, 0.1), (1, 2, 0.2), (1, 2, 0.3), (2, 1, 1.0)], {1: 1.0}))
@example((2, [(1, 2, 1.0), (2, 1, np.float64(math.nan))], [(1, 1.0)]))
@example((2, [(1, 2, 1.0), (np.int32(2), 1, -math.inf)], {1: 1.0}))
@example((3, [(1, 2, 1.0), (2, 3, 1.0), (2, 7, 0.0), (3, 1, 1.0), (2, 2, 0)], {1: True, 9: 0}))
def test_build_general_matches_the_entry_by_entry_reference(case):
    # the column checks, the np.unique merge and the bincount sums give the
    # entry-by-entry build bit for bit, and raise what it raised; the
    # example's repeats sum to 0.6000000000000001 in input order, and to 0.6
    # by np.add.reduceat
    n, transitions, absorption = case
    want = _outcome(reference_build_general, (n, transitions, absorption))
    got = _outcome(build_general, (n, transitions, absorption))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.transitions == want.transitions and got.absorption == want.absorption
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got._csr, name), getattr(want._csr, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.diagonal.tobytes() == want.diagonal.tobytes()
    assert got.absorption_rates.tobytes() == want.absorption_rates.tobytes()
