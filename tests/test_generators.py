import itertools
import json
from decimal import Decimal

import numpy as np
import pytest

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
from conftest import random_reversible_generator


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
], ids=["no-state", "label-above-n", "diagonal", "absorption-above-n", "negative-rate",
        "negative-absorption", "ring-birth-death-rates", "rho-zero", "empty-walk", "minor-above-n",
        "inf-birth-death-rate"])
def test_public_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
