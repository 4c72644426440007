"""Lifting: the distance-doubling identity, lifted codes, lifted instances."""

import ast
import copy
import dataclasses
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from ranklab import constructions, gfmatrix, subspace_code
from ranklab.errors import InvariantViolation, RadiusTooLarge, ShapeMismatch
from ranklab.adversarial import build_counting_instance, build_explicit_instance
from ranklab.field import make_field
from ranklab.cli import _build_parser
from ranklab.gabidulin import (
    BALL_BUDGET,
    RankWord,
    codewords,
    enumerate_ball,
    make_code,
    puncture,
)
from ranklab.subspace_code import (
    lift,
    lift_code,
    lift_word,
    lifted_distance,
    prior_lifted_bound,
    verify_lifted_instance,
)

import reference


def test_lift_zero_matrix():
    ls = lift([[0] * 4 for _ in range(4)], 2)
    assert ls.rows == tuple(
        tuple(1 if j == i else 0 for j in range(8)) for i in range(4))
    assert ls.dim == 4


def test_lift_shape_guard():
    with pytest.raises(ShapeMismatch):
        lift([[0, 1], [0]], 2)


def test_lift_injective_sampled():
    rng = random.Random(31)
    seen = {}
    for _ in range(100):
        x = tuple(tuple(rng.randrange(2) for _ in range(4))
                  for _ in range(4))
        ls = lift(x, 2)
        assert ls.payload() == x
        if ls.rows in seen:
            assert seen[ls.rows] == x
        seen[ls.rows] = x


def test_lifted_distance_identity_100_pairs():
    rng = random.Random(32)
    for _ in range(100):
        x = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        y = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        diff = [[(a - b) % 2 for a, b in zip(ra, rb)]
                for ra, rb in zip(x, y)]
        assert lifted_distance(lift(x, 2), lift(y, 2)) == \
            2 * reference.rank(diff, 2)


def test_lifted_distance_generic_q():
    rng = random.Random(33)
    for _ in range(40):
        x = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        y = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        diff = [[(a - b) % 3 for a, b in zip(ra, rb)]
                for ra, rb in zip(x, y)]
        assert lifted_distance(lift(x, 3), lift(y, 3)) == \
            2 * reference.rank(diff, 3)
    with pytest.raises(ShapeMismatch):
        lifted_distance(lift([[0, 0]], 2), lift([[0]], 2))


def test_word_matrix_convention():
    f = make_field(2, 4)
    w = RankWord(f, (1, 2, 4, 8))
    m = lift_word(w).payload()
    # row j holds the digits of coordinate j (the transposed expansion)
    assert m == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    w = RankWord(f, (3, 0, 8, 0))
    assert lift_word(w).payload() == \
        ((1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))


def test_lift_word_is_lift_of_the_digit_rows():
    # lift_word packs serials directly; lift packs a digit matrix
    rng = random.Random(34)
    for q, n, m in ((2, 4, 4), (2, 3, 6), (3, 4, 4), (5, 2, 4)):
        f = make_field(q, m)
        for _ in range(20):
            w = RankWord(f, tuple(rng.randrange(f.order) for _ in range(n)))
            lw = lift_word(w)
            assert lw == lift([f.digits(c) for c in w.coords], q)
            assert (lw.n, lw.m, lw.dim) == (n, m, n)
            assert lw.rows == tuple(
                tuple(int(i == j) for i in range(n)) + f.digits(c)
                for j, c in enumerate(w.coords))


def test_lift_code_gab41_is_8_16_8_4():
    code = make_code(2, 4, 4, 1)
    lifted = lift_code(code)
    assert len(lifted) == 16 == code.size
    assert all(ls.dim == 4 and ls.n + ls.m == 8 for ls in lifted)
    dmin = min(lifted_distance(a, b)
               for i, a in enumerate(lifted) for b in lifted[i + 1:])
    assert dmin == 8 == 2 * code.min_distance


def test_lifted_gab42_doubles_the_minimum_distance():
    code = make_code(2, 4, 4, 2)
    lifted = lift_code(code)
    dmin = min(lifted_distance(a, b)
               for i, a in enumerate(lifted) for b in lifted[i + 1:])
    assert dmin == 6 == 2 * code.min_distance


def test_zero_codeword_lifts_to_identity_block():
    code = make_code(2, 4, 4, 1)
    zero = RankWord(code.field, (0, 0, 0, 0))
    ls = lift_word(zero)
    assert all(all(v == 0 for v in row) for row in ls.payload())


def test_lifted_explicit_instance():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    report = verify_lifted_instance(inst, tau_s=4)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted_distances_within_radius"].measured == [4]
    assert by_name["lifted_explicit_bound"].expected == 5
    assert by_name["ball_relation_inequality"].status == "pass"


def test_lifted_counting_instance():
    inst = build_counting_instance(2, 6, 6, 3, 2)
    report = verify_lifted_instance(inst)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted_counting_bound"].measured == 21
    assert by_name["lifted_counting_bound"].expected == 21


def test_lifted_odd_radius_uses_floor():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    report = verify_lifted_instance(inst, tau_s=5)
    assert report.all_passed


def test_lifted_negative_control_shrunk_radius():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    report = verify_lifted_instance(inst, tau_s=2)
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted_distances_within_radius"].status == "fail"
    assert by_name["lifted_explicit_bound"].status == "pass"
    assert not report.all_passed


def test_ball_relation_counts_match_exactly():
    # distances double exactly, so the lifted ball count equals the
    # rank-level ball count
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    lifted_center = lift_word(inst.center)
    count = sum(1 for w in codewords(inst.code)
                if lifted_distance(lifted_center, lift_word(w)) <= 4)
    from ranklab.gabidulin import enumerate_ball
    assert count == len(enumerate_ball(inst.code, inst.center, 2))


HOIST_CODES = [(2, 4, 4, 2, 0), (2, 3, 6, 1, 0), (2, 6, 6, 2, 2),
               (3, 2, 2, 1, 0), (3, 2, 4, 1, 0), (3, 4, 4, 1, 1),
               (5, 2, 2, 1, 0), (5, 2, 4, 1, 0)]


@pytest.mark.parametrize("q, n, m, k, s", HOIST_CODES, ids=[
    "-".join(map(str, c[1:] if c[0] == 2 else c)) for c in HOIST_CODES])
def test_lifted_count_with_hoisted_center_basis(q, n, m, k, s):
    # the lifted count starts every word's elimination from the center
    # rows' basis; it must match stacking all rows afresh, a fresh
    # lifted_distance per word and (distances double exactly) the
    # rank-level ball
    rng = random.Random(f"hoist:{n}:{m}:{k}:{s}" if q == 2
                        else f"hoist:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    for _ in range(4):
        center = RankWord(code.field, tuple(rng.randrange(q ** m)
                                            for _ in range(code.n)))
        tau = rng.randrange(1, code.min_distance)
        report = verify_lifted_instance(dataclasses.replace(
            inst, code=code, center=center, tau=tau, codewords=()))
        check = {c.name: c for c in report.checks}["ball_relation_inequality"]
        lc = lift_word(center)
        fresh = sum(1 for w in codewords(code)
                    if not gfmatrix.rank_test(q)(
                        lc.packed + lift_word(w).packed, code.n + tau))
        by_distance = sum(1 for w in codewords(code)
                          if lifted_distance(lc, lift_word(w)) <= 2 * tau)
        assert check.measured == fresh == by_distance == check.expected \
            == len(enumerate_ball(code, center, tau))


@pytest.mark.parametrize("q", [2, 3])
def test_lifted_count_disagreeing_with_the_ball_raises(monkeypatch, q):
    # distances double, so at floor(tau_s/2) == tau the two balls are one
    inst = build_explicit_instance(q, 2, 1, 4, 4)
    monkeypatch.setattr(subspace_code, "exact_ball", lambda *args: [])
    with pytest.raises(InvariantViolation):
        verify_lifted_instance(inst)
    # at a wider radius the lifted ball only has to contain the rank ball
    report = verify_lifted_instance(inst, tau_s=2 * inst.tau + 2)
    check = {c.name: c for c in report.checks}["ball_relation_inequality"]
    assert (check.status, check.expected) == ("pass", 0)


def _unpack(v, q, width):
    return [v // q ** j % q for j in range(width)]


def test_rank_gf2_exceeds_from_a_start_basis():
    # the early-exit rank test of packed vectors, from a start basis and
    # afresh, against the reference rref of the stacked rows, on q in
    # {2, 3, 5}
    rng = random.Random(31)
    for q in (2, 3, 5):
        for _ in range(300):
            width = rng.randrange(1, 12 if q == 2 else 7)
            a = [rng.randrange(q ** width) for _ in range(rng.randrange(6))]
            v = [rng.randrange(q ** width) for _ in range(rng.randrange(6))]
            limit = rng.randrange(-1, 8)
            start = gfmatrix.basis(a, q)
            kept = copy.deepcopy(start)
            rank = reference.rank([_unpack(x, q, width) for x in a + v], q)
            assert len(start) == reference.rank(
                [_unpack(x, q, width) for x in a], q)
            exceeds = gfmatrix.rank_test(q)
            assert exceeds(v, limit, start) == exceeds(a + v, limit) \
                == (rank > limit)
            if q == 2:
                assert gfmatrix.rank_gf2_exceeds(v, limit, start=start) \
                    == gfmatrix.rank_gf2_exceeds(a + v, limit) \
                    == (gfmatrix.rank_gf2(a + v) > limit) == (rank > limit)
            assert start == kept


def test_prior_lifted_bound_values():
    assert prior_lifted_bound(2, 6, 6, 3, 4) == Fraction(651, 64)
    # tau_s = 2(n-k): exponent vanishes
    assert prior_lifted_bound(2, 6, 6, 3, 6) == Fraction(1395)
    with pytest.raises(RadiusTooLarge):
        prior_lifted_bound(2, 6, 6, 3, 8)


def test_lift_verify_budget_defaults_agree():
    # the library and the CLI run the same checks on the same file
    library = inspect.signature(verify_lifted_instance).parameters["budget"]
    cli = _build_parser().parse_args(["lift-verify", "--in", "unused.json"])
    assert library.default == cli.budget == BALL_BUDGET


# Each probe breaks one invariant and prints whether InvariantViolation
# was raised; run in-process and under python -O, which strips asserts.
INVARIANT_PROBES = """
import dataclasses
from ranklab.adversarial import _check_instance, build_explicit_instance
from ranklab.errors import InvariantViolation
from ranklab.subspace_code import LiftedSubspace, lift, lifted_distance

# a packed row without its identity block: the stacked rank and the
# rank of X - Y give different distances
broken = LiftedSubspace(q=2, n=1, m=1, packed=(0,))
inst = build_explicit_instance(2, 2, 1, 4, 4)   # d = 4, radius in (1, 4)
for probe in (lambda: lifted_distance(lift([[1]], 2), broken),
              lambda: _check_instance(dataclasses.replace(inst, tau=1)),
              lambda: _check_instance(dataclasses.replace(inst, tau=4))):
    try:
        probe()
        print("passed")
    except InvariantViolation:
        print("raised")
"""


def test_invariant_violations_raise_named_error_under_O(capsys):
    exec(INVARIANT_PROBES, {})
    assert capsys.readouterr().out.split() == ["raised"] * 3
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", INVARIANT_PROBES],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["raised"] * 3


def _is_assertion(node):
    """An assert statement, or a raise of a bare AssertionError."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_library_has_no_assert_statements():
    # python -O strips assert, and a bare AssertionError names no fault;
    # invariants raise InvariantViolation instead
    src = Path(__file__).resolve().parents[1] / "src" / "ranklab"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _is_assertion(node)]
    assert found == []


def test_construction_invariant_raises_named_error(monkeypatch):
    # a base kernel of the wrong dimension is caught by a require() check
    monkeypatch.setattr(constructions, "kernel",
                        lambda poly, ambient: SimpleNamespace(dim=0))
    with pytest.raises(InvariantViolation):
        constructions.orbit_base_poly(2, 2, 1, 2)
