"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (integer counts and equalities) except the two
square-root evaluations, which carry the stated 1e-9 tolerance.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import math
import random
import time

from ranklab.adversarial import (
    build_counting_instance,
    build_explicit_instance,
    counting_bound,
    technical_sqrt_inequality,
    compare_radius_to_prior,
    verify_instance,
)
from ranklab.cli import main as cli_main
from ranklab.field import make_field
from ranklab.gabidulin import (
    codewords,
    enumerate_ball,
    make_code,
    puncture,
    punctured_radius_shift,
    rank_distance,
    rank_weight,
)
from ranklab.linpoly import kernel
from ranklab.subspace import (
    cyclic_shift,
    enumerate_grassmannian,
    gaussian_binomial,
    subspace_polynomial,
    subspace_polynomial_product,
)
from ranklab.subspace_code import (
    lift,
    lift_word,
    lifted_distance,
)
from ranklab.constructions import orbit_poly_family, subfield_linear_family

import reference


def _report(num: int, label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
          f" ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_explicit_instance_reproduction():
    t0 = time.perf_counter()
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    dists = {rank_distance(inst.center, cw) for cw in inst.codewords}
    ball = enumerate_ball(inst.code, inst.center, inst.tau)
    coords = {w.coords for w in ball}
    contained = all(cw.coords in coords for cw in inst.codewords)
    elapsed = time.perf_counter() - t0
    ok = (len(inst.codewords) == 5 == (2 ** 4 - 1) // (2 ** 2 - 1)
          and dists == {2}
          and len(ball) >= 5 and contained
          and inst.code.min_distance == 4 and inst.code.k == 1
          and elapsed < 1.0)
    _report(1, "explicit instance Gab[4,1]", ok,
            f"5 codewords at distance 2, ball={len(ball)}, {elapsed:.2f}s")


def test_criterion_02_example_family_reproduction():
    t0 = time.perf_counter()
    inst = build_counting_instance(2, 6, 6, 3, 2)
    report = verify_instance(inst)
    ball = enumerate_ball(inst.code, inst.center, inst.tau)
    coords = {w.coords for w in ball}
    contained = all(cw.coords in coords for cw in inst.codewords)
    elapsed = time.perf_counter() - t0
    ok = (inst.code.n == 6 and inst.code.k == 3 and inst.code.m == 6
          and inst.tau == 2 == (inst.code.min_distance - 1) // 2 + 1
          and len(inst.codewords) >= 16 == 2 ** 4
          and report.all_passed and contained
          and inst.code.size == 2 ** 18
          and elapsed < 60.0)
    _report(2, "scaled family Gab[6,3]", ok,
            f"{len(inst.codewords)} codewords >= 16, ball={len(ball)}, "
            f"{elapsed:.1f}s")


def test_criterion_03_counting_bound_arithmetic():
    e1, s1 = counting_bound(2, 4, 2, 2)
    e2, s2 = counting_bound(2, 6, 2, 2)
    swept = 0
    dominated = True
    for q in (2, 3):
        for g in (2, 3):
            for n in range(2 * g, 40, g):
                for tau in range(g, n - 1, g):
                    if math.gcd(n - tau, n) % g:
                        continue
                    exact, simp = counting_bound(q, n, g, tau)
                    dominated &= exact >= simp
                    swept += 1
    ok = (e1 == 5 and s1 == 4 and e2 == 21 and s2 == 16
          and dominated and swept >= 50)
    _report(3, "counting-bound arithmetic", ok,
            f"5/4 and 21/16 exact, {swept} sweep points all dominated")


def test_criterion_04_mrd_property():
    t0 = time.perf_counter()
    code = make_code(2, 4, 4, 2)
    weights = [rank_weight(w) for w in codewords(code) if any(w.coords)]
    elapsed = time.perf_counter() - t0
    ok = (len(weights) == 255 and min(weights) == 3 == code.min_distance
          and elapsed < 1.0)
    _report(4, "MRD minimum distance Gab[4,2]", ok,
            f"min weight {min(weights)} over 255 nonzero words, "
            f"{elapsed:.2f}s")


def test_criterion_05_subspace_polynomial_suite():
    f16 = make_field(2, 4)
    total = 0
    agree = True
    for r in range(5):
        for v in enumerate_grassmannian(f16, r):
            p_inc = subspace_polynomial(v)
            p_prod = subspace_polynomial_product(v)
            agree &= p_inc == p_prod
            agree &= kernel(p_inc, f16) == v
            total += 1
    f64 = make_field(2, 6)
    rng = random.Random(55)
    shift_ok = True
    pairs = 0
    for v in itertools.chain(enumerate_grassmannian(f64, 2),
                             enumerate_grassmannian(f64, 3)):
        a = rng.randrange(1, f64.order)
        pairs += 1
        p = subspace_polynomial(v)
        shifted = subspace_polynomial(cyclic_shift(v, a))
        r = v.dim
        for j in range(r + 1):
            factor = f64.pow(a, 2 ** r - 2 ** j)
            shift_ok &= shifted.coeff(j) == f64.mul(factor, p.coeff(j))
    ok = total == 67 and pairs == 651 + 1395 and agree and shift_ok
    _report(5, "subspace polynomial suite", ok,
            f"{total} subspaces of GF(2^4) round-trip, "
            f"{pairs} shift-identity pairs in GF(2^6)")


def test_criterion_06_subfield_family_structure():
    f16 = make_field(2, 4)
    fam = subfield_linear_family(2, 4, 2, 2)
    matching = {v for v in enumerate_grassmannian(f16, 2)
                if all(c == 0 for i, c in
                       enumerate(subspace_polynomial(v).coeffs) if i % 2)}
    fam_kernels = {kernel(m, f16) for m in fam.members}
    zf = orbit_poly_family(2, 2, 1, 2)
    z_kernels = {kernel(m, f16) for m in zf.members}
    ok = (len(matching) == 5 and len(fam) == 5
          and fam_kernels == matching and z_kernels == fam_kernels)
    _report(6, "subfield-linear family structure", ok,
            "5 of 35 subspaces match the stride pattern; "
            "orbit-family kernels coincide")


def test_criterion_07_lifting_suite():
    t0 = time.perf_counter()
    rng = random.Random(77)
    identity_ok = True
    for _ in range(100):
        x = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        y = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        diff = [[(a - b) % 2 for a, b in zip(ra, rb)]
                for ra, rb in zip(x, y)]
        identity_ok &= lifted_distance(lift(x, 2), lift(y, 2)) == \
            2 * reference.rank(diff, 2)
    code = make_code(2, 4, 4, 1)
    lifted = reference.lift_code(code)
    dmin = min(lifted_distance(a, b)
               for i, a in enumerate(lifted) for b in lifted[i + 1:])
    params_ok = (len(lifted) == 16 and dmin == 8
                 and all(ls.n == 4 and ls.n + ls.m == 8 for ls in lifted))
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    lc = lift_word(inst.center)
    within = sum(1 for cw in inst.codewords
                 if lifted_distance(lc, lift_word(cw)) <= 4)
    elapsed = time.perf_counter() - t0
    ok = identity_ok and params_ok and within >= 5 and elapsed < 10.0
    _report(7, "lifting suite", ok,
            f"100 pairs exact, lifted Gab[4,1] is (8,16,8,4)_2, "
            f"{within} lifted codewords within d_s=4, {elapsed:.2f}s")


def test_criterion_08_puncturing():
    t0 = time.perf_counter()
    code = make_code(2, 6, 6, 3)
    p = puncture(code, 1)
    minw = p.n + 1
    for w in codewords(p):
        if any(w.coords):
            r = rank_weight(w)
            if r < minw:
                minw = r
    table_ok = True
    for n in range(3, 14):
        for k in range(1, n):
            for s in range(1, n - k + 1):
                tau = (n - k) // 2 + 1
                tau_prime = (n - s - k) // 2 + 1
                table_ok &= punctured_radius_shift(s, n, k) == tau - tau_prime
    elapsed = time.perf_counter() - t0
    ok = (p.n == 5 and p.k == 3 and minw == 3 == p.min_distance
          and table_ok)
    _report(8, "puncturing", ok,
            f"punctured Gab[6,3] has exhaustive min distance {minw}, "
            f"radius-shift table reproduced, {elapsed:.1f}s")


def test_criterion_09_radius_comparison():
    ineq_ok = all(technical_sqrt_inequality(i) for i in range(1, 21))
    cmp = compare_radius_to_prior(1, 1024)
    # independent evaluation of n(1 - sqrt(1 - 2^-i + 2/n)) at 1e-9
    expected = 1024 * (1 - math.sqrt(1 - 0.5 + 2 / 1024))
    ok = (ineq_ok and cmp.tau == 256 and cmp.verdict
          and abs(cmp.tau_prime - expected) < 1e-9
          and cmp.tau_prime > 256)
    _report(9, "radius comparison", ok,
            f"inequality holds for i=1..20; tau'={cmp.tau_prime:.6f} > 256")


def test_criterion_10_gaussian_sandwich():
    sandwich = True
    for q in (2, 3):
        for n in range(11):
            for r in range(n + 1):
                v = gaussian_binomial(n, r, q)
                sandwich &= q ** (r * (n - r)) <= v <= 4 * q ** (r * (n - r))
    f16 = make_field(2, 4)
    count = sum(1 for _ in enumerate_grassmannian(f16, 2))
    ok = sandwich and count == 35 == gaussian_binomial(4, 2, 2)
    _report(10, "gaussian coefficient sandwich", ok,
            f"all n <= 10 within bounds; [4,2]_2 = {count} exhaustively")


def test_criterion_11_determinism(tmp_path):
    args = ["gen-explicit", "--q", "2", "--g", "2", "--s", "1",
            "--n", "4", "--m", "4"]
    inst_a, inst_b = tmp_path / "a.json", tmp_path / "b.json"
    rep_a, rep_b = tmp_path / "ra.json", tmp_path / "rb.json"
    ok = cli_main(args + ["--out", str(inst_a)]) == 0
    ok &= cli_main(args + ["--out", str(inst_b)]) == 0
    ok &= cli_main(["verify", "--in", str(inst_a), "--out", str(rep_a)]) == 0
    ok &= cli_main(["verify", "--in", str(inst_b), "--out", str(rep_b)]) == 0
    ok &= inst_a.read_bytes() == inst_b.read_bytes()
    ok &= rep_a.read_bytes() == rep_b.read_bytes()
    _report(11, "byte-identical artifacts", ok,
            "two gen-explicit + verify runs produced identical files")
