"""Acceptance gate: seven end-to-end criteria, one test and one verdict line each.

Each test prints `criterion k: ...` on success (visible under pytest -s);
the pytest -v report carries the same pass/fail information per test name.
Criterion 6 deliberately asserts the honest computed outcome for the
conjecture probes: the max-rooted-count bound is refuted at n = 4, and the
refutation is re-verified here against the pure-set oracles so it cannot be
an artifact of the package's bit machinery.
"""
import functools
import json
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from conftest import (
    members,
    oracle_colex_total,
    oracle_roots,
    oracle_simply_rooted,
    oracle_total,
)
from ucfam import (
    ConstantChain,
    EnumerationPlan,
    canonicalize,
    colex_superadditivity_slack,
    colex_total_size,
    czedli_threshold_bounds,
    derive_constants,
    excluded_fraction,
    extremal_search,
    f_extremal,
    family_from_text,
    fixpoint_constants,
    initial_segment,
    margin_from_root,
    segment_bound_is_tight,
    segment_bound_sixths,
    threshold_coefficients,
)
from ucfam.cli import EXIT_PASS, main
from ucfam.verify import CATALOG_IDS, PROBE_IDS, catalog, run_suite

UNION_CLOSED_COUNTS = {0: 2, 1: 4, 2: 14, 3: 122, 4: 4960}

M_LIMIT = 1 << 20
THRESHOLD_R_MAX = 18
RANDOM_SAMPLES = 100_000
RANDOM_SEED = 7


@functools.lru_cache(maxsize=None)
def brute_totals() -> list[int]:
    """Oracle table brute[m] = ||I(m)|| by direct digit-sum accumulation."""
    out = [0] * (M_LIMIT + 1)
    acc = 0
    for k in range(M_LIMIT):
        acc += bin(k).count("1")
        out[k + 1] = acc
    return out


@functools.lru_cache(maxsize=None)
def exhaustive_reports(n: int):
    return run_suite(catalog(EnumerationPlan(n=n, mode="exhaustive")))


def test_criterion_1_extremal_reproduction():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for m in range((1 << (n - 1)) + 1, (1 << n) + 1):
            best, classes = extremal_search(n, m)
            assert best == f_extremal(m), (n, m, best)
            assert classes, (n, m)
    elapsed = time.perf_counter() - t0
    assert f_extremal(3) == 3
    assert f_extremal(6) == 9
    assert f_extremal(8) == 12
    assert f_extremal(12) == 24
    assert elapsed < 120, f"{elapsed:.0f}s over the two-minute budget"
    print(
        f"criterion 1: PASS - exhaustive minima match the closed form for all "
        f"n <= 4 in {elapsed:.1f}s"
    )


def test_criterion_2_colex_exactness():
    nine = {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}),
            frozenset({3}), frozenset({1, 3}), frozenset({2, 3}),
            frozenset({1, 2, 3}), frozenset({4})}
    assert members(initial_segment(9)) == nine
    assert colex_total_size(9) == 13

    brute = brute_totals()
    for m in range(M_LIMIT + 1):
        assert colex_total_size(m) == brute[m], m

    for m1 in range(1, 513):
        row = brute[m1]
        for m2 in range(m1, 513):
            assert row + brute[m2] <= brute[m1 + m2] - m1, (m1, m2)
    assert all(
        colex_superadditivity_slack(a, b) >= 0
        for a in (1, 7, 64, 333, 512)
        for b in (1, 9, 512)
    )
    print(
        "criterion 2: PASS - segment of nine, closed form to 2^20, "
        "superadditivity to 512 exhaustive"
    )


def test_criterion_3_segment_bound():
    brute = brute_totals()

    # sufficient-equality values 2^a + 2^(a-2) + ... + 2^(a-2j) + 2^(a-2j-1):
    # strict keeps the bottom exponent positive, relaxed lets it reach zero
    strict_form, relaxed_form = set(), set()
    for a in range(1, 22):
        for j in range(0, (a + 1) // 2):
            bottom = a - 2 * j - 1
            if bottom < 0:
                break
            m = sum(1 << (a - 2 * t) for t in range(j + 1)) + (1 << bottom)
            if m <= M_LIMIT:
                relaxed_form.add(m)
                if bottom > 0:
                    strict_form.add(m)
    powers = {1 << k for k in range(1, 21)}

    equality = set()
    for m in range(2, M_LIMIT + 1):
        six = segment_bound_sixths(m)
        assert six >= 6 * brute[m], m
        if six == 6 * brute[m]:
            equality.add(m)
            assert segment_bound_is_tight(m), m
        else:
            assert not segment_bound_is_tight(m), m
    # every stated-form value is an equality point, and the complete equality
    # set adds only the bottom-exponent-zero cousins and the powers of two
    assert strict_form <= equality
    assert equality == relaxed_form | powers
    assert (len(strict_form), len(relaxed_form), len(equality)) == (90, 100, 120)

    tot = np.array(brute[1:], dtype=np.int64)
    m = np.arange(1, M_LIMIT + 1, dtype=np.int64)
    for r in range(1, THRESHOLD_R_MAX + 1):
        lhs = 2 * tot > m * r
        rhs = 3 * m > (1 << (r + 2))
        assert np.array_equal(lhs, rhs), r
        pivot = (1 << (r + 2)) // 3
        for probe in range(max(pivot - 2, 1), pivot + 3):
            left, right = czedli_threshold_bounds(probe, colex_total_size(probe))
            assert (r <= left) == (r <= right), (probe, r)
    print(
        "criterion 3: PASS - sixth-scaled bound exact to 2^20; equality set = "
        "stated form + exponent-zero cousins + powers of two (90+10+20 points); "
        "threshold exact to r = 18"
    )


def test_criterion_4_lemma_suite():
    t0 = time.perf_counter()
    for n in range(0, 5):
        reports = exhaustive_reports(n)
        by_id = {r.id: r for r in reports}
        for cid in CATALOG_IDS:
            rep = by_id[cid]
            assert rep.status == "pass", (n, cid, rep.violations[:2])
            assert rep.violations_seen == 0, (n, cid)
        assert by_id["eq1_duality"].instances_tested == UNION_CLOSED_COUNTS[n]
    exhaustive_elapsed = time.perf_counter() - t0
    assert exhaustive_elapsed < 600, f"{exhaustive_elapsed:.0f}s over budget"

    sampled = 0
    for n in range(5, 9):
        plan = EnumerationPlan(
            n=n, mode="random", sample_count=RANDOM_SAMPLES, seed=RANDOM_SEED
        )
        reports = run_suite(catalog(plan))
        for rep in reports:
            if rep.conjecture:
                continue
            assert rep.status == "pass", (n, rep.id, rep.violations[:2])
            assert rep.violations_seen == 0, (n, rep.id)
            if rep.id == "eq1_duality":
                sampled += rep.instances_tested
                assert rep.instances_tested == RANDOM_SAMPLES
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 4: PASS - 30-check catalog clean: exhaustive n <= 4 in "
        f"{exhaustive_elapsed:.0f}s, {sampled} random families over n = 5..8, "
        f"total {elapsed:.0f}s"
    )


def test_criterion_5_constant_chain():
    chain = ConstantChain()  # split 3, stability constant 12, alpha 2/3
    assert threshold_coefficients(chain) == (Fraction(9), Fraction(36), Fraction(1))
    assert excluded_fraction(chain, Fraction(1, 37))
    assert not excluded_fraction(chain, Fraction(1, 36))
    assert margin_from_root(Fraction(1, 37)) == Fraction(2, 327)

    derived = derive_constants(chain)
    assert Fraction(1, 37) <= derived.c1 < Fraction(1, 36)
    assert derived.c2 >= Fraction(2, 327)

    tight = fixpoint_constants(3, 8)
    assert tight.c1 >= Fraction(1, 24)
    assert tight.c2 >= Fraction(1, 104)
    print(
        "criterion 5: PASS - 9p^2+36p=1 chain brackets 1/37, margin 2/327, "
        f"fixpoint c1 = {tight.c1} >= 1/24, c2 = {tight.c2} >= 1/104"
    )


def test_criterion_6_conjecture_probes():
    # probes must be labeled and kept out of exit semantics regardless of outcome
    for d in catalog(EnumerationPlan(n=2, mode="exhaustive")):
        assert d.conjecture == (d.id in PROBE_IDS)

    for n in range(0, 4):
        by_id = {r.id: r for r in exhaustive_reports(n)}
        for pid in PROBE_IDS:
            assert by_id[pid].violations_seen == 0, (n, pid)

    by_id = {r.id: r for r in exhaustive_reports(4)}
    assert by_id["probe_degree_bound"].violations_seen == 0
    assert by_id["probe_eps_delta_bound"].violations_seen == 0

    # the stronger probe fails for the first time here; the refutation is a
    # finding, so it is frozen and independently re-verified set by set
    probe = by_id["probe_max_rooted_bound"]
    assert probe.status == "fail" and probe.conjecture
    assert probe.violations_seen == 24
    shapes = set()
    for violation in probe.violations:
        fam = family_from_text(violation.family)
        sets = members(fam)
        assert oracle_simply_rooted(sets)
        m = len(sets)
        q = max(
            sum(1 for b in sets if i in oracle_roots(sets, b)) for i in range(1, 5)
        )
        total = oracle_total(sets)
        assert total > oracle_colex_total(m) + q  # the bound really breaks
        assert total == oracle_colex_total(m) + q + 1  # and only just
        assert (violation.lhs, violation.rhs) == (total, oracle_colex_total(m) + q)
        shapes.add(canonicalize(fam).mask)
    assert len(shapes) == 2
    counts = Counter(canonicalize(family_from_text(v.family)).mask for v in probe.violations)
    assert sorted(counts.values()) == [12, 12]

    print(
        "criterion 6: PASS - probes labeled and excluded from exit codes; "
        "degree and eps-delta probes clean for n <= 4; FINDING: the "
        "max-rooted-count bound fails at n = 4 (24 labelings, 2 shapes, "
        "margin exactly 1, oracle-confirmed)"
    )


def test_criterion_7_determinism(capsys, tmp_path):
    outputs = []
    for workers in ("1", "8"):
        out = tmp_path / f"report-p{workers}.json"
        code = main([
            "verify", "--n", "6", "--mode", "random",
            "--samples", str(RANDOM_SAMPLES), "--seed", str(RANDOM_SEED),
            "--parallel", workers, "--json", "--out", str(out),
        ])
        stdout = capsys.readouterr().out
        assert code == EXIT_PASS
        assert out.read_bytes() == stdout.encode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["run_config"] == {
        "n": 6, "mode": "random", "samples": RANDOM_SAMPLES, "checks": None
    }
    assert doc["seed"] == RANDOM_SEED
    print(
        "criterion 7: PASS - verify --n 6 --mode random --samples 100000 "
        "--seed 7 is byte-identical at --parallel 1 and 8"
    )
