"""Check catalog, suite runner, and the constant-derivation chain."""
import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import families, simply_rooted_at, splice, union_closed_at
from ucfam import (
    CompressionTrace,
    DomainError,
    Family,
    bitops,
    classify_sets,
    complement,
    family_to_text,
    full_down,
    full_up,
    indexed_rooted_sample,
    is_downset,
    is_union_closed,
    partition_search,
    verify,
    z_family,
)
from ucfam.enumeration import EnumerationPlan, SplitMix64, _union_closed_masks, union_closure
from ucfam.stability import _fallers
from ucfam.verify import (
    CATALOG_IDS,
    PROBE_IDS,
    CheckDescriptor,
    ConstantChain,
    Evidence,
    _FAMILY_CHECKS,
    _toggle_cell,
    _toggle_keeps_union_closed,
    build_evidence,
    catalog,
    derive_constants,
    document_json,
    excluded_fraction,
    fixpoint_constants,
    margin_from_root,
    render_table,
    run_suite,
    suite_document,
    threshold_coefficients,
)

EXHAUSTIVE_2 = EnumerationPlan(n=2, mode="exhaustive")
EXHAUSTIVE_4 = EnumerationPlan(n=4, mode="exhaustive")


# ---------------------------------------------------------------------------
# catalog shape


def test_catalog_ids_frozen():
    assert len(CATALOG_IDS) == 30
    assert len(PROBE_IDS) == 3
    assert len(set(CATALOG_IDS + PROBE_IDS)) == 33
    assert PROBE_IDS == (
        "probe_degree_bound",
        "probe_max_rooted_bound",
        "probe_eps_delta_bound",
    )


def test_catalog_descriptor_fields():
    entries = catalog(EXHAUSTIVE_2)
    assert [d.id for d in entries] == list(CATALOG_IDS + PROBE_IDS)
    for d in entries:
        assert d.statement_ref
        assert d.applicability in ("simply-rooted", "any-family", "numeric")
        assert d.conjecture == (d.id in PROBE_IDS)
    # family-scope entries carry the plan; with no plan nothing does
    assert any(d.population == EXHAUSTIVE_2 for d in entries)
    assert all(d.population is None for d in catalog())


def test_private_names_the_benchmark_reads():
    # bench/layers.py times each family check, replays the two global sweeps
    # and wraps the shard function through these module attributes
    family_scope = [cid for cid in CATALOG_IDS + PROBE_IDS if cid != "lemma_colex_total"]
    assert len(family_scope) == 32
    assert list(_FAMILY_CHECKS) == family_scope
    assert set(verify._GLOBAL_CHECKS) == {"lemma_colex_total", "lemma_deficiency"}
    assert verify._GLOBAL_CHECKS["lemma_deficiency"](EXHAUSTIVE_2).violations == []
    assert verify._GLOBAL_CHECKS["lemma_deficiency"](EXHAUSTIVE_4).violations == []
    # its call counter wraps bitops.rooted_mask, and its stage replay calls
    # the stage functions and compares what they return with these fields
    for fn in (bitops.rooted_mask, partition_search, classify_sets, z_family):
        assert callable(fn)
    assert isinstance(CompressionTrace.moves, property)
    ev = build_evidence(Family.powerset(2))
    for name in ("rooted", "analysis", "trace_s", "trace_t", "up", "z_mask"):
        assert getattr(ev, name) is not None


def test_probe_rows_build_no_sweep(monkeypatch):
    # the two probes read m, ||F||, ||I(m)||, q and the degrees only
    calls = Counter()
    for name in ("full_down", "full_up"):

        def counted(fam, _name=name, _fn=getattr(verify, name)):
            calls[_name] += 1
            return _fn(fam)

        monkeypatch.setattr(verify, name, counted)
    ids = ("probe_degree_bound", "probe_max_rooted_bound")
    reports = run_suite([d for d in catalog(EXHAUSTIVE_4) if d.id in ids])
    assert [r.instances_tested for r in reports] == [4960, 4960]
    assert calls == Counter()
    # a row that reads both sweeps builds each once per family
    (report,) = run_suite([d for d in catalog(EXHAUSTIVE_2) if d.id == "eq1_duality"])
    assert report.instances_tested > 0
    assert calls == Counter(full_down=report.instances_tested, full_up=report.instances_tested)


def test_serial_suite_calls_the_shard_module_attribute(monkeypatch):
    calls = []
    original = verify._run_shard

    def counted(args):
        calls.append(args)
        return original(args)

    monkeypatch.setattr(verify, "_run_shard", counted)
    plan = EnumerationPlan(n=4, mode="random", sample_count=verify.SHARD_SIZE + 1, seed=5)
    ids = ["rooted_size_bound", "thm_stability_8"]
    reports = run_suite([d for d in catalog(plan) if d.id in ids], parallelism=1)
    assert len(calls) == 2
    assert [r.instances_tested for r in reports] == [verify.SHARD_SIZE + 1] * 2


def test_pool_has_no_more_workers_than_shards(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(verify.multiprocessing, "get_context", lambda method: Context())
    plan = EnumerationPlan(n=4, mode="random", sample_count=verify.SHARD_SIZE + 1, seed=5)
    ids = ["rooted_size_bound", "thm_stability_8"]
    reports = run_suite([d for d in catalog(plan) if d.id in ids], parallelism=64)
    assert sizes == [2]
    assert [r.instances_tested for r in reports] == [verify.SHARD_SIZE + 1] * 2


# ---------------------------------------------------------------------------
# suite runner


def test_exhaustive_n2_all_pass():
    reports = run_suite(catalog(EXHAUSTIVE_2))
    assert [r.id for r in reports] == list(CATALOG_IDS + PROBE_IDS)
    for r in reports:
        assert r.status == "pass", r.id
        assert r.violations_seen == 0
    by_id = {r.id: r for r in reports}
    # 14 union-closed families over n=2, hence 14 simply rooted complements
    assert by_id["eq1_duality"].instances_tested == 14
    assert by_id["thm_stability_8"].instances_tested == 14


def test_no_plan_skips_family_checks():
    reports = run_suite(catalog())
    by_id = {r.id: r for r in reports}
    assert by_id["thm_stability_8"].status == "skipped"
    assert by_id["thm_stability_8"].instances_tested == 0
    # the numeric sweeps run regardless of a family population
    assert by_id["lemma_colex_total"].status == "pass"
    assert by_id["lemma_colex_total"].instances_tested > 0


def test_empty_random_plan_skips():
    plan = EnumerationPlan(n=5, mode="random", sample_count=0, seed=1)
    reports = run_suite([d for d in catalog(plan) if d.id == "thm_stability_8"])
    assert reports[0].status == "skipped"


def test_mixed_population_plans_rejected():
    a = catalog(EXHAUSTIVE_2)
    b = catalog(EnumerationPlan(n=3, mode="exhaustive"))
    mixed = [d for d in a if d.id == "eq1_duality"] + [
        d for d in b if d.id == "thm_stability_8"
    ]
    with pytest.raises(DomainError):
        run_suite(mixed)


def test_parallel_runs_byte_identical():
    plan = EnumerationPlan(n=5, mode="random", sample_count=2500, seed=11)
    selected = list(CATALOG_IDS + PROBE_IDS)
    docs = []
    for workers in (1, 2):
        reports = run_suite(catalog(plan), parallelism=workers)
        docs.append(document_json(suite_document(plan, reports, selected)))
    assert docs[0] == docs[1]


def test_probe_refutation_at_n4():
    reports = run_suite(catalog(EXHAUSTIVE_4))
    by_id = {r.id: r for r in reports}
    for r in reports:
        if not r.conjecture:
            assert r.status == "pass", r.id

    probe = by_id["probe_max_rooted_bound"]
    assert probe.status == "fail"
    assert probe.conjecture
    assert probe.instances_tested == 4960
    # the peak-rooted-count bound first breaks here: 24 labeled witnesses,
    # each exceeding the bound by exactly one
    assert probe.violations_seen == 24
    assert len(probe.violations) == 24
    assert all(v.lhs == v.rhs + 1 for v in probe.violations)
    assert sorted({(v.lhs, v.rhs) for v in probe.violations}) == [(14, 13), (20, 19)]

    # the max-degree form of the bound survives every family at this size
    assert by_id["probe_degree_bound"].status == "pass"
    assert by_id["probe_eps_delta_bound"].status == "pass"


def test_report_json_shape():
    reports = run_suite(catalog(EXHAUSTIVE_2))
    doc = suite_document(EXHAUSTIVE_2, reports, None)
    assert set(doc) == {"run_config", "seed", "checks", "conjecture_probes"}
    assert doc["run_config"] == {
        "n": 2,
        "mode": "exhaustive",
        "samples": 0,
        "checks": None,
    }
    assert len(doc["checks"]) == 30
    assert len(doc["conjecture_probes"]) == 3
    for row in doc["checks"] + doc["conjecture_probes"]:
        assert set(row) == {
            "id",
            "instances_tested",
            "violations",
            "violations_seen",
            "status",
            "details",
            "conjecture",
        }
        assert "wall_time" not in row  # timings would break replay comparisons
    text = document_json(doc)
    assert text.endswith("\n")
    assert document_json(doc) == text


# sha256 of every family row's full outcome (ok, lhs, rhs and the sorted
# extra dict) over the exhaustive families at n <= 4 and 300 samples at each
# of n = 6, 8 and 10 (seed 3).  The report only carries the sides of a
# violation, so this digest is what pins the sides of a passing row.
ROW_OUTCOMES_DIGEST = "f9afd0e6542babf139d396cdf89d266861fc57b9a870a1c5cb721f749a40c9eb"


def test_row_outcomes_golden():
    h = hashlib.sha256()
    fams = [fam for n in range(5) for fam in simply_rooted_at(n)]
    for n in (6, 8, 10):
        plan = EnumerationPlan(n=n, mode="random", sample_count=300, seed=3)
        fams.extend(indexed_rooted_sample(plan, i) for i in range(300))
    for fam in fams:
        ev = build_evidence(fam)
        for cid, check in _FAMILY_CHECKS.items():
            ok, lhs, rhs, extra = check(ev)
            h.update(f"{cid} {ok:d} {lhs} {rhs} {sorted((extra or {}).items())}\n".encode())
    assert len(fams) * len(_FAMILY_CHECKS) == 192064
    assert h.hexdigest() == ROW_OUTCOMES_DIGEST


def test_family_wall_times_are_per_check():
    plan = EnumerationPlan(n=5, mode="random", sample_count=300, seed=3)
    t0 = time.perf_counter()
    reports = run_suite(catalog(plan))
    elapsed = time.perf_counter() - t0
    family_rows = [r for r in reports if r.id in _FAMILY_CHECKS]
    assert all(r.wall_time >= 0 for r in family_rows)
    assert sum(r.wall_time for r in family_rows) <= elapsed


def test_toggle_cell_is_spread_over_the_cube():
    # rooted_complement_duality toggles one cell per family; at n = 4 every
    # one of the 16 cells must be reached about 4960 / 16 = 310 times
    hits = Counter(
        _toggle_cell(complement(Family(4, mask))) for mask in _union_closed_masks(4)
    )
    assert sorted(hits) == list(range(16))
    assert all(200 <= count <= 420 for count in hits.values()), hits


@pytest.mark.parametrize("n", [3, 10])
def test_spliced_open_complement_fails_duality(n):
    # a real evidence record whose complement has lost one join s | t of
    # two of its members: the family is still simply rooted, so the row
    # must see that the complement is no longer union-closed
    rng = SplitMix64(7)
    closed = Family(n, union_closure(n, [rng.next64() % (1 << n) for _ in range(4)]))
    ev = build_evidence(complement(closed))
    check = _FAMILY_CHECKS["rooted_complement_duality"]
    assert check(ev)[0]
    s, t = next((s, t) for s in closed for t in closed if s | t not in (s, t))
    spliced = splice(ev, comp=Family(n, closed.mask ^ (1 << (s | t))))
    assert check(spliced) == (False, 1, 0, None)


@pytest.mark.parametrize("n", range(11))
def test_incremental_toggle_matches_full_test(n):
    # every union-closed family up to n = 4, then the complements of 12
    # sampled simply rooted families; every cell of the cube
    if n <= 4:
        closed_families = union_closed_at(n)
    else:
        plan = EnumerationPlan(n=n, mode="random", sample_count=12, seed=n)
        closed_families = [complement(indexed_rooted_sample(plan, i)) for i in range(12)]
    for closed in closed_families:
        for cell in range(1 << n):
            toggled = Family(n, closed.mask ^ (1 << cell))
            assert _toggle_keeps_union_closed(n, closed.mask, cell) == is_union_closed(toggled)


def cube_set_agrees(fam: Family) -> bool:
    """lemma_cube_set on the evidence record of any family, built from its
    rooted masks, against the statement pair by pair, and its failure outcome
    against the statement; returns the verdict."""
    n, mask = fam.n, fam.mask
    rooted = tuple(bitops.rooted_masks(n, mask))
    up = full_up(complement(fam))[1]
    uppers = {a: up.image(a) for a in up.original}
    want = all(
        s & ~bitops.root_set(rooted, s) == a
        for a, u in uppers.items()
        for s in bitops.iter_bits(bitops.interval(a, u) & mask)
    )
    verdict, lhs, rhs, _ = _FAMILY_CHECKS["lemma_cube_set"](Evidence(fam, rooted))
    assert verdict == want
    if not verdict:
        # lhs is a member in the cube of the up-group member rhs, with other roots
        assert rhs in uppers
        assert (bitops.interval(rhs, uppers[rhs]) & mask) >> lhs & 1
        assert bitops.root_set(rooted, lhs) != lhs & ~rhs
    return want


@pytest.mark.parametrize("n", [2, 3])
def test_cube_set_matches_pair_reference(n):
    verdicts = {cube_set_agrees(Family(n, mask)) for mask in range(1 << (1 << n))}
    assert verdicts == {True, False}


@settings(max_examples=150)
@given(families(min_n=4, max_n=6))
def test_cube_set_matches_pair_reference_sampled(fam):
    cube_set_agrees(fam)


# ---------------------------------------------------------------------------
# the lane-swept rootedness clauses fail as the one-family tests did


def _simply_rooted(fam: Family) -> bool:
    """The one-family test: every nonempty member covered by a rooted mask."""
    return not bitops.rootless(fam.mask, bitops.rooted_masks(fam.n, fam.mask))


def reimer_basics_reference(ev: Evidence):
    """lemma_reimer_basics with one rootedness test per sweep prefix."""
    if not is_downset(ev.down.result):
        return False, ev.down.result.mask, 0, None
    for k in range(1, ev.fam.n + 1):
        pref = ev.down.prefix_family(k)
        if not _simply_rooted(pref):
            return False, k, pref.mask, None
    return True, 0, 0, None


def _halves(ev: Evidence) -> tuple[Family, Family]:
    """lemma_few_with_root's split at the peak moved on top: (plus, minus)."""
    n = ev.fam.n
    mask2 = bitops.swap_elements(n, ev.fam.mask, ev.peak, n)
    return Family(n - 1, mask2 >> (1 << (n - 1))), Family(n - 1, mask2 & bitops.universe(n - 1))


def few_with_root_halves_reference(ev: Evidence):
    """lemma_few_with_root up to its half clause, with one rootedness test
    per half: the outcome it returns there, or None if it goes on."""
    if ev.fam.n == 0 or ev.m0 == 0:
        return True, 0, 0, {"degenerate": 1}
    plus, minus = _halves(ev)
    acc = plus.total_size() + minus.total_size() + len(plus)
    if ev.total != acc:
        return False, ev.total, acc, None
    if not (_simply_rooted(plus) and _simply_rooted(minus)):
        return False, plus.mask, minus.mask, None
    return None


def rootedness_failures(fams) -> tuple[int, int]:
    """Compare both rows with the references on the evidence record of each
    family, simply rooted or not; count the failures of the two clauses."""
    reimer, few = _FAMILY_CHECKS["lemma_reimer_basics"], _FAMILY_CHECKS["lemma_few_with_root"]
    reimer_fails = halves_fails = 0
    for fam in fams:
        ev = Evidence(fam, tuple(bitops.rooted_masks(fam.n, fam.mask)))
        want = reimer_basics_reference(ev)
        assert reimer(ev) == want, fam
        reimer_fails += not want[0]
        want, got = few_with_root_halves_reference(ev), few(ev)
        if want is None:  # past the half clause, the row must not stop there
            plus, minus = _halves(ev)
            assert got != (False, plus.mask, minus.mask, None), fam
        else:
            assert got == want, fam
            halves_fails += not want[0]
    return reimer_fails, halves_fails


def test_rootedness_failures_match_one_family_tests_exhaustive():
    # every family on at most 3 points; at n = 3, 44 fail the sweep prefixes
    # and 80 the halves
    counts = [
        rootedness_failures(Family(n, mask) for mask in range(1 << (1 << n))) for n in range(4)
    ]
    assert counts[3] == (44, 80)


def test_rootedness_failures_match_one_family_tests_sampled():
    rng = random.Random(16)
    for n in (4, 5, 6):
        fams = [Family(n, rng.getrandbits(1 << n)) for _ in range(2000)]
        plan = EnumerationPlan(n=n, mode="random", sample_count=100, seed=16)
        fams.extend(indexed_rooted_sample(plan, i) for i in range(100))
        reimer_fails, halves_fails = rootedness_failures(fams)
        assert reimer_fails and halves_fails


@pytest.mark.parametrize("k", [2, 3])
def test_reimer_basics_reports_the_first_rootless_prefix(k):
    # a hand-built sweep on 4 points whose prefixes 1..k-1 are simply rooted,
    # whose prefixes k..3 hold only a rootless member, and whose result is a
    # down-set: the row names prefix k, not a later one
    n = 4
    rooted = Family.from_sets(n, [[], [1], [2], [1, 2]]).mask
    lonely = [Family.from_sets(n, [[1, 2, j]]).mask for j in (3, 4)]
    prefixes = (rooted,) + (rooted,) * (k - 1) + tuple(lonely[: n - k]) + (1,)
    assert not any(_simply_rooted(Family(n, p)) for p in prefixes[k:n])
    fam = Family(n, rooted)
    ev = Evidence(fam, tuple(bitops.rooted_masks(n, rooted)))
    object.__setattr__(ev, "down", CompressionTrace(n, fam, prefixes, {}))
    assert _FAMILY_CHECKS["lemma_reimer_basics"](ev) == (False, k, prefixes[k], None)
    assert reimer_basics_reference(ev) == (False, k, prefixes[k], None)


# ---------------------------------------------------------------------------
# the mask-algebra checks still fail on a member that drops twice

DOUBLE_DROP = full_down(Family.from_sets(2, [[1, 2]]))[1]  # {1,2} -> {2} -> {}


def _verdicts(ev, ids):
    return {cid: _FAMILY_CHECKS[cid](ev)[0] for cid in ids}


def test_spliced_double_drop_fails_the_fall_checks():
    # {}, {1}, {1,2}: the good member {1,2} really falls once, to {2}
    ev = build_evidence(Family.from_sets(2, [[], [1], [1, 2]]))
    ids = ("lemma_rooted_basics", "lemma_root_fall", "lemma_good_fall", "lemma_forced_fall")
    assert ev.analysis.good.mask == 1 << 0b11
    assert _verdicts(ev, ids) == dict.fromkeys(ids, True)
    spliced = splice(ev, down=DOUBLE_DROP)
    assert _verdicts(spliced, ids) == dict.fromkeys(ids, False)


def test_shared_members_and_swept_meet_match_the_sides():
    # the record's F1 & F2 and |d(F1) & d(F2)| against the sides swept afresh
    fams = [fam for n in range(5) for fam in simply_rooted_at(n)]
    plan = EnumerationPlan(n=6, mode="random", sample_count=200, seed=5)
    fams.extend(indexed_rooted_sample(plan, i) for i in range(200))
    for fam in fams:
        ev = build_evidence(fam)
        a = ev.analysis
        assert a.shared.mask == a.side_s.mask & a.side_t.mask, fam
        d1, d2 = full_down(a.side_s)[0], full_down(a.side_t)[0]
        assert ev.swept_meet == (d1.mask & d2.mask).bit_count(), fam
        assert ev.z_mask == z_family(fam, a.side_s, a.side_t).mask, fam


def test_spliced_double_drop_fails_z_roots():
    # in P(2) the fixed member {1,2} has two roots and three distinct sweep
    # images; counted as moved it would need three roots
    ev = build_evidence(Family.powerset(2))
    ids = ("lemma_rooted_basics", "lemma_root_fall", "cor_Z_roots")
    assert ev.z_mask == 1 << 0b11
    assert _verdicts(ev, ids) == dict.fromkeys(ids, True)
    spliced = splice(ev, down=DOUBLE_DROP)
    assert _verdicts(spliced, ids) == dict.fromkeys(ids, False)
    assert _FAMILY_CHECKS["cor_Z_roots"](spliced)[1:3] == (0b11, 2)


def test_render_table_layout():
    reports = run_suite(catalog(EXHAUSTIVE_2))
    table = render_table(reports)
    lines = table.splitlines()
    assert lines[0].split() == ["check", "status", "instances", "violations", "seconds"]
    assert set(lines[1]) <= {"-", " "}
    assert "conjecture probes:" in lines
    rule = lines.index("conjecture probes:")
    assert len(lines) == rule + 1 + len(PROBE_IDS)


def _colex_total_pair_loop(tots):
    """lemma_colex_total on a table tots[m] = ||I(m)||, Czedli's threshold pair
    by pair: (instances, violations in the report's order, threshold flips)."""
    instances, violations, flips = 0, [], 0
    for m in range(1, verify.COLEX_SWEEP_LIMIT + 1):
        six, bound = 6 * tots[m], verify.segment_bound_sixths(m)
        instances += 1
        if six > bound or (six == bound) != verify.segment_bound_is_tight(m):
            violations.append((m, f"m={m}", six, bound))
    for r in range(1, verify.THRESHOLD_R_LIMIT + 1):
        for m in range(1, verify.COLEX_SWEEP_LIMIT + 1):
            instances += 1
            lhs = 2 * tots[m] > m * r
            rhs = 3 * m > 1 << (r + 2)
            if lhs != rhs:
                violations.append((m, f"m={m} r={r}", int(lhs), int(rhs)))
            elif lhs and not 3 * (m - 1) > 1 << (r + 2):
                flips += 1
    return instances, sorted(violations, key=lambda rec: rec[0]), flips


@pytest.mark.parametrize("skew", [{}, {100: 300}, {5: 30, 4097: -20000}])
def test_colex_total_row_matches_pair_loop(monkeypatch, skew):
    # the real table, one entry too large, and a table skewed at two sizes
    # whose violations the pair loop interleaves across r, so that only the
    # report's sort puts them in order
    real = verify.total_size_range

    def skewed(limit):
        tots = real(limit)
        for m, delta in skew.items():
            tots[m] += delta
        return tots

    monkeypatch.setattr(verify, "total_size_range", skewed)
    instances, violations, flips = _colex_total_pair_loop(skewed(verify.COLEX_SWEEP_LIMIT))
    tally = verify._global_colex_total(None)
    assert (tally.instances, sorted(tally.violations, key=lambda rec: rec[0])) == (
        instances, violations)
    assert tally.details == {"threshold_flips_seen": flips}
    if not skew:
        assert (instances, violations, flips) == (98304, [], 11)


def test_colex_total_row_reports_a_wrong_table_entry(monkeypatch):
    # ||I(100)|| made 300 too large breaks the segment bound at m = 100, and
    # Czedli's threshold there for every r whose 2^(r+2) / 3 exceeds 100
    real = verify.total_size_range

    def skewed(limit):
        tots = real(limit)
        tots[100] += 300
        return tots

    monkeypatch.setattr(verify, "total_size_range", skewed)
    tally = verify._global_colex_total(None)
    assert [text for _, text, _, _ in tally.violations] == ["m=100"] + [
        f"m=100 r={r}" for r in range(7, 12)
    ]
    assert tally.details == {"threshold_flips_seen": 11}


# ---------------------------------------------------------------------------
# the any-family deficiency scan


def _direct_deficiency_sides(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        yield (mask, *verify._deficiency_sides(fam, _fallers(fam)))


@pytest.mark.parametrize("n", range(5))
def test_deficiency_split_sides_match_direct(n):
    assert list(verify._deficiency_split_sides(n)) == list(_direct_deficiency_sides(n))


@pytest.mark.parametrize("n", [3, 4])
def test_deficiency_scan_violations_match_direct(monkeypatch, n):
    # a colex bound two units short at m = 5 makes the tight 5-member families
    # fail; the scan must report exactly the direct loop's violations
    real = verify.colex_total_size
    monkeypatch.setattr(verify, "colex_total_size", lambda m: real(m) - 2 * (m == 5))
    plan = EnumerationPlan(n=n, mode="exhaustive")
    fixed = verify._global_deficiency(None)
    expected = [
        (mask, family_to_text(Family(n, mask)), lhs, rhs)
        for mask, lhs, rhs in _direct_deficiency_sides(n)
        if lhs > rhs
    ]
    assert 0 < len(expected) < 1 << (1 << n)
    tally = verify._global_deficiency(plan)
    assert tally.instances == fixed.instances + (1 << (1 << n))
    assert tally.violations == fixed.violations + expected


# ---------------------------------------------------------------------------
# the top-element split row


def test_check_few_with_root_examples():
    check = _FAMILY_CHECKS["lemma_few_with_root"]
    assert check(build_evidence(Family(3, (1 << 8) - 2)))[0]  # P(3) minus the empty set
    assert check(build_evidence(Family(0, 1)))[0]
    with pytest.raises(DomainError):
        build_evidence(Family(2, 0b1000))  # {{1,2}} is not simply rooted


# ---------------------------------------------------------------------------
# constant chain


def test_threshold_coefficients_default():
    assert threshold_coefficients(ConstantChain()) == (
        Fraction(9),
        Fraction(36),
        Fraction(1),
    )


def test_excluded_fraction_brackets_the_root():
    chain = ConstantChain()
    assert excluded_fraction(chain, Fraction(1, 37))
    assert not excluded_fraction(chain, Fraction(1, 36))


def test_margin_from_root_value():
    assert margin_from_root(Fraction(1, 37)) == Fraction(2, 327)


def test_derive_constants_default_chain():
    chain = derive_constants(ConstantChain())
    assert Fraction(1, 37) <= chain.c1 < Fraction(1, 36)
    # the certified c1 still sits on the excluded side of the quadratic
    assert excluded_fraction(chain, chain.c1)
    assert chain.c2 == margin_from_root(chain.c1)
    assert chain.c2 >= Fraction(2, 327)


def test_fixpoint_tightens_constants():
    chain = fixpoint_constants(3, 8)
    assert chain.c1 >= Fraction(1, 24)
    assert chain.c2 >= Fraction(1, 104)
    assert excluded_fraction(chain, chain.c1)
    # feedback strictly improves on the single-pass derivation
    single = derive_constants(ConstantChain(3, 8))
    assert chain.c1 > single.c1


def test_chain_validation():
    with pytest.raises(DomainError):
        ConstantChain(split_factor=0)
    with pytest.raises(DomainError):
        ConstantChain(stability_constant=7)
    with pytest.raises(DomainError):
        ConstantChain(alpha=Fraction(3, 4))
    with pytest.raises(DomainError):
        ConstantChain(alpha=Fraction(1, 3))


@pytest.mark.parametrize(
    "fields", [{"alpha": 0.6}, {"split_factor": 2.5}, {"stability_constant": 12.0}]
)
def test_chain_rejects_inexact_inputs(fields):
    # a float would reach threshold_coefficients and derive_constants
    with pytest.raises(DomainError):
        ConstantChain(**fields)


def test_chain_takes_fraction_alpha():
    chain = derive_constants(ConstantChain(alpha=Fraction(3, 5)))
    assert threshold_coefficients(chain) == (Fraction(9), Fraction(30), Fraction(1))
    assert excluded_fraction(chain, chain.c1)
