"""Bad/good classification, deficiency, partitions, Y/Z, and the catalog's bound rows."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import families, members, rooted_families, simply_rooted_at, splice, subsets
from ucfam import (
    DomainError,
    Family,
    Partition,
    classify_sets,
    colex_total_size,
    decode_set,
    deficiency,
    deficiency_tight_family,
    encode_set,
    full_down,
    is_downset,
    is_simply_rooted,
    largest_downset,
    partition_search,
    rooted_subfamily,
    roots,
    stats,
    z_family,
)
from ucfam import bitops
from ucfam.stability import _z_mask
from ucfam.verify import _FAMILY_CHECKS, CATALOG_IDS, build_evidence


def oracle_deficiency(fam: Family) -> int:
    sets = members(fam)
    out = 0
    for b in sets:
        out += sum(1 for e in b if b - {e} not in sets)
    return out


def shifted_segment(n: int, m: int) -> Family:
    """The m smallest colex cells, each with element n adjoined."""
    top = 1 << (n - 1)
    return Family.from_cells(n, (c | top for c in range(m)))


# --- deficiency -----------------------------------------------------------------


def test_deficiency_examples():
    assert deficiency(Family.powerset(3)) == 0
    assert deficiency(Family.from_sets(2, [[1, 2]])) == 2
    assert deficiency(Family.from_sets(2, [[1], [2], [1, 2]])) == 2


@given(rooted_families(max_n=5))
def test_deficiency_matches_oracle(fam):
    assert deficiency(fam) == oracle_deficiency(fam)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_deficiency_counts_missing_shadows_exhaustive(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        assert deficiency(fam) == oracle_deficiency(fam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rooted_deficiency_is_m_minus_full_shadow(n):
    # simply rooted members miss at most one shadow set each
    for fam in simply_rooted_at(n):
        full = sum(
            1
            for b in members(fam)
            if all(b - {e} in members(fam) for e in b)
        )
        assert oracle_deficiency(fam) == len(fam) - full


def test_deficiency_tight_families():
    for m in range(1, 17):
        for k in range(4):
            fam = deficiency_tight_family(m, k)
            assert len(fam) == m
            assert deficiency(fam) == k * m
            # gluing k fresh elements adds exactly k per member
            assert fam.total_size() == colex_total_size(m) + k * m
            if k <= 1:
                assert is_simply_rooted(fam)
    for m, k in ((3, -1), (-2, 1)):
        with pytest.raises(DomainError):
            deficiency_tight_family(m, k)


# --- largest down-set ------------------------------------------------------------


def test_largest_downset_examples():
    assert largest_downset(Family.from_sets(2, [[1], [1, 2]])).mask == 0
    got = largest_downset(Family.from_sets(2, [[], [1], [1, 2]]))
    assert members(got) == {frozenset(), frozenset([1])}


@given(rooted_families(max_n=6))
def test_largest_downset_is_the_maximum_downset(fam):
    core = largest_downset(fam)
    assert is_downset(core)
    assert core.mask & ~fam.mask == 0
    # no member outside the core has its whole power set inside fam
    for s in fam:
        if s not in core:
            assert any(
                frozenset(x) not in members(fam)
                for x in subsets(frozenset(decode_set(s)))
            )


# --- bad/good classification ------------------------------------------------------


def test_classify_p2_without_empty():
    fam = Family.from_sets(2, [[1], [2], [1, 2]])
    ana = classify_sets(fam)
    assert members(ana.bad) == {frozenset([2]), frozenset([1, 2])}
    assert members(ana.good) == {frozenset([1])}
    assert ana.b == 2


def test_classify_shifted_segment_has_no_bad_sets():
    for m in range(1, 5):
        ana = classify_sets(shifted_segment(3, m))
        assert ana.b == 0


def test_classify_single_empty_set():
    ana = classify_sets(Family.from_sets(2, [[]]))
    assert members(ana.bad) == {frozenset()}
    assert ana.b == 1


def test_classify_rejects_non_rooted():
    with pytest.raises(DomainError):
        classify_sets(Family.from_sets(2, [[1, 2]]))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_classification_identities_exhaustive(n):
    for fam in simply_rooted_at(n):
        ana = classify_sets(fam)
        assert ana.bad.mask == ana.full_shadow.mask | ana.fixed.mask
        assert ana.good.mask == fam.mask & ~ana.bad.mask
        assert ana.y.mask == ana.full_shadow.mask & ana.fixed.mask
        assert ana.b == ana.b1 + ana.b2 + ana.b3 - len(ana.y)
        if 0 in fam:
            assert 0 in ana.bad


# --- partition search ---------------------------------------------------------------


def test_partition_p2_example():
    fam = Family.from_sets(2, [[1], [2], [1, 2]])
    part = partition_search(fam)
    st = stats(fam)
    assert st.p == Fraction(2, 3)
    a = len(rooted_subfamily(fam, part.s_elements))
    b = len(rooted_subfamily(fam, part.t_elements))
    assert Fraction(a * b) >= Fraction(9, 4) * (1 - st.p**2)


def assert_partition_certifies(fam: Family) -> None:
    part = partition_search(fam)
    assert part.s_elements & part.t_elements == 0
    assert part.s_elements | part.t_elements == (1 << fam.n) - 1
    m0 = len(fam) - (1 if 0 in fam else 0)
    q = stats(fam).max_rooted_count
    a = len(rooted_subfamily(fam, part.s_elements))
    b = len(rooted_subfamily(fam, part.t_elements))
    assert 4 * a * b >= m0 * m0 - q * q


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partition_certificate_exhaustive(n):
    for fam in simply_rooted_at(n):
        if not len(fam):
            continue
        assert_partition_certifies(fam)


@settings(max_examples=200)
@given(rooted_families(max_n=12))
def test_partition_certificate_sampled(fam):
    assert_partition_certifies(fam)


def test_large_product_fails_on_an_empty_side():
    # P(3) minus {}: m0 = 7 and q = 4, so S = {} (|F_S| = 0) misses 49 - 16
    fam = Family(3, Family.powerset(3).mask & ~1)
    ev = build_evidence(fam)
    assert (ev.m0, ev.q) == (7, 4)
    check = _FAMILY_CHECKS["lemma_large_product"]
    assert check(ev)[0]
    lopsided = classify_sets(fam, Partition(3, 0, 0b111))
    spliced = splice(ev, analysis=lopsided)
    assert check(spliced) == (False, 0, 33, None)


# --- Y and Z families ----------------------------------------------------------------


def test_y_family_examples():
    def y(fam: Family) -> Family:
        return build_evidence(fam).analysis.y

    assert y(Family.powerset(2)) == Family.powerset(2)
    assert y(Family.from_sets(2, [[1], [2], [1, 2]])).mask == 0
    assert y(Family.from_sets(2, [[]])) == Family.from_sets(2, [[]])


def test_z_family_examples():
    fam = Family.from_sets(2, [[1], [2], [1, 2]])
    assert z_family(fam, fam, fam).mask == 0
    f1 = rooted_subfamily(fam, encode_set([1]))
    f2 = rooted_subfamily(fam, encode_set([2]))
    assert z_family(fam, f1, f2).mask == 0
    with pytest.raises(DomainError):
        z_family(fam, f1, f1)  # sides do not cover


@pytest.mark.parametrize("n", [1, 2, 3])
def test_z_members_have_two_roots_exhaustive(n):
    for fam in simply_rooted_at(n):
        if not len(fam):
            continue
        ana = classify_sets(fam)
        z = z_family(fam, ana.side_s, ana.side_t)
        _, trace = full_down(fam)
        for s in z:
            r = roots(fam, s).bit_count()
            assert r >= 2
            if trace.image(s) != s:
                assert r >= 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_z_family_matches_cell_reference(n):
    # the sides of every partition of the ground set, against the three images cell by cell
    found = 0
    for fam in simply_rooted_at(n)[:: 7 if n == 4 else 1]:
        full = (1 << n) - 1
        for s_el in range(1 << n):
            side_s = Family(n, rooted_subfamily(fam, s_el).mask | (fam.mask & 1))
            side_t = Family(n, rooted_subfamily(fam, full ^ s_el).mask | (fam.mask & 1))
            traces = [full_down(f)[1] for f in (fam, side_s, side_t)]
            want = 0
            for s in bitops.iter_bits(side_s.mask & side_t.mask):
                i0, i1, i2 = (tr.image(s) for tr in traces)
                if i0 != i1 and i0 != i2 and i1 != i2:
                    want |= 1 << s
            assert z_family(fam, side_s, side_t).mask == want
            found += want != 0
    assert n < 2 or found


@settings(max_examples=150)
@given(families(max_n=5), families(max_n=5), families(max_n=5))
def test_z_mask_matches_cell_reference_on_any_traces(f0, f1, f2):
    # three unrelated families on one ground set, so any pair of images can agree
    n = f0.n
    f1, f2 = Family(n, f1.mask & bitops.universe(n)), Family(n, f2.mask & bitops.universe(n))
    traces = [full_down(f)[1] for f in (f0, f1, f2)]
    shared = f0.mask & f1.mask & f2.mask
    want = 0
    for s in bitops.iter_bits(shared):
        i0, i1, i2 = (tr.image(s) for tr in traces)
        if i0 != i1 and i0 != i2 and i1 != i2:
            want |= 1 << s
    assert _z_mask(shared, *traces) == want


# --- the stability theorems and the bad-set rows, read from the catalog ------------


STABILITY_CHECKS = {"twelfth": "thm_stability_12", "eighth": "thm_stability_8"}


def catalog_rows(fam: Family) -> dict[str, tuple]:
    """Every catalog family check on one evidence record, as (ok, lhs, rhs)."""
    ev = build_evidence(fam)
    return {
        cid: _FAMILY_CHECKS[cid](ev)[:3] for cid in CATALOG_IDS if cid in _FAMILY_CHECKS
    }


def test_stability_bound_peak_rooted_is_eq2():
    # all-rooted-at-n families meet the plain size bound with equality
    for m in range(1, 9):
        fam = shifted_segment(4, m)
        st = stats(fam)
        assert st.max_rooted_count == m
        assert fam.total_size() == colex_total_size(m) + m
        rows = catalog_rows(fam)
        for cid in STABILITY_CHECKS.values():
            assert rows[cid] == (True, 0, 0), (m, cid)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("variant", ["twelfth", "eighth"])
def test_stability_bound_exhaustive(n, variant):
    for fam in simply_rooted_at(n):
        ok, lhs, rhs = catalog_rows(fam)[STABILITY_CHECKS[variant]]
        assert ok and lhs <= rhs, fam


def test_stability_bound_rejects():
    with pytest.raises(DomainError):
        build_evidence(Family.from_sets(2, [[1, 2]]))


def test_lower_bound_rows_all_pass_exhaustive():
    for n in range(4):
        for fam in simply_rooted_at(n):
            if not len(fam):
                continue
            rows = catalog_rows(fam)
            assert len(rows) == 29
            for cid, (ok, _, _) in rows.items():
                assert ok, (fam, cid)
            # the bad-count identity is the first clause of lemma_split_rooted_2
            ana = classify_sets(fam)
            assert ana.side_s.mask & ana.side_t.mask & ~ana.full_shadow.mask == 0
            assert ana.b == ana.b1 + ana.b2 + ana.b3 - len(ana.y)


@settings(max_examples=250)
@given(rooted_families(min_n=1, max_n=6))
def test_bad_half_bridge_property(fam):
    # total size stays under the colex bound minus half the bad count: add the
    # no-falls and full-shadow rows and use b <= |full shadow| + b3
    if not len(fam):
        return
    rows = catalog_rows(fam)
    ok1, total, rhs1 = rows["lemma_no_falls"]
    ok2, _, rhs2 = rows["lemma_full_shadow"]
    assert ok1 and ok2
    ana = classify_sets(fam)
    assert ana.b <= len(ana.full_shadow) + ana.b3
    bound = colex_total_size(len(fam)) + len(fam)
    assert rhs1 + rhs2 == 2 * bound - len(ana.full_shadow) - ana.b3
    assert 2 * total <= rhs1 + rhs2 <= 2 * bound - ana.b
