"""Correctness checks on `ucfam verify` reports, against the pure-set oracle.

The catalog's non-conjecture rows are theorems and lemmas of the paper, so
every one must pass with no violation.  Probe violations are results: each
listed one is recomputed by the oracle, and on the exhaustive population the
oracle recounts them all by itself.
"""
from __future__ import annotations

from functools import lru_cache

import oracle
from workloads import Workload

CATALOG_ROWS = 30
PROBE_ROWS = 3
VIOLATION_CAP = 100
GLOBAL_ONLY = {"lemma_colex_total"}
# lemma_deficiency also runs global instances: 16 x 3 glued colex segments,
# the two-set families on 4 points with deficiency 3, and on an exhaustive
# plan every family of P(P([n])).
GLUED_SEGMENTS = 16 * 3
PAIR_GROUND = 4


@lru_cache(maxsize=None)
def deficiency3_pairs() -> int:
    cells = oracle.power_set(PAIR_GROUND)
    return sum(
        1
        for i, a in enumerate(cells)
        for b in cells[:i]
        if oracle.deficiency(frozenset({a, b})) == 3
    )


@lru_cache(maxsize=None)
def exhaustive_census(n: int) -> tuple[int, dict[str, int]]:
    """Union-closed families on n points, and probe violations over their complements."""
    count = 0
    violations = {"probe_degree_bound": 0, "probe_max_rooted_bound": 0, "probe_eps_delta_bound": 0}
    for uc in oracle.union_closed_families(n):
        count += 1
        fam = oracle.complement(n, uc)
        if not oracle.is_simply_rooted(fam):
            raise AssertionError(f"complement of a union-closed family is not simply rooted: {uc}")
        for pid, vals in oracle.probe_values(n, fam).items():
            if vals is not None and vals[0] > vals[1]:
                violations[pid] += 1
    return count, violations


def population(w: Workload) -> int:
    if w.exhaustive:
        count, _ = exhaustive_census(w.n)
        if count != oracle.UNION_CLOSED_COUNTS[w.n]:
            raise AssertionError(f"oracle counts {count} union-closed families on {w.n} points")
        return count
    return w.samples


def failed_families(doc: dict, size: int) -> int:
    """Families of one report that a non-conjecture check flagged, or that were skipped.

    A report lists at most VIOLATION_CAP violations per check, so the count
    is the largest violations_seen over the family-scope rows, a lower bound
    on the distinct families that failed.
    """
    rows = doc["checks"] + doc["conjecture_probes"]
    skipped = max((r["details"].get("families_skipped", 0) for r in rows), default=0)
    flagged = max(
        (r["violations_seen"] for r in doc["checks"] if r["id"] not in GLOBAL_ONLY), default=0
    )
    return min(size, skipped + flagged)


def check_report(doc: dict, w: Workload, size: int) -> list[str]:
    """Problems found in one parsed report; an empty list means correct."""
    problems = []
    checks, probes = doc["checks"], doc["conjecture_probes"]
    if len(checks) != CATALOG_ROWS or len(probes) != PROBE_ROWS:
        problems.append(f"{len(checks)} catalog rows and {len(probes)} probe rows")
    for r in checks:
        if r["status"] != "pass" or r["violations_seen"] != 0:
            problems.append(f"{r['id']}: {r['status']} with {r['violations_seen']} violations")
    for r in checks + probes:
        if "families_skipped" in r["details"]:
            problems.append(f"{r['id']}: {r['details']['families_skipped']} families skipped")
        if r["id"] in GLOBAL_ONLY:
            continue
        want = size
        if r["id"] == "lemma_deficiency":
            want += GLUED_SEGMENTS + deficiency3_pairs()
            if w.exhaustive:
                want += 1 << (1 << w.n)
        if r["instances_tested"] != want:
            problems.append(f"{r['id']}: {r['instances_tested']} instances, expected {want}")
        if len(r["violations"]) != min(r["violations_seen"], VIOLATION_CAP):
            problems.append(f"{r['id']}: lists {len(r['violations'])} of {r['violations_seen']}")
    problems += check_probe_violations(probes)
    if w.exhaustive:
        _, census = exhaustive_census(w.n)
        for r in probes:
            if r["violations_seen"] != census[r["id"]]:
                problems.append(
                    f"{r['id']}: {r['violations_seen']} violations, oracle counts {census[r['id']]}"
                )
    return problems


def check_probe_violations(probes: list[dict]) -> list[str]:
    """Re-parse every listed probe violation and recompute both sides."""
    problems = []
    for r in probes:
        for v in r["violations"]:
            n, fam = oracle.parse_family(v["family"])
            if not oracle.is_simply_rooted(fam):
                problems.append(f"{r['id']}: listed family is not simply rooted")
                continue
            vals = oracle.probe_values(n, fam)[r["id"]]
            if vals != (v["lhs"], v["rhs"]) or vals[0] <= vals[1]:
                problems.append(
                    f"{r['id']}: report says {v['lhs']} > {v['rhs']}, oracle computes {vals}"
                )
    return problems
