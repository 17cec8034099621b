"""Map where the conjectured size bounds break.

The degree form ||F|| <= ||I(m)|| + max_i deg(i) survives everything we can
enumerate, but the stronger max-rooted-count form fails: the first witnesses
live at n = 4, and random sampling keeps finding violations at every larger
ground size we can reach.  This script prints the exhaustive n = 4 witness
list grouped by relabeling class, then estimates violation rates by seeded
sampling.  Both figures are the violations of the catalog probes
probe_max_rooted_bound and probe_degree_bound in `run_suite` reports.

    python scripts/probe_conjectures.py --max-n 8 --samples 20000
"""
from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from ucfam import (
    CheckReport,
    canonicalize,
    catalog,
    colex_total_size,
    complement,
    family_from_text,
    family_to_text,
    run_suite,
)
from ucfam.enumeration import EnumerationPlan
from ucfam.verify import Violation

PROBES = ("probe_max_rooted_bound", "probe_degree_bound")


def probe_rows(plan: EnumerationPlan) -> tuple[CheckReport, CheckReport]:
    """The max-rooted and degree probe rows of a run over the plan's population."""
    reports = run_suite([d for d in catalog(plan) if d.id in PROBES])
    by_id = {r.id: r for r in reports}
    return by_id[PROBES[0]], by_id[PROBES[1]]


def exhaustive_witnesses(n: int) -> tuple[int, dict[int, list[Violation]]]:
    """Violations of the max-rooted form at ground size n: their count, and the
    listed ones by canonical class."""
    rooted, _ = probe_rows(EnumerationPlan(n=n))
    classes: dict[int, list[Violation]] = defaultdict(list)
    for v in rooted.violations:
        classes[canonicalize(family_from_text(v.family)).mask].append(v)
    return rooted.violations_seen, classes


def sample_rates(n: int, samples: int, seed: int) -> tuple[int, int, int]:
    plan = EnumerationPlan(n=n, mode="random", sample_count=samples, seed=seed)
    rooted, degree = probe_rows(plan)
    return rooted.violations_seen, degree.violations_seen, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--samples", type=int, default=20_000, help="per random ground size")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    for n in range(5):
        total, classes = exhaustive_witnesses(n)
        print(f"n = {n}: {total} max-rooted violations, {len(classes)} classes")
        for mask, listed in sorted(classes.items()):
            v = listed[0]  # probe row: lhs = ||F||, rhs = ||I(m)|| + peak rooted count
            fam = family_from_text(v.family)
            m = len(fam)
            print(
                f"  class of {len(listed)} labelings, m = {m}, "
                f"||F|| = {v.lhs}, ||I(m)|| = {colex_total_size(m)}, "
                f"peak rooted = {v.rhs - colex_total_size(m)}, excess = {v.lhs - v.rhs}"
            )
            print("    representative (complement is union-closed of size "
                  f"{len(complement(fam))}):")
            for line in family_to_text(fam).splitlines():
                print(f"      {line}")

    print()
    for n in range(5, args.max_n + 1):
        rooted_bad, degree_bad, total = sample_rates(n, args.samples, args.seed)
        print(
            f"n = {n}: {rooted_bad}/{total} max-rooted violations, "
            f"{degree_bad}/{total} degree-form violations (seed {args.seed})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
