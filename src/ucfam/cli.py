"""Command line surface: fm | colex | analyze | verify | search | gen.

Machine output is JSON (fraction-valued fields rendered as reduced "p/q"
strings); the verify table is cosmetic.  Exit codes: 0 pass, 1 check failure,
2 usage or parse error, 3 capacity, 4 internal error (any other exception,
printed with its traceback).  scripts/full_verify.py runs every ground size
as one `verify` call of main, so its runs keep these codes.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Sequence

from . import bitops, colex
from .core import (
    Family,
    decode_set,
    family_from_text,
    family_to_text,
    is_downset,
    is_union_closed,
    set_text,
)
from .enumeration import (
    EXHAUSTIVE_GROUND_LIMIT,
    EnumerationPlan,
    enumerate_simply_rooted,
    enumerate_union_closed,
    extremal_search,
)
from .errors import CapacityError, DomainError, ParseError
from .verify import (
    _FAMILY_CHECKS,
    CATALOG_IDS,
    Evidence,
    catalog,
    document_json,
    render_table,
    run_suite,
    suite_document,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# Largest m whose extremal construction / colex segment is listed inline;
# bigger families go through --emit-family so JSON stays readable.
INLINE_FAMILY_LIMIT = 2048


def _frac(x: Fraction | int) -> str:
    """Reduced fraction string, "7" or "7/2"; the exact-arithmetic JSON form."""
    return str(Fraction(x))


def cmd_fm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    m = args.m
    if m < 1:
        parser.error("m must be >= 1")
    n = colex.min_ground(m)
    m0 = (1 << n) - m
    doc = {
        "m": m,
        "ground": n,
        "complement_count": m0,
        "min_total_size": colex.f_extremal(m),
        "construction": None,
    }
    inline = m <= INLINE_FAMILY_LIMIT
    if inline or args.emit_family:
        fam = colex.extremal_construction(m)
    if inline:
        doc["construction"] = [set_text(s) for s in fam]
    else:
        doc["note"] = f"construction listed only for m <= {INLINE_FAMILY_LIMIT}; use --emit-family"
    if args.emit_family:
        with open(args.emit_family, "w") as fh:
            fh.write(family_to_text(fam))
        doc["family_file"] = args.emit_family
    sys.stdout.write(document_json(doc))
    return EXIT_PASS


def cmd_colex(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    m = args.m
    if m < 1:
        parser.error("m must be >= 1")
    doc = {
        "m": m,
        "ground": colex.min_ground(m),
        "total_size": colex.colex_total_size(m),
        "segment_bound": _frac(colex.segment_bound(m)),
        "segment_bound_tight": colex.segment_bound_is_tight(m),
        "members": None,
    }
    if args.list or m <= INLINE_FAMILY_LIMIT:
        if m > (1 << 16):
            raise CapacityError(f"listing capped at m <= {1 << 16}")
        doc["members"] = [set_text(s) for s in colex.initial_segment(m)]
    sys.stdout.write(document_json(doc))
    return EXIT_PASS


def _analyze_document(fam: Family) -> dict:
    """The `analyze` document, read from one evidence record: its scalar
    fields hold for any family, the rest are read only if it is simply rooted."""
    ev = Evidence(fam, tuple(bitops.rooted_masks(fam.n, fam.mask)))
    doc: dict = {
        "n": fam.n,
        "m": ev.m,
        "union_closed": is_union_closed(fam),
        "simply_rooted": not bitops.rootless(fam.mask, ev.rooted),
        "total_size": ev.total,
        "degrees": list(ev.degrees),
        "max_rooted_count": ev.q,
        "peak_rooted_fraction": _frac(Fraction(ev.q, ev.m) if ev.m else 0),
        "colex_total_size": ev.colex_m,
    }
    if not doc["simply_rooted"]:
        return doc
    moves = [0] * fam.n
    for a, g in ev.down.groups.items():
        for b in bitops.iter_bits(a):
            moves[b] += g.bit_count()
    doc["deficiency"] = sum(f.bit_count() for f in ev.fallers)
    doc["compression"] = {
        "directions": list(range(1, fam.n + 1)),
        "moves_per_direction": moves,
        "result_members": len(ev.down.result),
        "result_is_downset": is_downset(ev.down.result),
    }
    ana = ev.analysis
    doc["bad_set"] = {
        "partition_s": list(decode_set(ana.partition.s_elements)),
        "partition_t": list(decode_set(ana.partition.t_elements)),
        "bad_count": ana.b,
        "good_count": len(ana.good),
        "b1": ana.b1,
        "b2": ana.b2,
        "b3": ana.b3,
        "y_count": len(ana.y),
    }
    doc["checks"] = []
    for cid in CATALOG_IDS:
        if cid in _FAMILY_CHECKS:
            ok, lhs, rhs, _ = _FAMILY_CHECKS[cid](ev)
            doc["checks"].append({"id": cid, "lhs": lhs, "rhs": rhs, "passed": ok})
    return doc


def cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path) as fh:
            text = fh.read()
    fam = family_from_text(text)
    doc = _analyze_document(fam)
    sys.stdout.write(document_json(doc))
    ok = all(row["passed"] for row in doc.get("checks", []))
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """--n, --mode, --samples and --seed, which _plan reads."""
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)


def _plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> EnumerationPlan:
    """The plan named by --n, --mode, --samples and --seed."""
    if args.mode == "random" and args.samples <= 0:
        parser.error("--mode random needs --samples > 0")
    return EnumerationPlan(
        n=args.n, mode=args.mode, sample_count=args.samples, seed=args.seed
    )


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    plan = _plan(args, parser)
    descriptors = catalog(plan)
    selected = None
    if args.checks is not None:
        wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not wanted:
            parser.error("--checks names no check id")
        known = {d.id for d in descriptors}
        unknown = [c for c in wanted if c not in known]
        if unknown:
            parser.error(f"unknown check ids: {', '.join(unknown)}")
        descriptors = [d for d in descriptors if d.id in set(wanted)]
        selected = [d.id for d in descriptors]
    # --out is opened before the run, so a path that cannot be written fails
    # at once rather than after the whole suite
    with open(args.out, "w") if args.out else nullcontext() as out:
        reports = run_suite(descriptors, parallelism=args.parallel)
        doc = suite_document(plan, reports, selected)
        if args.json:
            sys.stdout.write(document_json(doc))
        else:
            print(render_table(reports))
        if out is not None:
            out.write(document_json(doc))
    failed = [
        r for r in reports if not r.conjecture and r.status == "fail"
    ]
    return EXIT_CHECK_FAILURE if failed else EXIT_PASS


def cmd_search(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # bad flag values are usage errors, not capacity failures
    if not 0 <= args.n <= EXHAUSTIVE_GROUND_LIMIT:
        parser.error(f"search is exhaustive; needs 0 <= --n <= {EXHAUSTIVE_GROUND_LIMIT}")
    best, classes = extremal_search(args.n, args.m)
    doc = {
        "n": args.n,
        "m": args.m,
        "min_total_size": best,
        "minimizer_classes": len(classes),
        "minimizers": [family_to_text(f) for f in classes],
    }
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write("\n".join(family_to_text(f) for f in classes))
        doc["family_file"] = args.emit
    sys.stdout.write(document_json(doc))
    return EXIT_PASS


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    plan = _plan(args, parser)
    if args.mode == "random":
        print(f"effective seed: {plan.seed}", file=sys.stderr)
    stream = enumerate_simply_rooted(plan) if args.rooted else enumerate_union_closed(plan)
    first = True
    for fam in stream:
        if args.size is not None and len(fam) != args.size:
            continue
        if args.contains_empty is not None and (0 in fam) != (args.contains_empty == "yes"):
            continue
        if not first:
            print()
        sys.stdout.write(family_to_text(fam))
        first = False
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucfam",
        description="union-closed / simply rooted family toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fm = sub.add_parser("fm", help="least total size over union-closed families of m sets")
    p_fm.set_defaults(run=cmd_fm)
    p_fm.add_argument("m", type=int)
    p_fm.add_argument("--emit-family", metavar="PATH", help="write the extremal family file")

    p_colex = sub.add_parser("colex", help="initial colex segment I(m) and its size bound")
    p_colex.set_defaults(run=cmd_colex)
    p_colex.add_argument("m", type=int)
    p_colex.add_argument("--list", action="store_true", help="force member listing")

    p_an = sub.add_parser("analyze", help="full analysis of one family file ('-' for stdin)")
    p_an.set_defaults(run=cmd_analyze)
    p_an.add_argument("path")

    p_ver = sub.add_parser("verify", help="run the inequality check suite")
    p_ver.set_defaults(run=cmd_verify)
    _add_plan_flags(p_ver)
    p_ver.add_argument("--checks", help="comma-separated check ids (default: all)")
    p_ver.add_argument("--parallel", type=int, default=1)
    p_ver.add_argument("--out", metavar="PATH", help="write the JSON report here")
    p_ver.add_argument("--json", action="store_true", help="JSON to stdout instead of the table")

    p_se = sub.add_parser("search", help="exhaustive minimizers of total size at (n, m)")
    p_se.set_defaults(run=cmd_search)
    p_se.add_argument("--n", type=int, required=True)
    p_se.add_argument("--m", type=int, required=True)
    p_se.add_argument("--emit", metavar="PATH", help="write minimizers, blank-line separated")

    p_gen = sub.add_parser("gen", help="emit families from an enumeration plan")
    p_gen.set_defaults(run=cmd_gen)
    _add_plan_flags(p_gen)
    p_gen.add_argument("--size", type=int, help="keep only families with exactly this many members")
    p_gen.add_argument("--contains-empty", choices=("yes", "no"))
    p_gen.add_argument("--rooted", action="store_true", help="simply rooted complements instead")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (CapacityError, DomainError, OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_USAGE
    except Exception as exc:  # a fault of the program, not a check result
        import traceback  # at the top it would add about 0.2 MB to every run's peak RSS

        print(f"error: internal: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
