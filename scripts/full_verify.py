"""Run the whole check suite across ground sizes and save the JSON reports.

Exhaustive for n <= 4, seeded random sampling beyond.  Each ground size is one
`ucfam verify` run, which writes its report to --outdir and prints its table.
Exit code 1 if any non-conjecture check fails anywhere; a run that exits 2
(usage), 3 (capacity) or 4 (internal error) stops the script with its code.

    python scripts/full_verify.py --outdir reports --samples 100000 --seed 7
"""
from __future__ import annotations

import argparse
import pathlib
import sys

from ucfam.cli import EXIT_CHECK_FAILURE, EXIT_PASS, main as ucfam_main
from ucfam.enumeration import EXHAUSTIVE_GROUND_LIMIT


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--samples", type=int, default=100_000, help="per random ground size")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--parallel", type=int, default=1)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("reports"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    failed = False
    for n in range(args.max_n + 1):
        mode = "exhaustive" if n <= EXHAUSTIVE_GROUND_LIMIT else "random"
        path = args.outdir / f"verify-n{n}-{mode}.json"
        argv = ["verify", "--n", str(n), "--mode", mode]
        if mode == "random":
            argv += ["--samples", str(args.samples), "--seed", str(args.seed)]
        print(f"== n = {n} ({mode}) -> {path}")
        code = ucfam_main(argv + ["--parallel", str(args.parallel), "--out", str(path)])
        if code not in (EXIT_PASS, EXIT_CHECK_FAILURE):
            return code
        failed |= code == EXIT_CHECK_FAILURE
    return EXIT_CHECK_FAILURE if failed else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
