"""One `ucfam verify` process, as a user starts it, with its set-up time.

    python3 bench/child.py <spawn-monotonic> <src-dir> verify <args...>

The parent passes the CLOCK_MONOTONIC reading taken just before it started
this process.  The time from then until `import ucfam` returns is written to
stderr as `bench-setup-s <seconds>`; then the CLI entry point runs with the
remaining arguments and its return value is the exit code.
"""
import sys
import time

spawned = float(sys.argv[1])
sys.path.insert(0, sys.argv[2])

import ucfam  # noqa: E402,F401

setup_s = time.monotonic() - spawned
sys.stderr.write(f"bench-setup-s {setup_s!r}\n")

from ucfam.cli import main  # noqa: E402

sys.exit(main(sys.argv[3:]))
