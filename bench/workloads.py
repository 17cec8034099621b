"""The benchmark's workloads and the checkout paths it works in.

Each workload is one `ucfam verify` invocation; bench/README.md says why
each was chosen and which layers it stresses.  sampled-n6-par2 takes 12,288
samples so that its six 2,048-family shards give each of the 2 workers three.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    samples: int  # 0 for the exhaustive population
    parallel: int
    traced: int  # families per round of the traced run

    @property
    def exhaustive(self) -> bool:
        return self.samples == 0

    @staticmethod
    def plan_seed(seed: int, rep: int) -> int:
        """Verify seed of repetition `rep` in a run seeded `seed`.

        Each repetition samples a fresh plan, so a run covers many more
        families than one plan holds and the seed-to-seed spread of the mean
        family size (about 7% over ten 400-family plans at n = 10) averages out.
        """
        return seed * 1000 + rep

    def verify_argv(self, seed: int, parallel: int | None = None) -> list[str]:
        argv = ["verify", "--n", str(self.n)]
        if not self.exhaustive:
            argv += ["--mode", "random", "--samples", str(self.samples), "--seed", str(seed)]
        workers = self.parallel if parallel is None else parallel
        if workers > 1:
            argv += ["--parallel", str(workers)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exhaustive-n4", n=4, samples=0, parallel=1, traced=4960),
        Workload("sampled-n6-par2", n=6, samples=12288, parallel=2, traced=1024),
        Workload("sampled-n10", n=10, samples=400, parallel=1, traced=100),
    )
}
