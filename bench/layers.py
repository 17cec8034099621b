"""The traced run: per-layer figures for one workload, in one process.

It imports ucfam from the checkout's src and times calls into the public
functions of each module; the program itself is not changed.  Per family,
on the workload's first `traced` families, in rounds until --seconds pass:

* `build_evidence`, then a replay of its stages through the public functions
  (`bitops.rooted_masks`, `partition_search`, `classify_sets`, two
  `full_down`, `full_up` of the complement, `stability.z_family`).  Each
  replay must reach the same objects as the evidence record.
* every registered family-scope check, called on the prebuilt evidence.

Once per run: the exhaustive union-closed table (cold), the sampler over the
whole population, call counts over evidence plus checks (each counted
function wrapped in every ucfam namespace that binds it), the two global
checks, `run_suite` serial and on 2 workers, and report rendering.

Times are per family in ms unless the name ends in _s.  Spans go in memory
and are written to bench/results/ when the run ends.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

import checks
from workloads import RESULTS, SRC, Workload

sys.path.insert(0, str(SRC))

from ucfam import (  # noqa: E402
    EnumerationPlan,
    bitops,
    classify_sets,
    complement,
    compression,
    core,
    enumerate_union_closed,
    full_down,
    full_up,
    indexed_rooted_sample,
    partition_search,
    verify,
    z_family,
)
from ucfam.verify import (  # noqa: E402
    CATALOG_IDS,
    PROBE_IDS,
    build_evidence,
    catalog,
    document_json,
    render_table,
    run_suite,
    suite_document,
)

TABLE_GROUND = 4  # the exhaustive table exists only at n <= 4
SPAN_FAMILIES = 16  # families of the first round that get per-stage spans
RENDER_REPEATS = 20
COUNTED = (
    (bitops, "rooted_mask"),
    (core, "is_simply_rooted"),
    (core, "is_union_closed"),
    (compression, "full_down"),
    (compression, "full_up"),
)
STAGES = (
    "rooted_masks",
    "partition_search",
    "classify_sets",
    "side_sweeps",
    "up_sweep",
    "z_mask",
)
ns = time.perf_counter_ns


class Spans:
    """Spans as (id, name, start_ns, end_ns, parent id, family index)."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(self, name: str, t0: int, t1: int, parent: int | None = None, family: int | None = None) -> int:
        self.rows.append((len(self.rows), name, t0, t1, parent, family))
        return len(self.rows) - 1

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "family")
        path.write_text(json.dumps([dict(zip(keys, r)) for r in self.rows]) + "\n")


class CallCounter:
    """Wraps each counted function in every loaded ucfam module that binds it."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "CallCounter":
        for home, name in COUNTED:
            original = getattr(home, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                self.counts[_name] += 1
                return _fn(*args, **kwargs)

            counted = wraps(original)(counted)
            for modname, mod in list(sys.modules.items()):
                if (modname == "ucfam" or modname.startswith("ucfam.")) and getattr(mod, name, None) is original:
                    setattr(mod, name, counted)
                    self.patched.append((mod, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in self.patched:
            setattr(mod, name, original)
        self.patched.clear()


def family_checks() -> list[tuple[str, object]]:
    """The 32 family-scope checks, in catalog order."""
    return [(cid, verify._FAMILY_CHECKS[cid]) for cid in CATALOG_IDS + PROBE_IDS if cid in verify._FAMILY_CHECKS]


def replay_mismatches(fam, ev, stage_ns: dict[str, int], spans: Spans | None, parent: int | None, index: int) -> list[str]:
    """Replay build_evidence's stages, timing each, and compare with the record."""
    t = [ns()]
    rooted = bitops.rooted_masks(fam.n, fam.mask)
    t.append(ns())
    part = partition_search(fam)
    t.append(ns())
    ana = classify_sets(fam, part)
    t.append(ns())
    _, tr_s = full_down(ana.side_s)
    _, tr_t = full_down(ana.side_t)
    t.append(ns())
    comp = complement(fam)
    t.append(ns())
    _, up = full_up(comp)
    t.append(ns())
    z = z_family(fam, ana.side_s, ana.side_t)
    t.append(ns())
    bounds = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]  # complement() is not a stage
    for stage, (a, b) in zip(STAGES, bounds):
        stage_ns[stage] += t[b] - t[a]
        if spans is not None:
            spans.add(f"evidence.{stage}", t[a], t[b], parent, index)

    a = ev.analysis
    wrong = []
    if tuple(rooted) != ev.rooted:
        wrong.append("rooted masks")
    if part != a.partition:
        wrong.append("partition")
    if (ana.side_s.mask, ana.side_t.mask) != (a.side_s.mask, a.side_t.mask):
        wrong.append("side masks")
    if (ana.b1, ana.b2, ana.b3) != (a.b1, a.b2, a.b3):
        wrong.append("b1/b2/b3")
    if (tr_s.prefix_masks, tr_s.moves, tr_t.prefix_masks, tr_t.moves) != (
        ev.trace_s.prefix_masks, ev.trace_s.moves, ev.trace_t.prefix_masks, ev.trace_t.moves
    ):
        wrong.append("side sweeps")
    if (up.prefix_masks, up.moves) != (ev.up.prefix_masks, ev.up.moves):
        wrong.append("up sweep")
    if z.mask != ev.z_mask:
        wrong.append("Z mask")
    return wrong


def plan_of(w: Workload, seed: int) -> EnumerationPlan:
    """The plan `ucfam verify` builds from the workload's arguments."""
    if w.exhaustive:
        return EnumerationPlan(n=w.n, mode="exhaustive")
    return EnumerationPlan(n=w.n, mode="random", sample_count=w.samples, seed=w.plan_seed(seed, 0))


def enumeration_figures(w: Workload, seed: int, size: int, plan, spans: Spans) -> tuple[float, float, list]:
    """Cold table build and per-family sampler time; returns them with the population."""
    # the table is cached for the process, so only this first build is cold
    t0 = ns()
    table = list(enumerate_union_closed(EnumerationPlan(n=TABLE_GROUND)))
    t1 = ns()
    spans.add("enumeration.table", t0, t1)
    table_s = (t1 - t0) / 1e9

    # the sampler over a whole population (at n = 4 for the exhaustive workload)
    sample_plan = plan if not w.exhaustive else EnumerationPlan(
        n=w.n, mode="random", sample_count=size, seed=w.plan_seed(seed, 0)
    )
    sampled = []
    sample_ns = 0
    for i in range(size):
        t0 = ns()
        sampled.append(indexed_rooted_sample(sample_plan, i))
        t1 = ns()
        sample_ns += t1 - t0
        if i < SPAN_FAMILIES:
            spans.add("enumeration.sample", t0, t1, family=i)
    population = [complement(f) for f in table] if w.exhaustive else sampled
    return table_s, sample_ns / size / 1e6, population


def count_calls(traced: list, fchecks: list) -> dict[str, float]:
    """Calls per family of each counted function, over evidence plus checks."""
    with CallCounter() as counter:
        for fam in traced:
            ev = build_evidence(fam)
            for _, fn in fchecks:
                fn(ev)
    return {name: counter.counts[name] / len(traced) for _, name in COUNTED}


def traced_rounds(traced: list, fchecks: list, seconds: int, spans: Spans) -> dict:
    """Whole rounds over the traced families until `seconds` pass.

    Each round times evidence, its stage replays and every check per family,
    then runs the same evidence and checks untimed as one block, so the
    difference between the two is the tracing overhead on the same families.
    """
    out = {
        "evidence_ns": 0,
        "untraced_ns": 0,
        "stage_ns": defaultdict(int),
        "check_ns": defaultdict(int),
        "attempted": 0,
        "failed": 0,
        "rounds": 0,
        "problems": [],
    }
    start = time.monotonic()
    while out["rounds"] == 0 or time.monotonic() - start < seconds:
        r0 = ns()
        for index, fam in enumerate(traced):
            record = out["rounds"] == 0 and index < SPAN_FAMILIES
            t0 = ns()
            ev = build_evidence(fam)
            t1 = ns()
            out["evidence_ns"] += t1 - t0
            parent = spans.add("evidence", t0, t1, family=index) if record else None
            wrong = replay_mismatches(fam, ev, out["stage_ns"], spans if record else None, parent, index)
            if wrong:
                out["problems"].append(f"family {index}: replay differs in {', '.join(wrong)}")
            bad = False
            for cid, fn in fchecks:
                t0 = ns()
                ok = fn(ev)[0]
                t1 = ns()
                out["check_ns"][cid] += t1 - t0
                if record:
                    spans.add(f"check.{cid}", t0, t1, family=index)
                bad |= not ok and cid not in PROBE_IDS
            out["attempted"] += 1
            out["failed"] += bad
        r1 = ns()
        for fam in traced:
            ev = build_evidence(fam)
            for _, fn in fchecks:
                fn(ev)
        r2 = ns()
        out["untraced_ns"] += r2 - r1
        spans.add("round.traced", r0, r1)
        spans.add("round.untraced", r1, r2)
        out["rounds"] += 1
    return out


def suite_figures(w: Workload, plan, size: int, spans: Spans) -> tuple[dict, list[str]]:
    """Global checks, run_suite serial and on 2 workers, and report rendering."""
    problems = []
    figures = {}
    for cid in ("lemma_colex_total", "lemma_deficiency"):
        t0 = ns()
        tally = verify._GLOBAL_CHECKS[cid](plan)
        t1 = ns()
        spans.add(f"global.{cid}", t0, t1)
        figures[f"global.{cid}_s"] = ((t1 - t0) / 1e9, "s")
        if tally.violations:
            problems.append(f"global {cid}: {len(tally.violations)} violations")

    # the serial family pass is the sum of its shard spans
    descriptors = catalog(plan)
    shard_spans = []
    original_shard = verify._run_shard

    @wraps(original_shard)
    def timed_shard(args):
        t0 = ns()
        out = original_shard(args)
        shard_spans.append((t0, ns()))
        return out

    verify._run_shard = timed_shard
    try:
        t0 = ns()
        serial = run_suite(descriptors, parallelism=1)
        t1 = ns()
    finally:
        verify._run_shard = original_shard
    suite_id = spans.add("suite.serial", t0, t1)
    for a, b in shard_spans:
        spans.add("suite.shard", a, b, parent=suite_id)
    serial_s = (t1 - t0) / 1e9
    t0 = ns()
    parallel = run_suite(descriptors, parallelism=2)
    t1 = ns()
    spans.add("suite.parallel2", t0, t1)
    parallel_s = (t1 - t0) / 1e9
    figures["suite.family_pass_s"] = (sum(b - a for a, b in shard_spans) / 1e9, "s")
    figures["suite.parallel_speedup"] = (serial_s / parallel_s, "ratio")

    doc_serial = document_json(suite_document(plan, serial))
    if document_json(suite_document(plan, parallel)) != doc_serial:
        problems.append("run_suite report differs between 1 and 2 workers")
    problems += checks.check_report(json.loads(doc_serial), w, size)

    render = []
    for _ in range(RENDER_REPEATS):
        t0 = ns()
        document_json(suite_document(plan, serial))
        render_table(serial)
        t1 = ns()
        render.append(t1 - t0)
    spans.add("report.render", t0, t1)
    figures["report.render_ms"] = (statistics.median(render) / 1e6, "ms")
    return figures, problems


def run(w: Workload, seed: int, seconds: int) -> dict:
    spans = Spans()
    size = checks.population(w)
    plan = plan_of(w, seed)
    table_s, sample_ms, population = enumeration_figures(w, seed, size, plan, spans)
    problems = []
    if len(population) != size:
        problems.append(f"population has {len(population)} families, expected {size}")
    traced = population[: w.traced]
    sizes = [len(f) for f in population]
    print(
        f"{w.name}: {len(population)} families, mean m {statistics.mean(sizes):.1f}, "
        f"max m {max(sizes)}; traced {len(traced)} per round",
        file=sys.stderr,
    )

    fchecks = family_checks()
    calls = count_calls(traced, fchecks)
    loop = traced_rounds(traced, fchecks, seconds, spans)
    problems += loop["problems"]
    suite, suite_problems = suite_figures(w, plan, size, spans)
    problems += suite_problems

    def per_family_ms(total_ns: int) -> float:
        return total_ns / loop["attempted"] / 1e6

    check_ns = loop["check_ns"]
    overhead_ms = per_family_ms(loop["evidence_ns"] + sum(check_ns.values()) - loop["untraced_ns"])
    print(
        f"{w.name}: tracing overhead {overhead_ms:+.4f} ms per family on "
        f"{per_family_ms(loop['untraced_ns']):.4f} ms untraced (evidence plus checks)",
        file=sys.stderr,
    )

    metrics = {
        "enumeration.table_s": (table_s, "s"),
        "enumeration.sample_ms": (sample_ms, "ms"),
        "evidence.ms": (per_family_ms(loop["evidence_ns"]), "ms"),
    }
    for stage in STAGES:
        metrics[f"evidence.{stage}_ms"] = (per_family_ms(loop["stage_ns"][stage]), "ms")
    for _, name in COUNTED:
        metrics[f"calls.{name}"] = (calls[name], "count")
    for cid, _ in fchecks:
        metrics[f"check.{cid}.ms"] = (per_family_ms(check_ns[cid]), "ms")
    metrics["checks.ms"] = (per_family_ms(sum(check_ns.values())), "ms")
    metrics.update(suite)

    spans.write(RESULTS / f"{w.name}-seed{seed}-spans.json")
    return {
        "problems": problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
        "extra": {
            "population": {"size": size, "mean_m": statistics.mean(sizes), "max_m": max(sizes)},
            "rounds": loop["rounds"],
            "untraced_ms_per_family": per_family_ms(loop["untraced_ns"]),
            "tracing_overhead_ms_per_family": overhead_ms,
        },
    }
