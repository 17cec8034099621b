"""End-to-end CLI behavior: documents, exit codes, determinism."""
import hashlib
import io
import json
import sys

import pytest

from conftest import simply_rooted_at
from ucfam import (
    CATALOG_IDS,
    CapacityError,
    EnumerationPlan,
    Family,
    document_json,
    extremal_construction,
    family_from_text,
    family_to_text,
    indexed_rooted_sample,
    is_simply_rooted,
)
from ucfam.cli import (
    EXIT_CAPACITY,
    EXIT_CHECK_FAILURE,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    _analyze_document,
    main,
)

P2_MINUS_EMPTY = "n=2\n{1}\n{2}\n{1,2}\n"
P3_MINUS_EMPTY = "n=3\n{1}\n{2}\n{1,2}\n{3}\n{1,3}\n{2,3}\n{1,2,3}\n"
FAMILY_CHECK_IDS = [cid for cid in CATALOG_IDS if cid != "lemma_colex_total"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# fm


def test_fm_three(capsys):
    code, doc = run_json(capsys, "fm", "3")
    assert code == EXIT_PASS
    assert doc["m"] == 3
    assert doc["ground"] == 2
    assert doc["complement_count"] == 1
    assert doc["min_total_size"] == 3
    assert doc["construction"] == ["{}", "{1}", "{1,2}"]


def test_fm_powerset_and_singleton(capsys):
    code, doc = run_json(capsys, "fm", "8")
    assert code == EXIT_PASS and doc["min_total_size"] == 12
    code, doc = run_json(capsys, "fm", "1")
    assert code == EXIT_PASS and doc["min_total_size"] == 0
    assert doc["construction"] == ["{}"]


def test_fm_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fm", "0"])
    assert exc.value.code == EXIT_USAGE


def test_fm_emit_family(capsys, tmp_path):
    out = tmp_path / "extremal12.fam"
    code, doc = run_json(capsys, "fm", "12", "--emit-family", str(out))
    assert code == EXIT_PASS
    assert doc["family_file"] == str(out)
    fam = family_from_text(out.read_text())
    assert fam.mask == extremal_construction(12).mask


def test_fm_emit_family_over_ground_limit_is_capacity(capsys, tmp_path):
    out = tmp_path / "huge.fam"
    code, _, err = run_cli(capsys, "fm", "40000000", "--emit-family", str(out))
    assert code == EXIT_CAPACITY
    assert "error:" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# colex


def test_colex_nine(capsys):
    code, doc = run_json(capsys, "colex", "9")
    assert code == EXIT_PASS
    assert doc["total_size"] == 13
    assert doc["segment_bound"] == "29/2"
    assert doc["segment_bound_tight"] is False
    assert doc["members"] == [
        "{}",
        "{1}",
        "{2}",
        "{1,2}",
        "{3}",
        "{1,3}",
        "{2,3}",
        "{1,2,3}",
        "{4}",
    ]


def test_colex_tight_power_of_two(capsys):
    code, doc = run_json(capsys, "colex", "8")
    assert code == EXIT_PASS
    assert doc["total_size"] == 12
    assert doc["segment_bound"] == "12"
    assert doc["segment_bound_tight"] is True


def test_colex_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["colex", "0"])
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# analyze


def test_analyze_p2_minus_empty(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(P2_MINUS_EMPTY)
    code, doc = run_json(capsys, "analyze", str(path))
    assert code == EXIT_PASS
    assert doc["union_closed"] is True
    assert doc["simply_rooted"] is True
    assert doc["m"] == 3 and doc["total_size"] == 4
    assert doc["bad_set"]["bad_count"] == 2
    assert doc["bad_set"]["good_count"] == 1
    assert [row["id"] for row in doc["checks"]] == FAMILY_CHECK_IDS
    assert all(row["passed"] for row in doc["checks"])
    assert "stability" not in doc


def test_analyze_p3_minus_empty(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(P3_MINUS_EMPTY))
    code, doc = run_json(capsys, "analyze", "-")
    assert code == EXIT_PASS
    assert len(doc["checks"]) == 29
    assert [row["id"] for row in doc["checks"]] == FAMILY_CHECK_IDS
    assert all(row["passed"] for row in doc["checks"])
    assert all(set(row) == {"id", "lhs", "rhs", "passed"} for row in doc["checks"])
    rows = {row["id"]: row for row in doc["checks"]}
    # m = 7, q = 4: m^2 - q^2 = 33 against c * 8 * (9 + 7 - 12)
    assert (rows["thm_stability_12"]["lhs"], rows["thm_stability_12"]["rhs"]) == (33, 384)
    assert (rows["thm_stability_8"]["lhs"], rows["thm_stability_8"]["rhs"]) == (33, 256)
    assert doc["compression"]["moves_per_direction"] == [1, 1, 1]
    assert doc["compression"]["result_is_downset"] is True


def test_analyze_single_empty_set(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("n=0\n{}\n")
    code, doc = run_json(capsys, "analyze", str(path))
    assert code == EXIT_PASS
    assert doc["union_closed"] is True
    assert doc["simply_rooted"] is True
    assert doc["m"] == 1 and doc["total_size"] == 0


def test_analyze_unsorted_member_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=2\n{1}\n{2,1}\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "line 3" in err


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(P2_MINUS_EMPTY))
    code, doc = run_json(capsys, "analyze", "-")
    assert code == EXIT_PASS and doc["m"] == 3


def test_analyze_not_simply_rooted_stops_early(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("n=2\n{1,2}\n")
    code, doc = run_json(capsys, "analyze", str(path))
    assert code == EXIT_PASS
    assert doc["union_closed"] is True
    assert doc["simply_rooted"] is False
    assert "checks" not in doc and "bad_set" not in doc


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/f.txt")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


# sha256 of the `analyze` documents of every family at n <= 3 (most are not
# simply rooted and stop early), the simply rooted families at n = 4 and 100
# samples at each of n = 6 and 8 (seed 3), in that order
ANALYZE_DIGEST = "0559de73d5aef1bb134ae568a3d9732c61e247b107dbd82c23c7b6824acd19f8"


def test_analyze_document_bytes_golden():
    fams = [Family(n, mask) for n in range(4) for mask in range(1 << (1 << n))]
    fams.extend(simply_rooted_at(4))
    for n in (6, 8):
        plan = EnumerationPlan(n=n, mode="random", sample_count=100, seed=3)
        fams.extend(indexed_rooted_sample(plan, i) for i in range(100))
    h = hashlib.sha256()
    for fam in fams:
        h.update(document_json(_analyze_document(fam)).encode())
    assert len(fams) == 5438
    assert h.hexdigest() == ANALYZE_DIGEST


# ---------------------------------------------------------------------------
# verify


def test_verify_small_exhaustive_passes(capsys):
    code, doc = run_json(capsys, "verify", "--n", "2", "--json")
    assert code == EXIT_PASS
    assert len(doc["checks"]) == 30
    assert len(doc["conjecture_probes"]) == 3
    assert all(row["status"] == "pass" for row in doc["checks"])


def test_verify_probe_failure_does_not_flip_exit(capsys):
    code, doc = run_json(capsys, "verify", "--n", "4", "--json")
    assert code == EXIT_PASS
    assert all(row["status"] == "pass" for row in doc["checks"])
    probes = {row["id"]: row for row in doc["conjecture_probes"]}
    assert probes["probe_max_rooted_bound"]["status"] == "fail"
    assert probes["probe_max_rooted_bound"]["conjecture"] is True


def test_verify_checks_filter(capsys):
    code, doc = run_json(capsys, "verify", "--n", "2", "--checks", "lemma_Y_ge_Z", "--json")
    assert code == EXIT_PASS
    assert doc["run_config"]["checks"] == ["lemma_Y_ge_Z"]
    assert [row["id"] for row in doc["checks"]] == ["lemma_Y_ge_Z"]
    assert doc["conjecture_probes"] == []


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--checks", "lemma_flat_earth"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("checks", [",", " , ,", ""])
def test_verify_checks_naming_nothing_is_usage_error(capsys, checks):
    # a run that selects no check tests nothing and must not report a pass
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--checks", checks])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_parallel_below_one_is_usage_error(capsys, workers):
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--parallel", workers)
    assert code == EXIT_USAGE
    assert out == ""
    assert "parallelism" in err


def test_verify_random_needs_samples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "5", "--mode", "random"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["verify", "gen"])
@pytest.mark.parametrize(
    "flag", [("--samples", "7"), ("--seed", "5"), ("--seed", "-1")], ids=["samples", "seed", "negative-seed"]
)
def test_exhaustive_rejects_sampling_flags(capsys, command, flag):
    # an exhaustive run draws no samples, so the flags shape nothing; verify
    # used to write them into run_config all the same
    code, out, err = run_cli(capsys, command, "--n", "2", "--mode", "exhaustive", *flag)
    assert code == EXIT_USAGE
    assert out == ""
    assert "random mode only" in err


@pytest.mark.parametrize("command", ["verify --json", "gen"])
def test_exhaustive_takes_default_sampling_flags(capsys, command):
    plain = run_cli(capsys, *command.split(), "--n", "2")
    spelled = run_cli(capsys, *command.split(), "--n", "2", "--samples", "0", "--seed", "0")
    assert plain[0] == EXIT_PASS
    assert spelled == plain


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "-1"),
        ("verify", "--n", "-1", "--mode", "random", "--samples", "3"),
        ("gen", "--n", "-1"),
    ],
    ids=["verify-exhaustive", "verify-random", "gen"],
)
def test_negative_ground_size_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err


def test_verify_exhaustive_capacity(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "5")
    assert code == EXIT_CAPACITY
    assert "error:" in err


def test_verify_capacity_error_is_not_swallowed(capsys, monkeypatch):
    # a family the evidence pass cannot handle stops the run instead of passing
    def too_big(fam):
        raise CapacityError("family over capacity")

    monkeypatch.setattr("ucfam.verify.build_evidence", too_big)
    code, _, err = run_cli(capsys, "verify", "--n", "2")
    assert code == EXIT_CAPACITY
    assert "over capacity" in err


@pytest.mark.parametrize("mode", [(), ("--mode", "random", "--samples", "5")])
def test_verify_internal_error_is_not_a_check_failure(capsys, monkeypatch, mode):
    # exit 1 means a check reported violations; a fault of the program must
    # not reach the shell as that, nor pass
    def broken(fam):
        raise RuntimeError("broken rooted masks")

    monkeypatch.setattr("ucfam.verify.build_evidence", broken)
    code, out, err = run_cli(capsys, "verify", "--n", "2", *mode)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "error: internal: broken rooted masks" in err
    assert "Traceback" in err


# sha256 of the replayable JSON reports; any change to a check's outcome,
# instance count, violation list or details changes these bytes
GOLDEN_REPORTS = [
    (("--n", "4"), "5ae4d1e07ad7da167c52ee79a1db3a72a42a83b90953a5ed729d27dc220c911f"),
    (
        ("--n", "6", "--mode", "random", "--samples", "2000", "--seed", "7"),
        "d643201523e4b98f0e6fa7270a9ac1d12a0ea2e601ed264812863adfe8ace380",
    ),
    (
        ("--n", "6", "--mode", "random", "--samples", "2000", "--seed", "7", "--parallel", "2"),
        "d643201523e4b98f0e6fa7270a9ac1d12a0ea2e601ed264812863adfe8ace380",
    ),
]


@pytest.mark.parametrize("args,digest", GOLDEN_REPORTS, ids=["n4", "n6-random", "n6-random-par2"])
def test_verify_report_bytes_golden(capsys, args, digest):
    code, out, _ = run_cli(capsys, "verify", *args, "--json")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the family streams `gen` prints; pins the sampler and both stream orders
GOLDEN_STREAMS = [
    (("--n", "4", "--rooted"), "d30fc882af8826d8d6b1e22a3c852ab3dab3e42f099dee00e899c8bbf119c482"),
    (
        ("--n", "7", "--mode", "random", "--samples", "200", "--seed", "9"),
        "dacd86cf1a77527baeaeb79790d3896b5a381a43096193feafd2f6a8caa80733",
    ),
    (
        ("--n", "7", "--mode", "random", "--samples", "200", "--seed", "9", "--rooted"),
        "a5a051af7422aca303ac005783664496a9c68de2cec70905b4de588b91695634",
    ),
    (
        ("--n", "10", "--mode", "random", "--samples", "300", "--seed", "11", "--rooted"),
        "30aff59d2fcdfa6e43df3b35c41ab2921453ca233d2771d10b60fc293c7a4e98",
    ),
]


@pytest.mark.parametrize(
    "args,digest", GOLDEN_STREAMS,
    ids=["n4-rooted", "n7-random", "n7-random-rooted", "n10-random-rooted"],
)
def test_gen_stream_bytes_golden(capsys, args, digest):
    code, out, _ = run_cli(capsys, "gen", *args)
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_out_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "verify", "--n", "3", "--json", "--out", str(out)
    )
    assert code == EXIT_PASS
    assert out.read_text() == stdout


def test_verify_unwritable_out_fails_before_the_run(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran before --out was opened")

    monkeypatch.setattr("ucfam.cli.run_suite", never)
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run_cli(
        capsys, "verify", "--n", "6", "--mode", "random", "--samples", "2000",
        "--seed", "7", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == "" and "No such file or directory" in err
    assert not out.parent.exists()


def test_verify_random_run_reproducible(capsys):
    argv = ("verify", "--n", "5", "--mode", "random", "--samples", "300",
            "--seed", "9", "--json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_table_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == EXIT_PASS
    assert out.splitlines()[0].split() == [
        "check", "status", "instances", "violations", "seconds"
    ]
    assert "conjecture probes:" in out


# ---------------------------------------------------------------------------
# search


def test_search_small_minimum(capsys):
    code, doc = run_json(capsys, "search", "--n", "2", "--m", "3")
    assert code == EXIT_PASS
    assert doc["min_total_size"] == 3
    assert doc["minimizer_classes"] == 1
    assert len(doc["minimizers"]) == 1


def test_search_full_powerset(capsys):
    code, doc = run_json(capsys, "search", "--n", "3", "--m", "8")
    assert code == EXIT_PASS
    assert doc["min_total_size"] == 12
    assert doc["minimizer_classes"] == 1


def test_search_emit(capsys, tmp_path):
    out = tmp_path / "mins.txt"
    code, doc = run_json(capsys, "search", "--n", "2", "--m", "3", "--emit", str(out))
    assert code == EXIT_PASS
    fam = family_from_text(out.read_text())
    assert len(fam) == 3 and fam.total_size() == 3


def test_search_over_capacity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "5", "--m", "3"])
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# gen


def _parse_blocks(out):
    return [family_from_text(block) for block in out.split("\n\n") if block.strip()]


def test_gen_exhaustive_count(capsys):
    code, out, err = run_cli(capsys, "gen", "--n", "2")
    assert code == EXIT_PASS
    assert err == ""  # no seed line outside random mode
    assert len(_parse_blocks(out)) == 14


def test_gen_filters(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--n", "2", "--size", "2", "--contains-empty", "yes"
    )
    assert code == EXIT_PASS
    fams = _parse_blocks(out)
    assert len(fams) == 3
    assert all(len(f) == 2 and 0 in f for f in fams)


GEN_FILTERS = [
    (("--contains-empty", "yes"), lambda f: 0 in f),
    (("--contains-empty", "no"), lambda f: 0 not in f),
    (("--size", "4"), lambda f: len(f) == 4),
    (("--size", "4", "--contains-empty", "no"), lambda f: len(f) == 4 and 0 not in f),
]


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "3"),
        ("--n", "3", "--rooted"),
        ("--n", "4", "--mode", "random", "--samples", "30", "--seed", "2"),
        ("--n", "4", "--mode", "random", "--samples", "30", "--seed", "2", "--rooted"),
    ],
    ids=["exhaustive", "exhaustive-rooted", "random", "random-rooted"],
)
def test_gen_filters_the_printed_stream(capsys, argv):
    # one rule in every mode: the filtered output is the unfiltered output's
    # passing blocks, in order
    _, out, _ = run_cli(capsys, "gen", *argv)
    stream = _parse_blocks(out)
    kept = []
    for flags, keep in GEN_FILTERS:
        code, filtered, _ = run_cli(capsys, "gen", *argv, *flags)
        assert code == EXIT_PASS
        assert _parse_blocks(filtered) == [f for f in stream if keep(f)]
        kept.append(len(_parse_blocks(filtered)))
    assert any(0 < k < len(stream) for k in kept)


def test_gen_unreachable_filter_prints_nothing(capsys):
    argv = ("gen", "--n", "3", "--mode", "random", "--samples", "1", "--size", "9")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    assert out == ""
    assert "effective seed: 0" in err


def test_gen_rooted_stream(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "2", "--rooted")
    assert code == EXIT_PASS
    fams = _parse_blocks(out)
    assert len(fams) == 14
    assert all(is_simply_rooted(f) for f in fams)


def test_gen_random_prints_seed_and_repeats(capsys):
    argv = ("gen", "--n", "6", "--mode", "random", "--samples", "5", "--seed", "5")
    code, first, err = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    assert "effective seed: 5" in err
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert len(_parse_blocks(first)) == 5
