"""Command-line interface: JSON reports, exit codes, formats."""

import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from pstwalk import cli, graphs, pst, spectral, verify
from pstwalk import exactpoly as xp
from pstwalk.cli import main

P3_EDGELIST = "3 2\n0 1\n1 2\n"
P2_EDGELIST = "2 1\n0 1\n"
P4_EDGELIST = "4 3\n0 1\n1 2\n2 3\n"
C4_EDGELIST = "4 4\n0 1\n1 2\n2 3\n0 3\n"
K1_EDGELIST = "1 0\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.el"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def assert_floats_are_12_digit(obj):
    if isinstance(obj, float):
        assert float(f"{obj:.12g}") == obj
    elif isinstance(obj, dict):
        for v in obj.values():
            assert_floats_are_12_digit(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_floats_are_12_digit(v)


def test_charpoly_p3(capsys, graph_file):
    code, report, err = run_json(capsys, ["charpoly", graph_file(P3_EDGELIST)])
    assert code == 0
    assert report["result"]["charpoly"] == [0, -2, 0, 1]
    assert report["schema_version"] == "1"
    assert report["command"] == "charpoly"
    assert len(report["input_digest"]) == 64
    assert report["wall_time_s"] >= 0
    assert "t^3" in err


def test_charpoly_deleted(capsys, graph_file):
    code, report, _ = run_json(
        capsys, ["charpoly", graph_file(P3_EDGELIST), "--deleted", "1"]
    )
    assert code == 0
    assert report["result"]["deleted_charpoly"] == [0, 0, 1]
    assert report["result"]["charpoly"] == [0, -2, 0, 1]


def test_charpoly_k1(capsys, graph_file):
    code, report, _ = run_json(capsys, ["charpoly", graph_file(K1_EDGELIST)])
    assert code == 0
    assert report["result"]["charpoly"] == [0, 1]


def test_charpoly_rejects_fractional_weights(capsys, graph_file):
    path = graph_file("2 1\n0 1 0.5\n")
    assert main(["charpoly", path]) == 2


@pytest.mark.parametrize("command", ["charpoly", "pst", "compose"])
def test_exact_commands_refuse_fractional_weights(capsys, graph_file, command):
    # each reaches the exact layer's one refusal, Graph._check_integer
    path = graph_file("2 1\n0 1 0.5\n")
    argv = {
        "charpoly": ["charpoly", path],
        "pst": ["pst", path, "0", "1"],
        "compose": ["compose", "--y1", path, "--a", "0", "--y2", path, "--b", "0"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: graph has non-integer weights; the exact layer needs" in captured.err


def test_charpoly_refuses_a_repeated_deleted_vertex(capsys, graph_file):
    assert main(["charpoly", graph_file(P3_EDGELIST), "--deleted", "0", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: repeated vertex in --deleted" in captured.err


def test_charpoly_rejects_weights_float64_would_round(capsys, graph_file):
    path = graph_file("2 1\n0 1 1152921504606846977\n")
    assert main(["charpoly", path]) == 2
    assert "line 2: integer weight 1152921504606846977 is not exact" in capsys.readouterr().err


def test_spectrum_c4(capsys, graph_file):
    code, report, _ = run_json(capsys, ["spectrum", graph_file(C4_EDGELIST)])
    assert code == 0
    assert report["result"]["multiplicities"] == [1, 2, 1]
    eig = report["result"]["distinct_eigenvalues"]
    assert eig == pytest.approx([2.0, 0.0, -2.0], abs=1e-9)
    assert_floats_are_12_digit(report)


def test_cospectral_examples(capsys, graph_file):
    path = graph_file(P3_EDGELIST)
    code, report, _ = run_json(capsys, ["cospectral", path, "0", "2", "--strong"])
    assert code == 0
    assert report["result"]["cospectral"] is True
    assert report["result"]["strongly_cospectral"] is True
    assert len(report["result"]["signature"]["eigenvalues"]) == 3

    code, report, _ = run_json(capsys, ["cospectral", path, "0", "1"])
    assert code == 0
    assert report["result"]["cospectral"] is False
    assert "signature" not in report["result"]


def test_pst_success(capsys, graph_file):
    code, report, err = run_json(capsys, ["pst", graph_file(P2_EDGELIST), "0", "1"])
    assert code == 0
    res = report["result"]
    assert res["status"] == "success"
    assert res["pst_time"] == pytest.approx(math.pi / 2, rel=1e-10)
    assert res["fidelity_confirmation"] >= 1 - 1e-9
    assert_floats_are_12_digit(report)
    assert "transfer" in err


def test_pst_failure(capsys, graph_file):
    code, report, _ = run_json(capsys, ["pst", graph_file(P4_EDGELIST), "1", "2"])
    assert code == 0  # a certified negative is an expected outcome
    assert report["result"]["status"] == "fail"
    assert report["result"]["failure_reason"] == "no_common_alpha"


def test_pst_same_vertex_is_input_error(capsys, graph_file):
    assert main(["pst", graph_file(P2_EDGELIST), "1", "1"]) == 2


def test_pst_rejects_fractional_weights(capsys, graph_file):
    assert main(["pst", graph_file("2 1\n0 1 0.5\n"), "0", "1"]) == 2
    assert "integer weights" in capsys.readouterr().err


def test_compose_two_singletons(capsys, graph_file):
    path = graph_file(K1_EDGELIST)
    code, report, _ = run_json(
        capsys,
        ["compose", "--y1", path, "--a", "0", "--y2", path, "--b", "0", "--bridge", "2"],
    )
    assert code == 0
    res = report["result"]
    assert res["a"] == 0 and res["b"] == 1
    assert res["edgelist"].startswith("2 1")
    assert res["analysis"]["strongly_cospectral"] is True
    assert res["analysis"]["certificate"]["status"] == "success"


def test_compose_star_centers(capsys, graph_file):
    star = graph_file("3 2\n0 1\n0 2\n")
    code, report, _ = run_json(
        capsys,
        ["compose", "--y1", star, "--a", "0", "--y2", star, "--b", "0"],
    )
    assert code == 0
    res = report["result"]
    assert res["edgelist"].startswith("6 5")
    assert res["analysis"]["certificate"]["status"] == "fail"


def test_one_decomposition_per_call(capsys, graph_file, monkeypatch):
    calls = []
    original = np.linalg.eigh

    # each call's shape: a graph is decomposed as a stack of one matrix
    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    code, report, _ = run_json(capsys, ["pst", graph_file(P2_EDGELIST), "0", "1"])
    assert code == 0 and report["result"]["status"] == "success"
    assert calls == [(1, 2, 2)]
    star = graph_file("3 2\n0 1\n0 2\n")
    calls.clear()
    code, _, _ = run_json(capsys, ["compose", "--y1", star, "--a", "0", "--y2", star, "--b", "0"])
    assert code == 0
    assert calls == [(1, 6, 6)]


def test_compose_decides_strong_cospectrality_once(capsys, graph_file, monkeypatch):
    # every numeric strong-cospectrality decision is a pair_signature call
    calls = []
    original = spectral.pair_signature

    def counting(dec, a, b, exact):
        calls.append((a, b))
        return original(dec, a, b, exact)

    for module in (spectral, pst):
        monkeypatch.setattr(module, "pair_signature", counting)
    star = graph_file("3 2\n0 1\n0 2\n")
    code, report, _ = run_json(
        capsys, ["compose", "--y1", star, "--a", "0", "--y2", star, "--b", "0"]
    )
    assert code == 0
    assert len(calls) == 1
    assert report["result"]["analysis"]["strongly_cospectral"] is True
    # a star centre and a leaf are not walk equivalent, so not strongly cospectral
    code, report, _ = run_json(
        capsys, ["compose", "--y1", star, "--a", "0", "--y2", star, "--b", "1"]
    )
    assert code == 0
    assert len(calls) == 2
    analysis = report["result"]["analysis"]
    assert analysis["strongly_cospectral"] is False
    assert analysis["certificate"]["failure_reason"] == "not_strongly_cospectral"


def test_envelope_reports_the_fixed_tolerances(capsys, graph_file):
    assert (spectral.GROUPING_TOL, spectral.SUPPORT_TOL) == (1e-9, 1e-7)
    assert verify.SCAN_THRESHOLD == 1e-6
    c4, p3 = graph_file(C4_EDGELIST, "c4.el"), graph_file(P3_EDGELIST, "p3.el")
    # both graphs have max row sum 2, which scales the grouping tolerance
    grouping = 2 * spectral.GROUPING_TOL
    cases = [
        (["spectrum", c4], {"grouping_tol": grouping}),
        (
            ["cospectral", p3, "0", "2", "--strong"],
            {"grouping_tol": grouping, "support_tol": spectral.SUPPORT_TOL},
        ),
        (["pst", p3, "0", "2"], {"support_tol": spectral.SUPPORT_TOL}),
        (
            ["search", "--bridge", "2", "--max-n", "1"],
            {"scan_threshold": verify.SCAN_THRESHOLD, "scan_t_max": 30.0},
        ),
    ]
    for argv, expected in cases:
        code, report, _ = run_json(capsys, argv)
        assert code == 0
        assert report["tolerances"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "{p3}", "--tol", "1e-9"],
        ["cospectral", "{p3}", "0", "2", "--tol", "1e-9"],
        ["cospectral", "{p3}", "0", "2", "--strong", "--support-tol", "1e-7"],
        ["pst", "{p3}", "0", "2", "--tol", "1e-9"],
        ["pst", "{p3}", "0", "2", "--support-tol", "1e-7"],
        ["pst", "{p3}", "0", "2", "--round-tol", "1e-6"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_tolerance_flags_are_gone(capsys, graph_file, argv):
    path = graph_file(P3_EDGELIST)
    with pytest.raises(SystemExit) as exc:
        main([path if arg == "{p3}" else arg for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_search_trivial_success(capsys):
    code, report, err = run_json(capsys, ["search", "--bridge", "2", "--max-n", "1"])
    assert code == 0
    res = report["result"]
    assert res["instances_tested"] == 1
    assert len(res["pst_successes"]) == 1
    assert res["nontrivial_successes"] == []
    assert "1 with transfer" in err


def test_search_reports_the_fidelity_ceiling(capsys):
    argv = ["search", "--bridge", "2", "--max-n", "2"]
    code, report, err = run_json(capsys, argv)
    assert code == 0
    check = report["result"]["scan_cross_check"]
    # K1 - K1 succeeds; of the three failures only P2 - P2
    # (the path P4, mirror-symmetric) is strongly cospectral and scanned
    assert (check["instances"], check["bucket_settled"], check["ceiling_settled"]) == (3, 2, 2)
    assert check["max_ceiling"] == pytest.approx(1 / math.sqrt(2), abs=1e-11)
    assert "2 pairs settled by side buckets, 2 failures settled by the fidelity ceiling" in err
    code, report, _ = run_json(capsys, argv + ["--no-scan"])
    assert code == 0
    check = report["result"]["scan_cross_check"]
    assert (check["instances"], check["ceiling_settled"]) == (0, 0)
    assert check["max_ceiling"] == pytest.approx(1 / math.sqrt(2), abs=1e-11)


def test_search_stdin_graph6(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"@\n")))
    code, report, _ = run_json(
        capsys, ["search", "--bridge", "2", "--max-n", "1", "--stdin-graph6"]
    )
    assert code == 0
    assert report["result"]["family"]["source"] == "stream"
    assert report["result"]["instances_tested"] == 1


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran on bad input")

    monkeypatch.setattr(cli, "search_no_pst", refuse)


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-n", "0"],
        ["--jobs", "0"],
        ["--scan-steps", "0"],
        ["--scan-t-max", "-5"],
        ["--scan-t-max", "inf"],
        ["--scan-t-max", "nan"],
    ],
    ids=["max-n", "jobs", "scan-steps", "scan-t-max", "scan-t-max-inf", "scan-t-max-nan"],
)
def test_search_rejects_bad_options(capsys, no_search, flags):
    assert main(["search", "--bridge", "2"] + flags) == 2
    assert f"input error: {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, reason",
    [
        (b"@\nDhC\n", "line 2: 5 vertices, above --max-n 4"),  # P5
        (b"\nA?\n", "line 2: graph is disconnected"),  # two isolated vertices
    ],
    ids=["larger-than-max-n", "disconnected"],
)
def test_search_rejects_bad_stdin_graphs(capsys, monkeypatch, no_search, lines, reason):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(lines)))
    assert main(["search", "--bridge", "2", "--stdin-graph6"]) == 2
    assert reason in capsys.readouterr().err


def test_search_names_the_stdin_line_above_the_orbit_limit(capsys, monkeypatch, no_search):
    n = graphs.CANONICAL_MAX_N + 1
    cycle = graphs.serialize_graph(graphs.build_cycle(n), "graph6").encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"@\n" + cycle + b"\n")))
    assert main(["search", "--bridge", "2", "--max-n", str(n), "--stdin-graph6"]) == 2
    err = capsys.readouterr().err
    assert f"stdin line 2: {n} vertices, above the orbit limit {n - 1}" in err


def test_verify_suite(capsys):
    code, report, err = run_json(
        capsys, ["verify", "--suite", "onesum", "--instances", "10"]
    )
    assert code == 0
    assert report["result"]["passed"] is True
    assert "all passed" in err


@pytest.mark.parametrize("count", ["0", "-5"], ids=["instances-zero", "instances-negative"])
def test_verify_rejects_bad_instance_counts(capsys, count):
    assert main(["verify", "--suite", "interlacing", "--instances", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: instances must be at least 1, got {count}" in captured.err


@pytest.mark.parametrize(
    "flags, option",
    [
        (["--suite", "quotient", "--instances", "3"], "instances"),
        (["--suite", "quotient", "--seed", "9"], "seed"),
        (["--suite", "quotient", "--instances", "3", "--seed", "9"], "instances"),
        (["--suite", "correspondence-p2", "--seed", "5"], "seed"),
        (["--suite", "correspondence-p3", "--instances", "3", "--seed", "5"], "seed"),
    ],
    ids=["quotient-instances", "quotient-seed", "quotient-both", "p2-seed", "p3-seed"],
)
def test_verify_rejects_options_the_suite_does_not_read(capsys, flags, option):
    assert main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: suite {flags[1]} takes no {option}" in captured.err


def test_failed_suite_exits_1(capsys, monkeypatch):
    failed = verify.SuiteResult("onesum", 3, failures=["onesum #0"])
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: failed)
    code, report, err = run_json(capsys, ["verify", "--suite", "onesum"])
    assert code == 1
    assert report["result"]["passed"] is False
    assert "suite onesum: 1 failures" in err


@pytest.mark.parametrize(
    "field, record, summary",
    [
        ("pst_successes", {"n1": 2, "n2": 1, "pst_time": 1.5, "scan_peak": 1.0}, "(1 nontrivial)"),
        ("scan_disagreements", {"n1": 1, "n2": 1, "scan_peak": 1.0}, "1 scan disagreements"),
    ],
    ids=["nontrivial-success", "scan-disagreement"],
)
def test_search_hit_exits_1(capsys, monkeypatch, field, record, summary):
    report = verify.SearchReport(bridge=2, max_n=2, source="builtin")
    getattr(report, field).append({"y1": "A_", "a": 0, "y2": "@", "b": 0, **record})
    monkeypatch.setattr(cli, "search_no_pst", lambda *args, **kwargs: report)
    code, _, err = run_json(capsys, ["search", "--bridge", "2", "--max-n", "2"])
    assert code == 1
    assert summary in err


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_stdin_edgelist(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(P3_EDGELIST.encode())))
    code, report, _ = run_json(capsys, ["charpoly", "-"])
    assert code == 0
    assert report["result"]["charpoly"] == [0, -2, 0, 1]


def test_graph6_format_flag(capsys, graph_file):
    path = graph_file("Cs", name="g.txt")
    code, report, _ = run_json(capsys, ["charpoly", path, "--format", "graph6"])
    assert code == 0
    assert report["result"]["charpoly"] == [0, 0, -3, 0, 1]


def test_graph6_format_by_extension(capsys, graph_file):
    path = graph_file("Cs", name="g.g6")
    code, report, _ = run_json(capsys, ["charpoly", path])
    assert code == 0
    assert report["result"]["charpoly"] == [0, 0, -3, 0, 1]


def test_input_errors_exit_2(capsys, graph_file):
    assert main(["charpoly", "/nonexistent/file.el"]) == 2
    assert main(["charpoly", graph_file("garbage")]) == 2
    assert main(["spectrum", graph_file("2 1\n0 9\n")]) == 2
    assert main(["cospectral", graph_file(P3_EDGELIST), "0", "9"]) == 2
    assert main(["cospectral", graph_file(P3_EDGELIST), "1", "1"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_spectrum_rejects_non_finite_weights(capsys, graph_file, weight):
    # the weight token is refused on its own line, like every other token
    assert main(["spectrum", graph_file(f"2 1\n0 1 {weight}\n")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: line 2: weights must be finite" in captured.err


def test_order_beyond_the_exact_layer_is_an_input_error(capsys, graph_file, monkeypatch):
    monkeypatch.setattr(xp, "_MAX_ORDER", 2)
    assert main(["charpoly", graph_file(P3_EDGELIST)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


def test_failed_exact_identity_is_a_verification_failure(capsys, graph_file, monkeypatch):
    # a sigma class is accepted only when m(A) x = 0 holds exactly for its
    # minimal polynomial m; refused, no class is returned
    refused = []

    def refuse(walks, m):
        refused.append(m)
        return False

    monkeypatch.setattr(xp._Krylov, "annihilated_by", refuse)
    assert main(["pst", graph_file(P3_EDGELIST), "0", "2"]) == 1
    err = capsys.readouterr().err
    assert "verification failure" in err and "annihilation check" in err
    # e_0 + e_2 in P3 has minimal polynomial t**2 - 2, the one candidate
    # its walk moments give
    assert refused == [xp.T * xp.T - 2]


def test_compose_rejects_bridges_without_identities(capsys, graph_file):
    path = graph_file(K1_EDGELIST)
    with pytest.raises(SystemExit) as exc:
        main(["compose", "--y1", path, "--a", "0", "--y2", path, "--b", "0", "--bridge", "4"])
    assert exc.value.code == 2


def test_parse_error_reports_line(capsys, graph_file):
    code = main(["charpoly", graph_file("3 2\n0 1\nbroken")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def _child_env() -> dict:
    """The environment with the repository's ``src`` first on PYTHONPATH,
    so a child interpreter imports this checkout with no install."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pstwalk", "charpoly", "-"],
        input=P2_EDGELIST,
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["charpoly"] == [-1, 0, 1]


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "pstwalk", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    for name in ("charpoly", "spectrum", "cospectral", "pst", "compose", "search", "verify"):
        assert name in proc.stdout


def test_readme_command_lines_parse():
    """Every ``pstwalk`` line of README "Command line" parses, and together
    they show every subcommand, so a renamed flag cannot linger there."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pstwalk ")]
    parser = cli._build_parser()
    commands = {parser.parse_args(argv).command for argv in lines}
    assert commands == {name[len("cmd_"):] for name in dir(cli) if name.startswith("cmd_")}
