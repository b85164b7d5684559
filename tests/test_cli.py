import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import wishmom
from wishmom.budgets import CONVENTIONS, IDENTITIES
from wishmom.cli import main, run

from conftest import PAPER_M, PAPER_N, PAPER_SIGMA


def matrix_doc(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


@pytest.fixture
def paper_file(tmp_path):
    doc = {
        "n": PAPER_N,
        "sigma": matrix_doc(PAPER_SIGMA),
        "m_matrix": matrix_doc(PAPER_M),
        "convention": "paper",
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cumulants_paper_fixture(paper_file):
    code, out = run(["cumulants", paper_file, "--order", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["convention"] == "paper"
    assert doc["command"] == "cumulants"
    assert len(doc["input_sha256"]) == 64
    assert doc["library_version"]
    first = doc["results"]["orders"][0]["value"]
    assert abs(first["re"] - 0.09629) < 1e-5
    assert abs(first["im"]) < 1e-12


def test_output_is_byte_identical(paper_file):
    code1, out1 = run(["moments", paper_file, "--order", "4"])
    code2, out2 = run(["moments", paper_file, "--order", "4"])
    assert code1 == code2 == 0
    assert out1 == out2
    # keys sorted at every level
    doc = json.loads(out1)
    assert list(doc) == sorted(doc)


def test_convention_override(paper_file):
    _, out_paper = run(["cumulants", paper_file, "--order", "1"])
    _, out_std = run(["cumulants", paper_file, "--order", "1",
                      "--convention", "standard"])
    v_paper = json.loads(out_paper)["results"]["orders"][0]["value"]["re"]
    v_std = json.loads(out_std)["results"]["orders"][0]["value"]["re"]
    assert abs((v_std - v_paper) - 2 * 0.001) < 1e-12  # 2 Tr(M)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(["cumulants", str(bad)])
    assert code == 2
    assert "validation error" in out


def test_missing_file_and_missing_flags(tmp_path):
    code, _ = run(["cumulants", str(tmp_path / "absent.json")])
    assert code == 2
    code, out = run(["necklaces"])
    assert code == 2
    assert "kind" in out


def test_necklaces_command():
    code, out = run(["necklaces", "--kind", "1,1,1"])
    assert code == 0
    doc = json.loads(out)
    reps = [row["representative"] for row in doc["results"]["necklaces"]]
    assert reps == ["123", "132"]


def test_joint_commands(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = a @ a.conj().T / 2
    h1 = rng.normal(size=(2, 2))
    h2 = rng.normal(size=(2, 2))
    doc = {
        "n": 4,
        "sigma": matrix_doc(sigma),
        "h": [matrix_doc(h1), matrix_doc(h2)],
        "index": [1, 1],
        "convention": "standard",
    }
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(doc))
    code, out = run(["joint-moments", str(path)])
    assert code == 0
    got = json.loads(out)["results"]["value"]
    from wishmom import build, joint_moment
    params, _ = build(4, sigma, None, "standard")
    want = joint_moment(params, [h1, h2], (1, 1))
    assert abs(complex(got["re"], got["im"]) - want) < 1e-12 * abs(want)
    code, out = run(["joint-cumulants", str(path), "--index", "1,2"])
    assert code == 0
    assert json.loads(out)["results"]["index"] == [1, 2]


def test_generalized_command(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = a @ a.conj().T / 2
    doc = {
        "n": 3,
        "sigma": matrix_doc(sigma),
        "h": [matrix_doc(np.eye(2)), matrix_doc(np.eye(2))],
        "index": [2, 1],  # one-line permutation images: the transposition
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    code, out = run(["generalized", str(path)])
    assert code == 0
    doc_out = json.loads(out)
    assert doc_out["results"]["fully_evaluated"] is True  # central input
    assert len(doc_out["results"]["terms"]) == 4


def test_generalized_reads_images_by_the_integer_rule(tmp_path, capsys):
    # [2.0, 3.0, 1.0] is the 3-cycle [2, 3, 1]; true is not an image
    doc = {"n": 3, "sigma": matrix_doc(np.diag([1.0, 2.0])),
           "h": [matrix_doc(np.eye(2)), matrix_doc([[1.0, 0.5], [0.5, 3.0]]),
                 matrix_doc(np.diag([2.0, -1.0]))]}
    outs = []
    for images in ([2, 3, 1], [2.0, 3.0, 1.0], [True, 3, 1]):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({**doc, "index": images}))
        code = main(["generalized", str(path)])
        outs.append((code, capsys.readouterr().out))
    (code_int, out_int), (code_real, out_real), (code_bool, out_bool) = outs
    assert code_int == code_real == 0
    value = json.loads(out_int)["results"]["evaluated_sum"]
    assert value["re"] != 0
    assert json.loads(out_real)["results"]["evaluated_sum"] == value
    assert (code_bool, out_bool) == (2, "")


def test_permanent_command(tmp_path):
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "perm.json"
    path.write_text(json.dumps({"n": 1, "sigma": matrix_doc(y)}))
    code, out = run(["permanent", str(path), "--d", "1"])
    assert code == 0
    assert json.loads(out)["results"]["value"]["re"] == pytest.approx(10.0)
    code, out = run(["permanent", str(path), "--d", "-1", "--index", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["route"] == "master"
    # per_{-1} = (-1)^p det
    assert doc["results"]["value"]["re"] == pytest.approx(1 * 4 - 2 * 3)


def test_polykay_command(tmp_path):
    x = np.diag([1.0, 2.0, 3.0])
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 1, "sigma": matrix_doc(x)}))
    code, out = run(["polykay", str(path), "--order", "2"])
    assert code == 0
    rows = json.loads(out)["results"]["orders"]
    assert rows[0]["value"] == pytest.approx(2.0)  # mean eigenvalue


@pytest.mark.parametrize("order", ["5", "9"])
def test_polykay_order_past_four_names_the_option(tmp_path, order):
    # rejected from the request's shape, before the matrix is read: a 2 x 2
    # input would otherwise report that order 3 needs a larger sample
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 1, "sigma": matrix_doc(np.eye(2))}))
    code, out = run(["polykay", str(path), "--order", order])
    assert code == 2
    assert out.startswith("validation error") and "--order" in out


def test_exit_code_numerical(tmp_path):
    doc = {
        "n": 2,
        "sigma": matrix_doc(np.diag([1.0, 0.0])),
        "m_matrix": matrix_doc(np.eye(2)),
        "h": [matrix_doc(np.eye(2)), matrix_doc(np.eye(2))],
        "index": [1, 1],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, out = run(["joint-moments", str(path)])
    assert code == 3
    assert "SingularMatrix" in out


@pytest.mark.parametrize("args", [
    ["moments", "--order", "3"],
    ["joint-moments"],
    ["cumulants"],
    ["joint-cumulants"],
    ["polykay", "--order", "4"],
    ["permanent", "--index", "2,1"],
    ["mc-verify", "--samples", "2000", "--seed", "1"],
])
def test_overflow_exits_3(tmp_path, capsys, args):
    # finite inputs whose results overflow: a numerical error, not a traceback
    doc = {"n": 3, "sigma": {"re": [[1e200, 0], [0, 1]]},
           "h": [matrix_doc(np.eye(2))], "index": [3]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([args[0], str(path), *args[1:]])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error")
    # the NumericalError alone reports the overflow: numpy prints no warning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("args, doc", [
    (["generalized", "--index", "1,2"],
     {"n": 1e200, "sigma": {"re": [[1, 0], [0, 1]]}, "h": [{"re": [[1, 0], [0, 1]]}] * 2}),
    (["permanent", "--d", "1e100"], {"sigma": {"re": np.eye(4).tolist()}}),
])
def test_python_power_overflow_exits_3(tmp_path, capsys, args, doc):
    # n ** 2 and d ** 4 overflow in a Python power, which raises
    # OverflowError where numpy gives inf: a numerical error, not a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main([args[0], str(path), *args[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows" in captured.err


@pytest.mark.parametrize("command", ["moments", "cumulants"])
def test_sequence_overflow_exits_3(tmp_path, capsys, command):
    # only the order-20 entry overflows (the moment in its final
    # convolution): a numerical error, not an invalid sequence
    doc = {"n": 1, "sigma": {"re": [[1e15]]}, "m_matrix": {"re": [[1e15]]}}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--order", "20", "--convention", "standard"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error")


@pytest.mark.parametrize("args", [
    ["cumulants", "--order", "171"],
    ["joint-cumulants", "--index", "171"],
    ["permanent", "--index", "171"],
])
def test_orders_past_170_under_a_raised_budget_exit_3_or_0(tmp_path, capsys, monkeypatch, args):
    # each request needs 171!, an int past the float range: an overflow
    # (exit 3, nothing on stdout) or a number, never a traceback, and at
    # once: none of these routes enumerates partitions (CPU time, which a
    # busy host does not inflate)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    doc = {"n": 2, "sigma": matrix_doc([[0.02]]), "m_matrix": matrix_doc([[0.001]]),
           "h": [matrix_doc([[1.0]])]}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    start = time.process_time()
    code = main([args[0], str(path), *args[1:]])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code in (0, 3), captured.err
    if code == 3:
        assert captured.out == ""
        assert "overflows" in captured.err
    assert elapsed < 0.1


def test_moments_past_the_partition_walk_cap_exit_4_at_once(tmp_path, capsys, monkeypatch):
    # order 171 is inside a raised order budget, but its one Sheffer pass
    # would walk far more partitions than the fixed cap: rejected before
    # any walk, with nothing on stdout
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"n": 2, "sigma": matrix_doc([[0.02]])}))
    start = time.process_time()
    code = main(["moments", str(path), "--order", "171"])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == ("budget exceeded: moment sequence to order 171 walks more than "
                            "1000000 integer partitions, over the partition-walk cap\n")
    assert elapsed < 0.1


def test_exit_code_budget(paper_file):
    code, out = run(["moments", paper_file, "--order", "25"])
    assert code == 4
    assert "budget" in out
    code, out = run(["necklaces", "--kind", "6,6"])
    assert code == 4
    assert "necklace weight" in out


def test_budget_message_names_the_override(paper_file, monkeypatch):
    monkeypatch.delenv("WISHMOM_MAX_BUDGET", raising=False)
    code, out = run(["moments", paper_file, "--order", "25"])
    assert code == 4
    assert out == "budget exceeded: moment order=25 exceeds budget 20\n"
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "4")
    code, out = run(["cumulants", paper_file, "--order", "6"])
    assert code == 4
    assert out == ("budget exceeded: cumulant order=6 exceeds budget 4"
                   " (set by WISHMOM_MAX_BUDGET)\n")
    # one variable sets the budget: the old spelling WISHART_MAX_BUDGET
    # is not read, so the default applies
    monkeypatch.delenv("WISHMOM_MAX_BUDGET")
    monkeypatch.setenv("WISHART_MAX_BUDGET", "4")
    code, _ = run(["cumulants", paper_file, "--order", "6"])
    assert code == 0
    code, out = run(["cumulants", paper_file, "--order", "21"])
    assert (code, out) == (4, "budget exceeded: cumulant order=21 exceeds budget 20\n")


def test_mc_verify_over_the_monte_carlo_cap_exits_4(tmp_path, capsys, monkeypatch):
    # 10^12 samples of three exact traces of a 2 x 2 matrix, 6 * 10^12
    # variates: rejected before any draw, also under a raised order budget
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "1000000000000000")
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"n": 3, "sigma": matrix_doc(np.eye(2))}))
    code = main(["mc-verify", str(path), "--samples", "1000000000000"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == ("budget exceeded: mc-verify draws 6000000000000 random "
                            "variates, over the Monte Carlo cap 1000000000\n")


def test_mc_verify_cap_counts_the_matrix_dimension(tmp_path):
    # the cost is 3 p variates a sample: 2 * 10^8 samples are 1.2 * 10^9
    # variates at p = 2 and 1.8 * 10^9 at p = 3, both over the cap
    for p in (2, 3):
        path = tmp_path / f"p{p}.json"
        path.write_text(json.dumps({"n": 3, "sigma": matrix_doc(np.eye(p))}))
        code, out = run(["mc-verify", str(path), "--samples", "200000000"])
        assert code == 4
        assert f"draws {3 * p * 200_000_000} random variates" in out


# one valid request of every subcommand but mc-verify, on one document
_REQUESTS = [
    ("moments", ["--order", "2"]),
    ("cumulants", ["--order", "2"]),
    ("joint-moments", ["--index", "2"]),
    ("joint-cumulants", ["--index", "2"]),
    ("generalized", ["--index", "1"]),
    ("permanent", ["--index", "1,1"]),
    ("permanent", []),
    ("polykay", ["--order", "2"]),
    ("necklaces", ["--kind", "2,1"]),
]


@pytest.mark.parametrize("command, options", _REQUESTS)
def test_every_subcommand_reports_the_convention_option(tmp_path, command, options):
    # --convention overrides the document's convention, else the document's
    # is reported; the convention is decided once, for every subcommand
    doc = {"n": 3, "sigma": matrix_doc(np.diag([1.0, 2.0])), "h": [matrix_doc(np.eye(2))],
           "convention": "paper"}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    for argv, want in ((options, "paper"), (options + ["--convention", "standard"], "standard")):
        code, out = run([command, str(path), *argv])
        assert code == 0, out
        assert json.loads(out)["convention"] == want
        code, out = run([command, str(path), *argv, "--format", "csv"])
        assert code == 0, out
        assert out.splitlines()[1].endswith("," + want)


def test_csv_format(paper_file):
    code, out = run(["cumulants", paper_file, "--order", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,value_re,value_im,convention"
    assert len(lines) == 3
    assert lines[1].endswith(",paper")


def test_generalized_csv_is_one_row_of_the_evaluated_sum(tmp_path):
    # the evaluated sum, whether every factor was evaluated and how many
    # stayed symbolic: the document's scalar fields, read from its JSON
    doc = {"n": 3, "sigma": matrix_doc(np.diag([1.0, 2.0])),
           "m_matrix": matrix_doc(np.diag([0.5, 0.1])),
           "h": [matrix_doc(np.eye(2)), matrix_doc(np.diag([1.0, 2.0]))]}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    for convention in CONVENTIONS:
        argv = ["generalized", str(path), "--index", "2,1", "--convention", convention]
        code, out = run(argv)
        assert code == 0, out
        results = json.loads(out)["results"]
        code, table = run(argv + ["--format", "csv"])
        assert code == 0, table
        header, row = table.splitlines()
        assert header == ("evaluated_sum_re,evaluated_sum_im,fully_evaluated,"
                          "symbolic_factor_count,convention")
        re, im, *rest = row.split(",")
        assert (float(re), float(im)) == (results["evaluated_sum"]["re"],
                                          results["evaluated_sum"]["im"])
        assert rest == [str(results["fully_evaluated"]),
                        str(results["symbolic_factor_count"]), convention]


def test_stdin_input(monkeypatch, capsys):
    import io
    import sys

    doc = json.dumps({"n": 2, "sigma": {"re": [[1.0, 0.0], [0.0, 1.0]]}})

    class FakeStdin:
        buffer = io.BytesIO(doc.encode())

    monkeypatch.setattr(sys, "stdin", FakeStdin)
    code, out = run(["cumulants", "-", "--order", "1"])
    assert code == 0
    assert json.loads(out)["results"]["orders"][0]["value"]["re"] == pytest.approx(4.0)


def test_mc_verify_command(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = a @ a.conj().T / 2
    m = a.conj().T @ a / 4
    doc = {"n": 3, "sigma": matrix_doc(sigma), "m_matrix": matrix_doc(m)}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(doc))
    code, out = run(["mc-verify", str(path), "--identity", "sheffer",
                     "--samples", "20000", "--seed", "5", "--n2", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["convention"] == "standard"
    assert report["seed"] == 5
    assert report["results"]["max_abs_z"] <= 5.0
    # mc-verify reports "standard" whatever the option asks
    code, out = run(["mc-verify", str(path), "--samples", "200", "--format", "csv",
                     "--convention", "paper"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("order,lhs_mean,rhs_mean,")
    assert lines[0].endswith(",convention")
    assert len(lines) == 5
    assert all(line.endswith(",standard") for line in lines[1:])


@pytest.mark.parametrize("args, patch, env", [
    (["joint-moments", "--index", "a"], {}, None),
    (["joint-moments", "--index", "1"], {"h": 5}, None),
    (["permanent", "--d", "zz"], {}, None),
    (["moments"], {"sigma": {"re": [["x", 0], [0, 1]]}}, None),
    (["moments"], {"sigma": {"re": [[1, 0], [0]]}}, None),
    (["moments"], {"n": "three"}, None),
    (["moments"], {}, {"WISHMOM_MAX_BUDGET": "1.5"}),
    (["moments", "--order", "0"], {}, None),
    (["moments", "--order", "-1"], {}, None),
    (["mc-verify", "--samples", "0"], {}, None),
    (["mc-verify", "--seed", "-1"], {}, None),
    (["joint-moments"], {"index": [1.9]}, None),
    (["joint-moments"], {"index": [True]}, None),
    (["joint-moments"], {"index": "1"}, None),
    (["permanent", "--d", "inf", "--index", "1,1"], {}, None),
    (["moments"], {"n": True}, None),
    (["cumulants"], {"n": float("inf")}, None),
    (["joint-moments"], {"index": ["2"]}, None),
    (["joint-moments", "--index", "2.0"], {}, None),
    (["joint-moments", "--index", ",1"], {}, None),
    (["necklaces", "--kind", "0,0"], {}, None),
    (["moments"], {"n": "3"}, None),
    (["moments"], {"n": None}, None),
    (["moments"], {"n": [3]}, None),
    (["mc-verify", "--n2", "0"], {}, None),
    (["mc-verify", "--n2", "-2"], {}, None),
])
def test_malformed_requests_exit_2(tmp_path, monkeypatch, args, patch, env):
    doc = {"n": 3, "sigma": matrix_doc(np.eye(2)), "h": [matrix_doc(np.eye(2))],
           **patch}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    for var, value in (env or {}).items():
        monkeypatch.setenv(var, value)
    code, out = run([args[0], str(path), *args[1:]])
    assert code == 2
    assert out.startswith("validation error")
    if "--n2" in args:
        assert "--n2" in out


# ---------------------------------------------------------------------------
# what one request loads, each in a fresh interpreter
# ---------------------------------------------------------------------------

SRC = str(Path(wishmom.__file__).resolve().parents[1])

# runs one request through main() like the console script, then reports the
# exit code and every loaded module as the last line of stderr
_CHILD = """
import json, sys
from wishmom.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps({"code": code, "modules": sorted(sys.modules)}) + "\\n")
"""

_PARAMS = {"n": 3, "sigma": {"re": [[1.0, 0.2], [0.2, 0.5]]},
           "m_matrix": {"re": [[0.3, 0.0], [0.0, 0.1]]}}
_DOC = json.dumps(_PARAMS).encode()
_DOC_WITH_H = json.dumps(dict(_PARAMS, h=[{"re": [[1.0, 0.0], [0.0, 1.0]]}])).encode()
_DOC_WITH_H2 = json.dumps(dict(_PARAMS, h=[{"re": [[1.0, 0.0], [0.0, 1.0]]}] * 2)).encode()
_DOC_WITH_H7 = json.dumps(dict(_PARAMS, h=[{"re": [[1.0, 0.0], [0.0, 1.0]]}] * 7)).encode()
# an 11 x 11 matrix, one row over the brute-force permanent's budget
_DOC_11X11 = json.dumps({"sigma": {"re": np.eye(11).tolist()}}).encode()
_DOC_SIDEWAYS = json.dumps(dict(_PARAMS, convention="sideways")).encode()


def _child_request(args, stdin=b"", env=None):
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], input=stdin,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC, **(env or {})),
                          timeout=120, check=False)
    record = json.loads(proc.stderr.decode().splitlines()[-1])
    return record["code"], set(record["modules"])


@pytest.mark.parametrize("args, stdin, code", [
    (["necklaces", "--kind", "3,2"], b"", 0),
    (["moments", "-"], b'{"n": 3, "sigma":', 2),
    (["moments", "-", "--convention", "sideways"], _DOC, 2),
    (["cumulants", "-", "--order", "0"], _DOC, 2),
    (["mc-verify", "-", "--seed", "-1"], _DOC, 2),
    (["polykay", "-", "--order", "0"], _DOC, 2),
    (["permanent", "-", "--d", "1+"], _DOC, 2),
    (["joint-moments", "-", "--index", "2"], _DOC, 2),  # no 'h'
    (["joint-cumulants", "-"], _DOC_WITH_H, 2),  # no index
    (["generalized", "-", "--index", "1,1"], _DOC_WITH_H, 2),  # not a permutation
    # over budget: rejected from the request's shape
    (["moments", "-", "--order", "25"], _DOC, 4),
    (["moments", "-", "--order", "25"], b'{"n": 3, "sigma": {"re": "x"}}', 4),  # budget first
    (["joint-cumulants", "-", "--index", "6,6"], _DOC_WITH_H2, 4),
    (["joint-moments", "-", "--index", "6,6"], _DOC_WITH_H, 2),  # shape before budget
    (["permanent", "-", "--index", "6,5"], _DOC, 4),
    (["permanent", "-"], _DOC_11X11, 4),
    (["generalized", "-", "--index", "2,3,4,5,6,7,1"], _DOC_WITH_H7, 4),
    (["polykay", "-", "--order", "9"], _DOC, 2),
    # over the Monte Carlo cap: 3 p variates a sample, counted from the request
    (["mc-verify", "-", "--samples", "1000000000000"], _DOC, 4),
    (["mc-verify", "-", "--samples", "1000000000000", "--seed", "-1"], _DOC, 2),
    # the document's convention is part of the request's shape, for every
    # subcommand, and is read before the budget
    (["polykay", "-", "--order", "2"], _DOC_SIDEWAYS, 2),
    (["permanent", "-", "--index", "1,1"], _DOC_SIDEWAYS, 2),
    (["necklaces", "-", "--kind", "2,1"], _DOC_SIDEWAYS, 2),
    (["moments", "-", "--order", "3"], _DOC_SIDEWAYS, 2),
    (["moments", "-", "--order", "25"], _DOC_SIDEWAYS, 2),
])
def test_request_checks_run_without_numpy(args, stdin, code):
    got, modules = _child_request(args, stdin)
    assert got == code
    assert "numpy" not in modules


@pytest.mark.parametrize("value, options, code", [
    ("4", ["--order", "6"], 4),
    ("ten", [], 2),
    # only a plain non-negative decimal sets the budget
    ("1.5", [], 2),
    ("-1", ["--order", "1"], 2),
    (" 1_0 ", ["--order", "1"], 2),
    ("+4", ["--order", "1"], 2),
    ("", ["--order", "1"], 2),
    ("\u0664", ["--order", "1"], 2),  # a decimal digit, but not an ASCII one
    # under a raised order budget the partition-walk cap still holds
    ("200", ["--order", "171"], 4),
])
def test_budget_override_is_checked_without_numpy(value, options, code):
    got, modules = _child_request(["moments", "-", *options], _DOC,
                                  {"WISHMOM_MAX_BUDGET": value})
    assert got == code
    assert "numpy" not in modules


def test_joint_moments_past_the_multiindex_walk_cap_exit_4_without_numpy(monkeypatch, capsys):
    # weight 21 is inside a raised joint-weight budget, but (7, 7, 7) has
    # more multi-index partitions than the fixed cap: counted from the
    # index before numpy loads, and rejected at once with nothing on stdout
    doc = json.dumps(dict(_PARAMS, h=[{"re": [[1.0, 0.0], [0.0, 1.0]]}] * 3)).encode()
    code, modules = _child_request(["joint-moments", "-", "--index", "7,7,7"], doc,
                                   {"WISHMOM_MAX_BUDGET": "200"})
    assert code == 4
    assert "numpy" not in modules
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(doc)))
    start = time.process_time()
    code = main(["joint-moments", "-", "--index", "7,7,7"])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("budget exceeded: joint moment of index (7, 7, 7) walks more than "
                            "115975 multi-index partitions, over the multi-index walk cap\n")
    assert elapsed < 0.1
    # (5, 5, 5), 58,616 partitions, is within the cap and is computed
    code, modules = _child_request(["joint-moments", "-", "--index", "5,5,5"], doc,
                                   {"WISHMOM_MAX_BUDGET": "200"})
    assert code == 0
    assert "wishmom.multivariate" in modules


def test_moments_loads_only_its_engines():
    code, modules = _child_request(["moments", "-", "--order", "3"], _DOC)
    assert code == 0
    assert {"numpy", "wishmom.univariate", "wishmom.model"} <= modules
    assert not modules & {"wishmom.mc", "wishmom.multivariate", "wishmom.applications"}


# ---------------------------------------------------------------------------
# fuzzing the whole front end in-process
# ---------------------------------------------------------------------------

_ENTRIES = st.one_of(
    st.integers(-3, 3), st.floats(-10, 10),
    st.sampled_from([1e200, float("nan"), float("inf"), True, None, "x"]))


def _square(p, entries):
    return st.lists(st.lists(entries, min_size=p, max_size=p), min_size=p, max_size=p)


def _diagonals(p, scale=1.0):
    """Positive definite p x p diagonals, entries in [0.1, 2] times `scale`."""
    return st.lists(st.floats(0.1, 2.0), min_size=p, max_size=p).map(
        lambda d: {"re": np.diag(np.multiply(d, scale)).tolist()})


_MATRICES = st.one_of(
    st.integers(1, 3).flatmap(_diagonals),
    st.integers(1, 3).flatmap(lambda p: st.fixed_dictionaries(
        {"re": _square(p, _ENTRIES)}, optional={"im": _square(p, _ENTRIES)})),
    st.fixed_dictionaries({"re": st.lists(st.lists(_ENTRIES, max_size=3), max_size=3)}),
    _ENTRIES,
)

_INDICES = st.lists(st.integers(-1, 3), max_size=3)


def _valid_documents(p):
    diagonal = _diagonals(p)
    return st.fixed_dictionaries(
        {"n": st.integers(2, 5),
         "sigma": st.one_of(diagonal, _diagonals(p, 1e200)),  # 1e200 overflows
         "h": st.lists(diagonal, min_size=1, max_size=3)},
        optional={"m_matrix": diagonal,
                  "index": st.lists(st.integers(1, 2), min_size=1, max_size=3),
                  "convention": st.sampled_from(CONVENTIONS)})


_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "n": st.one_of(st.integers(-1, 5), st.floats(0.5, 6), st.sampled_from(["3", True, None])),
    "sigma": _MATRICES,
    "m_matrix": _MATRICES,
    "h": st.one_of(st.lists(_MATRICES, max_size=3), _MATRICES),
    "index": st.one_of(_INDICES, st.lists(st.sampled_from([1.5, True, "2"]), max_size=2),
                       st.just("12")),
    "convention": st.sampled_from(list(CONVENTIONS) + ["sideways", 3]),
})

_INPUTS = st.one_of(
    st.integers(1, 3).flatmap(_valid_documents).map(lambda doc: json.dumps(doc).encode()),
    _DOCUMENTS.map(lambda doc: json.dumps(doc).encode()),
    st.sampled_from([b"", b"[]", b"3", b'{"n": 3, "sigma":', b"\xff\xfe"]),
)

_COMMA_LISTS = st.one_of(
    _INDICES.map(lambda ks: ",".join(map(str, ks))),
    st.sampled_from(["a", "1,,2", "1.5", "6,6"]))

_OPTIONS = st.one_of(
    st.tuples(st.just("--order"), st.one_of(st.integers(-1, 6), st.just(21)).map(str)),
    st.tuples(st.just("--index"), _COMMA_LISTS),
    st.tuples(st.just("--kind"), _COMMA_LISTS),
    st.tuples(st.just("--d"), st.sampled_from(["1", "-1", "0.5+1j", "zz", "inf"])),
    st.tuples(st.just("--samples"), st.integers(-1, 200).map(str)),
    st.tuples(st.just("--seed"), st.integers(-1, 5).map(str)),
    st.tuples(st.just("--identity"), st.sampled_from(list(IDENTITIES) + ["bogus"])),
    st.tuples(st.just("--n2"), st.integers(-1, 4).map(str)),
    st.tuples(st.just("--convention"), st.sampled_from(list(CONVENTIONS) + ["sideways"])),
    st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "xml"])),
    st.tuples(st.sampled_from(["--bogus", "--order"])),
)

# every subcommand, and one name that is not a subcommand
_COMMAND_NAMES = ["cumulants", "generalized", "joint-cumulants", "joint-moments",
                  "mc-verify", "moments", "necklaces", "permanent", "polykay", "spectrum"]


class _Stdin:
    def __init__(self, raw: bytes):
        self.buffer = io.BytesIO(raw)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(_COMMAND_NAMES),
       source=st.one_of(st.just("-"), st.sampled_from([None, "absent.json"])),
       options=st.lists(_OPTIONS, max_size=3),
       raw=_INPUTS)
def test_fuzz_main_exits_with_a_documented_code(command, source, options, raw):
    argv = [command] + ([source] if source else []) + [a for opt in options for a in opt]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = _Stdin(raw)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, raw, err.getvalue())
    if code:
        assert out.getvalue() == "", argv
        assert err.getvalue()
    else:
        assert out.getvalue()
