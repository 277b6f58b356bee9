import hashlib
import json
import os
import subprocess
import sys

import pytest

from gamecert.cli import main
from tests.conftest import CORPUS, corpus_path


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_certify_driver_exit_zero(capsys):
    code, out = run_cli(capsys, "certify", "--kind", "monotone", "--level", "2",
                        corpus_path("driver.game.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["status"] == "StrictlyCertified"
    assert report["results"][0]["lambda"] == pytest.approx(-6.0, abs=1e-4)
    assert report["config"]["kind"] == "monotone"
    assert "version" in report


def test_certify_fig1_exit_two(capsys):
    code, out = run_cli(capsys, "certify", "--kind", "monotone", "--level", "2",
                        corpus_path("fig1.game.json"))
    assert code == 2
    report = json.loads(out)
    assert report["results"][0]["lambda"] == pytest.approx(10.0, abs=1e-3)


def test_solver_flags_reach_the_solver(capsys):
    def solve_fig1(*flags):
        code, out = run_cli(capsys, "certify", "--level", "2", *flags, corpus_path("fig1.game.json"))
        assert code == 2
        return json.loads(out)["results"][0]

    capped = solve_fig1("--sdp-max-iter", "2")
    assert capped["solver"]["iterations"] == 2
    assert capped["diagnostic"] == "solver stopped: IterationLimit (iteration limit reached)"
    loose, default = solve_fig1("--sdp-tol", "1e-4"), solve_fig1()
    assert loose["status"] == default["status"] == "Inconclusive"
    assert loose["solver"]["iterations"] < default["solver"]["iterations"]


def test_certify_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "certify", "--level", "2", str(bad))
    assert code == 1


def test_certify_missing_file_exit_one(capsys):
    code, _ = run_cli(capsys, "certify", "--level", "2", "/no/such/file.json")
    assert code == 1


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "certify", "--level", "2", corpus_path("driver.game.json"))
    _, second = run_cli(capsys, "certify", "--level", "2", corpus_path("driver.game.json"))
    assert first == second


def test_certify_levels_range_and_verify(capsys):
    code, out = run_cli(capsys, "certify", "--levels", "2..3", "--verify", "200",
                        corpus_path("driver.game.json"))
    assert code == 0
    report = json.loads(out)
    assert [r["level"] for r in report["results"]] == [2, 3]
    assert report["verify"]["max_eigenvalue"] == pytest.approx(-6.0, abs=1e-9)


def test_certify_single_level_in_levels(capsys):
    one = run_cli(capsys, "certify", "--levels", "2", corpus_path("driver.game.json"))
    assert one == run_cli(capsys, "certify", "--level", "2", corpus_path("driver.game.json"))
    assert one[0] == 0


def test_certify_level_and_levels_exclude_each_other(capsys):
    assert main(["certify", "--level", "2", "--levels", "4", corpus_path("driver.game.json")]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_certify_empty_levels_range_exit_one(capsys):
    # rejected before the game file is read
    assert main(["certify", "--levels", "4..2", "/no/such/file.json"]) == 1
    assert "empty --levels range '4..2'" in capsys.readouterr().err


def test_certify_add_ball(capsys):
    code, out = run_cli(capsys, "certify", "--level", "2", "--add-ball", "2.0",
                        corpus_path("driver.game.json"))
    assert code == 0
    assert json.loads(out)["results"][0]["lambda"] == pytest.approx(-6.0, abs=1e-4)


def test_project_fig1(tmp_path, capsys):
    out_path = tmp_path / "projected.game.json"
    code, out = run_cli(capsys, "project", "--level", "2", "--zero-sum",
                        "--preserve-support", "--out", str(out_path),
                        corpus_path("fig1.game.json"))
    assert code == 0
    report = json.loads(out)
    assert report["distance"] == pytest.approx(10.0, abs=1e-3)
    from gamecert.jsonio import load_game

    projected = load_game(str(out_path))
    assert abs(projected.payoffs[0].coeff((1, 1, 0))) <= 1e-4
    assert report["config"]["add_ball"] is None
    code, out = run_cli(capsys, "project", "--level", "2", "--add-ball", "2", corpus_path("fig1.game.json"))
    assert code == 0 and json.loads(out)["config"]["add_ball"] == 2.0


def test_efg2poly_matches_corpus(tmp_path, capsys):
    out_path = tmp_path / "driver.game.json"
    code, out = run_cli(capsys, "efg2poly", corpus_path("driver.efg.json"),
                        "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == open(corpus_path("driver.game.json")).read()
    report = json.loads(out)
    assert report["blocks"] == [1]
    assert report["payoff_degrees"] == [2]


def test_export_sdpa_round_trip(tmp_path, capsys):
    out_path = tmp_path / "fig1.dat-s"
    code, out = run_cli(capsys, "export-sdpa", corpus_path("fig1.game.json"),
                        "--level", "2", "--out", str(out_path))
    assert code == 0
    from gamecert.sdp import export_sdpa, import_sdpa

    back = import_sdpa(str(out_path))
    again = tmp_path / "fig1b.dat-s"
    export_sdpa(back, str(again))
    assert out_path.read_bytes() == again.read_bytes()


def test_export_sdpa_bytes_pinned(tmp_path, capsys):
    out_path = tmp_path / "deg4.dat-s"
    code, _ = run_cli(capsys, "export-sdpa", corpus_path("deg4.game.json"), "--level", "4", "--out", str(out_path))
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "76e3dd6efe55364b3016734476b1f6ffe0fbb2e22119359824878a269bf486c4"


def test_export_sdpa_takes_no_solver_flags(tmp_path, capsys):
    out_path = tmp_path / "fig1.dat-s"
    argv = ["export-sdpa", corpus_path("fig1.game.json"), "--level", "2", "--out", str(out_path)]
    assert main(argv + ["--sdp-tol", "1e-4"]) == 1
    assert main(argv + ["--sdp-max-iter", "1"]) == 1
    assert not out_path.exists()
    assert main(argv + ["--add-ball", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["add_ball"] == 2.0


@pytest.mark.parametrize("command, game", [("certify", "driver"), ("gauge", "fig1")])
def test_out_file_holds_the_printed_report(tmp_path, capsys, command, game):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, command, "--level", "2", corpus_path(f"{game}.game.json"), "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == out.encode()


def test_gauge_command(capsys):
    code, out = run_cli(capsys, "gauge", "--level", "2", corpus_path("fig1.game.json"))
    assert code == 0
    assert json.loads(out)["gauge"] == pytest.approx(5.0, abs=1e-3)


def cubic_game_file(tmp_path):
    """A one-player game with payoff x^3/6 on the whole line: no bound
    exists at any level."""
    from gamecert.games import PolynomialGame, SemialgebraicSet
    from gamecert.jsonio import dumps, game_to_json
    from gamecert.polynomials import Polynomial

    cubic = PolynomialGame(
        (1,), (Polynomial(1, {(3,): 1 / 6}),), SemialgebraicSet(1, (), ())
    )
    path = tmp_path / "cubic.game.json"
    path.write_text(dumps(game_to_json(cubic)))
    return str(path)


def test_gauge_infeasible_exit_three(tmp_path, capsys):
    code, out = run_cli(capsys, "gauge", "--level", "3", cubic_game_file(tmp_path))
    assert code == 3
    assert json.loads(out)["status"] == "infeasible"


def test_certify_infeasible_exit_three(tmp_path, capsys):
    code, out = run_cli(capsys, "certify", "--level", "3", cubic_game_file(tmp_path))
    assert code == 3
    (result,) = json.loads(out)["results"]
    assert (result["status"], result["lambda"]) == ("Infeasible", "+inf")


def test_usage_error_exit_one(capsys):
    assert main(["certify"]) == 1  # missing game argument
    assert main(["frobnicate"]) == 1


def test_negative_verify_rejected_before_solving(monkeypatch, capsys):
    import gamecert.certify

    def no_solve(*args, **kwargs):
        raise AssertionError("solve must not run")

    monkeypatch.setattr(gamecert.certify, "solve_split", no_solve)
    code = main(["certify", "--level", "2", "--verify", "-3", corpus_path("driver.game.json")])
    assert code == 1
    assert "--verify" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--sdp-max-iter", "-3"), ("--sdp-max-iter", "0"),
    ("--sdp-tol", "nan"), ("--sdp-tol", "-1"), ("--sdp-tol", "0"), ("--sdp-tol", "inf"),
])
def test_bad_solver_flags_rejected_before_loading(monkeypatch, capsys, flag, value):
    import gamecert.jsonio

    def no_load(*args, **kwargs):
        raise AssertionError("the game must not load")

    monkeypatch.setattr(gamecert.jsonio, "load_game", no_load)
    for command in ("certify", "project", "gauge"):
        code = main([command, "--level", "2", f"{flag}={value}", corpus_path("driver.game.json")])
        assert code == 1
        assert flag in capsys.readouterr().err


def test_importing_the_command_leaves_numpy_unloaded():
    # the command pins the BLAS threads, which numpy reads once when it loads
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, gamecert.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
    out = subprocess.run([sys.executable, "-m", "gamecert", "--help"], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.startswith("usage: gamecert ")
    probe = "import gamecert; from gamecert import Polynomial; print(Polynomial.__module__, gamecert.__version__)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "gamecert.polynomials 0.1.0\n"


NO_SCIPY = """
import contextlib, io, json, os, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from gamecert.certify import bound_program, target
from gamecert.cli import main
from gamecert.jsonio import load_game
from gamecert.sdp import export_sdpa, import_sdpa
from gamecert.sos import compile_program

corpus, tmp = sys.argv[1:]
problem, _ = compile_program(bound_program(*target(load_game(os.path.join(corpus, "deg4.game.json"))), 4))
export_sdpa(problem, os.path.join(tmp, "deg4.dat-s"))
same = import_sdpa(os.path.join(tmp, "deg4.dat-s")) == problem
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["efg2poly", os.path.join(corpus, "driver.efg.json"), "--out", os.path.join(tmp, "driver.game.json")]),
             main(["export-sdpa", os.path.join(corpus, "deg4.game.json"), "--level", "4",
                   "--out", os.path.join(tmp, "cli.dat-s")])]
print(json.dumps([same, codes]))
"""

CERTIFY_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from gamecert.certify import certify_monotone
from gamecert.jsonio import load_game
results = [certify_monotone(load_game(path), level) for path, level in ((sys.argv[1], 2), (sys.argv[2], 4))]
print(json.dumps([[r.lam, r.status.value, r.solver.status] for r in results]
                 + [any(name.startswith("scipy.") for name in sys.modules)]))
"""


def test_scipy_is_never_imported(tmp_path):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", NO_SCIPY, CORPUS, str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [True, [0, 0]]
    # the solver too runs without scipy: driver at level 2, deg4 at level 4
    child = subprocess.run([sys.executable, "-c", CERTIFY_NO_SCIPY, corpus_path("driver.game.json"),
                            corpus_path("deg4.game.json")], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    (lam, status, solver), (lam4, status4, solver4), scipy_loaded = json.loads(child.stdout)
    assert lam == pytest.approx(-6.0, abs=1e-4) and status == "StrictlyCertified" and solver == "Optimal"
    assert lam4 == pytest.approx(-0.99991654, abs=1e-7) and status4 == "StrictlyCertified" and solver4 == "Optimal"
    assert not scipy_loaded
