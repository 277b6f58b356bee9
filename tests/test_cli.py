import hashlib
import json
import os
import subprocess
import sys

import pytest

from gamecert.cli import main
from tests.conftest import corpus_path


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


def test_gauge_command(capsys):
    code, out = run_cli(capsys, "gauge", "--level", "2", corpus_path("fig1.game.json"))
    assert code == 0
    assert json.loads(out)["gauge"] == pytest.approx(5.0, abs=1e-3)


def test_gauge_infeasible_exit_three(tmp_path, capsys):
    from gamecert.games import PolynomialGame, SemialgebraicSet
    from gamecert.jsonio import dumps, game_to_json
    from gamecert.polynomials import Polynomial

    cubic = PolynomialGame(
        (1,), (Polynomial(1, {(3,): 1 / 6}),), SemialgebraicSet(1, (), ())
    )
    path = tmp_path / "cubic.game.json"
    path.write_text(dumps(game_to_json(cubic)))
    code, out = run_cli(capsys, "gauge", "--level", "3", str(path))
    assert code == 3
    assert json.loads(out)["status"] == "infeasible"


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
