import json
import os
import subprocess
import sys

import pytest

from gamecert.games import PolynomialGame, SemialgebraicSet
from gamecert.jsonio import load_efg, load_game
from gamecert.polynomials import Polynomial

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


CHILD_CERTIFY = """
import json, sys
from gamecert.certify import certify_monotone
from gamecert.jsonio import load_game
result = certify_monotone(load_game(sys.argv[1]), 4)
print(json.dumps({"lam": result.lam, "status": result.status.value,
                  "diagnostic": result.diagnostic}))
"""


def certify_deg4_in_child(blas_threads: int) -> dict:
    """The level-4 monotone certification of deg4 in a fresh process on
    ``blas_threads`` OpenBLAS threads (OpenBLAS fixes its thread count when
    numpy loads): its lam, status and diagnostic."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", CHILD_CERTIFY, corpus_path("deg4.game.json")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="session")
def driver_game():
    return load_game(corpus_path("driver.game.json"))


@pytest.fixture(scope="session")
def fig1_game():
    return load_game(corpus_path("fig1.game.json"))


@pytest.fixture(scope="session")
def fig3_game():
    return load_game(corpus_path("fig3.game.json"))


@pytest.fixture(scope="session")
def deg4_game():
    return load_game(corpus_path("deg4.game.json"))


@pytest.fixture(scope="session")
def deg8_game():
    return load_game(corpus_path("deg8.game.json"))


@pytest.fixture(scope="session")
def driver_tree():
    return load_efg(corpus_path("driver.efg.json"))


@pytest.fixture(scope="session")
def fig1_tree():
    return load_efg(corpus_path("fig1.efg.json"))


@pytest.fixture(scope="session")
def fig3_tree():
    return load_efg(corpus_path("fig3.efg.json"))


def unit_interval_game(payoff_terms):
    """One player on [0, 1] with the given payoff terms."""
    u = Polynomial(1, payoff_terms)
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1.0)
    return PolynomialGame((1,), (u,), SemialgebraicSet(1, (x, one - x), ()))
