"""How certify, project and gauge report a solver that stops short and a
certificate the audit rejects."""

import dataclasses
import math
import sys

import pytest

import gamecert.sdp
import gamecert.sos
from gamecert.certify import CertStatus, certify_concave, certify_monotone
from gamecert.project import ProjectionFailed, ProjectionSpec, gauge, project
from gamecert.sdp import SolveOptions
from gamecert.sos import CertificateRejected

STOPPED = "solver stopped: IterationLimit (iteration limit reached)"


def two_iterations():
    return SolveOptions(max_iterations=2)


def test_certify_reports_a_stopped_solver(fig1_game):
    result = certify_monotone(fig1_game, 2, two_iterations())
    assert result.status == CertStatus.INCONCLUSIVE
    assert math.isnan(result.lam)
    assert result.certificate is None
    assert result.diagnostic == STOPPED
    assert result.solver.status == "IterationLimit"
    assert result.solver.iterations == 2


def test_concave_reports_each_stopped_player(deg4_game):
    result = certify_concave(deg4_game, 4, two_iterations())
    assert result.status == CertStatus.INCONCLUSIVE
    assert math.isnan(result.lam)
    assert result.diagnostic == f"player 0: {STOPPED}; player 1: {STOPPED}"
    # the report describes the solve that failed
    assert result.solver.status == "IterationLimit"
    assert result.solver.iterations == 2
    assert result.certificate is None


def test_project_and_gauge_raise_on_a_stopped_solver(fig1_game):
    message = "solver stopped with status IterationLimit: iteration limit reached"
    with pytest.raises(ProjectionFailed, match=message):
        project(ProjectionSpec(fig1_game, 2), two_iterations())
    with pytest.raises(ProjectionFailed, match=message):
        gauge(fig1_game, 2, two_iterations())


def test_certify_reports_running_out_of_memory(monkeypatch, driver_game):
    def exhausted(problem):
        raise MemoryError("Unable to allocate 2.71 GiB")

    monkeypatch.setattr(gamecert.sdp, "_Dense", exhausted)
    result = certify_monotone(driver_game, 2)
    assert result.status == CertStatus.INCONCLUSIVE
    assert math.isnan(result.lam)
    assert result.diagnostic == "solver stopped: NumericalFailure (out of memory: Unable to allocate 2.71 GiB)"


@pytest.fixture
def corrupted_rounding(monkeypatch):
    """Make every caller's ``round_onto_rows`` add 0.5 to the first Gram
    diagonal entry, wherever the caller imported it."""
    original = gamecert.sos.round_onto_rows

    def corrupt(comp, solution):
        rounded = original(comp, solution)
        blocks = [G.copy() for G in rounded.primal_blocks]
        blocks[0][0, 0] += 0.5
        return dataclasses.replace(rounded, primal_blocks=blocks)

    for name, module in list(sys.modules.items()):
        if name.startswith("gamecert.") and getattr(module, "round_onto_rows", None) is original:
            monkeypatch.setattr(module, "round_onto_rows", corrupt)


def test_certify_reports_a_rejected_certificate(corrupted_rounding, fig1_game):
    result = certify_monotone(fig1_game, 2)
    assert result.status == CertStatus.INCONCLUSIVE
    assert math.isnan(result.lam)
    assert result.certificate is None
    assert result.diagnostic.startswith("certificate rejected: ")
    assert result.solver.status == "Optimal"


def test_project_and_gauge_raise_on_a_rejected_certificate(corrupted_rounding, fig1_game):
    with pytest.raises(CertificateRejected):
        project(ProjectionSpec(fig1_game, 2))
    with pytest.raises(CertificateRejected):
        gauge(fig1_game, 2)
