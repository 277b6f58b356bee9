"""The four benchmark workloads.

A workload prepares its inputs from the seed, runs one untimed warm-up
round, and then hands out rounds: the same list of ops every time, so the
share of failed ops is fixed by the inputs.  Each op is ``(label, run,
check)``: ``run()`` calls the program and is the only timed part;
``check(output)`` returns ``"ok"`` or ``"failed"`` (a classified failure
of the program) and raises ``Incorrect`` on a wrong output.

gamecert functions are always called through their module attribute, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

import gamecert.certify as gcertify
import gamecert.cli as gcli
import gamecert.games as ggames
import gamecert.jsonio as gjsonio
import gamecert.oracles as goracles
import gamecert.polynomials as gpoly
import gamecert.sdp as gsdp
import gamecert.sos as gsos

from reference import RawGame, RawPoly, criterion8_coefficients, unit_square_grid

PSD_SLACK = 1e-7  # CertifyOptions().psd_slack
CERT_TOL = 1e-6   # certify.STRICT_TOL and certify.CERT_TOL


class Incorrect(AssertionError):
    """The program returned a wrong output."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Incorrect(message)


def check_status_sign(status: str, lam: float, what: str) -> None:
    """A certified status agrees with the sign of the bound."""
    if status == "StrictlyCertified":
        expect(lam < -CERT_TOL, f"{what}: StrictlyCertified with lam {lam}")
    elif status == "Certified":
        expect(abs(lam) <= CERT_TOL, f"{what}: Certified with lam {lam}")
    else:
        expect(status == "Inconclusive" and lam > CERT_TOL, f"{what}: {status} with lam {lam}")


class Workload:
    name = ""

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def corpus(self, name: str) -> str:
        return os.path.join(self.root, "corpus", name)

    def prepare(self) -> None:
        """Load or generate the inputs; may run several times."""

    def warm_up(self, run_op) -> list[tuple[str, float, str]]:
        """Run one round untimed through ``run_op``, which times and checks
        one op and returns (label, seconds, status)."""
        return [run_op(op) for op in self.round()]

    def round(self) -> list:
        raise NotImplementedError

    def record(self) -> dict:
        """What the run record should say about this workload's inputs."""
        return {}


# ---------------------------------------------------------------------------
# random-sweep


class RandomSweep(Workload):
    """One op certifies one random criterion-8 game at level 4.

    The games have 2 players with one variable each, degree-4 payoffs with
    coefficients uniform on [-1, 1], and the box [0, 1]^2 with the ball of
    radius sqrt(2).  A round is the first ``GAMES`` games of the seed-7
    stream plus its game 125, on which the solver's gap stalls just above
    ``accept_stalled_gap``: that op fails every time and is counted.  The
    list does not depend on ``--seed``, which only orders the round: with
    games drawn per seed, the mix of cheap and slow solves moved op_p50_s
    and ops_per_s by about 30% between seeds.
    """

    name = "random-sweep"
    STREAM = 7
    GAMES = 64
    STALLED = 125
    LEVEL = 4
    GRID_STEPS = 41

    def prepare(self) -> None:
        self.basis = gpoly.monomials_upto(2, 4)
        self.domain = ggames.add_ball_constraint(
            ggames.box_set([(0.0, 1.0)] * 2), float(np.sqrt(2.0))
        )
        self.grid = unit_square_grid(self.GRID_STEPS)
        rng = np.random.default_rng(self.STREAM)
        drawn = [criterion8_coefficients(rng, len(self.basis)) for _ in range(self.STALLED + 1)]
        picked = list(range(self.GAMES)) + [self.STALLED]
        order = np.random.default_rng(self.seed).permutation(len(picked))
        self.ops = [self._op(f"game-{picked[k]}", *self._game(drawn[picked[k]])) for k in order]

    def _game(self, coeffs: np.ndarray):
        payoffs = tuple(
            gpoly.Polynomial(2, dict(zip(self.basis, map(float, row)))) for row in coeffs
        )
        raw = RawGame({
            "players": [{"m": 1}, {"m": 1}],
            "payoffs": [
                {"n_vars": 2, "terms": [{"exps": list(m), "coeff": float(c)} for m, c in zip(self.basis, row)]}
                for row in coeffs
            ],
            "domain": {"ineq": [], "eq": []},
        })
        grid_max = raw.max_eigenvalue("monotone", self.grid)
        return ggames.PolynomialGame((1, 1), payoffs, self.domain), grid_max

    def _op(self, label, game, grid_max):
        def run():
            return gcertify.certify_monotone(game, self.LEVEL)

        def check(result):
            if math.isnan(result.lam):
                expect(result.status.value == "Inconclusive", f"{label}: nan bound with {result.status}")
                return "failed"
            expect(result.lam >= grid_max - 1e-6,
                   f"{label}: bound {result.lam} below the grid maximum {grid_max}")
            check_status_sign(result.status.value, result.lam, label)
            expect(result.certificate is not None, f"{label}: no certificate")
            for mem in result.certificate.memberships:
                for block, _, G in mem.gram_matrices:
                    low = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
                    expect(low >= -PSD_SLACK, f"{label}: {block} has eigenvalue {low}")
            return "ok"

        return label, run, check

    def round(self):
        return self.ops

    def record(self):
        return {"order": [label for label, _, _ in self.ops]}


# ---------------------------------------------------------------------------
# corpus-cli

CERTIFIED_EXIT = {"StrictlyCertified": 0, "Certified": 0, "Inconclusive": 2, "Infeasible": 3}

# payoff of player 1 of the fig1 tree, in closed form (acceptance criterion 7)
FIG1_PAYOFF = {
    (1, 1, 0): 10.0, (1, 0, 1): 2.0, (0, 1, 1): 2.0,
    (1, 0, 0): -6.0, (0, 1, 0): -6.0, (0, 0, 1): -2.0, (0, 0, 0): 1.0,
}


class CorpusCli(Workload):
    """One op is one pass of the gamecert commands over the bundled corpus,
    through ``gamecert.cli.main`` in this process with stdout captured."""

    name = "corpus-cli"

    def prepare(self) -> None:
        c = self.corpus
        self.fig1_out = os.path.join(self.workdir, "fig1.efg.game.json")
        zs = ["--zero-sum", "--preserve-support"]
        self.commands = [
            ("efg-driver", ["efg2poly", c("driver.efg.json")]),
            ("efg-fig1", ["efg2poly", c("fig1.efg.json"), "--out", self.fig1_out]),
            ("efg-fig3", ["efg2poly", c("fig3.efg.json")]),
            ("driver", ["certify", "--level", "2", c("driver.game.json")]),
            ("fig1", ["certify", "--level", "2", c("fig1.game.json")]),
            ("deg4", ["certify", "--level", "4", c("deg4.game.json")]),
            ("fig3", ["certify", "--level", "6", c("fig3.game.json")]),
            ("deg4-concave", ["certify", "--kind", "concave", "--level", "4", c("deg4.game.json")]),
            ("project-fig1", ["project", "--level", "2", *zs, c("fig1.game.json")]),
            ("project-fig3", ["project", "--level", "6", *zs, c("fig3.game.json")]),
            ("gauge-fig1", ["gauge", "--level", "2", c("fig1.game.json")]),
            ("gauge-fig3", ["gauge", "--level", "6", c("fig3.game.json")]),
        ]
        for _, argv in self.commands:
            path = argv[-1] if argv[-2] != "--out" else argv[1]
            expect(os.path.isfile(path), f"missing input {path}")
        self.reference_output = None

    def _pass(self):
        outputs = []
        for key, argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gcli.main(list(argv))
            outputs.append((key, code, out.getvalue(), err.getvalue()))
        return outputs

    def _check(self, outputs):
        reports = {}
        for key, code, text, err in outputs:
            expect(not err and text, f"{key}: exit {code}, stderr {err.strip()!r}")
            reports[key] = (code, json.loads(text))
        for key in ("efg-driver", "efg-fig1", "efg-fig3", "project-fig1", "project-fig3",
                    "gauge-fig1", "gauge-fig3"):
            code, rep = reports[key]
            expect(code == 0, f"{key}: exit {code}")
            expect(rep.get("status", "ok") == "ok", f"{key}: status {rep.get('status')}")
        lam = {}
        for key in ("driver", "fig1", "deg4", "fig3", "deg4-concave"):
            code, rep = reports[key]
            (res,) = rep["results"]
            expect(code == CERTIFIED_EXIT[res["status"]], f"{key}: exit {code} with {res['status']}")
            check_status_sign(res["status"], res["lambda"], key)
            lam[key] = res["lambda"]
        expect(abs(lam["driver"] + 6.0) <= 1e-4, f"driver bound {lam['driver']}")
        expect(abs(lam["fig1"] - 10.0) <= 1e-3, f"fig1 bound {lam['fig1']}")
        expect(reports["fig1"][1]["results"][0]["status"] == "Inconclusive", "fig1 status")
        expect(abs(lam["deg4"] + 1.0) <= 1e-2, f"deg4 bound {lam['deg4']}")
        expect(reports["deg4"][1]["results"][0]["status"] == "StrictlyCertified", "deg4 status")
        expect(lam["deg4-concave"] <= lam["deg4"] + 1e-6,
               f"concave bound {lam['deg4-concave']} above monotone {lam['deg4']}")
        dist1 = reports["project-fig1"][1]["distance"]
        dist3 = reports["project-fig3"][1]["distance"]
        expect(abs(dist1 - 10.0) <= 1e-3, f"fig1 projection distance {dist1}")
        expect(abs(dist3 - 49.0) <= 0.5, f"fig3 projection distance {dist3}")
        for name in ("fig1", "fig3"):
            value = reports[f"gauge-{name}"][1]["gauge"]
            expect(abs(value - max(0.0, lam[name] / 2)) <= 1e-5,
                   f"{name} gauge {value} against bound {lam[name]}")
        with open(self.fig1_out) as fh:
            fig1 = json.load(fh)
        u1, u2 = (RawPoly.from_json(p).as_dict() for p in fig1["payoffs"])
        for mono in set(FIG1_PAYOFF) | set(u1) | set(u2):
            want = FIG1_PAYOFF.get(mono, 0.0)
            expect(abs(u1.get(mono, 0.0) - want) <= 1e-12 and abs(u2.get(mono, 0.0) + want) <= 1e-12,
                   f"fig1 tree payoff differs at {mono}")
        printed = "".join(text for _, _, text, _ in outputs)
        if self.reference_output is None:
            self.reference_output = printed
        expect(printed == self.reference_output, "reports differ from the first pass")
        return "ok"

    def round(self):
        return [("pass", self._pass, self._check)]


# ---------------------------------------------------------------------------
# oracle-verify

# certified monotone bounds of the corpus games, stored; the README gives
# the commands that recompute them
STORED_BOUNDS = {("deg4", "monotone"): -0.9998918759789075, ("fig3", "monotone"): 118.00000000000551}


def corrupt(certificate):
    """A copy of ``certificate`` with its first Gram entry shifted by 0.5."""
    first, *rest = certificate.memberships
    (block, basis, G), *grams = first.gram_matrices
    G = G.copy()
    G[0, 0] += 0.5
    shifted = dataclasses.replace(first, gram_matrices=[(block, basis, G), *grams])
    return dataclasses.replace(certificate, memberships=[shifted, *rest])


class OracleVerify(Workload):
    """One op is one pass of the independent checks in ``gamecert.oracles``;
    no SDP runs inside an op."""

    name = "oracle-verify"
    SAMPLES = 10_000
    AUDIT_SAMPLES = 1000
    SAMPLED = (("deg4", "monotone"), ("fig1", "monotone"), ("fig3", "monotone"), ("fig1", "concave"))
    GAMES = ("driver", "fig1", "fig3", "deg4", "deg8")

    def prepare(self) -> None:
        self.games = {n: gjsonio.load_game(self.corpus(f"{n}.game.json")) for n in self.GAMES}
        self.raw = {n: RawGame.load(self.corpus(f"{n}.game.json")) for n in self.GAMES}
        self.bounds = dict(STORED_BOUNDS)
        self.audits = []
        for name, kind in (("driver", "monotone"), ("fig1", "monotone"), ("fig1", "concave")):
            game = self.games[name]
            if kind == "monotone":
                result = gcertify.certify_monotone(game, 2)
                base, dim = gcertify.monotone_target(game), game.n_vars
            else:
                result = gcertify.certify_concave(game, 2)
                player = max(result.per_player, key=lambda p: p[1])[0]
                base, dim = gcertify.concave_target(game, player), game.block_sizes[player]
            expect(result.certificate is not None, f"{name} {kind}: no certificate at level 2")
            self.bounds[(name, kind)] = result.lam
            target = gpoly.Polynomial.constant(base.n_vars, result.lam) + base
            domain = gcertify.extended_domain(game.domain, dim)
            corrupted = corrupt(result.certificate)
            self.audits.append((f"{name}-{kind}", result.certificate, corrupted, target, domain))

    def _pass(self):
        seed = self.seed
        samples = [
            (name, kind, goracles.sample_max_eigenvalue(
                self.games[name], kind=kind, n_samples=self.SAMPLES, seed=seed))
            for name, kind in self.SAMPLED
        ]
        audits = [
            (label,
             goracles.check_certificate_sampled(fresh, target, domain, self.AUDIT_SAMPLES, seed),
             goracles.check_certificate_sampled(bad, target, domain, self.AUDIT_SAMPLES, seed))
            for label, fresh, bad, target, domain in self.audits
        ]
        fd = [(n, goracles.finite_difference_audit(self.games[n], seed=seed)) for n in self.GAMES]
        return samples, audits, fd

    def _check(self, out):
        samples, audits, fd = out
        for name, kind, rep in samples:
            what = f"{name} {kind}"
            expect(rep.samples == self.SAMPLES, f"{what}: {rep.samples} samples")
            expect(rep.max_value <= self.bounds[(name, kind)] + 1e-6,
                   f"{what}: sampled {rep.max_value} above bound {self.bounds[(name, kind)]}")
            raw = self.raw[name]
            expect(raw.contains(rep.argmax_point), f"{what}: argmax outside the domain")
            ref = raw.max_eigenvalue(kind, rep.argmax_point)
            expect(abs(ref - rep.max_value) <= 1e-8, f"{what}: eigvalsh {ref} vs {rep.max_value}")
        for label, (ok, worst), (ok_bad, worst_bad) in audits:
            expect(ok, f"{label}: fresh certificate failed the audit ({worst:.3e})")
            expect(not ok_bad, f"{label}: corrupted certificate passed the audit ({worst_bad:.3e})")
        for name, worst in fd:
            expect(worst <= 1e-6, f"{name}: finite-difference deviation {worst:.3e}")
        return "ok"

    def round(self):
        return [("pass", self._pass, self._check)]


# ---------------------------------------------------------------------------
# deg8-build


class Deg8Build(Workload):
    """One op loads deg8.game.json, builds the monotone target, compiles it
    at level 8, writes SDPA and reads the file back."""

    name = "deg8-build"
    LEVEL = 8

    def prepare(self) -> None:
        self.path = self.corpus("deg8.game.json")
        expect(os.path.isfile(self.path), f"missing input {self.path}")
        self.sdpa = os.path.join(self.workdir, "deg8.dat-s")
        self.digest = None

    def _build(self):
        game = gjsonio.load_game(self.path)
        base = gcertify.monotone_target(game)
        domain = gcertify.extended_domain(game.domain, game.n_vars)
        program = gsos.membership_problem(
            base, domain, self.LEVEL,
            param_polys=[("lam", gpoly.Polynomial.constant(domain.n_vars, 1.0))],
            objective=[("lam", 1.0)],
        )
        problem, _ = gsos.compile_program(program)
        gsdp.export_sdpa(problem, self.sdpa)
        return problem, gsdp.import_sdpa(self.sdpa)

    def _check(self, out):
        problem, back = out
        n = 8  # 4 game variables and 4 sphere variables
        expect(problem.n_constraints == math.comb(n + self.LEVEL, self.LEVEL),
               f"{problem.n_constraints} rows")
        blocks = (math.comb(n + 4, 4),) + (math.comb(n + 3, 3),) * 6
        expect(problem.block_dims == blocks, f"blocks {problem.block_dims}")
        expect(problem.n_free == math.comb(n + 6, 6) + 1, f"{problem.n_free} free variables")
        expect(back == problem, "import_sdpa(export_sdpa(P)) differs from P")
        with open(self.sdpa, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digest is None:
            self.digest = digest
        expect(digest == self.digest, "the SDPA file differs from the first export")
        return "ok"

    def round(self):
        return [("build", self._build, self._check)]


WORKLOADS = {w.name: w for w in (RandomSweep, CorpusCli, OracleVerify, Deg8Build)}
