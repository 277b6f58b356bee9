"""Extensive-form games with imperfect recall as polynomial games.

Each information set with k actions contributes k-1 behavioral-strategy
variables (the last action's probability is 1 minus the rest), so the
joint strategy set is a product of simplices described by linear
inequalities only.  A player's expected utility is the sum over leaves of
the leaf payoff times the product of action probabilities and chance
probabilities along the root-to-leaf path; when a path revisits an
information set (absent-mindedness) the same variable appears repeatedly
and the utility degree grows accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .games import PolynomialGame, SemialgebraicSet
from .polynomials import Polynomial

CHANCE = "chance"
TERMINAL = "terminal"

PROB_SUM_TOL = 1e-12


class EfgError(ValueError):
    pass


@dataclass(frozen=True)
class EfgNode:
    owner: int | str
    infoset: str | None = None
    actions: tuple[str, ...] = ()
    children: tuple["EfgNode", ...] = ()
    chance_probs: tuple[float, ...] | None = None
    payoffs: tuple[float, ...] | None = None

    @property
    def is_terminal(self) -> bool:
        return self.owner == TERMINAL

    @property
    def is_chance(self) -> bool:
        return self.owner == CHANCE


@dataclass(frozen=True)
class EfgTree:
    n_players: int
    root: EfgNode

    def __post_init__(self):
        if self.n_players < 1:
            raise EfgError("need at least one player")
        _validate(self.root, self.n_players, {})


def _validate(node: EfgNode, n_players: int, infosets: dict) -> None:
    if node.is_terminal:
        if node.children or node.actions:
            raise EfgError("terminal nodes cannot have actions or children")
        if node.payoffs is None or len(node.payoffs) != n_players:
            raise EfgError(f"terminal payoffs must list all {n_players} players")
        return
    if not node.children:
        raise EfgError("non-terminal node without children")
    if node.is_chance:
        if node.chance_probs is None or len(node.chance_probs) != len(node.children):
            raise EfgError("chance node needs one probability per child")
        if any(p < 0 for p in node.chance_probs):
            raise EfgError("chance probabilities must be nonnegative")
        if abs(sum(node.chance_probs) - 1.0) > PROB_SUM_TOL:
            raise EfgError(f"chance probabilities sum to {sum(node.chance_probs)}, not 1")
    else:
        if not isinstance(node.owner, int) or not 0 <= node.owner < n_players:
            raise EfgError(f"invalid owner {node.owner!r}")
        if node.infoset is None:
            raise EfgError("decision node without an information set id")
        if len(node.actions) != len(node.children) or not node.actions:
            raise EfgError("decision node needs one child per action")
        seen = infosets.get(node.infoset)
        if seen is None:
            infosets[node.infoset] = (node.owner, node.actions)
        elif seen != (node.owner, node.actions):
            raise EfgError(
                f"information set {node.infoset!r} is inconsistent across nodes"
            )
    for child in node.children:
        _validate(child, n_players, infosets)


@dataclass
class InfosetVariableMap:
    """Per information set: owning player, action count, and the global
    variable indices of the first k-1 action probabilities."""

    entries: dict[str, tuple[int, int, tuple[int, ...]]]
    block_sizes: tuple[int, ...]

    def n_vars(self) -> int:
        return sum(self.block_sizes)

    def point_from_assignment(self, assignment: Mapping[str, Sequence[float]]) -> np.ndarray:
        """Map full per-infoset distributions to the eliminated-variable
        coordinates of the polynomial game."""
        x = np.zeros(self.n_vars())
        for infoset, (player, k, var_idx) in self.entries.items():
            probs = _check_distribution(assignment, infoset, k)
            for slot, var in enumerate(var_idx):
                x[var] = probs[slot]
        return x


def _check_distribution(assignment: Mapping[str, Sequence[float]], infoset: str, k: int):
    if infoset not in assignment:
        raise EfgError(f"missing strategy for information set {infoset!r}")
    probs = [float(p) for p in assignment[infoset]]
    if len(probs) != k:
        raise EfgError(f"information set {infoset!r} needs {k} probabilities")
    if any(p < -1e-12 or p > 1 + 1e-12 for p in probs):
        raise EfgError(f"probabilities for {infoset!r} outside [0, 1]")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise EfgError(f"probabilities for {infoset!r} sum to {sum(probs)}")
    return probs


def _collect_infosets(tree: EfgTree) -> InfosetVariableMap:
    per_player: list[list[str]] = [[] for _ in range(tree.n_players)]
    meta: dict[str, tuple[int, int]] = {}

    def walk(node: EfgNode):
        if node.is_terminal:
            return
        if not node.is_chance and node.infoset not in meta:
            meta[node.infoset] = (node.owner, len(node.actions))
            per_player[node.owner].append(node.infoset)
        for child in node.children:
            walk(child)

    walk(tree.root)
    entries: dict[str, tuple[int, int, tuple[int, ...]]] = {}
    next_var = 0
    block_sizes = []
    for player in range(tree.n_players):
        start = next_var
        for infoset in per_player[player]:
            _, k = meta[infoset]
            var_idx = tuple(range(next_var, next_var + k - 1))
            next_var += k - 1
            entries[infoset] = (player, k, var_idx)
        block_sizes.append(next_var - start)
    return InfosetVariableMap(entries, tuple(block_sizes))


def efg_to_game(tree: EfgTree) -> tuple[PolynomialGame, InfosetVariableMap]:
    """Expand every player's expected utility into a polynomial over the
    infoset variables and build the product-of-simplices domain."""
    vmap = _collect_infosets(tree)
    n = vmap.n_vars()
    one = Polynomial.constant(n, 1.0)
    utilities = [Polynomial.zero(n) for _ in range(tree.n_players)]

    def action_factor(infoset: str, action_index: int) -> Polynomial:
        _, k, var_idx = vmap.entries[infoset]
        if action_index < k - 1:
            return Polynomial.variable(n, var_idx[action_index])
        poly = one
        for var in var_idx:
            poly = poly - Polynomial.variable(n, var)
        return poly

    def walk(node: EfgNode, weight: Polynomial):
        if node.is_terminal:
            for i, value in enumerate(node.payoffs):
                if value:
                    utilities[i] = utilities[i] + weight.scale(value)
            return
        if node.is_chance:
            for prob, child in zip(node.chance_probs, node.children):
                if prob:
                    walk(child, weight.scale(prob))
            return
        for a, child in enumerate(node.children):
            walk(child, weight * action_factor(node.infoset, a))

    walk(tree.root, one)

    inequalities = []
    for _, k, var_idx in vmap.entries.values():
        total = one
        for var in var_idx:
            x = Polynomial.variable(n, var)
            inequalities.append(x)
            total = total - x
        inequalities.append(total)
    domain = SemialgebraicSet(n, tuple(inequalities), ())
    game = PolynomialGame(vmap.block_sizes, tuple(utilities), domain)
    return game, vmap


def expected_utility_at(
    tree: EfgTree, assignment: Mapping[str, Sequence[float]]
) -> list[float]:
    """Expected utility per player by direct tree evaluation; must agree
    with evaluating the converted polynomials at the mapped point."""
    totals = [0.0] * tree.n_players

    def walk(node: EfgNode, prob: float):
        if node.is_terminal:
            for i, value in enumerate(node.payoffs):
                totals[i] += prob * value
            return
        if node.is_chance:
            for p, child in zip(node.chance_probs, node.children):
                walk(child, prob * p)
            return
        probs = _check_distribution(assignment, node.infoset, len(node.actions))
        for p, child in zip(probs, node.children):
            walk(child, prob * p)

    walk(tree.root, 1.0)
    return totals

