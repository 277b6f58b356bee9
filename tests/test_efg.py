import numpy as np
import pytest

from gamecert.efg import (
    EfgError,
    EfgNode,
    EfgTree,
    efg_to_game,
    expected_utility_at,
)
from gamecert.polynomials import Polynomial, allclose


def leaf(*payoffs):
    return EfgNode(owner="terminal", payoffs=tuple(float(p) for p in payoffs))


def test_driver_conversion(driver_tree):
    game, vmap = efg_to_game(driver_tree)
    assert game.block_sizes == (1,)
    assert allclose(game.payoffs[0], Polynomial(1, {(2,): -3.0, (1,): 4.0}), 1e-12)
    ineqs = [g.terms for g in game.domain.inequalities]
    assert {(1,): 1.0} in ineqs and {(0,): 1.0, (1,): -1.0} in ineqs
    assert vmap.entries["I"] == (0, 2, (0,))


def test_fig1_conversion(fig1_tree):
    game, vmap = efg_to_game(fig1_tree)
    assert game.block_sizes == (2, 1)
    u1 = Polynomial(3, {
        (1, 1, 0): 10.0, (1, 0, 1): 2.0, (0, 1, 1): 2.0,
        (1, 0, 0): -6.0, (0, 1, 0): -6.0, (0, 0, 1): -2.0, (0, 0, 0): 1.0,
    })
    assert allclose(game.payoffs[0], u1, 1e-12)
    assert allclose(game.payoffs[1], -u1, 1e-12)


def test_fig3_conversion(fig3_tree):
    game, _ = efg_to_game(fig3_tree)
    u1 = Polynomial(2, {
        (4, 1): -16.0, (4, 0): 25.0, (3, 1): 74.0, (3, 0): -59.0,
        (2, 1): -89.0, (2, 0): 49.0, (1, 1): 45.0, (1, 0): -19.0,
        (0, 1): -8.0, (0, 0): 3.0,
    })
    assert allclose(game.payoffs[0], u1, 1e-9)
    assert allclose(game.payoffs[1], -u1, 1e-9)


def test_single_leaf_tree():
    tree = EfgTree(2, leaf(3.5, -1.25))
    game, vmap = efg_to_game(tree)
    assert game.block_sizes == (0, 0)
    assert game.payoffs[0].terms == {(): 3.5}
    assert game.payoffs[1].terms == {(): -1.25}
    assert vmap.entries == {}


def test_driver_evaluation(driver_tree):
    assert expected_utility_at(driver_tree, {"I": [1.0, 0.0]}) == [pytest.approx(1.0)]
    assert expected_utility_at(driver_tree, {"I": [0.0, 1.0]}) == [pytest.approx(0.0)]
    # 0.25 * 1 + 0.25 * 4 + 0.5 * 0 over the three leaves
    assert expected_utility_at(driver_tree, {"I": [0.5, 0.5]}) == [pytest.approx(1.25)]


def test_tree_polynomial_agreement(driver_tree, fig1_tree, fig3_tree):
    rng = np.random.default_rng(0x5EED)
    for tree in (driver_tree, fig1_tree, fig3_tree):
        game, vmap = efg_to_game(tree)
        for _ in range(100):
            assignment = {
                infoset: rng.dirichlet(np.ones(k)).tolist()
                for infoset, (_, k, _) in vmap.entries.items()
            }
            tree_values = expected_utility_at(tree, assignment)
            point = vmap.point_from_assignment(assignment)
            poly_values = [u.evaluate(point) for u in game.payoffs]
            for a, b in zip(tree_values, poly_values):
                assert abs(a - b) <= 1e-10


def test_degree_bounded_by_depth(driver_tree, fig1_tree, fig3_tree):
    def depth(node):
        if node.is_terminal:
            return 0
        return 1 + max(depth(c) for c in node.children)

    for tree in (driver_tree, fig1_tree, fig3_tree):
        game, _ = efg_to_game(tree)
        for u in game.payoffs:
            assert u.degree <= depth(tree.root)


def test_zero_sum_preserved(fig1_tree, fig3_tree):
    for tree in (fig1_tree, fig3_tree):
        game, _ = efg_to_game(tree)
        total = game.payoffs[0]
        for u in game.payoffs[1:]:
            total = total + u
        assert total.is_zero()


def test_chance_nodes_scale_payoffs():
    # chance splits 0.25/0.75 between two one-shot decision subtrees
    decision = lambda: EfgNode(
        owner=0, infoset="J", actions=("a", "b"),
        children=(leaf(2.0), leaf(0.0)),
    )
    tree = EfgTree(1, EfgNode(
        owner="chance", chance_probs=(0.25, 0.75),
        children=(decision(), leaf(8.0)),
    ))
    game, vmap = efg_to_game(tree)
    # u = 0.25 * 2 x + 0.75 * 8 = 0.5 x + 6
    assert allclose(game.payoffs[0], Polynomial(1, {(1,): 0.5, (0,): 6.0}), 1e-12)
    assert expected_utility_at(tree, {"J": [0.5, 0.5]}) == [pytest.approx(6.25)]


def test_validation_inconsistent_infoset():
    with pytest.raises(EfgError):
        EfgTree(1, EfgNode(
            owner=0, infoset="I", actions=("a", "b"),
            children=(
                EfgNode(owner=0, infoset="I", actions=("a",), children=(leaf(0.0),)),
                leaf(1.0),
            ),
        ))


def test_validation_chance_probabilities():
    with pytest.raises(EfgError):
        EfgTree(1, EfgNode(owner="chance", chance_probs=(0.5, 0.6),
                           children=(leaf(0.0), leaf(1.0))))
    with pytest.raises(EfgError):
        EfgTree(1, EfgNode(owner="chance", chance_probs=(-0.1, 1.1),
                           children=(leaf(0.0), leaf(1.0))))


def test_validation_terminal_payoffs():
    with pytest.raises(EfgError):
        EfgTree(2, leaf(1.0))  # one payoff for two players


def test_evaluation_rejects_bad_strategies(driver_tree):
    with pytest.raises(EfgError):
        expected_utility_at(driver_tree, {"I": [0.7, 0.7]})
    with pytest.raises(EfgError):
        expected_utility_at(driver_tree, {"I": [1.5, -0.5]})
    with pytest.raises(EfgError):
        expected_utility_at(driver_tree, {})
