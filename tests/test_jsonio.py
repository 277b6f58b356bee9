import copy
import json

import pytest

from gamecert.jsonio import FormatError, efg_from_json, game_from_json, poly_from_json


def game_json():
    """Two one-variable players, each with payoff x0*x1, on all of R^2."""
    payoff = {"n_vars": 2, "terms": [{"exps": [1, 1], "coeff": 1.0}]}
    return {
        "players": [{"m": 1}, {"m": 1}],
        "payoffs": [copy.deepcopy(payoff) for _ in range(2)],
        "domain": {"ineq": [], "eq": []},
    }


def test_game_json_loads():
    game = game_from_json(game_json())
    assert game.block_sizes == (1, 1)
    assert game.payoffs[0].coeff((1, 1)) == 1.0


def block_size(obj, value):
    obj["players"][1]["m"] = value


def exponent(obj, value):
    obj["payoffs"][0]["terms"][0]["exps"][0] = value


def coefficient(obj, value):
    obj["payoffs"][0]["terms"][0]["coeff"] = value


# a JSON bool is a Python int, and int() reads floats and strings: none of
# these may load as a number of variables, a power or a coefficient
@pytest.mark.parametrize("field, value", [
    (block_size, 1.9),
    (block_size, "1"),
    (block_size, True),
    (exponent, True),
    (coefficient, True),
], ids=["block-size-float", "block-size-string", "block-size-bool", "exponent-bool", "coefficient-bool"])
def test_game_json_rejects_numbers_of_the_wrong_type(field, value):
    obj = game_json()
    field(obj, value)
    with pytest.raises(FormatError):
        game_from_json(obj)


def terms(obj, value):
    obj["payoffs"][0]["terms"] = value


def term(obj, value):
    obj["payoffs"][0]["terms"][0] = value


def domain(obj, value):
    obj["domain"] = value


def inequalities(obj, value):
    obj["domain"]["ineq"] = value


def payoffs(obj, value):
    obj["payoffs"] = value


# these shapes used to escape as AttributeError or TypeError, and a payoffs
# object as "polynomial must be an object"; each error names its field
@pytest.mark.parametrize("field, value, named", [
    (terms, {"a": 1}, "terms"),
    (terms, None, "terms"),
    (term, [1], "term"),
    (domain, [], "domain"),
    (inequalities, 3, "ineq"),
    (payoffs, {"u0": game_json()["payoffs"][0]}, "payoffs"),
], ids=["terms-object", "terms-null", "term-list", "domain-list", "ineq-number", "payoffs-object"])
def test_game_json_rejects_malformed_shapes(field, value, named):
    obj = game_json()
    field(obj, value)
    with pytest.raises(FormatError, match=named):
        game_from_json(obj)


def test_poly_json_rejects_a_bool_n_vars():
    # one exponent per term, as n_vars = 1 would ask
    with pytest.raises(FormatError):
        poly_from_json({"n_vars": True, "terms": [{"exps": [1], "coeff": 1.0}]})


def leaf(*payoffs):
    return {"owner": "terminal", "payoffs": list(payoffs)}


def tree_json():
    """Player 0 picks a fair coin or player 1's move."""
    return {"players": 2, "root": {"owner": 0, "infoset": "root", "actions": ["coin", "move"], "children": [
        {"owner": "chance", "actions": ["h", "t"], "chance_probs": [0.5, 0.5],
         "children": [leaf(1.0, -1.0), leaf(-1.0, 1.0)]},
        {"owner": 1, "infoset": "p1", "actions": ["l", "r"], "children": [leaf(3, -3), leaf(0, 0)]},
    ]}}


def test_tree_json_loads():
    tree = efg_from_json(tree_json())
    assert tree.n_players == 2
    assert tree.root.children[1].children[0].payoffs == (3.0, -3.0)


def test_tree_json_rejects_a_bool_player_count():
    # a one-player tree, which true would pass for
    with pytest.raises(FormatError):
        efg_from_json({"players": True, "root": leaf(1.0)})


def owner(obj, value):
    obj["root"]["children"][1]["owner"] = value


def payoff(obj, value):
    obj["root"]["children"][1]["children"][0]["payoffs"][0] = value


def chance_prob(obj, value):
    obj["root"]["children"][0]["chance_probs"][0] = value


# before these checks float() read each of them, or owner true played as
# player 1; a nan leaf dropped out of the utility polynomial
@pytest.mark.parametrize("field, value", [
    (owner, True),
    (payoff, "3"),
    (payoff, True),
    (payoff, "nan"),
    (payoff, float("nan")),
    (payoff, json.loads("Infinity")),
    (chance_prob, "0.5"),
    (chance_prob, float("nan")),
], ids=["owner-bool", "payoff-string", "payoff-bool", "payoff-nan-string", "payoff-nan", "payoff-infinity",
        "chance-string", "chance-nan"])
def test_tree_json_rejects_numbers_of_the_wrong_type(field, value):
    obj = tree_json()
    field(obj, value)
    with pytest.raises(FormatError):
        efg_from_json(obj)


def test_tree_json_rejects_children_that_are_not_a_list():
    # a number here used to escape as TypeError
    obj = tree_json()
    obj["root"]["children"][1]["children"] = 3
    with pytest.raises(FormatError, match="children"):
        efg_from_json(obj)
