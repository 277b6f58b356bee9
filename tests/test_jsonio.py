import copy

import pytest

from gamecert.jsonio import FormatError, game_from_json, poly_from_json


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


def test_poly_json_rejects_a_bool_n_vars():
    # one exponent per term, as n_vars = 1 would ask
    with pytest.raises(FormatError):
        poly_from_json({"n_vars": True, "terms": [{"exps": [1], "coeff": 1.0}]})
