"""JSON file formats for polynomials, games, and game trees.

Polynomial: {"n_vars": n, "terms": [{"exps": [e1..en], "coeff": c}, ...]}
Game:       {"players": [{"m": m_i}, ...], "payoffs": [Polynomial, ...],
             "domain": {"ineq": [Polynomial, ...], "eq": [Polynomial, ...]}}
Tree:       {"players": n, "root": node} with node
            {"owner": int | "chance" | "terminal", "infoset": id?,
             "actions": [...], "chance_probs": [...]?, "children": [...]?,
             "payoffs": [...]?}

Games are read and written, trees only read.  Serialization is
deterministic: terms are emitted in graded-reverse-lex order and objects
with sorted keys, so identical data produces identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .efg import EfgNode, EfgTree
from .games import PolynomialGame, SemialgebraicSet
from .polynomials import Polynomial


class FormatError(ValueError):
    pass


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` and ``false`` are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value: Any, what: str) -> float:
    """A JSON number as a float: not a bool, a string, nan or an infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise FormatError(f"{what} must be a finite number: {value!r}")
    return float(value)


def poly_to_json(p: Polynomial) -> dict:
    return {
        "n_vars": p.n_vars,
        "terms": [
            {"exps": list(exps), "coeff": coeff} for exps, coeff in p.sorted_terms()
        ],
    }


def poly_from_json(obj: Any) -> Polynomial:
    if not isinstance(obj, dict) or "n_vars" not in obj or not isinstance(obj.get("terms"), list):
        raise FormatError(f"polynomial must be an object with n_vars and a terms list: {obj!r}")
    n = obj["n_vars"]
    if not _is_int(n) or n < 0:
        raise FormatError(f"invalid n_vars {n!r}")
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict):
            raise FormatError(f"polynomial term must be an object with exps and coeff: {t!r}")
        exps = t.get("exps")
        coeff = t.get("coeff")
        if not isinstance(exps, list) or len(exps) != n:
            raise FormatError(f"term exponents {exps!r} do not match n_vars={n}")
        if any(not _is_int(e) or e < 0 for e in exps):
            raise FormatError(f"exponents must be nonnegative integers: {exps!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + _finite(coeff, "coefficient")
    return Polynomial(n, terms)


def game_to_json(game: PolynomialGame) -> dict:
    return {
        "players": [{"m": m} for m in game.block_sizes],
        "payoffs": [poly_to_json(u) for u in game.payoffs],
        "domain": {
            "ineq": [poly_to_json(g) for g in game.domain.inequalities],
            "eq": [poly_to_json(h) for h in game.domain.equalities],
        },
    }


def game_from_json(obj: Any) -> PolynomialGame:
    if not isinstance(obj, dict):
        raise FormatError("game file must contain a JSON object")
    for key in ("players", "payoffs", "domain"):
        if key not in obj:
            raise FormatError(f"game object missing {key!r}")
    try:
        blocks = tuple(p["m"] for p in obj["players"])
    except (TypeError, KeyError) as exc:
        raise FormatError("players must be a list of objects with field 'm'") from exc
    if not all(_is_int(m) for m in blocks):
        raise FormatError(f"block sizes must be integers: {list(blocks)!r}")
    dom = obj["domain"]
    if not isinstance(dom, dict):
        raise FormatError(f"domain must be an object with ineq and eq lists: {dom!r}")
    lists = {"payoffs": obj["payoffs"], "domain ineq": dom.get("ineq", []), "domain eq": dom.get("eq", [])}
    for what, value in lists.items():
        if not isinstance(value, list):
            raise FormatError(f"{what} must be a list of polynomials: {value!r}")
    payoffs, ineq, eq = (tuple(map(poly_from_json, value)) for value in lists.values())
    n = sum(blocks)
    domain = SemialgebraicSet(n, ineq, eq)
    try:
        return PolynomialGame(blocks, payoffs, domain)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def node_from_json(obj: Any, n_players: int) -> EfgNode:
    if not isinstance(obj, dict) or "owner" not in obj:
        raise FormatError("tree node must be an object with an owner")
    owner = obj["owner"]
    if owner == "terminal":
        payoffs = obj.get("payoffs")
        if not isinstance(payoffs, list):
            raise FormatError("terminal node needs payoffs")
        return EfgNode(owner="terminal", payoffs=tuple(_finite(v, "payoff") for v in payoffs))
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise FormatError(f"children must be a list of tree nodes: {children!r}")
    children = tuple(node_from_json(c, n_players) for c in children)
    if owner == "chance":
        probs = obj.get("chance_probs")
        if not isinstance(probs, list):
            raise FormatError("chance node needs chance_probs")
        return EfgNode(
            owner="chance",
            actions=tuple(obj.get("actions", [str(k) for k in range(len(children))])),
            children=children,
            chance_probs=tuple(_finite(p, "chance probability") for p in probs),
        )
    if not _is_int(owner):
        raise FormatError(f"owner must be a player index, 'chance' or 'terminal': {owner!r}")
    actions = obj.get("actions")
    if not isinstance(actions, list):
        raise FormatError("decision node needs an actions list")
    infoset = obj.get("infoset")
    if infoset is None:
        raise FormatError("decision node needs an infoset id")
    return EfgNode(
        owner=owner,
        infoset=str(infoset),
        actions=tuple(str(a) for a in actions),
        children=children,
    )


def efg_from_json(obj: Any) -> EfgTree:
    if not isinstance(obj, dict) or "players" not in obj or "root" not in obj:
        raise FormatError("tree file needs 'players' and 'root'")
    n = obj["players"]
    if not _is_int(n) or n < 1:
        raise FormatError(f"invalid player count {n!r}")
    return EfgTree(n, node_from_json(obj["root"], n))


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_game(path: str) -> PolynomialGame:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    return game_from_json(obj)


def save_game(game: PolynomialGame, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(game_to_json(game)))


def load_efg(path: str) -> EfgTree:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    return efg_from_json(obj)
