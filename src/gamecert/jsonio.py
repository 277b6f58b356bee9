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


def poly_to_json(p: Polynomial) -> dict:
    return {
        "n_vars": p.n_vars,
        "terms": [
            {"exps": list(exps), "coeff": coeff} for exps, coeff in p.sorted_terms()
        ],
    }


def poly_from_json(obj: Any) -> Polynomial:
    if not isinstance(obj, dict) or "n_vars" not in obj or "terms" not in obj:
        raise FormatError("polynomial must be an object with n_vars and terms")
    n = obj["n_vars"]
    if not isinstance(n, int) or n < 0:
        raise FormatError(f"invalid n_vars {n!r}")
    terms = {}
    for t in obj["terms"]:
        exps = t.get("exps")
        coeff = t.get("coeff")
        if not isinstance(exps, list) or len(exps) != n:
            raise FormatError(f"term exponents {exps!r} do not match n_vars={n}")
        if any((not isinstance(e, int)) or e < 0 for e in exps):
            raise FormatError(f"exponents must be nonnegative integers: {exps!r}")
        if not isinstance(coeff, (int, float)) or not math.isfinite(coeff):
            raise FormatError(f"non-finite coefficient {coeff!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + float(coeff)
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
        blocks = tuple(int(p["m"]) for p in obj["players"])
    except (TypeError, KeyError) as exc:
        raise FormatError("players must be a list of objects with field 'm'") from exc
    payoffs = tuple(poly_from_json(p) for p in obj["payoffs"])
    dom = obj["domain"]
    ineq = tuple(poly_from_json(p) for p in dom.get("ineq", []))
    eq = tuple(poly_from_json(p) for p in dom.get("eq", []))
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
        return EfgNode(owner="terminal", payoffs=tuple(float(v) for v in payoffs))
    children = tuple(node_from_json(c, n_players) for c in obj.get("children", []))
    if owner == "chance":
        probs = obj.get("chance_probs")
        if not isinstance(probs, list):
            raise FormatError("chance node needs chance_probs")
        return EfgNode(
            owner="chance",
            actions=tuple(obj.get("actions", [str(k) for k in range(len(children))])),
            children=children,
            chance_probs=tuple(float(p) for p in probs),
        )
    if not isinstance(owner, int):
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
    if not isinstance(n, int) or n < 1:
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
