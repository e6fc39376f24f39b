"""Self-describing JSON documents for instances, transcripts and run reports.

Every rational is serialized as an exact "p/q" string; nothing is ever
rounded.  Documents carry a format tag and version and round-trip losslessly.
Serialization output is deterministic (sorted keys, fixed indentation), so
repeated runs with the same seeds produce byte-identical files.

``dumps`` writes exactly the text of ``json.dumps(doc, sort_keys=True,
indent=2, default=rational_str)`` and a newline.  Given an indent, json
encodes every value in pure Python; ``dumps`` instead hands each container
whose values are all plain scalars to json's C encoder in one call, with the
newline and that level's indentation in the item separator, and places the
two brackets itself.  Only the containers above those are walked in Python.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping

from .engine import GameConfig, Round, TieBreak, Transcript
from .model import AgentSpec, FractionalPartition, Instance
from .valuations import (
    AdditiveValuation,
    RowSubstitutesValuation,
    TableValuation,
    UnitDemandValuation,
    ValuationOracle,
    WeightedCoverageValuation,
    XOSValuation,
)

FORMAT_INSTANCE = "bidfair/instance"
FORMAT_TRANSCRIPT = "bidfair/transcript"
FORMAT_REPORT = "bidfair/report"
FORMAT_LPCERT = "bidfair/lpcert"
VERSION = 1


class ParseError(ValueError):
    pass


def rational_str(x: Fraction | int) -> str:
    """``x`` as "p/q" in lowest terms, read off ``as_integer_ratio``.

    >>> rational_str(Fraction(-6, 4)), rational_str(3), rational_str(0)
    ('-3/2', '3/1', '0/1')
    """
    n, d = x.as_integer_ratio()
    return f"{n}/{d}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def _rationals() -> Callable[[Any], Fraction]:
    """``parse_rational`` that parses each distinct string once for as long as
    the caller keeps it: a transcript repeats a few bid strings thousands of
    times, and Fraction's regex costs far more than a lookup."""
    parsed: dict[str, Fraction] = {}

    def parse(text: Any) -> Fraction:
        if not isinstance(text, str):
            return parse_rational(text)
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    return parse


# the values json writes as one token, the same with or without an indent;
# a Fraction goes through ``default`` to its "p/q" string
_SCALARS = frozenset({str, int, bool, float, type(None), Fraction})


@cache
def _flat_encoder(level: int) -> json.JSONEncoder:
    """json's C encoder for the scalars of a container at nesting ``level``:
    its item separator carries the newline and the items' indentation."""
    return json.JSONEncoder(
        sort_keys=True, separators=(",\n" + "  " * (level + 1), ": "), default=rational_str
    )


def _key(key: Any) -> str:
    """An object key as json writes it; a key that is not a string is written
    as json's own encoder writes it in a one-entry object."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return _flat_encoder(0).encode({key: 0})[1:-len(": 0}")]


def _write(value: Any, level: int, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(..., indent=2)`` writes it
    at nesting ``level``."""
    if isinstance(value, dict):
        values, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        values, brackets = value, "[]"
    else:
        values, brackets = (), ""
    if not values:  # a scalar or an empty container: one token
        out.append(_flat_encoder(level).encode(value))
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if _SCALARS.issuperset(map(type, values)):
        # "[1,\n    2]" at level 1: only the brackets need their own lines
        text = _flat_encoder(level).encode(value)
        out += (brackets[0], inner, text[1:-1], outer, brackets[1])
        return
    if brackets == "{}":
        entries = ((_key(key) + ": ", item) for key, item in sorted(value.items()))
    else:
        entries = (("", item) for item in value)
    out.append(brackets[0])
    separator = inner
    for head, item in entries:
        out += (separator, head)
        _write(item, level + 1, out)
        separator = "," + inner
    out += (outer, brackets[1])


def dumps(document: Mapping[str, Any]) -> str:
    """``document`` as indented JSON with sorted keys, each Fraction as "p/q":
    byte for byte ``json.dumps(document, sort_keys=True, indent=2,
    default=rational_str) + "\\n"``, written by json's C encoder one
    container of scalars at a time (see the module docstring)."""
    out: list[str] = []
    _write(document, 0, out)
    out.append("\n")
    return "".join(out)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    return doc


def _expect(doc: Mapping[str, Any], fmt: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"expected a {fmt!r} object, found {type(doc).__name__}")
    if doc.get("format") != fmt:
        raise ParseError(f"expected format {fmt!r}, found {doc.get('format')!r}")
    if doc.get("version") != VERSION:
        raise ParseError(f"unsupported version {doc.get('version')!r}")


def valuation_to_dict(v: ValuationOracle) -> dict:
    if isinstance(v, AdditiveValuation):
        return {
            "kind": "additive",
            "values": {e: rational_str(x) for e, x in v.item_values.items()},
        }
    if isinstance(v, UnitDemandValuation):
        return {
            "kind": "unit_demand",
            "values": {e: rational_str(x) for e, x in v.item_values.items()},
        }
    if isinstance(v, XOSValuation):
        return {
            "kind": "xos",
            "clauses": [
                {e: rational_str(x) for e, x in clause.items()} for clause in v.clauses
            ],
        }
    if isinstance(v, RowSubstitutesValuation):
        return {
            "kind": "row_substitutes",
            "rows": [list(row) for row in v.rows],
            "weights": [rational_str(w) for w in v.weights],
        }
    if isinstance(v, WeightedCoverageValuation):
        return {
            "kind": "coverage",
            "universe": {u: rational_str(w) for u, w in v.element_weights.items()},
            "covers": {e: sorted(us) for e, us in v.covers.items()},
        }
    if isinstance(v, TableValuation):
        return {
            "kind": "table",
            "items": list(v.items),
            "values": sorted([sorted(k), rational_str(x)] for k, x in v.table.items()),
        }
    raise TypeError(f"cannot serialize valuation of type {type(v).__name__}")


_KIND_NAMES = {
    dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "an integer",
}
_REQUIRED = object()


def _is(value: Any, kind: type) -> bool:
    """``isinstance``, except that a bool is not an integer."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _typed(doc: Mapping[str, Any], key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``doc[key]``, which must be of ``kind``; ``default`` when the key is
    absent and a default is given."""
    if key not in doc:
        if default is _REQUIRED:
            raise ParseError(f"missing {key!r}")
        return default
    value = doc[key]
    if not _is(value, kind):
        raise ParseError(f"{key!r} must be {_KIND_NAMES[kind]}, not {type(value).__name__}")
    return value


def _all_typed(values: Any, kind: type, what: str) -> Any:
    if not all(_is(value, kind) for value in values):
        raise ParseError(f"every {what} must be {_KIND_NAMES[kind]}")
    return values


def valuation_from_dict(doc: Mapping[str, Any]) -> ValuationOracle:
    parse = _rationals()
    kind = doc.get("kind")
    if kind == "additive":
        values = _typed(doc, "values", dict)
        return AdditiveValuation({e: parse(x) for e, x in values.items()})
    if kind == "unit_demand":
        values = _typed(doc, "values", dict)
        return UnitDemandValuation({e: parse(x) for e, x in values.items()})
    if kind == "xos":
        clauses = _all_typed(_typed(doc, "clauses", list), dict, "clause")
        return XOSValuation(
            [{e: parse(x) for e, x in clause.items()} for clause in clauses]
        )
    if kind == "row_substitutes":
        rows = _all_typed(_typed(doc, "rows", list), list, "row")
        _all_typed(chain.from_iterable(rows), str, "row item")
        return RowSubstitutesValuation(
            rows,
            [parse(w) for w in _typed(doc, "weights", list)],
        )
    if kind == "coverage":
        covers = _typed(doc, "covers", dict)
        _all_typed(chain.from_iterable(_all_typed(covers.values(), list, "cover")), str, "covered element")
        return WeightedCoverageValuation(
            {u: parse(w) for u, w in _typed(doc, "universe", dict).items()},
            {e: frozenset(us) for e, us in covers.items()},
        )
    if kind == "table":
        return _table_from_dict(doc)
    raise ParseError(f"unknown valuation kind {kind!r}")


def _table_from_dict(doc: Mapping[str, Any]) -> TableValuation:
    """A table's ``values`` are ``[items, value]`` pairs; an object keyed by
    comma-joined item ids, as written before, is still read.  The table must
    give exactly one value for every subset of its ``items``."""
    items = _all_typed(_typed(doc, "items", list), str, "table item")
    values = doc["values"]
    if isinstance(values, dict):
        entries = [(k.split(",") if k else [], x) for k, x in values.items()]
    elif isinstance(values, list):
        entries = _all_typed(values, list, "table entry")
        if any(len(entry) != 2 for entry in entries):
            raise ParseError("every table entry must be an [items, value] pair")
        _all_typed((bundle for bundle, _ in entries), list, "table entry's items")
        _all_typed(chain.from_iterable(bundle for bundle, _ in entries), str, "table entry's item")
    else:
        raise ParseError(f"'values' must be a list, not {type(values).__name__}")
    universe = frozenset(items)
    parse = _rationals()
    table: dict[frozenset, Fraction] = {}
    for bundle, x in entries:
        key = frozenset(bundle)
        if not key <= universe:
            raise ParseError(f"table entry names items outside the table: {sorted(key - universe)}")
        if key in table:
            raise ParseError(f"table has two entries for {sorted(key)}")
        table[key] = parse(x)
    if len(table) < 2 ** len(universe):
        # at most len(table) subsets are present, so this stops soon
        subsets = (
            frozenset(c) for size in range(len(universe) + 1)
            for c in combinations(sorted(universe), size)
        )
        missing = next(subset for subset in subsets if subset not in table)
        raise ParseError(f"table valuation has no entry for {sorted(missing)}")
    return TableValuation(items, table)


def instance_to_dict(instance: Instance) -> dict:
    return {
        "format": FORMAT_INSTANCE,
        "version": VERSION,
        "items": list(instance.items),
        "agents": [
            {
                "id": a.id,
                "entitlement": rational_str(a.entitlement),
                "valuation": valuation_to_dict(a.valuation),
            }
            for a in instance.agents
        ],
    }


def instance_from_dict(doc: Mapping[str, Any]) -> Instance:
    _expect(doc, FORMAT_INSTANCE)
    parse = _rationals()
    try:
        agents = tuple(
            AgentSpec(
                a["id"],
                parse(a["entitlement"]),
                valuation_from_dict(_typed(a, "valuation", dict)),
            )
            for a in _all_typed(_typed(doc, "agents", list), dict, "agent")
        )
        _all_typed((a.id for a in agents), str, "agent id")
        items = _all_typed(_typed(doc, "items", list), str, "item")
        instance = Instance(items=tuple(items), agents=agents)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad instance document: {exc}") from exc
    for a in instance.agents:
        # every other kind values an item it does not name at 0; a table cannot
        if isinstance(a.valuation, TableValuation):
            missing = sorted(instance.item_set.difference(a.valuation.items))
            if missing:
                raise ParseError(f"table valuation of agent {a.id!r} misses items {missing}")
    return instance


def config_to_dict(config: GameConfig) -> dict:
    tie: dict[str, Any] = {"policy": config.tie.policy}
    if config.tie.seed is not None:
        tie["seed"] = config.tie.seed
    if config.tie.target is not None:
        tie["target"] = config.tie.target
    if config.tie.prefs:
        tie["prefs"] = [list(p) for p in config.tie.prefs]
    doc: dict[str, Any] = {"mode": config.mode, "tie": tie}
    if config.rho is not None:
        doc["rho"] = rational_str(config.rho)
    if not config.strict_threshold:
        doc["strict_threshold"] = False
    return doc


def config_from_dict(doc: Mapping[str, Any]) -> GameConfig:
    tie_doc = _typed(doc, "tie", dict, {})
    prefs = _all_typed(_typed(tie_doc, "prefs", list, []), list, "tie preference")
    tie = TieBreak(
        policy=tie_doc.get("policy", "lexicographic"),
        seed=_typed(tie_doc, "seed", int, None),
        target=_typed(tie_doc, "target", str, None),
        prefs=tuple(tuple(_all_typed(p, str, "preferred agent")) for p in prefs),
    )
    return GameConfig(
        mode=doc.get("mode", "standard"),
        rho=parse_rational(doc["rho"]) if "rho" in doc else None,
        strict_threshold=_typed(doc, "strict_threshold", bool, True),
        tie=tie,
    )


def transcript_to_dict(transcript: Transcript) -> dict:
    # a game hands the same few bid objects around for thousands of bids, so
    # each object is written once; the transcript keeps every one alive
    texts: dict[int, str] = {}

    def text(bid: Fraction) -> str:
        texts[id(bid)] = written = rational_str(bid)
        return written

    return {
        "format": FORMAT_TRANSCRIPT,
        "version": VERSION,
        "config": config_to_dict(transcript.config),
        "agent_ids": list(transcript.agent_ids),
        "rounds": [
            {
                "number": r.number,
                "bids": {a: texts.get(id(b)) or text(b) for a, b in r.bids.items()},
                "winner": r.winner,
                "items": list(r.items),
                "payment": texts.get(id(r.payment)) or text(r.payment),
            }
            for r in transcript.rounds
        ],
        "allocation": {a: sorted(bundle) for a, bundle in transcript.allocation.items()},
        "unallocated": list(transcript.unallocated),
        "violations": list(transcript.violations),
    }


def transcript_from_dict(doc: Mapping[str, Any]) -> Transcript:
    _expect(doc, FORMAT_TRANSCRIPT)
    parse = _rationals()
    try:
        rounds = tuple(
            Round(
                number=r["number"],
                bids={a: parse(b) for a, b in _typed(r, "bids", dict).items()},
                winner=r["winner"],
                items=tuple(_typed(r, "items", list)),
                payment=parse(r["payment"]),
            )
            for r in _typed(doc, "rounds", list)
        )
        # one pass over all picks, which a valid game keeps to one per item
        _all_typed((r.number for r in rounds), int, "round number")
        _all_typed((r.winner for r in rounds), str, "round winner")
        _all_typed(chain.from_iterable(r.items for r in rounds), str, "picked item")
        allocation = _typed(doc, "allocation", dict)
        return Transcript(
            config=config_from_dict(_typed(doc, "config", dict)),
            rounds=rounds,
            allocation={
                a: frozenset(_all_typed(_typed(allocation, a, list), str, "allocated item"))
                for a in allocation
            },
            agent_ids=tuple(_all_typed(_typed(doc, "agent_ids", list), str, "agent id")),
            unallocated=tuple(_all_typed(_typed(doc, "unallocated", list), str, "unallocated item")),
            violations=tuple(_all_typed(_typed(doc, "violations", list), str, "violation")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad transcript document: {exc}") from exc


def partition_to_dict(partition: FractionalPartition) -> list:
    return [
        {"bundle": sorted(bundle), "weight": rational_str(w)}
        for bundle, w in partition.entries
    ]


def report_to_dict(
    instance: Instance,
    transcript: Transcript,
    guarantees: list[dict] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "format": FORMAT_REPORT,
        "version": VERSION,
        "instance": instance_to_dict(instance),
        "transcript": transcript_to_dict(transcript),
    }
    if guarantees is not None:
        doc["guarantees"] = guarantees
    if extra:
        doc.update(extra)
    return doc


def report_from_dict(doc: Mapping[str, Any]) -> tuple[Instance, Transcript, list[dict]]:
    _expect(doc, FORMAT_REPORT)
    instance = instance_from_dict(_typed(doc, "instance", dict))
    transcript = transcript_from_dict(_typed(doc, "transcript", dict))
    return instance, transcript, _all_typed(_typed(doc, "guarantees", list, []), dict, "guarantee entry")
