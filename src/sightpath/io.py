"""Instance and scenario files: JSON documents with exact decimal probabilities.

Failure probabilities travel as strings ("0.25", "1/4") so nothing is rounded
to binary on ingest; parse -> serialize -> parse is the identity.

:func:`serialize_instance` writes the bytes of ``json.dumps(instance_to_dict(
instance), indent=2)`` and a newline: the keys ``vertices``, ``edges`` (objects
with ``tail``, ``head`` and ``p_fail``, in the instance's edge order),
``sight`` (objects with ``observer``, ``tail`` and ``head``) and ``task``
(``start``, ``dest``), in that order, two spaces per level, ASCII only.

Reading refuses, as :class:`FileFormatError`: a file that is not UTF-8 text,
a JSON object that repeats a key, a key that an instance's top level, its
``task``, an edge or sight object, or a scenario's top level does not have,
and a ``p_fail`` whose decimal exponent is beyond
:data:`~sightpath.model.MAX_EXPONENT`.  Each distinct ``p_fail`` literal is
parsed once.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Sequence, Union

from .exact import Valuation
from .model import (
    EdgePair,
    Instance,
    Knowledge,
    Status,
    as_probability,
    format_number,
    format_pair,
)


class FileFormatError(Exception):
    """The document is not a well-formed instance or scenario file."""


def parse_edge_key(key: str) -> EdgePair:
    match = re.fullmatch(r"([0-9]+)-([0-9]+)", key)  # ASCII digits only
    try:
        return (int(match[1]), int(match[2]))
    except (TypeError, ValueError):  # no match, or more digits than int() reads
        raise FileFormatError(f"edge key {key!r} is not of the form 'tail-head'") from None


def format_probability(p: Fraction) -> str:
    """Render exactly: as a decimal when the denominator allows, else 'p/q'."""
    denominator = p.denominator
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        return format_number(p)
    digits = max(twos, fives)
    if digits == 0:
        return str(p.numerator)
    scaled = abs(p.numerator) * 10**digits // p.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{'-' if p < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def format_valuation(value: Valuation) -> str:
    """Exact fraction plus a 12-significant-digit decimal, or just the float."""
    if isinstance(value, Fraction):
        num, den = format_number(value.numerator), format_number(value.denominator)
        return f"{num}/{den} ({float(value):.12g})"
    return f"{value:.12g}"


def _expect(mapping: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise FileFormatError(f"{where} is missing the field {key!r}")
    value = mapping[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FileFormatError(f"{where}.{key} must be a {kind.__name__}")
    return value


@lru_cache(maxsize=256)
def _probability_literal(raw: Union[str, int]) -> Fraction:
    """``as_probability(raw)``, once per distinct literal: instance files
    repeat a few.  A literal that raises is not cached."""
    return as_probability(raw)


def _parse_p_fail(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise FileFormatError(
            f"{where}.p_fail must be a decimal string such as \"0.25\" (floats lose exactness)"
        )
    if not isinstance(raw, (str, int)):
        raise FileFormatError(f"{where}.p_fail must be a string or integer")
    try:
        return _probability_literal(raw)
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(f"{where}.p_fail value {raw!r} is not a probability literal") from None


_EDGE_KEYS = ("tail", "head", "p_fail")
_SIGHT_KEYS = ("observer", "tail", "head")


def _edge_record(entry: Any, i: int) -> tuple[int, int, Fraction]:
    """``(tail, head, p_fail)`` of the object ``edges[i]``.

    A well-formed object is read with one dict check and exact type tests;
    anything else takes the field-by-field reading that names the fault,
    an unknown key first.
    """
    if (
        type(entry) is dict and len(entry) == 3
        and "tail" in entry and "head" in entry and "p_fail" in entry
    ):
        tail, head, raw = entry["tail"], entry["head"], entry["p_fail"]
        if type(tail) is int and type(head) is int and type(raw) is str:
            try:
                return tail, head, _probability_literal(raw)
            except (ValueError, ZeroDivisionError):
                pass  # reported below
    where = f"edges[{i}]"
    if isinstance(entry, dict):
        _known_keys(entry, _EDGE_KEYS, where)
    return (
        _expect(entry, "tail", int, where),
        _expect(entry, "head", int, where),
        _parse_p_fail(_expect(entry, "p_fail", object, where), where),
    )


def _sight_record(entry: Any, i: int) -> tuple[int, int, int]:
    """``(observer, tail, head)`` of the object ``sight[i]``, read as
    :func:`_edge_record` reads an edge."""
    if (
        type(entry) is dict and len(entry) == 3
        and "observer" in entry and "tail" in entry and "head" in entry
    ):
        observer, tail, head = entry["observer"], entry["tail"], entry["head"]
        if type(observer) is int and type(tail) is int and type(head) is int:
            return observer, tail, head
    where = f"sight[{i}]"
    if isinstance(entry, dict):
        _known_keys(entry, _SIGHT_KEYS, where)
    return (
        _expect(entry, "observer", int, where),
        _expect(entry, "tail", int, where),
        _expect(entry, "head", int, where),
    )


def _known_keys(doc: dict, keys: tuple[str, ...], where: str) -> None:
    """Refuse a key of ``doc`` that is not one of ``keys``: a misspelt key
    would otherwise drop its data unseen."""
    for key in doc:
        if key not in keys:
            raise FileFormatError(f"{where} has an unknown key {key!r}")


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise FileFormatError("instance document must be a JSON object")
    _known_keys(doc, ("vertices", "edges", "sight", "task"), "instance")
    n = _expect(doc, "vertices", int, "instance")
    edges = _expect(doc, "edges", list, "instance")
    edges = [_edge_record(entry, i) for i, entry in enumerate(edges)]
    sight = _expect(doc, "sight", list, "instance") if "sight" in doc else []
    sights = [_sight_record(entry, i) for i, entry in enumerate(sight)]
    task = _expect(doc, "task", dict, "instance")
    _known_keys(task, ("start", "dest"), "task")
    return Instance.build(
        n,
        edges,
        sights,
        task=(_expect(task, "start", int, "task"), _expect(task, "dest", int, "task")),
    )


def instance_to_dict(instance: Instance) -> dict:
    return {
        "vertices": instance.vertex_count,
        "edges": [
            {"tail": e.tail, "head": e.head, "p_fail": format_probability(e.p_fail)}
            for e in instance.edges
        ],
        "sight": [
            {"observer": s.observer, "tail": s.edge[0], "head": s.edge[1]}
            for s in instance.sights
        ],
        "task": {"start": instance.start, "dest": instance.dest},
    }


def knowledge_to_dict(knowledge: Knowledge) -> dict:
    """A knowledge state's JSON form: ``"tail-head": "up"|"down"`` in edge order."""
    return {format_pair(pair): status.value for pair, status in knowledge.sorted_items()}


def _unique_keys(pairs: Sequence[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key that it repeats."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise FileFormatError(f"the key {key!r} appears twice in one object")
    return doc


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
        raise FileFormatError(f"not valid JSON: {exc}") from None
    return instance_from_dict(doc)


# ``json.dumps(instance_to_dict(instance), indent=2)``, written from templates:
# json's C encoder does not run when ``indent`` is set
_INSTANCE = (
    "{\n"
    '  "vertices": %d,\n'
    '  "edges": %s,\n'
    '  "sight": %s,\n'
    '  "task": {\n'
    '    "start": %d,\n'
    '    "dest": %d\n'
    "  }\n"
    "}\n"
)
_EDGE = (
    "    {\n"
    '      "tail": %d,\n'
    '      "head": %d,\n'
    '      "p_fail": "%s"\n'
    "    }"
)
_SIGHT = (
    "    {\n"
    '      "observer": %d,\n'
    '      "tail": %d,\n'
    '      "head": %d\n'
    "    }"
)


@lru_cache(maxsize=256)
def _probability_text(numerator: int, denominator: int) -> str:
    """``format_probability`` of ``numerator/denominator``, which needs no JSON
    escaping; keyed by two ints, which hash faster than a ``Fraction``."""
    return format_probability(Fraction(numerator, denominator))


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def serialize_instance(instance: Instance) -> str:
    """The instance file's text: ``json.dumps(instance_to_dict(instance),
    indent=2)`` and a newline, byte for byte."""
    edges = [
        _EDGE % (e.tail, e.head, _probability_text(e.p_fail.numerator, e.p_fail.denominator))
        for e in instance.edges
    ]
    sights = [_SIGHT % (s.observer, *s.edge) for s in instance.sights]
    task = instance.task
    return _INSTANCE % (
        instance.vertex_count, _json_list(edges), _json_list(sights), task.start, task.dest
    )


def _read_text(path: Union[str, Path]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text: {exc}") from None


def load_instance(path: Union[str, Path]) -> Instance:
    return parse_instance(_read_text(path))


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(serialize_instance(instance))


_STATUS_WORDS = {"up": Status.UP, "down": Status.DOWN}


def parse_scenario(text: str, instance: Instance) -> Knowledge:
    """Parse a scenario file against an instance: the knowledge state of its
    ``statuses``.  A top-level key other than ``statuses``, or one given
    twice, is refused, and so is an edge named twice, by one key or two
    spellings of it.
    """
    try:
        # a JSON object as the tuple of its (key, value) pairs, repeated keys kept
        doc = json.loads(text, object_pairs_hook=tuple)
    except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
        raise FileFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, tuple):
        raise FileFormatError("scenario document must be a JSON object")
    doc = _unique_keys(doc)
    _known_keys(doc, ("statuses",), "scenario")
    raw = doc.get("statuses", ())
    if not isinstance(raw, tuple):
        raise FileFormatError("scenario.statuses must be an object")
    statuses = {}
    for key, word in raw:
        pair = parse_edge_key(key)
        if not instance.has_edge(pair):
            raise FileFormatError(f"scenario references missing edge {format_pair(pair)}")
        if pair in statuses:
            raise FileFormatError(f"scenario names edge {format_pair(pair)} twice")
        if not isinstance(word, str) or word.lower() not in _STATUS_WORDS:
            raise FileFormatError(f"status for {key!r} must be \"up\" or \"down\"")
        statuses[pair] = _STATUS_WORDS[word.lower()]
    return Knowledge(statuses)


def load_scenario(path: Union[str, Path], instance: Instance) -> Knowledge:
    """The knowledge state of the scenario file at ``path``; see :func:`parse_scenario`."""
    return parse_scenario(_read_text(path), instance)


def serialize_scenario(knowledge: Knowledge) -> str:
    return json.dumps({"statuses": knowledge_to_dict(knowledge)}, indent=2) + "\n"
