"""Instance and scenario files: JSON documents with exact decimal probabilities.

Failure probabilities travel as strings ("0.25", "1/4") so nothing is rounded
to binary on ingest; parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

from .exact import Valuation
from .model import (
    EdgePair,
    Instance,
    Knowledge,
    Status,
    World,
    as_probability,
    format_pair,
)


class FileFormatError(Exception):
    """The document is not a well-formed instance or scenario file."""


def parse_edge_key(key: str) -> EdgePair:
    parts = key.split("-")
    if len(parts) != 2:
        raise FileFormatError(f"edge key {key!r} is not of the form 'tail-head'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
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
        return f"{p.numerator}/{p.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(p.numerator)
    scaled = p.numerator * 10**digits // p.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def format_valuation(value: Valuation) -> str:
    """Exact fraction plus a 12-significant-digit decimal, or just the float."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator} ({float(value):.12g})"
    return f"{value:.12g}"


def _expect(mapping: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise FileFormatError(f"{where} is missing the field {key!r}")
    value = mapping[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FileFormatError(f"{where}.{key} must be a {kind.__name__}")
    return value


def _parse_p_fail(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise FileFormatError(
            f"{where}.p_fail must be a decimal string such as \"0.25\" (floats lose exactness)"
        )
    if not isinstance(raw, (str, int)):
        raise FileFormatError(f"{where}.p_fail must be a string or integer")
    try:
        return as_probability(raw)
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(f"{where}.p_fail value {raw!r} is not a probability literal") from None


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise FileFormatError("instance document must be a JSON object")
    n = _expect(doc, "vertices", int, "instance")
    edges = []
    for i, entry in enumerate(_expect(doc, "edges", list, "instance")):
        where = f"edges[{i}]"
        edges.append(
            (
                _expect(entry, "tail", int, where),
                _expect(entry, "head", int, where),
                _parse_p_fail(_expect(entry, "p_fail", object, where), where),
            )
        )
    sights = []
    for i, entry in enumerate(_expect(doc, "sight", list, "instance") if "sight" in doc else []):
        where = f"sight[{i}]"
        sights.append(
            (
                _expect(entry, "observer", int, where),
                _expect(entry, "tail", int, where),
                _expect(entry, "head", int, where),
            )
        )
    task = _expect(doc, "task", dict, "instance")
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


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    return instance_from_dict(doc)


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def load_instance(path: Union[str, Path]) -> Instance:
    return parse_instance(Path(path).read_text())


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(serialize_instance(instance))


_STATUS_WORDS = {"up": Status.UP, "down": Status.DOWN}


def parse_scenario(text: str, instance: Instance) -> tuple[Knowledge, World | None]:
    """Parse a scenario file against an instance.

    Returns the knowledge state and, when the document carries a true
    ``world`` flag, the corresponding total world (the statuses must then
    cover every edge).  An edge named twice, by one key or two spellings of
    it, is refused.
    """
    try:
        # a JSON object as the tuple of its (key, value) pairs, repeated keys kept
        doc = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, tuple):
        raise FileFormatError("scenario document must be a JSON object")
    doc = dict(doc)
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
    knowledge = Knowledge(statuses)
    world_flag = doc.get("world", False)
    if not isinstance(world_flag, bool):
        raise FileFormatError("scenario.world must be a boolean")
    if not world_flag:
        return knowledge, None
    missing = instance.pairs - knowledge.known
    if missing:
        raise FileFormatError(
            "scenario flagged as a full world but leaves edges unset: "
            + ", ".join(format_pair(p) for p in sorted(missing))
        )
    return knowledge, World(statuses)


def load_scenario(path: Union[str, Path], instance: Instance) -> tuple[Knowledge, World | None]:
    return parse_scenario(Path(path).read_text(), instance)


def serialize_scenario(knowledge: Knowledge, world: bool = False) -> str:
    doc = {
        "statuses": {
            format_pair(pair): status.value for pair, status in knowledge.sorted_items()
        }
    }
    if world:
        doc["world"] = True
    return json.dumps(doc, indent=2) + "\n"
