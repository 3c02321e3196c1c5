"""Problem model: uncertain DAG instances, knowledge states, and worlds.

An instance is a DAG on vertices 1..n whose edges fail independently with
known probabilities, plus a set of sight lines (a vertex may watch the
status of an edge ahead of it) and a start/destination task.  Knowledge
states record which edge statuses the walker has learned so far.  A world
fixes the status of every edge for one trial: it is the total knowledge
state, a :class:`Knowledge` that refuses to answer for an edge it does not
assign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import and_, index
from typing import Iterable, Iterator, Mapping, Optional, Union

EdgePair = tuple[int, int]
ProbabilityLike = Union[str, int, Fraction]


class ModelError(Exception):
    """Base class for domain errors raised by this package."""


class NoPath(ModelError):
    """The destination is unreachable from the start."""


class UnknownVertex(ModelError):
    """A vertex id outside the instance was referenced."""


class UnknownEdge(ModelError):
    """An edge absent from the instance was referenced."""


class InconsistentKnowledge(ModelError):
    """A knowledge state contradicts a world or another knowledge state."""


class Status(Enum):
    UP = "up"
    DOWN = "down"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


def as_probability(value: ProbabilityLike) -> Fraction:
    """Parse a probability given as a decimal string, fraction string or int.

    Floats are rejected: a binary float does not say which decimal the user
    meant, and the solvers rely on exact arithmetic.
    """
    if isinstance(value, float):
        raise TypeError(
            "probabilities must be given as strings, ints or Fractions, not floats"
        )
    return Fraction(value)


def format_pair(pair: EdgePair) -> str:
    return f"{pair[0]}-{pair[1]}"


@dataclass(frozen=True, order=True)
class Edge:
    tail: int
    head: int
    p_fail: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_fail", as_probability(self.p_fail))

    @property
    def pair(self) -> EdgePair:
        return (self.tail, self.head)


@dataclass(frozen=True, order=True)
class SightLine:
    """Vertex ``observer`` watches the status of ``edge``."""

    observer: int
    edge: EdgePair

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge", (int(self.edge[0]), int(self.edge[1])))


@dataclass(frozen=True)
class Task:
    start: int
    dest: int


@dataclass(frozen=True)
class Instance:
    """The full problem tuple: graph, failure probabilities, sight, task.

    Construction is permissive so that :func:`validate` can report structural
    problems as data.  Graph lookups go through :attr:`numbering`, which
    raises :class:`ModelError` on a structurally invalid instance (an edge
    leaving ``1..n``, a tail not below its head, a duplicate pair, or a sight
    observer outside ``1..n``) rather than answer wrongly.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    sights: tuple[SightLine, ...]
    task: Task

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "sights", tuple(sorted(set(self.sights))))

    @classmethod
    def build(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int, ProbabilityLike]],
        sights: Iterable[tuple[int, int, int]] = (),
        task: tuple[int, int] = (1, 2),
    ) -> "Instance":
        """Assemble an instance from plain tuples.

        ``edges`` are ``(tail, head, p_fail)`` triples and ``sights`` are
        ``(observer, tail, head)`` triples.
        """
        return cls(
            vertex_count=vertex_count,
            edges=tuple(Edge(t, h, p) for t, h, p in edges),
            sights=tuple(SightLine(o, (t, h)) for o, t, h in sights),
            task=Task(*task),
        )

    # -- lookups ---------------------------------------------------------

    @property
    def start(self) -> int:
        return self.task.start

    @property
    def dest(self) -> int:
        return self.task.dest

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @cached_property
    def pairs(self) -> frozenset[EdgePair]:
        return frozenset(e.pair for e in self.edges)

    def has_vertex(self, v: int) -> bool:
        return 1 <= v <= self.vertex_count

    def _check_vertex(self, v: int) -> None:
        if not self.has_vertex(v):
            raise UnknownVertex(f"vertex {v} is not in 1..{self.vertex_count}")

    def has_edge(self, pair: EdgePair) -> bool:
        return tuple(pair) in self.numbering.index

    def edge(self, pair: EdgePair) -> Edge:
        i = self.numbering.index.get(tuple(pair))
        if i is None:
            raise UnknownEdge(f"edge {format_pair(pair)} is not in the instance")
        return self.edges[i]

    def p_fail(self, pair: EdgePair) -> Fraction:
        return self.edge(pair).p_fail

    def out_edges(self, v: int) -> tuple[EdgePair, ...]:
        self._check_vertex(v)
        edges = self.numbering
        return tuple(edges.pairs[i] for i in edges.out[v])

    def sight_of(self, v: int) -> frozenset[EdgePair]:
        """All edges of the instance whose status vertex ``v`` can observe."""
        self._check_vertex(v)
        edges = self.numbering
        return frozenset(edges.pairs[i] for i in _bits(edges.sight[v]))

    def forward_cone(self, v: int) -> frozenset[EdgePair]:
        """Edges lying on at least one directed path from ``v`` to the destination."""
        self._check_vertex(v)
        edges = self.numbering
        return frozenset(edges.pairs[i] for i in _bits(edges.cone[v]))

    @cached_property
    def numbering(self) -> "EdgeNumbering":
        """The edge numbering the solvers and the oracle compute on."""
        return EdgeNumbering(self)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EdgeNumbering:
    """The instance's only graph index: its edges numbered in sorted pair
    order, plus bitmasks.

    Bit ``i`` of a mask stands for edge ``pairs[i]``.  Per-vertex tables are
    lists indexed by vertex id (entry 0 is unused):

    - ``out[v]``: indices of the edges leaving ``v``, in pair order
    - ``cone[v]``: ``v``'s forward cone, the edges on some path from ``v`` to
      the destination
    - ``sight[v]``: every edge ``v`` watches
    - ``watch[v]``: the watched edges inside ``v``'s forward cone, the only
      ones whose status can still change a decision after ``v``

    ``key_mask[i]`` is the forward cone of edge ``i``'s head plus edge ``i``
    itself: the knowledge a value of edge ``i`` can depend on.  ``cross[i]``,
    the probability of crossing edge ``i`` unseen, ``p_fail_float``, the
    nearest float to each ``p_fail``, and ``denominator`` are computed on
    first use.
    Raises :class:`ModelError` on a structurally invalid instance, which
    includes a ``p_fail`` outside [0, 1]; sight lines naming a missing edge
    are ignored.
    """

    def __init__(self, instance: Instance):
        n = instance.vertex_count
        self.pairs = tuple(e.pair for e in instance.edges)  # Instance sorts its edges
        self.index = {pair: i for i, pair in enumerate(self.pairs)}
        self.p_fail = tuple(e.p_fail for e in instance.edges)
        if (
            len(self.index) < len(self.pairs)
            or not all(1 <= t < h <= n for t, h in self.pairs)
            or not all(0 <= p.numerator <= p.denominator for p in self.p_fail)  # p in [0, 1]
            or not all(1 <= line.observer <= n for line in instance.sights)
        ):
            raise ModelError("the instance is structurally invalid; validate() lists why")
        self.head = tuple(pair[1] for pair in self.pairs)
        size = n + 1
        self.out: list[tuple[int, ...]] = [()] * size
        for tail, group in groupby(range(len(self.pairs)), lambda i: self.pairs[i][0]):
            self.out[tail] = tuple(group)
        self.sight = [0] * size
        for line in instance.sights:
            if line.edge in self.index:
                self.sight[line.observer] |= 1 << self.index[line.edge]
        dest = instance.dest
        self.cone = cone = [0] * size
        for i in reversed(range(len(self.pairs))):  # the edges out of a head come later
            tail, h = self.pairs[i]
            if h == dest or cone[h]:
                cone[tail] |= 1 << i | cone[h]
        self.watch = list(map(and_, self.sight, cone))
        self.key_mask = tuple(cone[h] | 1 << i for i, h in enumerate(self.head))

    @cached_property
    def cross(self) -> tuple[Fraction, ...]:
        return tuple(1 - p for p in self.p_fail)

    @cached_property
    def p_fail_float(self) -> tuple[float, ...]:
        # int / int is correctly rounded, so each entry is float(p) bit for bit
        return tuple(p.numerator / p.denominator for p in self.p_fail)

    @cached_property
    def denominator(self) -> int:
        """The product of every edge's ``p_fail`` denominator: a common
        denominator of every value built from distinct edges' factors."""
        return math.prod(p.denominator for p in self.p_fail)

    def masks(self, knowledge: "Knowledge") -> tuple[int, int]:
        """The up and down masks of ``knowledge``: the one check that its edges
        are in the instance (:class:`UnknownEdge` otherwise)."""
        up = down = 0
        index = self.index
        for pair, status in knowledge._statuses.items():
            i = index.get(pair)
            if i is None:
                raise UnknownEdge(f"knowledge references missing edge {format_pair(pair)}")
            if status is Status.UP:
                up |= 1 << i
            else:
                down |= 1 << i
        return up, down

    def statuses(self, up: int, down: int) -> dict[EdgePair, Status]:
        """The status map of two masks, in edge order."""
        pairs = self.pairs
        return {
            pairs[i]: Status.UP if up >> i & 1 else Status.DOWN for i in _bits(up | down)
        }

    def items(self, up: int, down: int) -> frozenset[tuple[EdgePair, Status]]:
        """The ``Knowledge.items()`` form of two masks."""
        return frozenset(self.statuses(up, down).items())

    def scenarios(self, mask: int) -> tuple[int, list[tuple[int, int]]]:
        """The product measure on the edges of ``mask``: worlds, start scenarios
        and reveal branches are all enumerated here.

        Returns ``(denominator, [(up, numerator), ...])``: each up/down
        assignment as its up edges (the rest of ``mask`` is down) and its
        probability ``numerator / denominator``.  The order is canonical: the
        lowest edge varies slowest and up comes before down.  Assignments of
        probability zero are included.
        """
        denominator = 1
        out = [(0, 1)]
        for i in _bits(mask):
            bit = 1 << i
            p = self.p_fail[i]
            denominator *= p.denominator
            up_num, down_num = p.denominator - p.numerator, p.numerator
            out = [
                branch
                for up, num in out
                for branch in ((up | bit, num * up_num), (up, num * down_num))
            ]
        return denominator, out

    def extensions(self, knowledge: "Knowledge", mask: int) -> list[tuple["Knowledge", Fraction]]:
        """Every way to extend ``knowledge`` over its unknown edges in ``mask``,
        with probabilities, in the order of :meth:`scenarios`."""
        up, down = self.masks(knowledge)
        fresh = mask & ~(up | down)
        denominator, scenarios = self.scenarios(fresh)
        return [
            (knowledge.with_statuses(self.statuses(add, fresh & ~add)), Fraction(num, denominator))
            for add, num in scenarios
        ]


def _checked_statuses(statuses: Mapping[EdgePair, Status]) -> Iterator[tuple[EdgePair, Status]]:
    """The items of ``statuses``, each checked to be a pair of two integers
    (returned as ints) holding a Status."""
    for pair, status in statuses.items():
        if not isinstance(status, Status):
            raise TypeError(f"status for {pair!r} must be a Status, got {status!r}")
        try:
            tail, head = pair
            key = index(tail), index(head)
        except (TypeError, ValueError):
            raise TypeError(f"edge key {pair!r} must be a pair of two integers") from None
        yield key, status


class Knowledge:
    """Immutable map from edge to observed status; absent edges are unknown.

    A single edge can never be recorded as both up and down: merging a
    contradictory status raises :class:`InconsistentKnowledge`.
    """

    __slots__ = ("_statuses", "_hash")

    def __init__(self, statuses: Optional[Mapping[EdgePair, Status]] = None):
        self._statuses = cleaned = dict(_checked_statuses(statuses or {}))
        self._hash = hash(frozenset(cleaned.items()))

    def status(self, pair: EdgePair) -> Optional[Status]:
        return self._statuses.get(tuple(pair))

    @property
    def known(self) -> frozenset[EdgePair]:
        return frozenset(self._statuses)

    def as_dict(self) -> dict[EdgePair, Status]:
        return dict(self._statuses)

    def items(self) -> frozenset[tuple[EdgePair, Status]]:
        return frozenset(self._statuses.items())

    def sorted_items(self) -> tuple[tuple[EdgePair, Status], ...]:
        return tuple(sorted(self._statuses.items()))

    def with_statuses(self, updates: Mapping[EdgePair, Status]) -> "Knowledge":
        if not updates:
            return self
        merged = dict(self._statuses)
        for pair, status in _checked_statuses(updates):
            old = merged.get(pair)
            if old is not None and old is not status:
                raise InconsistentKnowledge(
                    f"edge {format_pair(pair)} is already known {old.value}"
                )
            merged[pair] = status
        return Knowledge(merged)

    def restrict(self, pairs: Iterable[EdgePair]) -> "Knowledge":
        """Project onto ``pairs``; everything else becomes unknown."""
        keep_set = frozenset(tuple(p) for p in pairs)
        kept = {p: s for p, s in self._statuses.items() if p in keep_set}
        if len(kept) == len(self._statuses):
            return self
        return Knowledge(kept)

    def __contains__(self, pair: EdgePair) -> bool:
        return tuple(pair) in self._statuses

    def __len__(self) -> int:
        return len(self._statuses)

    def __iter__(self) -> Iterator[EdgePair]:
        return iter(sorted(self._statuses))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Knowledge) and self._statuses == other._statuses

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(
            f"{format_pair(p)}: {s.value}" for p, s in self.sorted_items()
        )
        return "{" + body + "}"


class World(Knowledge):
    """The total knowledge state of one trial.  Asking for an edge it does not
    assign raises :class:`UnknownEdge`; it never equals a :class:`Knowledge`."""

    __slots__ = ()

    def status(self, pair: EdgePair) -> Status:
        try:
            return self._statuses[tuple(pair)]
        except KeyError:
            raise UnknownEdge(f"edge {format_pair(pair)} has no status in this world") from None

    def up(self, pair: EdgePair) -> bool:
        return self.status(pair) is Status.UP

    pairs = Knowledge.known

    def __eq__(self, other: object) -> bool:
        return isinstance(other, World) and self._statuses == other._statuses

    __hash__ = Knowledge.__hash__

    def __repr__(self) -> str:
        return "World" + super().__repr__()


EMPTY_KNOWLEDGE = Knowledge()


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


def validate(instance: Instance) -> ValidationReport:
    """Check every structural invariant and report all violations found.

    Violations are data, not exceptions: an invalid instance is returned to
    the caller with the full list of problems.
    """
    found: list[Violation] = []
    n = instance.vertex_count

    if n < 1:
        found.append(Violation("vertex-count", f"vertex count {n} is not positive"))

    task = instance.task
    if not (1 <= task.start <= n) or not (1 <= task.dest <= n):
        found.append(
            Violation("task-bounds", f"task {task.start}->{task.dest} leaves 1..{n}")
        )
    if task.start >= task.dest:
        found.append(
            Violation("task-bounds", f"start {task.start} must precede dest {task.dest}")
        )

    seen_pairs: set[EdgePair] = set()
    for e in instance.edges:
        if e.tail >= e.head:
            found.append(Violation("tail<head", f"edge {format_pair(e.pair)}"))
        if not (1 <= e.tail <= n) or not (1 <= e.head <= n):
            found.append(
                Violation("vertex-range", f"edge {format_pair(e.pair)} leaves 1..{n}")
            )
        if not (0 <= e.p_fail <= 1):
            found.append(
                Violation("p-range", f"edge {format_pair(e.pair)} has p_fail {e.p_fail}")
            )
        if e.pair in seen_pairs:
            found.append(Violation("duplicate-edge", f"edge {format_pair(e.pair)}"))
        seen_pairs.add(e.pair)

    for s in instance.sights:
        if not (1 <= s.observer <= n):
            found.append(
                Violation("vertex-range", f"sight observer {s.observer} leaves 1..{n}")
            )
        if s.edge not in seen_pairs:
            found.append(
                Violation(
                    "unknown-edge",
                    f"sight ({s.observer}, {format_pair(s.edge)}) references a missing edge",
                )
            )
        if s.observer > s.edge[0]:
            found.append(
                Violation(
                    "observer≤tail",
                    f"sight ({s.observer}, {format_pair(s.edge)}) looks behind itself",
                )
            )

    return ValidationReport(tuple(found))


def prune_extraneous(instance: Instance) -> Instance:
    """Keep only the start's forward cone: drop every edge on no start->dest path.

    Sight lines referencing a dropped edge are dropped with it.  Idempotent;
    raises :class:`NoPath` when the destination is unreachable.
    """
    start, edges = instance.start, instance.numbering
    cone = edges.cone[start] if instance.has_vertex(start) else 0
    if not cone:
        raise NoPath(f"no path from {start} to {instance.dest}")
    kept = tuple(instance.edges[i] for i in _bits(cone))
    kept_pairs = {e.pair for e in kept}
    sights = tuple(s for s in instance.sights if s.edge in kept_pairs)
    if kept == instance.edges and sights == instance.sights:
        return instance
    return Instance(instance.vertex_count, kept, sights, instance.task)


def observe(instance: Instance, knowledge: Knowledge, v: int, world: World) -> Knowledge:
    """Add the statuses of every edge visible from ``v`` to ``knowledge``.

    The existing knowledge must agree with the world: the network does not
    change during a trial, so a recorded status can never be contradicted.
    """
    sight = instance.sight_of(v)
    for pair, status in knowledge.as_dict().items():
        if world.status(pair) is not status:
            raise InconsistentKnowledge(
                f"knowledge says {format_pair(pair)} is {status.value}, "
                f"world says {world.status(pair).value}"
            )
    return knowledge.with_statuses({p: world.status(p) for p in sight})


def restrict(knowledge: Knowledge, pairs: Iterable[EdgePair]) -> Knowledge:
    return knowledge.restrict(pairs)
