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
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import and_, attrgetter, index
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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


MAX_EXPONENT = 4300  # Python's default limit on the digits of an int read from text
# the exponent of a decimal literal, as ``Fraction`` reads it
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def as_probability(value: ProbabilityLike) -> Fraction:
    """Parse a probability given as a decimal string, fraction string or int.

    Floats are rejected: a binary float does not say which decimal the user
    meant, and the solvers rely on exact arithmetic.  A decimal exponent
    beyond :data:`MAX_EXPONENT` is a ``ValueError``: ``"1e-9999999999"`` would
    otherwise compute ``10**9999999999``.
    """
    if isinstance(value, float):
        raise TypeError("probabilities must be given as strings, ints or Fractions, not floats")
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent is not None:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or "0") > MAX_EXPONENT:
                raise ValueError(
                    f"probability literal {value!r} has an exponent beyond {MAX_EXPONENT}"
                )
    return Fraction(value)


def format_number(x: Union[int, Fraction]) -> str:
    """``str(x)`` of an int or a ``Fraction``, with no limit on the digits
    (``str`` refuses an int of over 4300, a process-wide setting)."""
    digits = str(Decimal(x.numerator))
    return digits if x.denominator == 1 else f"{digits}/{Decimal(x.denominator)}"


def format_pair(pair: EdgePair) -> str:
    return f"{pair[0]}-{pair[1]}"


def _edge_key(pair: object) -> EdgePair:
    """``pair`` as an edge key: two integers, each read with ``operator.index``."""
    try:
        tail, head = pair
        return index(tail), index(head)
    except (TypeError, ValueError):
        raise TypeError(f"edge key {pair!r} must be a pair of two integers") from None


def _read_integers(record: object, *fields: str) -> None:
    """Read each integer field of a frozen ``record`` (a vertex id, the vertex
    count or a generator setting) with ``operator.index``."""
    for field in fields:
        value = getattr(record, field)
        if type(value) is not int:  # a bool or another integer type is stored as an int
            try:
                object.__setattr__(record, field, index(value))
            except TypeError:
                raise TypeError(f"{field} must be an integer, got {value!r}") from None


@dataclass(frozen=True, order=True, slots=True)
class Edge:
    tail: int
    head: int
    p_fail: Fraction

    def __post_init__(self) -> None:
        if type(self.tail) is not int or type(self.head) is not int:
            _read_integers(self, "tail", "head")
        if type(self.p_fail) is not Fraction:
            object.__setattr__(self, "p_fail", as_probability(self.p_fail))

    @property
    def pair(self) -> EdgePair:
        return (self.tail, self.head)


@dataclass(frozen=True, order=True, slots=True)
class SightLine:
    """Vertex ``observer`` watches the status of ``edge``."""

    observer: int
    edge: EdgePair

    def __post_init__(self) -> None:
        if type(self.observer) is not int:
            _read_integers(self, "observer")
        edge = self.edge
        if not (type(edge) is tuple and len(edge) == 2 and type(edge[0]) is type(edge[1]) is int):
            object.__setattr__(self, "edge", _edge_key(edge))


@dataclass(frozen=True, slots=True)
class Task:
    start: int
    dest: int

    def __post_init__(self) -> None:
        _read_integers(self, "start", "dest")


_EDGE_ORDER = attrgetter("tail", "head", "p_fail")
_SIGHT_ORDER = attrgetter("observer", "edge")


@dataclass(frozen=True)
class Instance:
    """The full problem tuple: graph, failure probabilities, sight, task.

    Construction reads the vertex count and every vertex id as integers and
    is otherwise permissive, so that :func:`validate` can report problems as
    data.  Graph lookups go through :attr:`numbering`, which raises
    :class:`ModelError` on a violation of one of :data:`STRUCTURAL_RULES`
    rather than answer wrongly.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    sights: tuple[SightLine, ...]
    task: Task

    def __post_init__(self) -> None:
        _read_integers(self, "vertex_count")
        # the keys give the dataclass order without calling its __lt__
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=_EDGE_ORDER)))
        object.__setattr__(self, "sights", tuple(sorted(set(self.sights), key=_SIGHT_ORDER)))

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
        return frozenset(self.numbering.index)

    def has_vertex(self, v: int) -> bool:
        return 1 <= v <= self.vertex_count

    def _check_vertex(self, v: int) -> int:
        """``v``'s slot in the numbering's per-vertex tables: ``v``, or the empty
        slot 0 past their end.  Raises :class:`UnknownVertex` outside 1..n."""
        if not self.has_vertex(v):
            raise UnknownVertex(f"vertex {v} is not in 1..{self.vertex_count}")
        return v if v < len(self.numbering.out) else 0

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
        edges = self.numbering
        return tuple(edges.pairs[i] for i in edges.out[self._check_vertex(v)])

    def sight_of(self, v: int) -> frozenset[EdgePair]:
        """All edges of the instance whose status vertex ``v`` can observe."""
        edges = self.numbering
        return frozenset(edges.pairs[i] for i in _bits(edges.sight[self._check_vertex(v)]))

    def forward_cone(self, v: int) -> frozenset[EdgePair]:
        """Edges lying on at least one directed path from ``v`` to the destination."""
        edges = self.numbering
        return frozenset(edges.pairs[i] for i in _bits(edges.cone[self._check_vertex(v)]))

    @cached_property
    def numbering(self) -> "EdgeNumbering":
        """The edge numbering the solvers and the oracle compute on."""
        return EdgeNumbering(self)

    @cached_property
    def validation(self) -> "ValidationReport":
        """:func:`validate`'s report, made once per instance: the numbering and
        the CLI both read it."""
        return validate(self)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _forward_cones(pairs: Sequence[EdgePair], dest: int, size: int) -> list[int]:
    """Each vertex's forward cone, the edges on some path from it to ``dest``,
    as a mask over the indices of ``pairs``, for the vertices below ``size``.

    ``pairs`` must be sorted, each tail below its head and each head below
    ``size``: the edges out of a head then come after every edge into it.
    """
    cone = [0] * size
    for i in reversed(range(len(pairs))):
        tail, h = pairs[i]
        if h == dest or cone[h]:
            cone[tail] |= 1 << i | cone[h]
    return cone


def _shared(entries: Iterable[tuple]) -> tuple[tuple, ...]:
    """``entries`` as a tuple in which equal entries are one object: a
    per-edge table then costs one pointer per edge."""
    seen: dict[tuple, tuple] = {}
    return tuple(seen.setdefault(entry, entry) for entry in entries)


class EdgeNumbering:
    """The instance's only graph index: its edges numbered in sorted pair
    order, plus bitmasks.

    Bit ``i`` of a mask stands for edge ``pairs[i]``.  Per-vertex tables are
    lists indexed by vertex id up to the largest vertex an edge head, a sight
    observer or the task (inside 1..n) names, not the declared count.  Entry 0
    is empty, the slot of any vertex past them (:meth:`Instance._check_vertex`):

    - ``out[v]``: indices of the edges leaving ``v``, in pair order
    - ``cone[v]``: ``v``'s forward cone, the edges on some path from ``v`` to
      the destination
    - ``sight[v]``: every edge ``v`` watches
    - ``watch[v]``: the watched edges inside ``v``'s forward cone, the only
      ones whose status can still change a decision after ``v``

    ``key_mask[i]`` is the forward cone of edge ``i``'s head plus edge ``i``
    itself: the knowledge a value of edge ``i`` can depend on.  These are
    computed on first use:

    - ``p_fail_float``: the nearest float to each ``p_fail``
    - ``denominator``: the product of every ``p_fail`` denominator
    - ``crossing_scaled``: the product measure's integer factors, per edge
      ``(den - num, den)`` of ``p_fail[i]`` for a crossing chance of ``(den -
      num) / den``; edges of equal ``p_fail`` share one entry.  The oracle's
      masses over ``denominator`` and the scaled solver both read it.
    - ``starts``: the start-scenario table, one row per assignment of
      :meth:`scenarios` to the edges the start watches, in that order.  A row
      of positive weight is ``(knowledge, weight)``, the knowledge made by
      :meth:`knowledge` and its ``Fraction`` weight; a row of weight zero is
      its up-mask alone (an ``int``), since no sweep builds anything for it.
      The oracle's first-step sweeps read it (``initial_scenarios``,
      ``_first_steps``).

    ``arithmetics`` starts empty: the solvers keep their tables for each
    arithmetic there (``sightpath.exact._tables``), so they live as long as
    the instance and every solver on it shares them.

    Raises :class:`ModelError` when :attr:`Instance.validation` holds a
    violation of a rule in :data:`STRUCTURAL_RULES`; a sight of a missing edge is ignored.
    """

    def __init__(self, instance: Instance):
        for violation in instance.validation.violations:
            if violation.rule in STRUCTURAL_RULES:
                raise ModelError(
                    f"the instance is structurally invalid ({violation}); validate() lists why"
                )
        self.pairs = tuple(e.pair for e in instance.edges)  # Instance sorts its edges
        self.index = {pair: i for i, pair in enumerate(self.pairs)}
        self.p_fail = tuple(e.p_fail for e in instance.edges)
        self.head = tuple(pair[1] for pair in self.pairs)
        ends = [v for v in (instance.start, instance.dest) if instance.has_vertex(v)]
        size = 1 + max([*self.head, *(line.observer for line in instance.sights), *ends], default=0)
        self.out: list[tuple[int, ...]] = [()] * size
        for tail, group in groupby(range(len(self.pairs)), lambda i: self.pairs[i][0]):
            self.out[tail] = tuple(group)
        self.sight = [0] * size
        for line in instance.sights:
            if line.edge in self.index:
                self.sight[line.observer] |= 1 << self.index[line.edge]
        self.cone = cone = _forward_cones(self.pairs, instance.dest, size)
        self.watch = list(map(and_, self.sight, cone))
        self.key_mask = tuple(cone[h] | 1 << i for i, h in enumerate(self.head))
        # the start's slot in the per-vertex tables: its own, or the empty one
        # outside 1..n, where Instance._check_vertex refuses the start first
        self._start = instance.start if instance.has_vertex(instance.start) else 0
        # what knowledge made here carries: a token that refers to no numbering
        self._owner = object()
        self.arithmetics: dict[str, tuple] = {}

    @cached_property
    def p_fail_float(self) -> tuple[float, ...]:
        # int / int is correctly rounded, so each entry is float(p) bit for bit
        return tuple(p.numerator / p.denominator for p in self.p_fail)

    @cached_property
    def denominator(self) -> int:
        # a common denominator of every value built from distinct edges' factors
        return math.prod(den for _, den in self.crossing_scaled)

    @cached_property
    def crossing_scaled(self) -> tuple[tuple[int, int], ...]:
        return _shared((p.denominator - p.numerator, p.denominator) for p in self.p_fail)

    @cached_property
    def starts(self) -> tuple[Union[tuple["Knowledge", Fraction], int], ...]:
        sight = self.sight[self._start]
        denominator, scenarios = self.scenarios(sight)
        return tuple(
            (self.knowledge(up, sight & ~up), Fraction(num, denominator)) if num else up
            for up, num in scenarios
        )

    def knowledge(self, up: int, down: int) -> "Knowledge":
        """The knowledge of the masks ``(up, down)``: a :class:`Knowledge`
        holding exactly :meth:`statuses`, made without ``Knowledge.__init__``'s
        checks, since this numbering's edges need none.  It carries its masks
        for this numbering only, so :meth:`masks` returns them at once; its
        owner token refers to no numbering and no pickle holds it."""
        made = object.__new__(Knowledge)
        made._statuses = self.statuses(up, down)
        made._owner = self._owner
        made._masks = (up, down)
        return made

    def masks(self, knowledge: "Knowledge") -> tuple[int, int]:
        """The up and down masks of ``knowledge``: the ones it carries when this
        numbering made it (:meth:`knowledge`), else a walk over its statuses that
        is the one check that its edges are in the instance
        (:class:`UnknownEdge` otherwise)."""
        if knowledge._owner is self._owner:
            return knowledge._masks
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

    def scenarios(self, mask: int) -> tuple[int, list[tuple[int, int]]]:
        """The product measure on the edges of ``mask``: worlds, start scenarios
        and reveal branches are all enumerated here.

        Returns ``(denominator, [(up, numerator), ...])``: each up/down
        assignment as its up edges (the rest of ``mask`` is down) and its
        probability ``numerator / denominator``.  The order is canonical: the
        lowest edge varies slowest and up comes before down.  Assignments of
        probability zero are included.
        """
        factor = self.crossing_scaled
        denominator = 1
        out = [(0, 1)]
        for i in _bits(mask):
            bit = 1 << i
            up_num, den = factor[i]
            denominator *= den
            down_num = den - up_num
            out = [
                branch
                for up, num in out
                for branch in ((up | bit, num * up_num), (up, num * down_num))
            ]
        return denominator, out


def _checked_statuses(statuses: Mapping[EdgePair, Status]) -> Iterator[tuple[EdgePair, Status]]:
    """The items of ``statuses``, each a Status under an edge key; two ints are kept as they are."""
    for pair, status in statuses.items():
        if type(status) is not Status:  # an Enum with members has no subclasses
            raise TypeError(f"status for {pair!r} must be a Status, got {status!r}")
        if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int):
            pair = _edge_key(pair)
        yield pair, status


class Knowledge:
    """Immutable map from edge to observed status; absent edges are unknown.

    A single edge can never be recorded as both up and down: merging a
    contradictory status raises :class:`InconsistentKnowledge`.

    Knowledge that an :class:`EdgeNumbering` made from masks
    (:meth:`EdgeNumbering.knowledge`) also carries those masks, ``_masks``,
    for that numbering alone: ``_owner`` is the numbering's token, and None
    for knowledge built by ``__init__``.  Neither goes into a pickle or takes
    part in ``==``.
    """

    __slots__ = ("_statuses", "_owner", "_masks")

    def __init__(self, statuses: Optional[Mapping[EdgePair, Status]] = None):
        self._statuses = dict(_checked_statuses(statuses or {}))
        self._owner = None

    def __reduce__(self):
        return type(self), (self._statuses,)

    def __setstate__(self, state) -> None:
        # a pickle made before __reduce__ holds its slots: (None, {'_statuses': ...})
        self.__init__(state[1]["_statuses"])

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
        return hash(frozenset(self._statuses.items()))

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


# The rules whose violation makes a graph lookup wrong: EdgeNumbering refuses
# an instance that breaks one of them.
STRUCTURAL_RULES = frozenset({"tail<head", "vertex-range", "p-range", "duplicate-edge"})


def validate(instance: Instance) -> ValidationReport:
    """Check every invariant of an instance and report all violations found.

    Violations are data, not exceptions: an invalid instance is returned to
    the caller with the full list of problems.
    """
    found: list[Violation] = []
    n = instance.vertex_count
    if n < 1:
        found.append(Violation("vertex-count", f"vertex count {n} is not positive"))
    start, dest = instance.start, instance.dest
    if not (1 <= start <= n and 1 <= dest <= n):
        found.append(Violation("task-bounds", f"task {start}->{dest} leaves 1..{n}"))
    if start >= dest:
        found.append(Violation("task-bounds", f"start {start} must precede dest {dest}"))

    seen_pairs: set[EdgePair] = set()
    for e in instance.edges:
        t, h, p = e.tail, e.head, e.p_fail
        if t >= h:
            found.append(Violation("tail<head", f"edge {t}-{h}"))
        if not (1 <= t <= n and 1 <= h <= n):
            found.append(Violation("vertex-range", f"edge {t}-{h} leaves 1..{n}"))
        if not 0 <= p.numerator <= p.denominator:  # p_fail in [0, 1]
            found.append(Violation("p-range", f"edge {t}-{h} has p_fail {format_number(p)}"))
        if (t, h) in seen_pairs:
            found.append(Violation("duplicate-edge", f"edge {t}-{h}"))
        seen_pairs.add((t, h))

    for s in instance.sights:
        o, (t, h) = s.observer, s.edge
        if not 1 <= o <= n:
            found.append(Violation("vertex-range", f"sight observer {o} leaves 1..{n}"))
        if (t, h) not in seen_pairs:
            found.append(
                Violation("unknown-edge", f"sight ({o}, {t}-{h}) references a missing edge")
            )
        if o > t:
            found.append(Violation("observer≤tail", f"sight ({o}, {t}-{h}) looks behind itself"))

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
