"""Exact decision engine for the safest-path-with-sight problem.

``success(edge, knowledge)`` is the probability that an ideal walker who has
just committed to ``edge`` eventually reaches the destination, given what it
currently knows.  The recursion multiplies the chance of surviving the edge
itself by the expected value of the best onward choice, averaged over the
statuses newly revealed on arrival at the edge's head.

Values are memoized per instance.  A memo key contains the queried edge, the
edge's own known status, and the knowledge restricted to the forward cone of
the edge's head: statuses of edges that can no longer influence any onward
decision are marginalized away, which is what makes the no-sight and
neighbor-sight special cases collapse to one memo entry per edge.

Internally the recursion runs on the instance's edge numbering
(:class:`~sightpath.model.EdgeNumbering`).  A memo key is ``(edge index, up
mask, down mask)`` with both masks cut to the edge's ``key_mask``, and the
reveal branches at a vertex are enumerated once per instance and arithmetic
for each set of still-unknown watched edges.  An empty set is one branch of
weight one, so every branch takes the same steps: a max-scan of the onward
values from zero, then ``total += weight * best``.  ``Knowledge`` stays the
public type: it is converted to masks once per public call (at once for
knowledge the numbering made, which carries them), and
``memo_key``/``memo_keys`` return the public ``(edge, frozenset of (edge,
status))`` form.

Decisions are made on masks too: ``_move(v, up, down)`` gives the edge index
the walker takes, the last optimal edge in edge order (:func:`tiebreak`'s
highest head), or the halt value, once per state and solver, and its
``_move_cache`` holds every decision made.  ``next_move`` and ``decide``
convert their ``Knowledge`` to masks and ask it.  Both trial walks, Monte
Carlo trials and ``policy_value``, ask a stock solver's ``_move`` directly
and read its ``_move_cache`` as their move table; any other policy is asked
through the checked ``Knowledge`` path (:func:`sightpath.oracle._asker`).

In rational mode the recursion computes on ``int``s: a memo value is the
probability times the instance's common denominator (the product of every
edge's ``p_fail`` denominator), reveal weights are the integer numerators of
``EdgeNumbering.scenarios``, and each evaluated entry ends in one exact
``//``.  Public methods return ``Fraction``s.  Each solver class answers a
mask key through its own ``_success``: a dict lookup for
:class:`ExactSolver`, an LRU and a similarity scan for the approximate
solver.

The solver's arithmetic is picked in one place, :func:`_tables`: per
instance and arithmetic (scaled ints, floats or ``Fraction``s) it builds the
zero and one, each edge's crossing factor, the weight of a reveal branch and
the reveal-branch table, filled one set of unknown watched edges at a time by
the solvers that meet it.  It keeps them in the numbering's ``arithmetics``,
so every solver built for the instance shares them.  A solver's own state is
its memo and its decisions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Callable, FrozenSet, Iterable, Literal, Optional, Union

from .model import (
    EMPTY_KNOWLEDGE,
    EdgeNumbering,
    EdgePair,
    Instance,
    Knowledge,
    ModelError,
    Status,
    _bits,
    _shared,
    format_pair,
)

Valuation = Union[Fraction, float]
Mode = Literal["rational", "float"]
MemoKey = tuple[EdgePair, FrozenSet[tuple[EdgePair, Status]]]
MaskKey = tuple[int, int, int]
Policy = Callable[[int, Knowledge], Optional[EdgePair]]

FLOAT_TIE = 1e-9  # float mode's tie guard against rounding, not a model parameter
_HALT = -1  # a decision on masks: the walker halts here


class EmptyCandidates(ModelError):
    """tiebreak() was asked to choose from nothing."""


class IncompleteKnowledge(ModelError):
    """A first-step query must assign a status to every edge visible from the start."""


class SearchTooDeep(ModelError):
    """A recursion needs more nested calls than Python allows: the solver's
    success recursion, or the oracle's recursion over filtered worlds.

    Each one's depth grows with the number of edges on the longest path.
    """


def _too_deep(recursion: str) -> SearchTooDeep:
    text = f"the instance's paths are too long for {recursion}"
    return SearchTooDeep(f"{text} (recursion limit {sys.getrecursionlimit()})")


def cross_prob(instance: Instance, edge: EdgePair, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Fraction:
    """Probability of safely crossing ``edge`` under ``knowledge``.

    Known-up edges cross with certainty, known-down edges never do, and an
    unknown edge crosses with one minus its failure probability.
    """
    pair = tuple(edge)
    p = instance.p_fail(pair)
    status = knowledge.status(pair)
    if status is Status.UP:
        return Fraction(1)
    if status is Status.DOWN:
        return Fraction(0)
    return 1 - p


def reveal_distribution(
    instance: Instance, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE
) -> list[tuple[Knowledge, Fraction]]:
    """All ways arrival at ``v`` can extend ``knowledge``, with probabilities.

    Enumerates status assignments for the not-yet-known edges that ``v``
    watches and that still lie on some path to the destination; statuses of
    watched edges behind that cone cannot affect any onward decision and are
    marginalized away.  Weights are products of the independent per-edge
    probabilities and sum to one, in :meth:`EdgeNumbering.scenarios` order;
    with nothing to reveal the one row is ``knowledge`` itself.
    """
    edges = instance.numbering
    watched = edges.watch[instance._check_vertex(v)]
    up, down = edges.masks(knowledge)
    fresh = watched & ~(up | down)
    if not fresh:
        return [(knowledge, Fraction(1))]
    denominator, scenarios = edges.scenarios(fresh)
    return [
        (edges.knowledge(up | add, down | fresh & ~add), Fraction(num, denominator))
        for add, num in scenarios
    ]


def tiebreak(candidates: Iterable[EdgePair]) -> EdgePair:
    """Among equally good edges, pick the one with the highest head index."""
    pool = [tuple(c) for c in candidates]
    if not pool:
        raise EmptyCandidates("no candidate edges to break a tie between")
    return max(pool, key=lambda pair: (pair[1], pair[0]))


@dataclass(frozen=True)
class MemoStats:
    entries: int
    hits: int


@dataclass(frozen=True)
class DecisionQuery:
    """A first-step query: will the walker take ``edge`` out of the start?

    The knowledge must assign a status to every edge the walker can see from
    the start vertex: exactly what it holds when the trial begins.
    """

    instance: Instance
    edge: EdgePair
    knowledge: Knowledge = EMPTY_KNOWLEDGE

    def __post_init__(self) -> None:
        inst = self.instance
        object.__setattr__(self, "edge", inst.edge(self.edge).pair)
        if self.edge[0] != inst.start:
            raise ValueError(
                f"queried edge {format_pair(self.edge)} does not leave the start vertex {inst.start}"
            )
        edges = inst.numbering
        up, down = edges.masks(self.knowledge)  # rejects knowledge naming a foreign edge
        missing = edges.sight[inst.start] & ~(up | down)
        if missing:
            raise IncompleteKnowledge(
                "knowledge must assign a status to every edge visible from the start; "
                "missing " + ", ".join(format_pair(edges.pairs[i]) for i in _bits(missing))
            )


def _numerator(num: int, denominator: int) -> int:
    return num


def _tables(edges: EdgeNumbering, kind: str) -> tuple:
    """The solver tables of one arithmetic on ``edges``' instance, the only
    place that picks among them: ``(zero, one, crossing, weight, branches)``.

    - ``"scaled"``: ints, each value times :attr:`EdgeNumbering.denominator`,
      which is its one; a reveal weight is its numerator.
    - ``"float"``: floats; a weight is ``num / denominator``, correctly
      rounded, so it equals ``float(Fraction(num, denominator))``.
    - ``"fraction"``: ``Fraction``s.

    ``crossing[i]`` is edge ``i``'s unseen crossing chance as a pair
    ``(crossing, scale)`` for ``crossing / scale`` (``scale`` None: no final
    division), edges of equal ``p_fail`` sharing one entry; the scaled one is
    the numbering's ``crossing_scaled``.  ``branches`` starts empty and maps
    each mask of unknown watched edges a solver meets to its reveal branches
    (``_SolverCore._branches``).  They are built on the first call for
    ``kind`` and kept in ``edges.arithmetics``, so they live as long as the
    instance and every solver of that arithmetic on it shares them.
    """
    tables = edges.arithmetics.get(kind)
    if tables is None:
        if kind == "scaled":
            tables = (0, edges.denominator, edges.crossing_scaled, _numerator)
        elif kind == "float":
            crossing = _shared((1.0 - p, None) for p in edges.p_fail_float)
            tables = (0.0, 1.0, crossing, truediv)
        else:
            crossing = _shared((1 - p, None) for p in edges.p_fail)
            tables = (Fraction(0), Fraction(1), crossing, Fraction)
        tables = edges.arithmetics[kind] = (*tables, {})
    return tables


class _SolverCore:
    """Shared recursion for the exact solver and its cache-based variant.

    Subclasses supply the cache policy by overriding ``_success``, keyed by
    mask keys; ``_evaluate`` itself is shared, which is what makes the
    threshold-zero cached variant agree with the exact solver bit for bit.

    In rational mode the memo holds plain ``int``s: each value times the
    instance's common denominator ``D`` (:attr:`EdgeNumbering.denominator`).
    Every value is a sum of products of distinct unknown edges' ``p`` or
    ``1 - p`` factors, so that product is exact, and each evaluated entry
    ends in one exact ``//``.  Public methods return ``Fraction(value, D)``.
    A solver that substitutes similar cached values (``scaled=False``) can
    break that divisibility, so it keeps ``Fraction`` values.  Float mode
    computes on floats in the same order of operations.

    ``_zero``, ``_one``, ``_cross``, ``_weight`` and ``_branch_table`` are
    :func:`_tables`' for the solver's arithmetic, which every solver of that
    arithmetic on the instance shares; the memo and the decisions are the
    solver's own.

    The walker takes the last optimal edge in edge order, :func:`tiebreak`'s
    highest head (``_move``).
    """

    def __init__(self, instance: Instance, mode: Mode = "rational", scaled: bool = True):
        if mode not in ("rational", "float"):
            raise ValueError(f"mode must be 'rational' or 'float', got {mode!r}")
        self.instance = instance
        self.mode = mode
        self._tie = FLOAT_TIE if mode == "float" else 0  # how far below the best a tie may lie
        # (vertex, up, down) -> edge index or _HALT: every decision asked of the solver
        self._move_cache: dict[tuple[int, int, int], int] = {}
        self._edges = instance.numbering
        self._dest = instance.dest
        kind = "float" if mode == "float" else "scaled" if scaled else "fraction"
        self._zero, self._one, self._cross, self._weight, self._branch_table = _tables(
            self._edges, kind
        )
        # a scaled value is a numerator over the common denominator, its one
        self._denominator = self._one if kind == "scaled" else None
        self._known_up = (1, 1) if self._denominator is not None else (self._one, None)

    def _public(self, value):
        """An internal value as the mode's public type."""
        return value if self._denominator is None else Fraction(value, self._denominator)

    # -- keys ----------------------------------------------------------------

    def _public_key(self, key: MaskKey) -> MemoKey:
        edge, up, down = key
        return (self._edges.pairs[edge], frozenset(self._edges.statuses(up, down).items()))

    def memo_key(self, edge: EdgePair, knowledge: Knowledge) -> MemoKey:
        """The memo key of ``edge`` under ``knowledge``, in its public form."""
        index = self._edges.index[self.instance.edge(edge).pair]
        up, down = self._edges.masks(knowledge)
        keep = self._edges.key_mask[index]
        return self._public_key((index, up & keep, down & keep))

    # -- the recursion -----------------------------------------------------

    def success(self, edge: EdgePair, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Valuation:
        """Probability of reaching the destination after committing to ``edge``."""
        index = self._edges.index[self.instance.edge(edge).pair]
        return self._public(self._entry(index, *self._edges.masks(knowledge)))

    def _entry(self, edge: int, up: int, down: int):
        """Internal value of edge index ``edge`` under uncut masks, from a public call."""
        keep = self._edges.key_mask[edge]
        try:
            return self._success(edge, up & keep, down & keep)
        except RecursionError:
            raise _too_deep("the recursive solver") from None

    def _success(self, edge: int, up: int, down: int):
        """The value of mask key ``(edge, up, down)``, through the solver's cache."""
        raise NotImplementedError

    def _evaluate(self, edge: int, up: int, down: int):
        bit = 1 << edge
        if down & bit:
            return self._zero
        crossing, scale = self._known_up if up & bit else self._cross[edge]
        edges = self._edges
        head = edges.head[edge]
        if head == self._dest or not crossing:
            total, divisor = self._one, 1
        else:
            onward = edges.out[head]
            key_mask = edges.key_mask
            fresh = edges.watch[head] & ~(up | down)
            entry = self._branch_table.get(fresh)
            branches, divisor = self._branches(fresh) if entry is None else entry
            total = self._zero
            for add_up, add_down, weight in branches:
                seen_up = up | add_up
                seen_down = down | add_down
                best = self._zero
                for next_edge in onward:
                    keep = key_mask[next_edge]
                    candidate = self._success(next_edge, seen_up & keep, seen_down & keep)
                    if candidate > best:
                        best = candidate
                total += weight * best
        if scale is None:
            return crossing * total
        return crossing * total // (scale * divisor)

    def _branches(
        self, fresh: int
    ) -> tuple[tuple[tuple[int, int, Union[int, Valuation]], ...], int]:
        """The nonzero-weight reveal branches of the unknown watched edges
        ``fresh``, and the denominator of their weights, entered in
        ``_branch_table``, which ``_evaluate`` reads first.  That table is
        :func:`_tables`' for the solver's arithmetic, so each ``fresh`` is
        enumerated once per instance and arithmetic, whichever solver meets
        it first.

        Scaled weights are the integer numerators over that denominator.  With
        nothing to reveal there is one branch of weight one over denominator
        one, and ``0 + 1 * best`` is ``best`` exactly in every mode.
        """
        denominator, scenarios = self._edges.scenarios(fresh)
        entry = (
            tuple(
                (add_up, fresh & ~add_up, self._weight(num, denominator))
                for add_up, num in scenarios
                if num
            ),
            denominator,
        )
        self._branch_table[fresh] = entry
        return entry

    # -- decisions ---------------------------------------------------------

    def _scored(self, v: int, up: int, down: int) -> list[tuple[int, Union[int, Valuation]]]:
        """Internal value of each outgoing edge index of ``v`` not known down."""
        return [
            (edge, self._entry(edge, up, down))
            for edge in self._edges.out[self.instance._check_vertex(v)]
            if not down >> edge & 1
        ]

    def _optimal(self, v: int, up: int, down: int) -> list[int]:
        """The outgoing edge indices of ``v`` attaining the best positive value,
        in edge order; empty when the walker halts there.

        The one tie rule is ``best - value <= _tie``: :data:`FLOAT_TIE` in float
        mode, 0 in rational mode, which is equality because ``best`` is the
        maximum.
        """
        if v == self.instance.dest:
            raise ValueError("no decision is made at the destination")
        scored = self._scored(v, up, down)
        if not scored:
            return []
        best = max(value for _, value in scored)
        if best <= self._zero:
            return []
        return [edge for edge, value in scored if best - value <= self._tie]

    def _move(self, v: int, up: int, down: int) -> int:
        """The edge index the walker takes at ``v`` under the knowledge masks
        ``(up, down)``, or ``_HALT``: the last optimal edge in edge order.  The
        edges out of a vertex are numbered by head, so that is :func:`tiebreak`'s
        choice, the highest head.  Each state is decided once per solver.
        """
        key = (v, up, down)
        move = self._move_cache.get(key)
        if move is None:
            optimal = self._optimal(v, up, down)
            move = self._move_cache[key] = optimal[-1] if optimal else _HALT
        return move

    def candidate_successes(
        self, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE
    ) -> list[tuple[EdgePair, Valuation]]:
        """Success of each outgoing edge of ``v`` that is not known down."""
        pairs = self._edges.pairs
        scored = self._scored(v, *self._edges.masks(knowledge))
        return [(pairs[edge], self._public(value)) for edge, value in scored]

    def optimal_set(self, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> frozenset[EdgePair]:
        """The outgoing edges of ``v`` attaining the best positive success.

        Empty when ``v`` has no outgoing edges left or every continuation is
        certain to fail: the walker is at a dead end.
        """
        pairs = self._edges.pairs
        return frozenset(pairs[edge] for edge in self._optimal(v, *self._edges.masks(knowledge)))

    def next_move(self, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Optional[EdgePair]:
        """The edge the walker takes at ``v``, or None when it halts."""
        edge = self._move(v, *self._edges.masks(knowledge))
        return None if edge == _HALT else self._edges.pairs[edge]

    def decide(self, query: DecisionQuery) -> bool:
        """True iff the walker's first step out of the start is ``query.edge``."""
        if query.instance != self.instance:
            raise ValueError("query was built for a different instance")
        return self.next_move(self.instance.start, query.knowledge) == query.edge

    def root_value(self, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Valuation:
        """Best success over the start vertex's candidate edges (0 at a dead end)."""
        scored = self._scored(self.instance.start, *self._edges.masks(knowledge))
        return self._public(max((value for _, value in scored), default=self._zero))

    def policy(self) -> Policy:
        return self.next_move


class ExactSolver(_SolverCore):
    """Memoized exact solver; one per instance, results are deterministic."""

    def __init__(self, instance: Instance, mode: Mode = "rational"):
        super().__init__(instance, mode)
        self._memo: dict[MaskKey, Union[int, float]] = {}
        self._hits = 0

    def _success(self, edge: int, up: int, down: int):
        key = (edge, up, down)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._evaluate(edge, up, down)
        else:
            self._hits += 1
        return value

    def memo_stats(self) -> MemoStats:
        return MemoStats(entries=len(self._memo), hits=self._hits)

    def memo_keys(self) -> frozenset[MemoKey]:
        return frozenset(map(self._public_key, self._memo))


def decide(query: DecisionQuery, mode: Mode = "rational") -> bool:
    return ExactSolver(query.instance, mode=mode).decide(query)
