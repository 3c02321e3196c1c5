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
reveal branches at a vertex are enumerated once per solver for each set of
still-unknown watched edges.  ``Knowledge`` stays the public type: it is
converted to masks once per public call, and ``memo_key``/``memo_keys``
return the public ``(edge, frozenset of (edge, status))`` form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, FrozenSet, Iterable, Literal, Optional, Union

from .model import (
    EMPTY_KNOWLEDGE,
    EdgePair,
    Instance,
    Knowledge,
    ModelError,
    Status,
    _bits,
    format_pair,
)

Valuation = Union[Fraction, float]
Mode = Literal["rational", "float"]
MemoKey = tuple[EdgePair, FrozenSet[tuple[EdgePair, Status]]]
MaskKey = tuple[int, int, int]
Policy = Callable[[int, Knowledge], Optional[EdgePair]]

DEFAULT_FLOAT_TOL = 1e-9

_MISS = object()


class EmptyCandidates(ModelError):
    """tiebreak() was asked to choose from nothing."""


class IncompleteKnowledge(ModelError):
    """A first-step query must assign a status to every edge visible from the start."""


class SearchTooDeep(ModelError):
    """The success recursion needs more nested calls than Python allows.

    Its depth grows with the number of edges on the longest path.
    """


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
    probabilities and sum to one.
    """
    instance._check_vertex(v)
    edges = instance.numbering
    return edges.extensions(knowledge, edges.watch[v])


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


class _SolverCore:
    """Shared recursion for the exact solver and its cache-based variant.

    Subclasses supply the cache policy through ``_cache_get``/``_cache_put``,
    keyed by mask keys; the recursion itself is identical, which is what
    makes the threshold-zero cached variant agree with the exact solver bit
    for bit.
    """

    def __init__(
        self,
        instance: Instance,
        mode: Mode = "rational",
        tol: float = DEFAULT_FLOAT_TOL,
    ):
        if mode not in ("rational", "float"):
            raise ValueError(f"mode must be 'rational' or 'float', got {mode!r}")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
        self.instance = instance
        self.mode = mode
        self.tol = tol
        self._zero: Valuation = Fraction(0) if mode == "rational" else 0.0
        self._one: Valuation = Fraction(1) if mode == "rational" else 1.0
        self._move_cache: dict[tuple[int, Knowledge], Optional[EdgePair]] = {}
        self._edges = instance.numbering
        if mode == "rational":
            self._cross = self._edges.cross
        else:
            self._cross = tuple(1.0 - float(p) for p in self._edges.p_fail)
        self._branch_table: dict[int, tuple] = {}

    # -- cache hooks -------------------------------------------------------

    def _cache_get(self, key: MaskKey):
        raise NotImplementedError

    def _cache_put(self, key: MaskKey, value: Valuation) -> None:
        raise NotImplementedError

    # -- keys ----------------------------------------------------------------

    def _public_key(self, key: MaskKey) -> MemoKey:
        edge, up, down = key
        return (self._edges.pairs[edge], self._edges.items(up, down))

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
        return self._entry(index, *self._edges.masks(knowledge))

    def _entry(self, edge: int, up: int, down: int) -> Valuation:
        """Value of edge index ``edge`` under uncut masks, from a public call."""
        keep = self._edges.key_mask[edge]
        try:
            return self._success(edge, up & keep, down & keep)
        except RecursionError:
            raise SearchTooDeep(
                f"the instance's paths are too long for the recursive solver "
                f"(recursion limit {sys.getrecursionlimit()})"
            ) from None

    def _success(self, edge: int, up: int, down: int) -> Valuation:
        key = (edge, up, down)
        cached = self._cache_get(key)
        if cached is not _MISS:
            return cached
        value = self._evaluate(edge, up, down)
        self._cache_put(key, value)
        return value

    def _evaluate(self, edge: int, up: int, down: int) -> Valuation:
        bit = 1 << edge
        if down & bit:
            return self._zero
        crossing = self._one if up & bit else self._cross[edge]
        edges = self._edges
        head = edges.head[edge]
        if head == self.instance.dest or not crossing:
            return crossing
        onward = edges.out[head]
        key_mask = edges.key_mask
        branches = self._branches(edges.watch[head] & ~(up | down))
        total = self._zero
        for add_up, add_down, weight in branches:
            seen_up = up | add_up
            seen_down = down | add_down
            # values are never negative, so the first candidate needs no
            # comparison against zero
            best = None
            for next_edge in onward:
                keep = key_mask[next_edge]
                candidate = self._success(next_edge, seen_up & keep, seen_down & keep)
                if best is None or candidate > best:
                    best = candidate
            if best is None:
                best = self._zero
            if weight is None:
                total = best
            else:
                total += weight * best
        return total if crossing is self._one else crossing * total

    def _branches(self, fresh: int) -> tuple[tuple[int, int, Optional[Valuation]], ...]:
        """The nonzero-weight reveal branches of the unknown watched edges ``fresh``.

        A lone branch of weight one (nothing to reveal) has weight None:
        ``0 + 1 * best`` is ``best`` exactly, so the sum is skipped.
        """
        try:
            return self._branch_table[fresh]
        except KeyError:
            pass
        if not fresh:
            branches: tuple = ((0, 0, None),)
        else:
            denominator, scenarios = self._edges.scenarios(fresh)
            branches = tuple(
                (add_up, fresh & ~add_up, self._to_mode(Fraction(num, denominator)))
                for add_up, num in scenarios
                if num
            )
        self._branch_table[fresh] = branches
        return branches

    def _to_mode(self, value: Fraction) -> Valuation:
        return value if self.mode == "rational" else float(value)

    # -- decisions ---------------------------------------------------------

    def candidate_successes(
        self, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE
    ) -> list[tuple[EdgePair, Valuation]]:
        """Success of each outgoing edge of ``v`` that is not known down."""
        self.instance._check_vertex(v)
        edges = self._edges
        up, down = edges.masks(knowledge)
        return [
            (edges.pairs[edge], self._entry(edge, up, down))
            for edge in edges.out[v]
            if not down >> edge & 1
        ]

    def optimal_set(self, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> frozenset[EdgePair]:
        """The outgoing edges of ``v`` attaining the best positive success.

        Empty when ``v`` has no outgoing edges left or every continuation is
        certain to fail: the walker is at a dead end.
        """
        if v == self.instance.dest:
            raise ValueError("no decision is made at the destination")
        scored = self.candidate_successes(v, knowledge)
        if not scored:
            return frozenset()
        best = max(value for _, value in scored)
        if best <= self._zero:
            return frozenset()
        if self.mode == "rational":
            return frozenset(pair for pair, value in scored if value == best)
        return frozenset(pair for pair, value in scored if best - value <= self.tol)

    def next_move(self, v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Optional[EdgePair]:
        """The edge the walker takes at ``v``, or None when it halts."""
        cache_key = (v, knowledge)
        try:
            return self._move_cache[cache_key]
        except KeyError:
            pass
        chosen = self.optimal_set(v, knowledge)
        move = tiebreak(chosen) if chosen else None
        self._move_cache[cache_key] = move
        return move

    def decide(self, query: DecisionQuery) -> bool:
        """True iff the walker's first step out of the start is ``query.edge``."""
        if query.instance != self.instance:
            raise ValueError("query was built for a different instance")
        chosen = self.optimal_set(self.instance.start, query.knowledge)
        return query.edge in chosen and tiebreak(chosen) == query.edge

    def root_value(self, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Valuation:
        """Best success over the start vertex's candidate edges (0 at a dead end)."""
        scored = self.candidate_successes(self.instance.start, knowledge)
        best = self._zero
        for _, value in scored:
            if value > best:
                best = value
        return best

    def policy(self) -> Policy:
        return self.next_move


class ExactSolver(_SolverCore):
    """Memoized exact solver; one per instance, results are deterministic."""

    def __init__(
        self,
        instance: Instance,
        mode: Mode = "rational",
        tol: float = DEFAULT_FLOAT_TOL,
    ):
        super().__init__(instance, mode, tol)
        self._memo: dict[MaskKey, Valuation] = {}
        self._hits = 0

    def _cache_get(self, key: MaskKey):
        value = self._memo.get(key, _MISS)
        if value is not _MISS:
            self._hits += 1
        return value

    def _cache_put(self, key: MaskKey, value: Valuation) -> None:
        self._memo[key] = value

    def memo_stats(self) -> MemoStats:
        return MemoStats(entries=len(self._memo), hits=self._hits)

    def memo_keys(self) -> frozenset[MemoKey]:
        return frozenset(map(self._public_key, self._memo))


def decide(query: DecisionQuery, mode: Mode = "rational", tol: float = DEFAULT_FLOAT_TOL) -> bool:
    return ExactSolver(query.instance, mode=mode, tol=tol).decide(query)
