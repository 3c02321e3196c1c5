"""Cache-based approximate solver: reuse valuations of similar knowledge states.

Same recursion as the exact solver, but the memo table is bounded (LRU) and,
above threshold zero, a lookup may be answered by a cached entry for the same
edge whose knowledge differs in at most ``similarity_threshold`` edge
statuses.  That trades exactness for time and space; at threshold zero the
results are identical to the exact solver.

The cache is keyed by the solver's mask keys ``(edge, up, down)``, and the
similarity scan measures :func:`knowledge_distance` on their ``(up, down)``
masks.  Both keys of a comparison are cut to the same edge's ``key_mask``,
so that is the distance of their knowledge items; no item set is built.

Recency is kept as dict order alone: a hit moves its key to the end of the
cache and of its edge's key dict, and a miss appends it to both.  The scan
takes the nearest key within the threshold, and of equally near keys the
last one, the most recently used.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Union

from .exact import (
    ExactSolver,
    MaskKey,
    Mode,
    Valuation,
    _SolverCore,
)
from .model import EMPTY_KNOWLEDGE, EdgePair, Instance, Knowledge, Status, _read_integers
from .oracle import _first_steps

KnowledgeItems = FrozenSet[tuple[EdgePair, Status]]
KnowledgeMasks = tuple[int, int]


@dataclass(frozen=True)
class ApproxConfig:
    """Similarity threshold (max differing statuses) and cache capacity,
    both read as integers (``TypeError`` otherwise)."""

    similarity_threshold: int = 0
    max_entries: int = 1024

    def __post_init__(self) -> None:
        _read_integers(self, "similarity_threshold", "max_entries")
        if self.similarity_threshold < 0:
            raise ValueError("similarity_threshold must be non-negative")
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")


@dataclass(frozen=True)
class CacheReport:
    exact_hits: int
    similar_hits: int
    misses: int
    evictions: int


def knowledge_distance(
    a: Union[KnowledgeItems, KnowledgeMasks], b: Union[KnowledgeItems, KnowledgeMasks]
) -> int:
    """Number of edges whose status differs between two knowledge maps.

    An edge known in one map and unknown in the other counts as one, as does
    an edge known up in one and down in the other.  A map is either its
    ``(pair, status)`` items, in any iterable, or an ``(up, down)`` pair of
    ints over one :class:`~sightpath.model.EdgeNumbering`; both arguments
    take the same form.
    """
    # dict() refuses an int entry, so no accepted item input passes this test
    if type(a) is tuple and len(a) == 2 and type(a[0]) is int:
        (up_a, down_a), (up_b, down_b) = a, b
        return ((up_a ^ up_b) | (down_a ^ down_b)).bit_count()
    left = dict(a)
    right = dict(b)
    return sum(
        1 for pair in left.keys() | right.keys() if left.get(pair) is not right.get(pair)
    )


class ApproxSolver(_SolverCore):
    """Bounded-cache solver that may substitute similar cached valuations."""

    def __init__(
        self, instance: Instance, config: ApproxConfig = ApproxConfig(), mode: Mode = "rational"
    ):
        # a substituted value may carry factors of edges the caller already
        # knows, so only threshold zero keeps the common-denominator ints
        super().__init__(instance, mode, scaled=config.similarity_threshold == 0)
        self.config = config
        self._cache: OrderedDict[MaskKey, Union[int, Valuation]] = OrderedDict()
        # edge index -> cached keys of that edge with their (up, down) masks, in use order
        self._by_edge: dict[int, dict[MaskKey, KnowledgeMasks]] = {}
        self._exact_hits = 0
        self._similar_hits = 0
        self._misses = 0
        self._evictions = 0

    def _touch(self, key: MaskKey) -> None:
        self._cache.move_to_end(key)
        keys = self._by_edge[key[0]]
        keys[key] = keys.pop(key)

    def _success(self, edge: int, up: int, down: int):
        key = (edge, up, down)
        cache = self._cache
        if key in cache:
            self._exact_hits += 1
            self._touch(key)
            return cache[key]
        masks = (up, down)
        threshold = self.config.similarity_threshold
        candidates = self._by_edge.get(edge) if threshold > 0 else None
        if candidates:
            best_key = None
            nearest = threshold
            for candidate, candidate_masks in candidates.items():
                distance = knowledge_distance(masks, candidate_masks)
                if distance <= nearest:
                    nearest = distance
                    best_key = candidate
            if best_key is not None:
                self._similar_hits += 1
                self._touch(best_key)
                return cache[best_key]
        self._misses += 1
        value = self._evaluate(edge, up, down)
        # the recursion only visits later edges, so key is still absent
        if len(cache) >= self.config.max_entries:
            evicted, _ = cache.popitem(last=False)
            del self._by_edge[evicted[0]][evicted]
            self._evictions += 1
        cache[key] = value
        self._by_edge.setdefault(edge, {})[key] = masks
        return value

    @property
    def report(self) -> CacheReport:
        return CacheReport(
            exact_hits=self._exact_hits,
            similar_hits=self._similar_hits,
            misses=self._misses,
            evictions=self._evictions,
        )

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # entries leave the cache only to make room for an insert, so it never
    # shrinks and its size is its peak
    peak_cache_size = cache_size

    def approx_success(
        self, edge: EdgePair, knowledge: Knowledge = EMPTY_KNOWLEDGE
    ) -> tuple[Valuation, CacheReport]:
        """Approximate success of ``edge`` plus the cache counters so far."""
        value = self.success(edge, knowledge)
        return value, self.report


@dataclass(frozen=True)
class AgreementRow:
    instance: Instance
    decision_match: bool
    value_gap: Union[Fraction, float]
    report: CacheReport


def agreement_report(
    instances: Iterable[Instance], config: ApproxConfig, mode: Mode = "rational"
) -> list[AgreementRow]:
    """Compare approximate first moves and root values against exact, per instance.

    The gap is the largest absolute root-value difference over the possible
    first-step scenarios of :func:`~sightpath.oracle._first_steps`; the
    decision matches when the first move agrees on every one of them.
    """
    rows = []
    for instance in instances:
        exact = ExactSolver(instance, mode=mode)
        approx = ApproxSolver(instance, config, mode=mode)
        solvers = (approx, exact)
        match = True
        gap: Union[Fraction, float] = Fraction(0) if mode == "rational" else 0.0
        for _, _, [(move, value), (exact_move, exact_value)] in _first_steps(instance, solvers):
            match = match and move == exact_move
            difference = abs(value - exact_value)
            if difference > gap:
                gap = difference
        rows.append(AgreementRow(instance, match, gap, approx.report))
    return rows
