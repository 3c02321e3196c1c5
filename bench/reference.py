"""Reference answers that the benchmark checks the program's outputs against.

This is an independent re-statement of the semantics of the sightpath code the
benchmark was defined on: the memoized success recursion with forward-cone
memo keys, the highest-head tiebreak, the bounded LRU similarity cache of the
approximate solver, and the seeded Monte Carlo trial stream.  It works on
edge bitmasks and never imports the program, so a defect in the program shows
up as a mismatch instead of being reproduced here.  It reads an instance only
through its plain attributes (edges, sights, vertex count and task).

Rational results must match the program bit for bit.  Float results follow the
same arithmetic in the same order, so they match too; the checks still allow
the float tie tolerance for them.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from fractions import Fraction
from itertools import product

FLOAT_TOL = 1e-9

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MISS = object()


def derive_seed(seed: int, index: int) -> int:
    """The splitmix64 seed derivation that keys every trial's random stream."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """An instance as edge bitmasks; edge ``i`` is the i-th pair in sorted order."""

    def __init__(self, instance):
        self.pairs = sorted((e.tail, e.head) for e in instance.edges)
        self.index = index = {pair: i for i, pair in enumerate(self.pairs)}
        p_of = {(e.tail, e.head): Fraction(e.p_fail) for e in instance.edges}
        self.p_fail = [p_of[pair] for pair in self.pairs]
        self.start = instance.task.start
        self.dest = instance.task.dest
        vertices = range(1, instance.vertex_count + 1)
        self.out = {v: [i for i, (t, _) in enumerate(self.pairs) if t == v] for v in vertices}
        self.sight = dict.fromkeys(vertices, 0)
        for s in instance.sights:
            self.sight[s.observer] |= 1 << index[tuple(s.edge)]

        reaches_dest = {self.dest}
        stack = [self.dest]
        while stack:
            v = stack.pop()
            for t, h in self.pairs:
                if h == v and t not in reaches_dest:
                    reaches_dest.add(t)
                    stack.append(t)
        self.cone = {}
        for v in vertices:
            ahead = {v}
            stack = [v]
            while stack:
                for i in self.out[stack.pop()]:
                    head = self.pairs[i][1]
                    if head not in ahead:
                        ahead.add(head)
                        stack.append(head)
            self.cone[v] = sum(
                1 << i
                for i, (t, h) in enumerate(self.pairs)
                if t in ahead and h in reaches_dest
            )

    def assignments(self, mask: int) -> list[tuple[int, int, Fraction]]:
        """Every up/down assignment to the edges in ``mask`` as (up, down, weight),
        in the program's order: lowest edge slowest, up before down."""
        edges = _bits(mask)
        out = []
        for combo in product((True, False), repeat=len(edges)):
            up = down = 0
            weight = Fraction(1)
            for i, is_up in zip(edges, combo):
                if is_up:
                    up |= 1 << i
                    weight *= 1 - self.p_fail[i]
                else:
                    down |= 1 << i
                    weight *= self.p_fail[i]
            out.append((up, down, weight))
        return out

    def scenarios(self) -> list[tuple[int, int, Fraction]]:
        """The first-step knowledge states with nonzero probability."""
        return [s for s in self.assignments(self.sight[self.start]) if s[2] != 0]

    def zero_scenarios(self) -> int:
        return len(self.assignments(self.sight[self.start])) - len(self.scenarios())


class Memo:
    """Unbounded memo table: the exact solver's cache."""

    def __init__(self):
        self.entries: dict = {}

    def get(self, key):
        return self.entries.get(key, _MISS)

    def put(self, key, value) -> None:
        self.entries[key] = value


class SimilarityCache:
    """Bounded LRU cache that may answer with an entry for the same edge whose
    knowledge differs in at most ``threshold`` statuses; the nearest, then the
    most recently used, wins."""

    def __init__(self, threshold: int, capacity: int):
        self.threshold = threshold
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.by_edge: dict[int, set] = {}
        self.stamps: dict = {}
        self.stamp = 0
        self.exact_hits = self.similar_hits = self.misses = self.evictions = 0

    def _touch(self, key) -> None:
        self.entries.move_to_end(key)
        self.stamp += 1
        self.stamps[key] = self.stamp

    def get(self, key):
        if key in self.entries:
            self.exact_hits += 1
            self._touch(key)
            return self.entries[key]
        if self.threshold > 0:
            edge, up, down = key
            best_key = best_rank = None
            for other in self.by_edge.get(edge, ()):
                distance = bin((up ^ other[1]) | (down ^ other[2])).count("1")
                if distance > self.threshold:
                    continue
                rank = (distance, -self.stamps[other])
                if best_rank is None or rank < best_rank:
                    best_key, best_rank = other, rank
            if best_key is not None:
                self.similar_hits += 1
                self._touch(best_key)
                return self.entries[best_key]
        self.misses += 1
        return _MISS

    def put(self, key, value) -> None:
        if key not in self.entries and len(self.entries) >= self.capacity:
            evicted, _ = self.entries.popitem(last=False)
            self.by_edge[evicted[0]].discard(evicted)
            del self.stamps[evicted]
            self.evictions += 1
        self.entries[key] = value
        self.by_edge.setdefault(key[0], set()).add(key)
        self._touch(key)

    def counters(self) -> tuple[int, int, int, int]:
        return (self.exact_hits, self.similar_hits, self.misses, self.evictions)


class Solver:
    """The success recursion on (edge, up mask, down mask) memo keys."""

    def __init__(self, graph: Graph, mode: str = "rational", cache=None):
        self.g = graph
        self.rational = mode == "rational"
        self.zero = Fraction(0) if self.rational else 0.0
        self.one = Fraction(1) if self.rational else 1.0
        self.cache = cache if cache is not None else Memo()
        self.key_mask = [
            graph.cone[head] | 1 << i for i, (_, head) in enumerate(graph.pairs)
        ]
        self.moves: dict = {}

    def _num(self, value: Fraction):
        return value if self.rational else float(value)

    def success(self, edge: int, up: int, down: int):
        mask = self.key_mask[edge]
        key = (edge, up & mask, down & mask)
        value = self.cache.get(key)
        if value is _MISS:
            value = self._evaluate(*key)
            self.cache.put(key, value)
        return value

    def _evaluate(self, edge: int, up: int, down: int):
        g = self.g
        bit = 1 << edge
        if down & bit:
            return self.zero
        crossing = self.one if up & bit else self.one - self._num(g.p_fail[edge])
        head = g.pairs[edge][1]
        if head == g.dest or crossing == self.zero:
            return crossing
        total = self.zero
        for new_up, new_down, weight in g.assignments(g.sight[head] & g.cone[head] & ~(up | down)):
            if weight == 0:
                continue
            best = self.zero
            for onward in g.out[head]:
                value = self.success(onward, up | new_up, down | new_down)
                if value > best:
                    best = value
            total += self._num(weight) * best
        return crossing * total

    def _candidates(self, v: int, up: int, down: int):
        return [(e, self.success(e, up, down)) for e in self.g.out[v] if not down >> e & 1]

    def next_move(self, v: int, up: int, down: int):
        """The pair the walker takes at ``v``, or None when it halts."""
        key = (v, up, down)
        if key not in self.moves:
            scored = self._candidates(v, up, down)
            best = max((value for _, value in scored), default=self.zero)
            move = None
            if best > self.zero:
                chosen = [
                    self.g.pairs[e]
                    for e, value in scored
                    if (value == best if self.rational else best - value <= FLOAT_TOL)
                ]
                move = max(chosen, key=lambda pair: (pair[1], pair[0]))
            self.moves[key] = move
        return self.moves[key]

    def root_value(self, up: int, down: int):
        best = self.zero
        for _, value in self._candidates(self.g.start, up, down):
            if value > best:
                best = value
        return best


def solve_answers(graph: Graph) -> tuple[list[tuple], int]:
    """(first move, root value) for every possible first-step scenario, exactly,
    and the number of memo entries that took."""
    solver = Solver(graph)
    answers = [
        (solver.next_move(graph.start, up, down), solver.root_value(up, down))
        for up, down, _ in graph.scenarios()
    ]
    return answers, len(solver.cache.entries)


def agreement(graph: Graph, threshold: int, capacity: int) -> tuple:
    """(decision match, largest root-value gap, (exact hits, similar hits,
    misses, evictions), exact memo entries) of the float-mode approximate
    solver against exact."""
    exact = Solver(graph, "float")
    cache = SimilarityCache(threshold, capacity)
    approx = Solver(graph, "float", cache)
    match = True
    gap = 0.0
    for up, down, _ in graph.scenarios():
        if approx.next_move(graph.start, up, down) != exact.next_move(graph.start, up, down):
            match = False
        difference = abs(approx.root_value(up, down) - exact.root_value(up, down))
        if difference > gap:
            gap = difference
    return match, gap, cache.counters(), len(exact.cache.entries)


class Trials:
    """The seeded trial stream: trial ``i`` of a batch draws one uniform number
    per edge, in edge order, from ``random.Random(derive_seed(seed, i))``."""

    def __init__(self, graph: Graph):
        self.g = graph
        self.solver = Solver(graph)
        self.thresholds = [float(p) for p in graph.p_fail]
        # the policy's exact success probability: sum of weight * root value
        self.value = sum(
            (w * self.solver.root_value(up, down) for up, down, w in graph.scenarios()),
            Fraction(0),
        )
        self.memo_entries = len(self.solver.cache.entries)

    def successes(self, n: int, seed: int) -> int:
        wins = 0
        for i in range(n):
            rng = random.Random(derive_seed(seed, i))
            world = 0
            for e, threshold in enumerate(self.thresholds):
                if not rng.random() < threshold:
                    world |= 1 << e
            wins += self._walk(world)
        return wins

    def _walk(self, world: int) -> int:
        g = self.g
        v = g.start
        up, down = g.sight[v] & world, g.sight[v] & ~world
        while v != g.dest:
            move = self.solver.next_move(v, up, down)
            if move is None:
                return 0
            bit = 1 << g.index[move]
            if not world & bit:
                return 0
            v = move[1]
            up |= bit | (g.sight[v] & world)
            down |= g.sight[v] & ~world
        return 1
