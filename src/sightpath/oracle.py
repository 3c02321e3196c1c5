"""Independent brute-force verification of the exact solver.

The value oracle here never touches the solver's machinery: it splits the
worlds by the statuses a walk reveals and recurses on full observed
knowledge, with no forward-cone truncation and no memo table.  A conceptual
bug would have to be made twice, in two different formalisms, to slip past
the equality tests.  What it shares with the solver is the problem itself:
the instance's edge numbering, whose
:meth:`~sightpath.model.EdgeNumbering.scenarios` of the whole edge set is the
world list (up-masks with integer weights over one denominator), and whose
``crossing_scaled`` factors are the product measure's.

The oracle computes on sets of worlds named by their statuses: the worlds
that agree with a knowledge ``(up, down)``, a cylinder of the product
measure.  A set carries its mass, a numerator over ``edges.denominator``:
the factors of the edges it has fixed times the denominators of the rest.
Crossing an unseen edge keeps its up share, ``mass // den * (den - num)``,
and an edge seen unknown splits a set into its up and down shares.  No edge
is factored twice on one path, so every division is exact.  Conditioning
needs no filter: a query's known edges are never factored in, and edges are
independent.  The oracle chooses on these ints: :func:`_candidate_numerators`
recurses on the sets to each candidate's numerator over ``edges.denominator``,
and :func:`value`, :func:`first_move` and :func:`oracle_check` pick the best
of them (:func:`_answer`).  A ``Fraction`` is built only for a public answer:
one per answer, and one per candidate :func:`candidate_values` lists.  :func:`policy_value`
walks the sets in a heap by their lowest world, and the sight-blind baseline
computes on numerators over the same denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from .exact import _HALT, ExactSolver, Policy, Valuation, _SolverCore, _too_deep, tiebreak
from .model import (
    EMPTY_KNOWLEDGE,
    EdgeNumbering,
    EdgePair,
    Instance,
    Knowledge,
    ModelError,
    Status,
    World,
    _bits,
    format_pair,
    observe,
)

if TYPE_CHECKING:  # pragma: no cover
    from .generate import GeneratorConfig

WORLD_CAP = 20


class TooManyEdges(ModelError):
    """World enumeration refused: more edges than the cap, counting every edge
    for the world list and the value oracle, the uncertain ones for
    :func:`policy_value`."""


class PolicyChoseKnownDown(ModelError):
    """A simulated policy tried to cross an edge it knew was down."""


@dataclass(frozen=True)
class WorldWeight:
    world: World
    weight: Fraction


# -- world enumeration and conditional value by world filtering ------------


def _numbering(instance: Instance, cap: int) -> EdgeNumbering:
    """The instance's edge numbering, once its whole edge set is checked against ``cap``."""
    edges = instance.numbering
    if len(edges.pairs) > cap:
        raise TooManyEdges(f"{len(edges.pairs)} edges exceed the enumeration cap of {cap}")
    return edges


def _uncertain(edges: EdgeNumbering) -> int:
    """The mask of the edges that fail with a probability strictly between 0 and 1."""
    return sum(1 << i for i, (cross, den) in enumerate(edges.crossing_scaled) if 0 < cross < den)


def _world(edges: EdgeNumbering, up: int) -> World:
    """The world whose up edges are ``up`` and whose other edges are down."""
    return World(edges.statuses(up, ((1 << len(edges.pairs)) - 1) & ~up))


def enumerate_worlds(instance: Instance, cap: int = WORLD_CAP) -> list[WorldWeight]:
    """All 2^|E| worlds with their product-measure weights (they sum to 1), the
    lowest edge varying slowest and up before down; zero-weight worlds are kept."""
    edges = _numbering(instance, cap)
    denominator, worlds = edges.scenarios((1 << len(edges.pairs)) - 1)
    return [WorldWeight(_world(edges, up), Fraction(num, denominator)) for up, num in worlds]


def _conditioned(
    instance: Instance, knowledge: Knowledge, cap: int
) -> tuple[EdgeNumbering, int, int]:
    """The numbering and the up and down masks of ``knowledge``, once the edge
    set is within ``cap`` and ``knowledge`` has a positive probability
    (``ValueError`` otherwise): the checks of every oracle query."""
    edges = _numbering(instance, cap)
    k_up, k_down = edges.masks(knowledge)
    factor = edges.crossing_scaled
    for i in _bits(k_up | k_down):  # known up needs a crossing chance, known down a failure one
        cross, den = factor[i]
        if cross == (0 if k_up >> i & 1 else den):
            raise ValueError("knowledge has probability zero; conditioning is undefined")
    return edges, k_up, k_down


def _candidate_numerators(
    instance: Instance, v: int, knowledge: Knowledge, cap: int
) -> tuple[int, list[tuple[EdgePair, int]]]:
    """``(mass, [(pair, numerator), ...])``: each candidate edge at ``v`` with
    :func:`_edge_value`'s numerator from the worlds of ``knowledge``, whose
    mass is ``edges.denominator``.  Known-down edges are not candidates.
    Knowledge that an edge's ``p_fail`` forbids raises ``ValueError``.  A path
    too long for the recursion raises :class:`~sightpath.exact.SearchTooDeep`.
    """
    slot = instance._check_vertex(v)
    edges, k_up, k_down = _conditioned(instance, knowledge, cap)
    mass, dest, pairs = edges.denominator, instance.dest, edges.pairs
    try:
        return mass, [
            (pairs[i], _edge_value(edges, dest, i, mass, k_up, k_down))
            for i in edges.out[slot]
            if not k_down >> i & 1
        ]
    except RecursionError:
        raise _too_deep("the oracle's recursion") from None


def candidate_values(
    instance: Instance,
    v: int,
    knowledge: Knowledge = EMPTY_KNOWLEDGE,
    cap: int = WORLD_CAP,
) -> list[tuple[EdgePair, Fraction]]:
    """Value of each candidate edge at ``v`` by direct expectation over worlds.

    A candidate's value is the probability, conditioned on the knowledge, that
    the edge is up times the value of the head vertex under the knowledge the
    walker would then hold.  Known-down edges are not candidates.  Each value is
    :func:`_candidate_numerators`' numerator over ``edges.denominator``, made
    one ``Fraction`` here.  Knowledge that an edge's ``p_fail`` forbids raises
    ``ValueError``.  A path too long for the recursion raises
    :class:`~sightpath.exact.SearchTooDeep`.
    """
    mass, scored = _candidate_numerators(instance, v, knowledge, cap)
    return [(pair, Fraction(num, mass)) for pair, num in scored]


def _edge_value(edges: EdgeNumbering, dest: int, edge: int, mass: int, up: int, down: int) -> int:
    """Value of crossing edge index ``edge`` from the worlds that agree with the
    knowledge ``(up, down)``, as a numerator over ``edges.denominator``; the
    worlds' own mass is ``mass``.

    Crossing an unseen edge keeps the worlds where it is up.  They are split
    by which of the edges the walker first sees at the head are up.  A part at
    the destination scores its mass, any other its best onward numerator (0 at
    a dead end).
    """
    factor, bit = edges.crossing_scaled, 1 << edge
    if not up & bit:  # crossed unseen: the worlds where it is down stay behind
        cross, den = factor[edge]
        mass, up = mass // den * cross, up | bit
    if not mass:
        return 0
    head = edges.head[edge]
    if head == dest:
        return mass
    parts = [(mass, up, down)]
    for i in _bits(edges.sight[head] & ~(up | down)):
        (cross, den), seen = factor[i], 1 << i
        split = []
        for mass, up, down in parts:
            mass //= den
            split += [(mass * cross, up | seen, down), (mass * (den - cross), up, down | seen)]
        parts = [part for part in split if part[0]]
    out = edges.out[head]
    total = 0
    for mass, up, down in parts:
        best = 0  # a dead end
        for i in out:
            if not down >> i & 1:
                onward = _edge_value(edges, dest, i, mass, up, down)
                if onward > best:
                    best = onward
        total += best
    return total


def _choose(
    scored: list[tuple[EdgePair, Union[int, Fraction]]]
) -> tuple[Union[int, Fraction], Optional[EdgePair]]:
    """The best candidate value and its move: the highest head among the ties,
    or 0 and None (halt) when no candidate has a positive value.  The values
    are numerators over one denominator or Fractions; the best is returned as
    it is."""
    best = max((val for _, val in scored), default=0)
    if best <= 0:
        return 0, None
    return best, tiebreak(pair for pair, val in scored if val == best)


def _answer(
    instance: Instance, v: int, knowledge: Knowledge, cap: int
) -> tuple[Fraction, Optional[EdgePair]]:
    """The best value at ``v`` and its move, chosen on
    :func:`_candidate_numerators`' numerators; the value is the one
    ``Fraction`` built."""
    mass, scored = _candidate_numerators(instance, v, knowledge, cap)
    best, move = _choose(scored)
    return Fraction(best, mass), move


def value(
    instance: Instance,
    v: int,
    knowledge: Knowledge = EMPTY_KNOWLEDGE,
    cap: int = WORLD_CAP,
) -> Fraction:
    """Best achievable success probability from ``v`` under ``knowledge``: 1 at
    the destination, once the query passes :func:`candidate_values`' checks;
    elsewhere :func:`_answer`'s."""
    if v == instance.dest and instance.has_vertex(v):
        _conditioned(instance, knowledge, cap)
        return Fraction(1)
    return _answer(instance, v, knowledge, cap)[0]


def first_move(
    instance: Instance,
    v: int,
    knowledge: Knowledge = EMPTY_KNOWLEDGE,
    cap: int = WORLD_CAP,
) -> Optional[EdgePair]:
    """The move the oracle's values prescribe at ``v`` (None at a dead end)."""
    return _answer(instance, v, knowledge, cap)[1]


# -- policy simulation ------------------------------------------------------


class Outcome(Enum):
    REACHED = "reached"
    FAILED_EDGE = "failed-edge"
    HALTED = "halted"


@dataclass(frozen=True)
class TrialTrace:
    visited: tuple[int, ...]
    chosen: tuple[EdgePair, ...]
    outcome: Outcome
    failed_edge: Optional[EdgePair] = None

    @property
    def reached(self) -> bool:
        return self.outcome is Outcome.REACHED


def _legal_move(instance: Instance, v: int, move, knowledge: Knowledge) -> EdgePair:
    """A policy's ``move`` at ``v`` as a pair, checked to leave ``v`` and not be
    known down."""
    move = tuple(move)
    if move not in instance.out_edges(v):
        raise ValueError(f"policy chose {format_pair(move)}, which does not leave vertex {v}")
    if knowledge.status(move) is Status.DOWN:
        raise PolicyChoseKnownDown(
            f"policy tried to cross {format_pair(move)} while knowing it is down"
        )
    return move


def simulate_policy(instance: Instance, world: World, policy: Policy) -> TrialTrace:
    """Walk one trial: observe at each vertex, follow the policy, stop on
    failure, arrival, or a halt."""
    if world.pairs != instance.pairs:
        raise ValueError("world must assign a status to exactly the instance's edges")
    v = instance.start
    knowledge = observe(instance, EMPTY_KNOWLEDGE, v, world)
    visited = [v]
    chosen: list[EdgePair] = []
    while v != instance.dest:
        move = policy(v, knowledge)
        if move is None:
            return TrialTrace(tuple(visited), tuple(chosen), Outcome.HALTED)
        move = _legal_move(instance, v, move, knowledge)
        chosen.append(move)
        if not world.up(move):
            return TrialTrace(tuple(visited), tuple(chosen), Outcome.FAILED_EDGE, move)
        knowledge = knowledge.with_statuses({move: Status.UP})
        v = move[1]
        visited.append(v)
        knowledge = observe(instance, knowledge, v, world)
    return TrialTrace(tuple(visited), tuple(chosen), Outcome.REACHED)


_REACHED, _FAILED_EDGE, _HALTED = Outcome  # bound once: Outcome.X is a slow lookup per trial


def _checked_move(instance: Instance, policy: Policy, v: int, up: int, down: int) -> int:
    """The policy's edge index at ``v`` under the knowledge ``(up, down)``, or _HALT."""
    edges = instance.numbering
    knowledge = edges.knowledge(up, down)
    move = policy(v, knowledge)
    return _HALT if move is None else edges.index[_legal_move(instance, v, move, knowledge)]


def _asker(instance: Instance, policy: Policy) -> tuple[Callable[[int, int, int], int], dict]:
    """How a trial walk on ``instance`` asks ``policy``: ``(ask, table)`` for :func:`_walk`.

    The stock ``next_move`` (``_SolverCore.next_move`` as it is at call time)
    of a solver built for an equal instance is asked on masks, through the
    solver's ``_move``, and its table is the solver's own ``_move_cache``.  Any
    other policy, such as a subclass's own ``next_move`` or a solver built for
    another instance, goes through :func:`_checked_move` with a fresh table.
    """
    solver = getattr(policy, "__self__", None)
    if getattr(policy, "__func__", None) is _SolverCore.next_move and solver.instance == instance:
        return solver._move, solver._move_cache
    return partial(_checked_move, instance, policy), {}


def _walk(
    instance: Instance, ask: Callable[[int, int, int], int], moves: dict, world: int
) -> Outcome:
    """:func:`simulate_policy` on masks, in the world whose up-mask is ``world``.

    Knowledge is a pair of up/down masks: arriving at ``v`` over edge ``e`` adds
    ``e`` and the up edges ``v`` watches to the up-mask, the down ones to the
    down-mask.  ``moves`` is a ``(vertex, up, down) -> edge index | _HALT``
    table and a miss calls ``ask(v, up, down)``, both from :func:`_asker`.  A
    policy is a function of (vertex, knowledge), so a hit is its move.
    """
    edges, task = instance.numbering, instance.task
    sight, head, dest = edges.sight, edges.head, task.dest
    v = task.start
    up, down = sight[v] & world, sight[v] & ~world
    while v != dest:
        key = (v, up, down)
        edge = moves.get(key)
        if edge is None:
            edge = moves[key] = ask(v, up, down)
        if edge == _HALT:
            return _HALTED
        bit = 1 << edge
        if not world & bit:
            return _FAILED_EDGE
        v = head[edge]
        up |= bit | (sight[v] & world)
        down |= sight[v] & ~world
    return _REACHED


def policy_value(instance: Instance, policy: Policy, cap: int = WORLD_CAP) -> Fraction:
    """Expected success of ``policy`` under the world measure.

    Worlds that share a walk's knowledge walk together as that knowledge, with
    their mass (a numerator over ``edges.denominator``) and the index ``low``
    of their lowest world in :meth:`~sightpath.model.EdgeNumbering.scenarios`
    order: each unknown edge up, each uncertain edge down adding its ``place``.
    Where a vertex shows an edge, the worlds where it is down wait in a heap by
    ``low``, so the policy, asked through :func:`_asker` once per (vertex,
    knowledge) state, is asked as in walking one world after another.  The heap
    holds at most one set per world of positive weight, 2^u of them for u
    uncertain edges, so more than ``cap`` uncertain edges raise
    :class:`TooManyEdges`.  A start outside 1..n raises
    :class:`~sightpath.model.UnknownVertex`.
    """
    edges = instance.numbering
    uncertain = sorted(_bits(_uncertain(edges)), reverse=True)
    if len(uncertain) > cap:
        raise TooManyEdges(f"{len(uncertain)} uncertain edges exceed the enumeration cap of {cap}")
    instance._check_vertex(instance.start)
    ask, moves = _asker(instance, policy)
    head, sight, factor, dest = edges.head, edges.sight, edges.crossing_scaled, instance.dest
    place = {i: 1 << n for n, i in enumerate(uncertain)}
    heap = [(0, instance.start, edges.denominator, 0, 0)]
    reached = 0
    while heap:
        low, v, mass, up, down = heappop(heap)
        while True:
            for i in _bits(sight[v] & ~(up | down)):
                (cross, den), bit = factor[i], 1 << i
                mass //= den
                if mass and cross < den:
                    heappush(heap, (low + place.get(i, 0), v, mass * (den - cross), up, down | bit))
                mass, up = mass * cross, up | bit
            if not mass or v == dest:
                reached += mass
                break
            edge = moves.get((v, up, down))
            if edge is None:
                edge = moves[v, up, down] = ask(v, up, down)
            if edge == _HALT or down >> edge & 1:
                break
            if not up >> edge & 1:  # crossed unseen: the worlds where it is down stay behind
                mass = mass // factor[edge][1] * factor[edge][0]
            v, up = head[edge], up | 1 << edge
    return Fraction(reached, edges.denominator)


# -- the sight-blind baseline ------------------------------------------------


def _blind_products(instance: Instance) -> list[int]:
    """Per edge index: the chance of crossing the edge unseen times the best
    blind product from its head, as a numerator over ``edges.denominator``.

    Reverse index order is topological (the edges out of a head have a larger
    tail, so they come later), which makes this one O(edges) walk.  No edge is
    factored twice on one path, so the head's product divides exactly by the
    edge's own denominator.
    """
    edges = instance.numbering
    factor = edges.crossing_scaled
    through = [0] * len(edges.pairs)
    for i in reversed(range(len(through))):
        cross, den = factor[i]
        through[i] = cross * (_blind_best(instance, through, edges.head[i]) // den)
    return through


def _blind_best(instance: Instance, through: list[int], v: int) -> int:
    """The best blind product from ``v`` over ``edges.denominator``: all of it
    at the destination, 0 at a dead end."""
    if v == instance.dest:
        return instance.numbering.denominator
    out = instance.numbering.out[instance._check_vertex(v)]
    return max((through[i] for i in out), default=0)


def max_product_values(instance: Instance) -> dict[int, Fraction]:
    """Per-vertex best survival product ignoring all sight, up to the largest
    vertex the instance names, as the numbering's tables go (any past it has 0)."""
    through = _blind_products(instance)
    mass = instance.numbering.denominator
    return {
        v: Fraction(_blind_best(instance, through, v), mass)
        for v in range(1, len(instance.numbering.out))
    }


def sight_blind_policy(instance: Instance) -> Policy:
    """The best policy for the same instance with every sight line deleted.

    It never learns anything, so it simply follows the maximum survival
    product, re-ranked at each vertex, with the usual highest-head tiebreak.
    It ignores knowledge and may cross an edge known down, so walk it on the
    instance with its sight lines deleted, not on ``instance`` itself.
    """
    edges = instance.numbering
    through = _blind_products(instance)

    def policy(v: int, knowledge: Knowledge = EMPTY_KNOWLEDGE) -> Optional[EdgePair]:
        out = edges.out[instance._check_vertex(v)]
        return _choose([(edges.pairs[i], through[i]) for i in out])[1]

    return policy


def blind_value(instance: Instance) -> Fraction:
    """Success probability of the sight-blind policy."""
    best = _blind_best(instance, _blind_products(instance), instance.start)
    return Fraction(best, instance.numbering.denominator)


# -- first-step scenarios and solver/oracle comparison -----------------------


def initial_scenarios(instance: Instance) -> list[tuple[Knowledge, Fraction]]:
    """Every status assignment to the edges visible from the start vertex.

    These are exactly the knowledge states a walker can hold when a trial
    begins; weights follow the product measure and sum to one.  Assignments
    with probability zero (possible when a failure probability is 0 or 1)
    are included with weight zero.  A start outside 1..n raises
    :class:`~sightpath.model.UnknownVertex`.

    The list is fresh on each call, and its rows come from the numbering's
    start-scenario table (``EdgeNumbering.starts``), built on the first
    call: a row of positive weight is the table's own, and one of weight
    zero, of which the table keeps only its up-mask, is made again.
    """
    edges = instance.numbering
    sight = edges.sight[instance._check_vertex(instance.start)]
    return [
        row if type(row) is tuple else (edges.knowledge(row, sight & ~row), Fraction(0))
        for row in edges.starts
    ]


def _first_steps(
    instance: Instance, solvers: Sequence[_SolverCore]
) -> Iterator[tuple[Knowledge, Fraction, list[tuple[Optional[EdgePair], Valuation]]]]:
    """The one sweep over the possible first-step scenarios, in
    :func:`initial_scenarios`' order: ``(knowledge, weight, [(move, value),
    ...])`` with one pair per solver, each asked ``next_move`` at the start,
    then ``root_value``.  The scenarios are the rows of positive weight of the
    numbering's start-scenario table (``EdgeNumbering.starts``), whose
    knowledge carries its masks, so a solver reads them without a walk; a
    scenario of weight zero is skipped.  A start outside 1..n raises
    :class:`~sightpath.model.UnknownVertex`.
    """
    start = instance.start
    instance._check_vertex(start)
    for row in instance.numbering.starts:
        if type(row) is tuple:
            knowledge, weight = row
            answers = [(s.next_move(start, knowledge), s.root_value(knowledge)) for s in solvers]
            yield knowledge, weight, answers


@dataclass(frozen=True)
class ScenarioCheck:
    knowledge: Knowledge
    weight: Fraction
    solver_value: Fraction
    oracle_value: Fraction
    solver_move: Optional[EdgePair]
    oracle_move: Optional[EdgePair]

    @property
    def match(self) -> bool:
        return (
            self.solver_value == self.oracle_value
            and self.solver_move == self.oracle_move
        )


def oracle_check(
    instance: Instance,
    cap: int = WORLD_CAP,
    solver: Optional[ExactSolver] = None,
) -> list[ScenarioCheck]:
    """Compare solver and oracle on every possible first-step scenario.

    The scenarios and the solver's answers come from :func:`_first_steps`, so
    zero-probability scenarios are skipped: conditioning on them is undefined
    for the oracle, whose answer to each is :func:`_answer`'s at the start:
    chosen on integer numerators, with one ``Fraction`` built per scenario.
    ``solver`` may be replaced to self-test the harness; it needs only
    ``next_move`` and ``root_value``.  A start outside 1..n raises
    :class:`~sightpath.model.UnknownVertex` before any scenario is checked.
    """
    _numbering(instance, cap)
    solver = solver if solver is not None else ExactSolver(instance)
    checks = []
    for knowledge, weight, [(move, value)] in _first_steps(instance, [solver]):
        oracle_value, oracle_move = _answer(instance, instance.start, knowledge, cap)
        checks.append(ScenarioCheck(knowledge, weight, value, oracle_value, move, oracle_move))
    return checks


# -- greedy-gap search --------------------------------------------------------


def is_gap_instance(instance: Instance) -> bool:
    """True when sight changes the first move: the exact solver disagrees with
    the sight-blind baseline on at least one possible first-step scenario of
    :func:`_first_steps`; the sweep stops at the first disagreement."""
    blind_move = sight_blind_policy(instance)(instance.start, EMPTY_KNOWLEDGE)
    steps = _first_steps(instance, [ExactSolver(instance)])
    return any(move != blind_move for _, _, [(move, _)] in steps)


def find_greedy_gap(config: "GeneratorConfig", count: int) -> list[Instance]:
    """Generate ``count`` instances and keep those where blind and exact
    first moves differ."""
    from .generate import generate_instance

    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    gaps = []
    for index in range(count):
        instance = generate_instance(config, index)
        if is_gap_instance(instance):
            gaps.append(instance)
    return gaps
