"""Seeded random instance generator for test suites and gap searches.

A draw is kept as plain tuples and pruned on its pairs, with the cone routine
the edge numbering runs, before any record is built: each generated instance
is built once, from the edges on some start->dest path and their sights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import (
    Instance, NoPath, ProbabilityLike, _bits, _forward_cones, _read_integers, as_probability,
    format_number,
)
from .seeds import derive_seed

DEFAULT_PALETTE = ("0", "1/4", "1/2", "3/4", "1")
MAX_VERTICES = 100  # a draw is cubic in n: 0.6 s and 71 MB at n=100, both densities 1
ATTEMPTS = 200  # pathless draws redrawn before a backbone is planted


@dataclass(frozen=True)
class GeneratorConfig:
    n_min: int = 3
    n_max: int = 6
    edge_density: float = 0.5
    sight_density: float = 0.3
    p_palette: tuple[ProbabilityLike, ...] = DEFAULT_PALETTE
    seed: int = 0
    max_edges: Optional[int] = None
    max_sights: Optional[int] = None
    neighbor_sight_only: bool = False

    def __post_init__(self) -> None:
        counts = [f for f in ("max_edges", "max_sights") if getattr(self, f) is not None]
        _read_integers(self, "n_min", "n_max", "seed", *counts)
        object.__setattr__(
            self, "p_palette", tuple(as_probability(p) for p in self.p_palette)
        )
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ValueError("need 2 <= n_min <= n_max")
        if self.n_max > MAX_VERTICES:
            raise ValueError(f"n_max must be at most {MAX_VERTICES}, got {self.n_max}")
        for field in ("edge_density", "sight_density"):
            if not 0 <= getattr(self, field) <= 1:  # NaN fails both comparisons
                raise ValueError(f"{field} must lie in [0, 1], got {getattr(self, field)!r}")
        if not self.p_palette:
            raise ValueError("p_palette must not be empty")
        for p in self.p_palette:
            if not 0 <= p <= 1:
                raise ValueError(f"p_palette entries must lie in [0, 1], got {format_number(p)}")
        if self.max_edges is not None and self.max_edges < 1:
            raise ValueError("max_edges must be at least 1")
        if self.max_sights is not None and self.max_sights < 0:
            raise ValueError("max_sights must not be negative")


RawDraw = tuple[int, list[tuple[int, int, Fraction]], list[tuple[int, int, int]], tuple[int, int]]


def _draw(config: GeneratorConfig, rng: random.Random, plant_path: bool) -> RawDraw:
    """One raw draw as :meth:`Instance.build`'s arguments: every drawn edge and
    sight, dead ends included."""
    n = rng.randint(config.n_min, config.n_max)
    pairs = [
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if rng.random() < config.edge_density
    ]
    backbone: set[tuple[int, int]] = set()
    if plant_path:
        # ensure a start->dest backbone so the attempt cannot be a NoPath; it
        # has at most max_edges edges, and only the other pairs are capped
        most = n - 2 if config.max_edges is None else min(n - 2, config.max_edges - 1)
        waypoints = sorted(
            rng.sample(range(2, n), rng.randint(0, most)) if n > 2 else []
        )
        route = [1, *waypoints, n]
        backbone = set(zip(route, route[1:]))
    others = [pair for pair in pairs if pair not in backbone]
    if config.max_edges is not None and len(backbone) + len(others) > config.max_edges:
        others = rng.sample(others, config.max_edges - len(backbone))
    pairs = sorted(backbone.union(others))
    edges = [(t, h, rng.choice(config.p_palette)) for t, h in pairs]

    density = config.sight_density
    if config.neighbor_sight_only:
        sights = [(t, t, h) for t, h in pairs if rng.random() < density]
    else:
        sights = [
            (observer, t, h)
            for t, h in pairs
            for observer in range(1, t + 1)
            if rng.random() < density
        ]
    if config.max_sights is not None and len(sights) > config.max_sights:
        sights = sorted(rng.sample(sights, config.max_sights))

    return n, edges, sights, (1, n)


def _pruned(draw: RawDraw) -> Instance:
    """The instance of ``draw`` cut to the start's forward cone, as
    :func:`prune_extraneous` cuts it: the edges on no start->dest path and the
    sights of those edges are dropped before any record is built.  Raises
    :class:`NoPath` when the destination is unreachable."""
    n, edges, sights, (start, dest) = draw
    pairs = [(t, h) for t, h, _ in edges]  # sorted, every vertex in 1..n
    cone = _forward_cones(pairs, dest, n + 1)[start]
    if not cone:
        raise NoPath(f"no path from {start} to {dest}")
    kept = {pairs[i] for i in _bits(cone)}
    return Instance.build(
        n, [edges[i] for i in _bits(cone)], [s for s in sights if s[1:] in kept], (start, dest)
    )


def generate_instance(config: GeneratorConfig, index: int = 0) -> Instance:
    """Deterministically generate the ``index``-th instance of a seeded stream.

    Draws are rejected and redrawn while no start->dest path exists; after
    :data:`ATTEMPTS` rejections a random backbone path is planted so the
    stream always terminates (an all-zero edge density would otherwise never
    produce a path).  Each draw is kept as plain tuples and pruned on its
    pairs by the edge numbering's cone routine before any record is built, so
    the one instance made is valid and equal to :func:`prune_extraneous` of
    the whole draw.
    """
    rng = random.Random(derive_seed(config.seed, index))
    for _ in range(ATTEMPTS):
        try:
            return _pruned(_draw(config, rng, plant_path=False))
        except NoPath:
            continue
    return _pruned(_draw(config, rng, plant_path=True))


def generate_suite(config: GeneratorConfig, count: int) -> list[Instance]:
    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    return [generate_instance(config, index) for index in range(count)]
