"""Shared fixtures: the five reference instances used across the suite, and the
solve benchmark's generator stream."""

from __future__ import annotations

import pytest

from sightpath import GeneratorConfig, Instance, Knowledge, Status

UP = Status.UP
DOWN = Status.DOWN

# the bench's ``solve`` stream: n=16, with 0 and 1 in the palette
SOLVE_STREAM = GeneratorConfig(
    n_min=16, n_max=16, edge_density=0.5, sight_density=0.1, max_sights=12, seed=1
)


def know(**kwargs) -> Knowledge:
    """know(e_2_3=UP) -> Knowledge({(2, 3): UP})"""
    statuses = {}
    for key, status in kwargs.items():
        _, tail, head = key.split("_")
        statuses[(int(tail), int(head))] = status
    return Knowledge(statuses)


@pytest.fixture
def triangle_plain() -> Instance:
    """Triangle with no sight: the direct edge is the safer bet."""
    return Instance.build(
        3,
        [(1, 2, "1/2"), (2, 3, "1/2"), (1, 3, "0.3")],
        [],
        task=(1, 3),
    )


@pytest.fixture
def lookout_triangle() -> Instance:
    """Triangle where vertex 1 watches the far edge 2->3 before committing."""
    return Instance.build(
        3,
        [(1, 2, "0.1"), (2, 3, "0.5"), (1, 3, "0.2")],
        [(1, 2, 3)],
        task=(1, 3),
    )


@pytest.fixture
def scouted_fork() -> Instance:
    """Vertex 2 scouts two safe-if-up exits; a blind walker prefers 1->5.

    Exact value via 1->2 is 0.9 * (1 - 0.25) = 0.675, beating the direct
    edge's 0.6, but only because arriving at 2 reveals which exit works.
    """
    return Instance.build(
        5,
        [
            (1, 2, "0.1"),
            (1, 5, "0.4"),
            (2, 3, "0.5"),
            (2, 4, "0.5"),
            (3, 5, "0"),
            (4, 5, "0"),
        ],
        [(2, 2, 3), (2, 2, 4)],
        task=(1, 5),
    )


@pytest.fixture
def certain_lookouts() -> Instance:
    """The start watches 2-4, which never fails, 2-6, which always fails, and
    the uncertain 4-6: two of its eight start assignments are possible."""
    return Instance.build(
        6,
        [
            (1, 2, "0"),
            (1, 6, "3/4"),
            (2, 4, "0"),
            (2, 5, "3/4"),
            (2, 6, "1"),
            (4, 6, "1/4"),
            (5, 6, "3/4"),
        ],
        [(1, 2, 4), (1, 2, 6), (1, 4, 6), (2, 2, 5), (2, 5, 6)],
        task=(1, 6),
    )


@pytest.fixture
def chain_four() -> Instance:
    """Plain chain 1->2->3->4, one coin per edge."""
    return Instance.build(
        4,
        [(1, 2, "1/2"), (2, 3, "1/2"), (3, 4, "1/2")],
        [],
        task=(1, 4),
    )
