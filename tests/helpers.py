"""Shared fixtures-in-code for the test suite."""

from __future__ import annotations

import random

from iwnet import Interval, IWNetwork, ZERO

# hl used to swap one vertex between two communities forever on these
# records: gains that differ only by rounding looked like improvements
CYCLING_CSV = """src,dst,lo,hi
x1,x0,0,0
x8,x5,1,3
x0,x3,0,0
x1,x2,1,1
x1,x7,2,2
x7,x5,3,5
x5,x9,0,2
x8,x3,0,0
x7,x4,3,4
x3,x8,0,0.5078242178203124
x4,x0,0,1e-310
x5,x3,-0,5e-324
x0,x6,-0,4.7880733739713675
x5,x4,-0,5e-324
x8,x2,3,3
x7,x9,0,0
x4,x3,3,3
x3,x0,-0,5e-324
x1,x9,0,1e-310
"""


def normalize_lines(text: str) -> list[str]:
    """Collapse runs of whitespace and drop blank lines for trace comparison."""
    out = []
    for line in text.splitlines():
        squeezed = " ".join(line.split())
        if squeezed:
            out.append(squeezed)
    return out


def toy_network() -> IWNetwork:
    """The four-vertex interval network used by the reference traces."""
    return IWNetwork.from_edges(
        ["v1", "v2", "v3", "v4"],
        [
            ("v1", "v2", 1, 3),
            ("v1", "v3", 1, 1),
            ("v2", "v3", 1, 1),
            ("v3", "v4", 2, 4),
        ],
    )


def midpoints(net: IWNetwork) -> list[list[float]]:
    """Dense midpoint matrix of a network (0.0 for absent pairs)."""
    return [[w.midpoint for w in row] for row in net.weights]


def toy_midpoints() -> list[list[float]]:
    """Midpoint projection of the four-vertex network (2w = 14)."""
    return midpoints(toy_network())


def scalar_rows(mid: list[list[float]]) -> list[dict[int, float]]:
    """Neighbour maps of a dense scalar matrix (zero entries dropped)."""
    return [{j: x for j, x in enumerate(row) if x} for row in mid]


def triplet_midpoints() -> list[list[float]]:
    """Three-vertex scalar network: edges v1-v2 = 2 and v1-v3 = 1."""
    return [
        [0.0, 2.0, 1.0],
        [2.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
    ]


def from_matrix(labels, weights) -> IWNetwork:
    """A network from a dense symmetric matrix of intervals ([0,0] is no
    edge), validated by the public constructor."""
    rows = tuple({j: w for j, w in enumerate(row) if w != ZERO} for row in weights)
    return IWNetwork(tuple(labels), rows)


def random_network(
    rng: random.Random,
    n: int,
    *,
    max_radius: float = 3.0,
    density: float = 0.6,
) -> IWNetwork:
    """Random interval network with positive lower bounds and >= 1 edge."""
    while True:
        w = [[ZERO] * n for _ in range(n)]
        edges = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    radius = rng.uniform(0.0, max_radius)
                    mid = rng.uniform(radius + 0.1, radius + 10.0)
                    w[i][j] = w[j][i] = Interval(mid - radius, mid + radius)
                    edges += 1
        if edges:
            labels = tuple(f"n{i}" for i in range(n))
            return from_matrix(labels, tuple(tuple(row) for row in w))


def random_degenerate_network(
    rng: random.Random, n: int, *, density: float = 0.6
) -> IWNetwork:
    """Random network whose weights are all degenerate intervals."""
    while True:
        w = [[ZERO] * n for _ in range(n)]
        edges = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    x = rng.uniform(0.5, 10.0)
                    w[i][j] = w[j][i] = Interval(x, x)
                    edges += 1
        if edges:
            labels = tuple(f"n{i}" for i in range(n))
            return from_matrix(labels, tuple(tuple(row) for row in w))


def with_zero_lower_bounds(net: IWNetwork, rng: random.Random, share: float) -> IWNetwork:
    """Copy of net with the lower bound of each edge set to 0 with probability share."""
    w = [list(row) for row in net.weights]
    for i in range(net.n):
        for j in range(i, net.n):
            if w[i][j] != ZERO and rng.random() < share:
                w[i][j] = w[j][i] = Interval(0.0, w[i][j].hi)
    return from_matrix(net.labels, tuple(tuple(row) for row in w))


def with_isolated_vertices(net: IWNetwork, rng: random.Random, k: int) -> IWNetwork:
    """Copy of net with k edgeless vertices inserted at random positions, as
    ``--min-weight`` leaves behind a vertex whose records all fall below it."""
    labels = list(net.labels)
    w = [list(row) for row in net.weights]
    for i in range(k):
        pos = rng.randrange(len(labels) + 1)
        labels.insert(pos, f"iso{i}")
        for row in w:
            row.insert(pos, ZERO)
        w.insert(pos, [ZERO] * len(labels))
    return from_matrix(tuple(labels), tuple(tuple(row) for row in w))


def pinned_networks():
    """(name, network) of the corpus whose traces and JSON are pinned."""
    rng = random.Random(101)
    yield "dense12", random_network(rng, 12)
    yield "sparse60", random_network(rng, 60, density=0.08)
    yield "sparse200", random_network(rng, 200, density=0.03)
    yield "degenerate40", random_degenerate_network(rng, 40, density=0.1)
    yield "zero_lo_isolated30", with_isolated_vertices(
        with_zero_lower_bounds(random_network(rng, 30, density=0.15), rng, 0.5), rng, 3
    )
    yield "all_zero_lo25", with_zero_lower_bounds(random_network(rng, 25, density=0.2), rng, 1.0)


def tie_network(rng: random.Random, shape: str, size: int) -> IWNetwork:
    """Network whose moves tie exactly: one degenerate integer weight on
    every edge of a ring, a star or a complete bipartite graph, with the
    vertex order shuffled so that tied candidates carry unrelated ids."""
    if shape == "ring":
        pairs = [(i, (i + 1) % size) for i in range(size)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, size)]
    elif shape == "bipartite":
        a = rng.randrange(1, size)
        pairs = [(i, j) for i in range(a) for j in range(a, size)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    order = list(range(size))
    rng.shuffle(order)
    labels = [f"t{v}" for v in order]
    x = float(rng.randrange(1, 4))
    return IWNetwork.from_edges(labels, [(f"t{i}", f"t{j}", x, x) for i, j in pairs])
