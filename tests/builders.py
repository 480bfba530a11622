"""Small named graphs and seeded random instances shared across test files."""

from graphmine import RandomSource, build_graph, erdos_renyi_gnm


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n):
    """Hub node 0 joined to n-1 leaves."""
    return build_graph(n, [(0, i) for i in range(1, n)])


def two_cliques(k, bridged=True):
    """Two complete graphs on k nodes each; one bridge edge when bridged."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    if bridged:
        edges.append((k - 1, k))
    return build_graph(2 * k, edges)


def triangle_pair():
    """Two triangles joined by one edge: {0,1,2} and {3,4,5}, bridge (2,3)."""
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def planted_two_block(block, p_in, p_out, seed):
    """Two blocks of `block` nodes; edge probability p_in inside a block,
    p_out across."""
    gen = RandomSource(seed, 0).generator()
    n = 2 * block
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if (i < block) == (j < block) else p_out
            if gen.random() < p:
                edges.append((i, j))
    return build_graph(n, edges)


def hub_heavy(n, m, seed):
    """A G(n, m) with node 0 joined to every other node."""
    edges = set(erdos_renyi_gnm(n, m, RandomSource(seed, 0)).edges())
    return build_graph(n, edges | {(0, v) for v in range(1, n)})


def random_connected(n, m, seed):
    return erdos_renyi_gnm(n, m, RandomSource(seed, 0), connected=True)
