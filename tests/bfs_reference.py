"""Breadth-first reference for the enumeration and the transition graph.

Layer k+1 is built by splitting, in every optimal k-set, each node that
ties for the maximal error; duplicates collapse by node identity.  This
assumes nothing about the tie structure, so it checks the engine's
threshold-block description independently: it uses only ``root_node``,
``children`` and the set and graph containers.  One pass over layers
1 .. 67 takes a couple of seconds and is cached for the whole session.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ifsquant.engine import (
    GraphVertex,
    QuantizerSet,
    TransitionGraph,
    children,
    root_node,
)

REFERENCE_N = 67


def _sig(nodes):
    ordered = sorted(nodes, key=lambda node: (node.left, node.kind, node.word))
    return tuple((node.kind, node.word) for node in ordered)


@functools.cache
def _bfs(n_max: int):
    """Layers 1 .. n_max (signature -> node set) and the edges out of each."""
    root = root_node()
    current = {_sig([root]): frozenset([root])}
    layers = [current]
    edges = []  # edges[k - 1]: (parent signature, child signature) from layer k
    for _ in range(1, n_max):
        nxt = {}
        out = set()
        for key, members in current.items():
            top = max(node.error for node in members)
            for node in members:
                if node.error != top:
                    continue
                child = (members - {node}) | set(children(node))
                child_key = _sig(child)
                nxt.setdefault(child_key, child)
                out.add((key, child_key))
        edges.append(out)
        layers.append(nxt)
        current = nxt
    return layers, edges


def _pass(n: int):
    return _bfs(max(n, REFERENCE_N))


def reference_sets(n: int) -> list[QuantizerSet]:
    """All optimal n-point sets, sorted by signature."""
    layers, _ = _pass(n)
    sets = [QuantizerSet.from_nodes(members) for members in layers[n - 1].values()]
    sets.sort(key=lambda q: q.signature())
    return sets


def reference_graph(n_lo: int, n_hi: int) -> TransitionGraph:
    """The transition graph of layers n_lo .. n_hi, without any cap."""
    layers, edges = _pass(n_hi)
    order = {}
    vertices = []
    for k in range(n_lo, n_hi + 1):
        layer = layers[k - 1]
        for index, key in enumerate(sorted(layer), start=1):
            order[(k, key)] = index
            total = sum((node.error for node in layer[key]), Fraction(0))
            vertices.append(GraphVertex(k, index, f"a_{{{k},{index}}}", total, key))
    pairs = sorted(
        (k, order[(k, src)], order[(k + 1, dst)])
        for k in range(n_lo, n_hi)
        for src, dst in edges[k - 1]
    )
    return TransitionGraph(
        n_lo,
        n_hi,
        tuple(vertices),
        tuple((f"a_{{{k},{i}}}", f"a_{{{k + 1},{j}}}") for k, i, j in pairs),
    )
