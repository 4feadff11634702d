"""Breadth-first reference for the enumeration and the transition graph.

Layer k+1 is built by splitting, in every optimal k-set, each node that
ties for the maximal error; duplicates collapse by node identity.  This
assumes nothing about the tie structure, so it checks the engine's
threshold-block description independently: it uses only ``root_node``,
``children``, the node readers, the set container and the vertex names.
One pass over layers 1 .. 67 takes a couple of seconds and is cached for
the whole session.
"""

from __future__ import annotations

import functools

from ifsquant.engine import (
    QuantizerSet, children, error_of, left_of, root_node, vertex_label, word_of,
)

REFERENCE_N = 67


def _sig(nodes):
    ordered = sorted(nodes, key=lambda node: (left_of(node), node[0], word_of(node)))
    return tuple((node[0], word_of(node)) for node in ordered)


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
            top = max(map(error_of, members))
            for node in members:
                if error_of(node) != top:
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


def reference_graph(n_lo: int, n_hi: int):
    """The transition graph of layers n_lo .. n_hi, without any cap: each
    layer's sets in signature order, and the edges between their labels."""
    layers, edges = _pass(n_hi)
    order = {}
    sets = []
    for k in range(n_lo, n_hi + 1):
        layer = layers[k - 1]
        keys = sorted(layer)
        order.update(((k, key), index) for index, key in enumerate(keys, start=1))
        sets.append(tuple(QuantizerSet.from_nodes(layer[key]) for key in keys))
    pairs = sorted(
        (k, order[(k, src)], order[(k + 1, dst)])
        for k in range(n_lo, n_hi)
        for src, dst in edges[k - 1]
    )
    return (
        tuple(sets),
        tuple((vertex_label(k, i), vertex_label(k + 1, j)) for k, i, j in pairs),
    )
