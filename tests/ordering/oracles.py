"""Slow exact reference forms the batched ordering plans are checked
against (the reference orderings themselves stay registered in
``repro.ordering.ORDERINGS``)."""

from __future__ import annotations

import numpy as np

from repro.core.rdr import sorted_neighbor_lists
from repro.quality import vertex_quality


def reference_rdr_chain_heads(mesh, *, qualities=None) -> np.ndarray:
    """Algorithm 2's chain heads, walked one vertex at a time."""
    n = mesh.num_vertices
    if qualities is None:
        qualities = vertex_quality(mesh)
    xadj, nbrs = sorted_neighbor_lists(mesh, np.asarray(qualities, dtype=np.float64))
    processed = np.zeros(n, dtype=bool)
    heads: list[int] = []
    interior = mesh.interior_vertices()
    seeds = interior[np.argsort(qualities[interior], kind="stable")]
    for i in seeds:
        if processed[i]:
            continue
        processed[i] = True
        heads.append(int(i))
        row = nbrs[xadj[i] : xadj[i + 1]]
        chain = row[~processed[row]]
        while chain.size:
            head = int(chain[0])
            processed[head] = True
            heads.append(head)
            row = nbrs[xadj[head] : xadj[head + 1]]
            chain = row[~processed[row]]
    return np.asarray(heads, dtype=np.int64)
