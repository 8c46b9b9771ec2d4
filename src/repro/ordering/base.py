"""Ordering registry and permutation utilities.

An *ordering* is a function that maps a mesh to a permutation ``order``
of its vertices, with the convention used across the library:

    ``order[k]`` is the OLD index of the vertex stored at NEW position ``k``.

Equivalently, ``mesh.permute(order)`` gathers old data into the new
layout. The inverse permutation (``new_of_old``) is obtained with
:func:`invert_permutation`.

Orderings register themselves under a short name (``"ori"``, ``"bfs"``,
``"rdr"``, ...) via :func:`register_ordering`; experiments look them up
by name so benchmark parameterisations stay declarative.

Each name may additionally have a *batched* implementation — a NumPy
frontier/plan-based reimplementation registered via
:func:`register_batched_ordering` that returns **exactly the same
permutation** as the reference function (the ordering differential
suite pins this element-wise).
:func:`get_ordering` serves the batched implementation where one is
registered and the reference function otherwise (its form is already
array-based); the reference functions stay in :data:`ORDERINGS` as the
oracles the batched ones are checked against.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..mesh import TriMesh

__all__ = [
    "OrderingFn",
    "ORDERINGS",
    "BATCHED_ORDERINGS",
    "register_ordering",
    "register_batched_ordering",
    "get_ordering",
    "apply_ordering",
    "invert_permutation",
    "check_permutation",
]


class OrderingFn(Protocol):
    """Signature of an ordering function.

    ``qualities`` (per-vertex, higher is better) is supplied by callers
    that already computed it; quality-aware orderings recompute it
    otherwise. ``seed`` controls any randomised tie-breaking.
    """

    def __call__(
        self,
        mesh: TriMesh,
        *,
        seed: int = 0,
        qualities: np.ndarray | None = None,
    ) -> np.ndarray: ...


ORDERINGS: dict[str, OrderingFn] = {}

#: Batched (vectorized, exact-equivalent) implementations, keyed by the
#: same names as :data:`ORDERINGS`.  Sparse by design: names without an
#: entry are served by the reference function.
BATCHED_ORDERINGS: dict[str, OrderingFn] = {}


def register_ordering(name: str) -> Callable[[OrderingFn], OrderingFn]:
    """Class/function decorator adding an ordering to the registry."""

    def deco(fn: OrderingFn) -> OrderingFn:
        if name in ORDERINGS:
            raise ValueError(f"ordering {name!r} already registered")
        ORDERINGS[name] = fn
        return fn

    return deco


def register_batched_ordering(name: str) -> Callable[[OrderingFn], OrderingFn]:
    """Decorator registering the batched implementation of ``name``.

    The implementation must return exactly the permutation the reference
    registration returns for every input (same mesh, seed, qualities).
    """

    def deco(fn: OrderingFn) -> OrderingFn:
        if name in BATCHED_ORDERINGS:
            raise ValueError(f"batched ordering {name!r} already registered")
        BATCHED_ORDERINGS[name] = fn
        return fn

    return deco


def get_ordering(name: str) -> OrderingFn:
    """Look up a registered ordering by name.

    Returns the batched implementation when one is registered and the
    reference function otherwise (both produce the same permutation).
    Unknown ordering names raise ``KeyError`` listing the choices.
    """
    try:
        fn = ORDERINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown ordering {name!r}; available: {sorted(ORDERINGS)}"
        ) from None
    return BATCHED_ORDERINGS.get(name, fn)


def apply_ordering(
    mesh: TriMesh,
    name: str,
    *,
    seed: int = 0,
    qualities: np.ndarray | None = None,
) -> tuple[TriMesh, np.ndarray]:
    """Compute an ordering and return ``(permuted_mesh, order)``."""
    order = get_ordering(name)(mesh, seed=seed, qualities=qualities)
    return mesh.permute(order), order


def invert_permutation(order: np.ndarray) -> np.ndarray:
    """``inv[old] = new`` for a permutation ``order[new] = old``."""
    order = np.asarray(order, dtype=np.int64)
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size, dtype=np.int64)
    return inv


def check_permutation(order: np.ndarray, n: int) -> np.ndarray:
    """Validate and return ``order`` as an int64 permutation of ``0..n-1``."""
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {order.shape}")
    seen = np.zeros(n, dtype=bool)
    if order.size and (order.min() < 0 or order.max() >= n):
        raise ValueError("permutation entries out of range")
    seen[order] = True
    if not seen.all():
        raise ValueError("not a permutation: some indices missing")
    return order
