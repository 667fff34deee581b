"""Shared utilities: RNG handling, small linear-algebra helpers and the
one cache type."""

from repro.utils.cache import Cache, cache_stats, circuit_cache
from repro.utils.rng import as_rng, spawn_rng
from repro.utils.linalg import (
    is_unitary,
    is_hermitian,
    kron_all,
    global_phase_distance,
    embed_operator,
)

__all__ = [
    "Cache",
    "cache_stats",
    "circuit_cache",
    "as_rng",
    "spawn_rng",
    "is_unitary",
    "is_hermitian",
    "kron_all",
    "global_phase_distance",
    "embed_operator",
]
