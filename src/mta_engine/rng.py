"""Deterministic keyed randomness for simulation and treatment assignment.

Every draw is a pure function of (seed, label, customer id), so results are
stable under re-runs, input reordering, and parallel evaluation. Customer
ids are hashed once with SHA-256; per-draw streams are derived with a
SplitMix64-style mixer, which vectorizes cleanly over numpy uint64 arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def id_hash64(value: str) -> int:
    """Stable 64-bit hash of an identifier (first 8 bytes of SHA-256)."""
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


def id_hashes(values) -> np.ndarray:
    return np.fromiter((id_hash64(v) for v in values), dtype=np.uint64, count=len(values))


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wraps modulo 2**64)."""
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, label: str) -> np.uint64:
    """Combine a run seed and a purpose label into one stream key."""
    base = ((seed & _U64_MASK) ^ id_hash64(label)) * int(_GOLDEN) & _U64_MASK
    return mix64(np.array([base], dtype=np.uint64))[0]


def keyed_uniforms(seed: int, label: str, ids: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws keyed by (seed, label, id hash)."""
    mixed = mix64(ids ^ stream_key(seed, label))
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
