"""Deterministic 64-bit seed derivation shared by generators, solvers and experiments."""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One step of the splitmix64 mixing function."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(seed: int, *parts: int | str) -> int:
    """Fold integer or string parts into a base seed, yielding a new 64-bit seed.

    Independent of process state (no salted hashing), so derived seeds are
    stable across runs and machines.
    """
    state = splitmix64(seed & _MASK64)
    for part in parts:
        if isinstance(part, str):
            state = splitmix64(state ^ len(part))
            for byte in part.encode("utf-8"):
                state = splitmix64(state ^ byte)
        else:
            state = splitmix64(state ^ (operator.index(part) & _MASK64))
    return state


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))
