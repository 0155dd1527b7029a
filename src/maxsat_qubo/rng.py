"""Deterministic 64-bit seed derivation shared by generators, solvers and experiments, and
the package's one check of an integer argument."""

from __future__ import annotations

import numbers
import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def require_int(value, name: str, least: int | None = None, greatest: int | None = None) -> int:
    """The value as a plain int. TypeError unless it is an integer (a bool is not), then
    ValueError unless it lies in [least, greatest] (None: unbounded)."""
    if type(value) is not int:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if greatest is not None and value > greatest:
        raise ValueError(f"{name} must be <= {greatest}, got {value}")
    return value


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
    stable across runs and machines. Any integer seed is taken mod 2^64.
    """
    state = splitmix64(require_int(seed, "seed") & _MASK64)
    for part in parts:
        if isinstance(part, str):
            state = splitmix64(state ^ len(part))
            for byte in part.encode("utf-8"):
                state = splitmix64(state ^ byte)
        else:
            state = splitmix64(state ^ (operator.index(part) & _MASK64))
    return state


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for an integer seed, taken mod 2^64."""
    return np.random.Generator(np.random.PCG64(require_int(seed, "seed") & _MASK64))
