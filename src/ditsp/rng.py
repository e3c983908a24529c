"""Reproducible, splittable random streams.

Every stochastic component draws from a stream derived from a master seed
plus a tuple of integer indices (trial number, stage, ...).  The indices are
the spawn key of a ``numpy.random.SeedSequence``, which hashes the seed and
the key into the generator's state, so streams with distinct index tuples
are independent, and trials can run on any number of workers and still
produce identical results.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for the stream identified by ``(master_seed, *indices)``.

    A PCG64DXSM generator, the bit generator numpy recommends for many
    parallel streams, seeded by ``SeedSequence(master_seed,
    spawn_key=indices)``; the independence of distinct index tuples comes
    from the spawn key, not from the bit generator.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.PCG64DXSM(ss))
