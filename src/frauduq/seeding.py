"""Named, reproducible RNG sub-streams derived from one master seed.

Every stochastic stage (splitting, weight init, dropout masks per member,
pass and layer, synthetic data) draws from its own stream keyed by
``(master_seed, stream_tag, *indices)`` so stages can be re-run or
parallelized independently without the streams interfering.
"""

import numpy as np

# Stream tags. Values are arbitrary but frozen: changing them changes
# every derived stream.
STREAM_INIT = 1
STREAM_TRAIN = 2
STREAM_SPLIT = 3
STREAM_MEMBER = 4
STREAM_PREDICT = 5
STREAM_SYNTH = 6

# SeedSequence entropy words must be non-negative; fold sign bits away.
_MASK = (1 << 63) - 1


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return a Generator for the sub-stream at ``path`` under ``master_seed``."""
    words = [int(master_seed) & _MASK, *[int(p) & _MASK for p in path]]
    return np.random.default_rng(np.random.SeedSequence(words))


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse a sub-stream into a single 63-bit integer seed."""
    return int(substream(master_seed, *path).integers(0, 2**63))
