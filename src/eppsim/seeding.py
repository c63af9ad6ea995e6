"""Deterministic RNG stream derivation.

Every stochastic routine draws from its own PCG64 stream derived from the
user seed plus a fixed stream id, so e.g. the jump draws of a jump-diffusion
never perturb its diffusion draws (a zero-intensity jump model must be
bitwise identical to the plain diffusion under the same seed), and ensemble
replication r always sees the stream (master_seed, r) no matter in which
order replications run.
"""

import numpy as np

from .errors import ParameterError

# stream ids; fixed forever, they are part of the deterministic contract
DIFFUSION = 1
JUMPS = 2
HAWKES = 3
POISSON = 4
REPLICATION = 5


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ParameterError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return int(seed)


def stream(seed: int, *ids: int) -> "np.random.Generator":
    """Generator for the stream identified by (seed, *ids)."""
    seq = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(ids))
    return np.random.Generator(np.random.PCG64(seq))


def child_seed(seed: int, *ids: int) -> int:
    """A derived integer seed, usable wherever a top-level seed is expected."""
    seq = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(ids))
    return int(seq.generate_state(1, np.uint64)[0])
