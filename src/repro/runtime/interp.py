"""Reference interpreter: the correctness oracle.

Executes programs directly from the IR, nest after nest, iteration after
iteration in lexicographic order — the original (unfused) semantics every
transformation must preserve.
"""

from __future__ import annotations

from typing import Mapping, MutableMapping

import numpy as np

from ..ir.loop import LoopNest
from ..ir.sequence import LoopSequence


def run_nest(
    nest: LoopNest,
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
) -> None:
    """Execute one nest in lexicographic order."""
    env = dict(params)
    for ivec in nest.iteration_space(params):
        for var, val in zip(nest.loop_vars, ivec):
            env[var] = val
        for st in nest.body:
            st.execute(env, arrays)


def run_sequence_serial(
    seq: LoopSequence,
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
) -> None:
    """Original semantics: every nest completes before the next starts."""
    for nest in seq:
        run_nest(nest, params, arrays)
