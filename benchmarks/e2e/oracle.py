"""Brute-force reference for a retrieve: one linear scan, no index.

Reads only the store's public columns, so it shares no code with the
index, planner, shard or wire layers whose answers it checks.
"""

from __future__ import annotations

import numpy as np

from repro.store.columns import CoefficientStore


def expected_uids(
    store: CoefficientStore,
    low: np.ndarray,
    high: np.ndarray,
    w_min: float,
    w_max: float,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Sorted packed uids of rows whose support meets ``[low, high]`` and
    whose value lies in ``[w_min, w_max]``, minus the ``exclude`` uids."""
    mask = (store.values >= w_min) & (store.values <= w_max)
    for axis in range(len(low)):
        mask &= store.support_low[:, axis] <= high[axis]
        mask &= store.support_high[:, axis] >= low[axis]
    uids = store.packed_uids[mask]
    if exclude is not None and exclude.size:
        uids = uids[~np.isin(uids, exclude)]
    return np.sort(uids)


def mismatch(got: np.ndarray, want: np.ndarray) -> bool:
    """True when a response's uids differ from the oracle's."""
    return not np.array_equal(np.sort(got), want)
