"""Incremental frame-delta query planning over the packed index.

Continuous retrieval makes consecutive frames nearly identical: the
frame at ``t`` asks for ``N_t = Q_t - Q_{t-1}`` plus the band query
``(r_{t-1}, r_t]`` over the overlap ``O_t`` (Algorithm 1), so every
sub-query of frame ``t`` lands inside a slightly grown copy of frame
``t-1``'s window.  The server nevertheless re-traverses the index from
the root for each of them.  :class:`FrontierPlanner` exploits the
coherence: per client it memoises the *surviving leaf frontier* of one
generously inflated traversal -- the leaf entries (boxes + store rows)
intersecting the inflated window -- and answers any query *contained*
in the memo region with one vectorised re-test of those candidates
instead of a root-to-leaf descent.  A frame's several delta sub-queries
(difference rectangles, overlap band) all hit the same memo, so one
refresh amortises across the whole frame and across subsequent frames
until the viewer escapes the inflated region.

Soundness: a query box contained in the memo region can only match leaf
entries that intersect the memo region, i.e. memoised candidates; the
exact re-test then reproduces the cold traversal's row ids -- in the
same ascending leaf-slot order, since candidates are kept in slot
order.  When the viewer escapes the memo region (or has no memo yet)
the planner *refreshes*: one full traversal of the newly inflated
window, billed in full, whose survivors seed the next memo.

Accounting: warm answers bill one query plus one leaf read per distinct
leaf node among the memoised candidates (the pages the re-test touches)
-- internal levels are not re-read, which is precisely the saving.
Cold refreshes bill the whole inflated traversal.  The planner is
therefore *not* I/O-identical to cold traversal and stays opt-in
(``Server(plan_deltas=True)``); the paper-figure experiments keep the
cold path.

Implementation note: the packed traversal is dominated by numpy call
overhead on small per-level arrays, not by data volume, so the warm
path is written to touch numpy as few times as possible -- candidate
bounds are stored as per-axis contiguous columns and the re-test is a
chain of in-place 1-D predicates, with no ``Box`` construction at all.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, IndexError_
from repro.geometry.box import Box
from repro.index.dynamic import DynamicAccessMethod
from repro.index.packed import PackedAccessMethod, RowResult
from repro.store.scene import FootprintDelta

__all__ = ["FrontierPlanner", "PlannerCounters", "DEFAULT_MARGIN_FRAC"]

#: The access-method surface the planner traverses: the static packed
#: compilation or the epoch-stepping dynamic index (same query/candidate
#: contract, same stats counter).
PlannableMethod = PackedAccessMethod | DynamicAccessMethod

#: How far the memo region is inflated beyond the query, per spatial
#: axis, as a fraction of the query extent on that axis.  Half the
#: window per side covers several frames of viewer motion at the
#: paper's speeds before a refresh is needed.
DEFAULT_MARGIN_FRAC = 0.5

_LIFT = 1e12  # matches repro.index.access._spatial_query_box


@dataclass
class PlannerCounters:
    """How often the memo answered vs how often it was rebuilt."""

    warm: int = 0
    cold: int = 0

    @property
    def total(self) -> int:
        return self.warm + self.cold

    @property
    def hit_rate(self) -> float:
        return self.warm / self.total if self.total else 0.0


class _Memo:
    """One client's cached frontier.

    ``lows``/``highs`` hold the candidate entry bounds as per-axis
    contiguous columns (axis-of-arrays rather than array-of-boxes) so
    the warm re-test runs one 1-D comparison per axis bound.
    """

    __slots__ = ("low", "high", "lows", "highs", "rows", "leaf_node_count", "span")

    def __init__(
        self,
        low: np.ndarray,
        high: np.ndarray,
        lows: tuple[np.ndarray, ...],
        highs: tuple[np.ndarray, ...],
        rows: np.ndarray,
        leaf_node_count: int,
        span: np.ndarray,
    ) -> None:
        self.low = low
        self.high = high
        self.lows = lows
        self.highs = highs
        self.rows = rows
        self.leaf_node_count = leaf_node_count
        self.span = span

    def __len__(self) -> int:
        return int(self.rows.size)


class FrontierPlanner:
    """Per-client frontier memos over one :class:`PackedAccessMethod`.

    Parameters
    ----------
    method:
        The packed access method queries run against.  The planner
        bills all I/O through ``method.stats`` so savings show up in
        the same counters the rest of the system reads.
    margin_frac:
        Memo inflation per spatial axis, as a fraction of the client's
        viewport span (the running maximum query extent -- see
        :meth:`_inflate`).  Zero memoises a span-sized window around
        the triggering query: still warm for identical repeats and
        same-frame sub-queries, refreshed on most motion.
    max_clients:
        Memo table bound; least recently served client is evicted.
    """

    def __init__(
        self,
        method: PlannableMethod,
        *,
        margin_frac: float = DEFAULT_MARGIN_FRAC,
        max_clients: int = 1024,
    ) -> None:
        if margin_frac < 0.0:
            raise ConfigurationError(
                f"margin_frac must be >= 0, got {margin_frac}"
            )
        if max_clients < 1:
            raise ConfigurationError(
                f"max_clients must be >= 1, got {max_clients}"
            )
        self._method = method
        self._margin_frac = float(margin_frac)
        self._max_clients = max_clients
        self._memos: OrderedDict[int, _Memo] = OrderedDict()
        self.counters = PlannerCounters()

    @property
    def method(self) -> PlannableMethod:
        return self._method

    @property
    def margin_frac(self) -> float:
        return self._margin_frac

    @property
    def client_count(self) -> int:
        return len(self._memos)

    def forget(self, client_id: int) -> None:
        """Drop one client's memo (viewer reset / disconnect)."""
        self._memos.pop(client_id, None)

    def clear(self) -> None:
        """Drop every memo (e.g. after the index was rebuilt)."""
        self._memos.clear()

    def apply_epoch(
        self,
        footprint: FootprintDelta,
        old_uids: np.ndarray,
        new_uids: np.ndarray,
    ) -> int:
        """Invalidate memos for an epoch step; returns how many dropped.

        A memo whose region intersects any dirty footprint (the union
        of a changed object's bounds before and after the epoch) may
        hold rows of a changed object, so it is dropped -- its client
        refreshes cold on the next query.  A memo that misses every
        dirty region can only hold *unchanged* objects' entries: a
        changed object's row could enter the memo only by its old
        support box intersecting the memo region, and that box lies
        inside the object's dirty footprint.  Such memos survive with
        their candidate bounds intact; only their store row ids are
        re-based from the old epoch's row space to the new one (both
        epochs order rows by ascending packed uid, so the re-base is
        one ``searchsorted`` per memo).
        """
        if footprint.is_empty and old_uids.size == new_uids.size:
            return 0
        dropped = 0
        rebase = not (
            old_uids.size == new_uids.size
            and bool(np.array_equal(old_uids, new_uids))
        )
        spatial = self._method.spatial_dims
        for client_id in list(self._memos):
            memo = self._memos[client_id]
            hit = footprint.intersects(
                memo.low[None, :spatial], memo.high[None, :spatial]
            )
            if bool(hit[0]):
                del self._memos[client_id]
                dropped += 1
                continue
            if rebase and memo.rows.size:
                pos = np.searchsorted(new_uids, old_uids[memo.rows])
                if (
                    int(pos.max(initial=0)) >= new_uids.size
                    or not bool(
                        np.array_equal(new_uids[pos], old_uids[memo.rows])
                    )
                ):
                    raise IndexError_(
                        "planner memo survived an epoch step but its rows "
                        "are not present in the new store"
                    )
                memo.rows = pos
        return dropped

    # -- planning --------------------------------------------------------------

    def _query_bounds(
        self, region: Box, w_min: float, w_max: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Index-space corners of ``Q(region, band)``, without a Box.

        Mirrors :meth:`PackedAccessMethod.query_box` (spatial project /
        lift plus band augmentation) but skips Box construction and
        validation on the hot path.
        """
        if not 0.0 <= w_min <= w_max <= 1.0:
            raise IndexError_(
                f"invalid value band [{w_min}, {w_max}]; need 0 <= min <= max <= 1"
            )
        spatial = self._method.spatial_dims
        qlow = np.empty(spatial + 1)
        qhigh = np.empty(spatial + 1)
        if region.ndim == spatial:
            qlow[:spatial] = region.low
            qhigh[:spatial] = region.high
        elif region.ndim == 3 and spatial == 2:
            qlow[:2] = region.low[:2]
            qhigh[:2] = region.high[:2]
        elif region.ndim == 2 and spatial == 3:
            qlow[:2] = region.low
            qhigh[:2] = region.high
            qlow[2] = -_LIFT
            qhigh[2] = _LIFT
        else:
            raise IndexError_(
                f"query region is {region.ndim}-D but the index is {spatial}-D"
            )
        qlow[spatial] = w_min
        qhigh[spatial] = w_max
        return qlow, qhigh

    def _inflate(
        self, qlow: np.ndarray, qhigh: np.ndarray, span: np.ndarray
    ) -> Box:
        """The memo region: the triggering query's centre grown to the
        client's viewport span plus margins, with the full ``[0, 1]``
        band.

        Sizing off ``span`` -- the running per-axis maximum of the
        client's query extents -- rather than the triggering query
        matters because Algorithm 1's sub-queries include *thin*
        difference rectangles: inflating a 3-px strip by a fraction of
        its own width would build a sliver memo that the very next
        sub-query escapes, thrashing the cache.  The span keeps every
        refresh viewport-sized no matter which sub-query triggered it.

        The last axis is the resolution value ``w``; memoising the full
        band keeps band queries (``(r_{t-1}, r_t]`` over the overlap)
        warm no matter how resolution demands move.
        """
        centre = 0.5 * (qlow[:-1] + qhigh[:-1])
        half = (0.5 + self._margin_frac) * span
        low = qlow.copy()
        high = qhigh.copy()
        low[:-1] = centre - half
        high[:-1] = centre + half
        low[-1] = 0.0
        high[-1] = 1.0
        return Box(low, high)

    def query_rows(
        self,
        client_id: int,
        region: Box,
        w_min: float,
        w_max: float,
        *,
        half_open: bool = False,
    ) -> RowResult:
        """Answer ``Q(region, w_min, w_max)`` from the frontier memo.

        Row ids and their order are identical to
        :meth:`PackedAccessMethod.query_rows`; only the I/O billed
        differs on warm frames (see module docstring).
        """
        method = self._method
        qlow, qhigh = self._query_bounds(region, w_min, w_max)
        memo = self._memos.get(client_id)
        stats = method.stats
        stats.push()
        if (
            memo is not None
            and bool(np.all(memo.low <= qlow))
            and bool(np.all(memo.high >= qhigh))
        ):
            self._memos.move_to_end(client_id)
            self.counters.warm += 1
            stats.record_query()
            if len(memo):
                stats.record_level(
                    nodes=memo.leaf_node_count,
                    entries=len(memo),
                    is_leaf=True,
                )
            rows = self._retest(memo, qlow, qhigh, half_open)
        else:
            self.counters.cold += 1
            memo = self._refresh(client_id, qlow, qhigh)
            rows = self._retest(memo, qlow, qhigh, half_open)
        io = stats.pop_delta()
        return RowResult(rows=rows, io=io)

    def _retest(
        self,
        memo: _Memo,
        qlow: np.ndarray,
        qhigh: np.ndarray,
        half_open: bool,
    ) -> np.ndarray:
        """Exact answer for the query bounds from the memo's superset.

        Leaf entries on the value axis are points (``low == high ==
        store.values[row]``), so a half-open band ``[w_min, w_max)`` is
        one strict comparison on the last axis instead of the access
        method's post-query trim -- no extra gather of ``store.values``.
        """
        if not len(memo):
            return np.empty(0, dtype=np.int64)
        mask = memo.lows[0] <= qhigh[0]
        mask &= memo.highs[0] >= qlow[0]
        last = len(memo.lows) - 1
        for axis in range(1, last):
            mask &= memo.lows[axis] <= qhigh[axis]
            mask &= memo.highs[axis] >= qlow[axis]
        if half_open:
            mask &= memo.lows[last] < qhigh[last]
        else:
            mask &= memo.lows[last] <= qhigh[last]
        mask &= memo.highs[last] >= qlow[last]
        return memo.rows[mask]

    def _refresh(
        self, client_id: int, qlow: np.ndarray, qhigh: np.ndarray
    ) -> _Memo:
        """Traverse the inflated window and memoise its survivors."""
        previous = self._memos.get(client_id)
        extent = qhigh[:-1] - qlow[:-1]
        span = extent if previous is None else np.maximum(previous.span, extent)
        inflated = self._inflate(qlow, qhigh, span)
        candidates = self._method.candidates(inflated)
        if len(candidates):
            lows = tuple(
                np.ascontiguousarray(candidates.low[:, a])
                for a in range(candidates.low.shape[1])
            )
            highs = tuple(
                np.ascontiguousarray(candidates.high[:, a])
                for a in range(candidates.high.shape[1])
            )
        else:
            empty = np.empty(0)
            lows = highs = tuple(empty for _ in range(qlow.size))
        leaf_nodes = candidates.leaf_nodes  # nondecreasing (slot order)
        leaf_node_count = (
            1 + int(np.count_nonzero(np.diff(leaf_nodes))) if leaf_nodes.size else 0
        )
        memo = _Memo(
            low=np.asarray(inflated.low, dtype=float),
            high=np.asarray(inflated.high, dtype=float),
            lows=lows,
            highs=highs,
            rows=candidates.rows,
            leaf_node_count=leaf_node_count,
            span=span,
        )
        if client_id in self._memos:
            del self._memos[client_id]
        while len(self._memos) >= self._max_clients:
            self._memos.popitem(last=False)
        self._memos[client_id] = memo
        return memo
