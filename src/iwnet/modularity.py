"""The per-community term of interval modularity and its expected blocks.

``cl_term`` is D(o_rr, e_rr) of one community: the signed endpoint
difference of its observed block and its expected block under the
pairwise adjustment of the total weight, ``expected_diag_adjusted``.
Q_cl is the sum of the terms over the communities. The Louvain pass
states (``louvain._ScalarPass`` / ``_IntervalPass``) own a level's sums
and read its Q and Q_max from them; the partition-level functions that
collapse a partition first, and the paper's pairwise formulas, are
references in ``oracle``.

Expected diagonal blocks divide by the separable total (T - s) + s, or
T_hi - s_hi + s_lo and T_lo - s_lo + s_hi, so the interval track
degenerates bit for bit to the scalar track on degenerate networks. An
adjusted total vanishes only with its numerator; that 0/0 endpoint is 0.
On both tracks a zero total raises ``ZeroTotalWeight``, and a total or an
expected block that overflows raises ``InvalidInterval``. Q_norm is
Q / Q_max.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InvalidInterval
from .interval import dominant_diff

__all__ = ["expected_diag_adjusted", "cl_term"]


def _check_finite(total: float, values: Iterable[float]) -> None:
    if not (math.isfinite(total) and all(map(math.isfinite, values))):
        raise InvalidInterval(f"an expected diagonal block overflows at total weight {total!r}")


def expected_diag_adjusted(
    s_lo: float, s_hi: float, t_lo: float, t_hi: float
) -> tuple[float, float]:
    """Adjusted expected diagonal block of a community of strength [s_lo, s_hi]
    in a network of total strength [t_lo, t_hi], as a (lo, hi) pair. Each
    adjusted total is at least the strength it divides, so 0/0 is the only
    zero division; it is taken as 0."""
    return (
        s_lo * s_lo / (t_hi - s_hi + s_lo) if s_lo > 0 else 0.0,
        s_hi * s_hi / (t_lo - s_lo + s_hi) if s_hi > 0 else 0.0,
    )


def cl_term(o_lo, o_hi, s_lo, s_hi, n_lo, n_hi, t_lo, t_hi) -> float:
    """D(o_rr, e_rr) of one community from its summary and the network totals.

    The adjusted expected block depends only on the community's own
    strength and the totals, which no move changes, so Q_cl is the sum of
    this term over the communities. An endpoint with no positive member
    (count n_lo / n_hi) is 0, whatever residue its strength sum carries.
    """
    e_lo, e_hi = expected_diag_adjusted(s_lo if n_lo else 0.0, s_hi if n_hi else 0.0, t_lo, t_hi)
    return dominant_diff(o_lo - e_lo, o_hi - e_hi)
