"""The scalar gain kind: the pass state of ``hl`` and ``midpoint``.

``_ScalarPass`` prices a move by the reduced scalar gain on the nonzero
midpoints of its level's network and keeps Sigma_tot per community, as
plain floats. ``louvain.run`` imports this module only for a strategy
that needs it, so a ``cl`` run never compiles it; the interval kind is
``modularity._IntervalPass``.
"""

from __future__ import annotations

import math

from .errors import ZeroTotalWeight
from .interval import seq_sum
from .louvain import TIE_ULPS, _check_finite, _PassState
from .network import IWNetwork


class _ScalarPass(_PassState):
    """The scalar gain 2(k_vC - s_v Sigma_tot / 2w) on the nonzero midpoints
    of the pass's network (``hl``, ``midpoint``); ``tot`` holds Sigma_tot."""

    def _sums(self, net: IWNetwork, k: int) -> None:
        self.neigh = mid = net.midpoint_rows()
        self.s = s = [seq_sum(row.values()) for row in mid]
        self.two_w = t = seq_sum(s)
        if t <= 0:
            raise ZeroTotalWeight("total weight is zero")
        _check_finite(t, (x * x / (t - x + x) for x in s))
        self.tot = [0.0] * k
        for v, c in enumerate(self.comm_of):
            self.tot[c] += s[v]

    def q(self) -> float:
        """Unnormalized Q (no 1/2w factor) of the membership: each non-empty
        community's internal weight, folded in vertex and key order, less its
        expected block Sigma_tot^2 / 2w, with 2w taken as (2w - x) + x, as on
        the interval track."""
        comm_of, inner, t = self.comm_of, [0.0] * len(self.tot), self.two_w
        for v, row in enumerate(self.neigh):
            c = comm_of[v]
            for u, w in row.items():
                if comm_of[u] == c:
                    inner[c] += w
        return seq_sum(i - x * x / (t - x + x) for i, x, k in zip(inner, self.tot, self.size) if k)

    def q_max(self) -> float:
        """Normalization denominator 2w - sum of the expected diagonal blocks of
        the vertices, with 2w summed flat over the entries; exactly 0.0 when at
        most one vertex has weight, where the difference would leave a
        rounding residue."""
        s, t = self.s, self.two_w
        if sum(x > 0.0 for x in s) <= 1:
            return 0.0
        flat = seq_sum(x for row in self.neigh for x in row.values())
        return flat - seq_sum(x * x / (t - x + x) for x in s)

    def step(self, v: int) -> bool:
        """Evaluate and place v; True if it moved. Its links are keyed in
        first-neighbour (candidate) order, and a self-loop keys ``own``
        only; the tolerance is ``TIE_ULPS`` ulps of s_v, since the link
        weights and s_v Sigma_tot / 2w of both gains are at most s_v."""
        comm_of, tot, size = self.comm_of, self.tot, self.size
        own = comm_of[v]
        size[own] -= 1
        links: dict[int, float] = {}
        for u, w in self.neigh[v].items():
            if u == v:
                links.setdefault(own, 0.0)
            else:
                c = comm_of[u]
                links[c] = links.get(c, 0.0) + w
        s_v, two_w = self.s[v], self.two_w
        # an emptied community drops the rounding residue of the removals; its
        # total is then 0.0, so re-entering it gains exactly 0.0
        tot[own] = tot[own] - s_v if size[own] else 0.0
        gain_own = 2.0 * (links.get(own, 0.0) - s_v * tot[own] / two_w)
        gains = []
        target, best = own, 0.0
        for c, k in links.items():
            if c == own:
                g = gain_own
            else:
                g = 2.0 * (k - s_v * tot[c] / two_w)
                if (
                    g > 0.0 and g > gain_own and g - gain_own > TIE_ULPS * math.ulp(s_v)
                    and (target == own or g > best or (g == best and c < target))
                ):
                    target, best = c, g
            gains.append(g)
        tot[target] += s_v
        size[target] += 1
        comm_of[v] = target
        self.links, self.gains = links, gains
        return target != own
