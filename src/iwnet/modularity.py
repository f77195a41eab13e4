"""The interval gain kind: the per-community term of interval modularity,
its expected blocks, and the pass state of ``cl``.

``cl_term`` is D(o_rr, e_rr) of one community: the signed endpoint
difference of its observed block and its expected block under the
pairwise adjustment of the total weight, ``expected_diag_adjusted``.
Q_cl is the sum of the terms over the communities. ``_IntervalPass``,
the ``cl`` pass state, owns a level's sums and reads its Q and Q_max
from them; ``louvain.run`` imports this module only for ``cl``, so an
``hl`` or ``midpoint`` run never compiles it (their scalar kind is
``scalar._ScalarPass``). The partition-level functions that collapse a
partition first, and the paper's pairwise formulas, are references in
``oracle``.

Expected diagonal blocks divide by the separable total (T - s) + s, or
T_hi - s_hi + s_lo and T_lo - s_lo + s_hi, so the interval track
degenerates bit for bit to the scalar track on degenerate networks. An
adjusted total vanishes only with its numerator; that 0/0 endpoint is 0.
The entry point checks the network's total (``louvain._priced``), and
``_IntervalPass`` only that its own level's total squares finitely.
Q_norm is Q / Q_max."""

from __future__ import annotations

import math

from .interval import ZERO, dominant_diff, seq_sum
from .louvain import TIE_ULPS, _PassState, _priced
from .network import IWNetwork

__all__ = ["expected_diag_adjusted", "cl_term"]


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


class _IntervalPass(_PassState):
    """The exact interval gain D(C + v) - D(C) - D({v}) (``cl``).

    ``cols`` holds the flat lists o_lo, o_hi, s_lo, s_hi, n_lo, n_hi of
    every community: observed diagonal block, strength, and how many
    members have a positive lower / upper strength (the counts make the
    zero tests exact). ``d`` caches each community's ``cl_term``; ``vsum``
    and ``vterm`` hold the same of every vertex as the singleton it would
    form, and ``totals`` is (T_lo, T_hi).
    """

    def _sums(self, net: IWNetwork, k: int) -> None:
        self.vsum = []
        for v, row in enumerate(net.rows):
            loop = row.get(v, ZERO)
            s_lo = seq_sum(w.lo for w in row.values())
            s_hi = seq_sum(w.hi for w in row.values())
            self.vsum.append((loop.lo, loop.hi, s_lo, s_hi, int(s_lo > 0.0), int(s_hi > 0.0)))
        self.totals = t_lo, t_hi = tuple(seq_sum(x[j] for x in self.vsum) for j in (2, 3))
        if not math.isfinite(t_hi * t_hi):  # an aggregate's total rounded past the input's
            _priced(t_hi)
        self.vterm = [cl_term(*x, t_lo, t_hi) for x in self.vsum]
        self.cols = tuple([0.0] * k for _ in range(6))
        self.d = [0.0] * k
        for v, c in enumerate(self.comm_of):
            # v joins c after the vertices before it, so it links to those only
            k_lo = k_hi = 0.0
            for u, w in net.rows[v].items():
                if u < v and self.comm_of[u] == c:
                    k_lo, k_hi = k_lo + w.lo, k_hi + w.hi
            self._join(v, c, k_lo, k_hi)

    def q(self) -> float:
        """Q of the membership: the ``cl_term`` of every non-empty
        community, summed in id order."""
        return seq_sum(d for d, k in zip(self.d, self.size) if k)

    def q_max(self) -> float:
        """Normalization denominator D([2w_lo, 2w_hi], sum of the expected
        diagonal blocks of the vertices), with 2w summed flat over the entries;
        0.0 when at most one vertex has a positive upper strength, as on the
        scalar track, and when T_lo is 0: every lower bound is then 0 and every
        expected upper block s_hi^2 / (0 - 0 + s_hi) is s_hi, so both
        differences are 0, where the sums would leave a rounding residue."""
        t_lo, t_hi = self.totals
        if sum(x[5] for x in self.vsum) <= 1 or t_lo == 0.0:
            return 0.0
        rows = self.net.rows
        e = [expected_diag_adjusted(x[2], x[3], t_lo, t_hi) for x in self.vsum]
        return dominant_diff(
            seq_sum(w.lo for row in rows for w in row.values()) - seq_sum(x[0] for x in e),
            seq_sum(w.hi for row in rows for w in row.values()) - seq_sum(x[1] for x in e),
        )

    def _join(self, v: int, c: int, k_lo: float, k_hi: float, sign: int = 1) -> None:
        """v, linked to c by [k_lo, k_hi], joins (sign 1) or leaves (sign -1) c."""
        x_olo, x_ohi, x_slo, x_shi, x_nlo, x_nhi = self.vsum[v]
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = self.cols
        o_lo[c] += sign * (2.0 * k_lo + x_olo)
        o_hi[c] += sign * (2.0 * k_hi + x_ohi)
        s_lo[c] += sign * x_slo
        s_hi[c] += sign * x_shi
        n_lo[c] += sign * x_nlo
        n_hi[c] += sign * x_nhi
        self.d[c] = cl_term(o_lo[c], o_hi[c], s_lo[c], s_hi[c], n_lo[c], n_hi[c], *self.totals)

    def step(self, v: int) -> bool:
        """As ``scalar._ScalarPass.step``, with lower and upper links; the
        tolerance is ``TIE_ULPS`` ulps of the larger upper strength of the
        candidate and own with v in it, which bounds every observed and
        expected block of both gains."""
        comm_of, d = self.comm_of, self.d
        own = comm_of[v]
        self.size[own] -= 1
        k_lo: dict[int, float] = {}
        k_hi: dict[int, float] = {}
        for u, w in self.net.rows[v].items():
            if u == v:
                k_lo.setdefault(own, 0.0)
                k_hi.setdefault(own, 0.0)
            else:
                c = comm_of[u]
                k_lo[c] = k_lo.get(c, 0.0) + w.lo
                k_hi[c] = k_hi.get(c, 0.0) + w.hi
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = self.cols
        x_olo, x_ohi, x_slo, x_shi, x_nlo, x_nhi = self.vsum[v]
        q_v, (t_lo, t_hi) = self.vterm[v], self.totals
        if self.size[own]:
            kl, kh = k_lo.get(own, 0.0), k_hi.get(own, 0.0)
            self._join(v, own, kl, kh, -1)
            gain_own = cl_term(
                o_lo[own] + (2.0 * kl + x_olo), o_hi[own] + (2.0 * kh + x_ohi), s_lo[own] + x_slo,
                s_hi[own] + x_shi, n_lo[own] + x_nlo, n_hi[own] + x_nhi, t_lo, t_hi,
            ) - d[own] - q_v
        else:  # drop the rounding residue of the removals: re-entering is a no-op
            for col in (*self.cols, d):
                col[own] = 0.0
            gain_own = 0.0
        gains = []
        target, best = own, 0.0
        for c, kl in k_lo.items():
            if c == own:
                g = gain_own
            else:
                g = cl_term(
                    o_lo[c] + (2.0 * kl + x_olo), o_hi[c] + (2.0 * k_hi[c] + x_ohi), s_lo[c] + x_slo,
                    s_hi[c] + x_shi, n_lo[c] + x_nlo, n_hi[c] + x_nhi, t_lo, t_hi,
                ) - d[c] - q_v
                if (
                    g > 0.0 and g > gain_own
                    and g - gain_own > TIE_ULPS * math.ulp(max(s_hi[c], s_hi[own]) + x_shi)
                    and (target == own or g > best or (g == best and c < target))
                ):
                    target, best = c, g
            gains.append(g)
        self._join(v, target, k_lo.get(target, 0.0), k_hi.get(target, 0.0))
        self.size[target] += 1
        comm_of[v] = target
        self.links, self.gains = k_lo, gains
        return target != own
