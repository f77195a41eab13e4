"""The README's library example runs and states what it returns, its
recipes for the quantities of a partition give a run's values, and the
README names every public name of the package."""

import contextlib
import io
import math
import random
import re
from pathlib import Path

import pytest

import iwnet

from helpers import random_network

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_and_public_names():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    ns: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, str(README), "exec"), ns)
    assert out.getvalue().startswith("Initial Interval-Weighted Network:")

    # each value the comments state, next to the line that states it
    result, best = ns["result"], ns["best"]
    assert "# ((0, 1), (2, 3))" in block
    assert result.final_partition.communities == ((0, 1), (2, 3))
    assert "# 2.857..., 0.4545..." in block
    assert math.isclose(result.final_q, 20 / 7, rel_tol=1e-12)
    assert math.isclose(result.final_q_norm, 5 / 11, rel_tol=1e-12)
    assert "# 2.857..., the same partition" in block
    assert math.isclose(best.best_q, 20 / 7, rel_tol=1e-12)
    assert best.best_partition == result.final_partition

    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", text))))
    missing = [name for name in iwnet.__all__ if name not in documented]
    assert not missing, f"README.md does not name {missing}"


README_NETWORK = iwnet.IWNetwork.from_edges(
    ["v1", "v2", "v3", "v4"],
    [("v1", "v2", 1, 3), ("v1", "v3", 1, 1), ("v2", "v3", 1, 1), ("v3", "v4", 2, 4)],
)


def _recipe_networks():
    """The README network and seeded 30-vertex networks."""
    rng = random.Random(35)
    return [README_NETWORK] + [random_network(rng, 30, density=0.15) for _ in range(6)]


@pytest.mark.parametrize("method", ["cl", "midpoint", "hl"])
def test_readme_recipes_give_the_run_quantities(method):
    """The README's recipes for the quantities of a partition ``p`` of
    ``net``, on a run's final partition, give the run's Q and Q_norm. They
    agree to rounding, not bit for bit, for ``cl`` and ``midpoint``: the
    recipe collapses ``p`` in one step where the run aggregates pass by pass."""
    text = README.read_text(encoding="utf-8")
    # the recipes as the README spells them
    assert "`q_interval_communities(net, p.communities)`" in text
    assert "`q_max_interval_adjusted(net, p)`" in text
    assert "`q_scalar_communities(net.midpoint_rows(), p.communities)`" in text
    assert "`agg = aggregate_minmax(net, p)`" in text
    assert "`q_scalar_communities(rows, singles)`" in text
    assert "`q_max_scalar_communities(rows, singles)`" in text
    for net in _recipe_networks():
        result = iwnet.run(net, method)
        p = result.final_partition
        q_norm = None
        if method == "cl":
            q = iwnet.q_interval_communities(net, p.communities)
            q_norm = q / iwnet.q_max_interval_adjusted(net, p)
        elif method == "midpoint":
            q = iwnet.q_scalar_communities(net.midpoint_rows(), p.communities)
        else:
            agg = iwnet.aggregate_minmax(net, p)
            rows = agg.midpoint_rows()
            singles = [[r] for r in range(agg.n)]
            q = iwnet.q_scalar_communities(rows, singles)
            q_norm = q / iwnet.q_max_scalar_communities(rows, singles)
        assert math.isclose(q, result.final_q, rel_tol=1e-9)
        if q_norm is not None:
            assert math.isclose(q_norm, result.final_q_norm, rel_tol=1e-9)
