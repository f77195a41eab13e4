"""The README's library example runs and states what it returns, and the
README names every public name of the package."""

import contextlib
import io
import math
import re
from pathlib import Path

import iwnet

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
