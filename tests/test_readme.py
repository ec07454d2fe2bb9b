"""The README's library example runs and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np
import pytest

from envcap.canonical import swap_power
from envcap.capacity import two_copy_curve
from envcap.degradability import Degradability

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs_and_matches_its_comments():
    code = library_snippet()
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    # each value below is the one the snippet's comment gives
    assert "# anti-degradable, index cos(3*pi/4)" in code
    assert ns["cls"].tag is Degradability.ANTI_DEGRADABLE
    assert ns["cls"].index == pytest.approx(np.cos(3 * np.pi / 4), abs=1e-12)
    assert "# 1.0" in code
    assert ns["qh"] == pytest.approx(1.0, abs=1e-9)
    assert "# (pi/2, pi/2, 0)" in code
    assert np.allclose(ns["params"], (np.pi / 2, np.pi / 2, 0.0), atol=1e-10)
    assert "# 0.4017... > 0" in code
    assert 0.4017 <= ns["joint"] < 0.4018
    assert "# five gammas at once" in code
    singles = [two_copy_curve(ns["w"], swap_power(g).matrix) for g in np.linspace(0.5, 1, 5)]
    assert np.array_equal(ns["curve"], singles)
    assert "# [True, True, False]" in code
    assert ns["regions"].tolist() == [True, True, False]


def test_module_line_count_is_current():
    text = README.read_text()
    stated = re.search(r"Modules \(([\d,]+) lines of `src/envcap/`\)", text).group(1)
    src = README.parent / "src" / "envcap"
    assert int(stated.replace(",", "")) == sum(
        len(f.read_text().splitlines()) for f in src.glob("*.py"))
