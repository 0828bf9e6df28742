"""The bundled configs reproduce their frozen outputs in tests/golden/.

Every numeric token of the CSV and ``.meta`` files must agree with the frozen
one to 1e-12 relative (NaN equals NaN); every other token, and the separators
between tokens, must match exactly.  Regenerate the files only for a change
that is meant to move the physics: ``eitcool run <name>.cfg --out tests/golden``.
Configs that are not bundled live next to their outputs (``spectrum.cfg``: a
301-point W(delta_pi) scan of every variant across both Fano features), and
are regenerated with ``eitcool run tests/golden/<name>.cfg --out tests/golden``.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from eitcool.cli import bundled_config_path, main
from eitcool.config import load_config
from eitcool.runner import run

GOLDEN = Path(__file__).parent / "golden"
BUNDLED = ("fig2", "fig3", "fig4", "multimode", "thermometry")
LOCAL = ("spectrum",)
RTOL = 1e-12

_SEPARATORS = re.compile(r"([,\s=]+)")


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _tokens_agree(new: str, old: str) -> bool:
    if new == old:
        return True
    a, b = _number(new), _number(old)
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _mismatches(new_text: str, old_text: str) -> list:
    new_lines, old_lines = new_text.splitlines(), old_text.splitlines()
    if len(new_lines) != len(old_lines):
        return [f"{len(new_lines)} lines, frozen file has {len(old_lines)}"]
    bad = []
    for n, (new, old) in enumerate(zip(new_lines, old_lines), start=1):
        new_tok, old_tok = _SEPARATORS.split(new), _SEPARATORS.split(old)
        if len(new_tok) != len(old_tok) or not all(map(_tokens_agree, new_tok, old_tok)):
            bad.append(f"line {n}: {new!r} != {old!r}")
    return bad


def test_token_comparison_rules():
    assert _mismatches("a,1.0,nan\n", "a,1.0000000000001,nan\n") == []
    assert _mismatches("a,1.0\n", "a,1.00000000001\n")
    assert _mismatches("a,nan\n", "a,0.0\n")
    assert _mismatches("a,1e308\n", "a,inf\n")
    assert _mismatches("x = 'y'\n", "x = 'z'\n")
    assert _mismatches("a,1.0\n", "a;1.0\n")
    assert _mismatches("a\n", "a\nb\n")


@pytest.mark.parametrize("name", BUNDLED + LOCAL)
def test_bundled_config_reproduces_frozen_output(name, tmp_path):
    config = str(GOLDEN / f"{name}.cfg") if name in LOCAL else f"{name}.cfg"
    assert main(["run", config, "--out", str(tmp_path)]) == 0
    for suffix in (".csv", ".csv.meta"):
        new = (tmp_path / f"{name}{suffix}").read_text(encoding="utf-8")
        old = (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
        assert _mismatches(new, old) == [], f"{name}{suffix}"


def test_a_pass_over_the_bundled_configs_factors_2318_lapack_matrices(monkeypatch, tmp_path):
    # every matrix np.linalg.solve receives, a stack of N counting N: 6 fold
    # solves and 3 null-vector LUs per oblique-beam point at order 4, 2 LUs per
    # static point; a change to the solver's work moves this count
    solve, matrices = np.linalg.solve, []

    def counted(a, b):
        matrices.append(math.prod(np.shape(a)[:-2]))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for name in BUNDLED:
        run(load_config(bundled_config_path(f"{name}.cfg")), tmp_path)
    assert sum(matrices) == 2318
