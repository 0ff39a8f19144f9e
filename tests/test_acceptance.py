"""Acceptance gate: the nine numbered checks, one test each.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s
or on failure) and asserts both the check outcome and its wall-clock
budget.  The checks themselves live in belljump.acceptance so the CLI
selftest and this suite run exactly the same code.
"""

import pytest

from belljump import spinor_basis, wavefunction
from belljump.acceptance import _CRITERIA


def _run(number):
    res = _CRITERIA[number]()
    tag = "PASS" if res.passed else "FAIL"
    print(f"[{tag}] {res.number} {res.name} ({res.elapsed:.1f}s): {res.detail}")
    assert res.passed, f"criterion {number} failed: {res.detail}"
    assert res.within_budget, (
        f"criterion {number} took {res.elapsed:.1f}s, budget {res.budget:.0f}s"
    )


@pytest.mark.parametrize("number", sorted(_CRITERIA))
def test_criterion(number):
    _run(number)


def test_cone_law_fails_on_a_polar_current(monkeypatch):
    # the current read with alpha_phi in place of alpha_theta: a field
    # with j_theta = j_phi would wind the flight off its cone
    def alpha_component(k, point):
        return spinor_basis.alpha_component("phi" if k == "theta" else k, point)

    monkeypatch.setattr(wavefunction, "alpha_component", alpha_component)
    res = _CRITERIA[5]()
    assert not res.passed, res.detail
