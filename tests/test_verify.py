"""What the verify registry must keep: check names, order, details and the
budget-0 skips, and how a failing or crashing check is reported."""

import pytest

from lsqlab import separation, staircase, verify

CHECKS = [
    ("graph", "build_determinism"), ("graph", "bfs_triangle"),
    ("graph", "expansion_positive"), ("graph", "separation_invariance"),
    ("paths", "congestion_range"), ("paths", "oracle_lower_bound"),
    ("paths", "cayley_uniform"), ("paths", "hypercube_congestion"),
    ("paths", "roundtrip"), ("paths", "psi_identity"),
    ("staircase", "unique_local_minimum"), ("staircase", "rv_twice_rtilde"),
    ("staircase", "m_large"), ("staircase", "count_denominator"),
    ("staircase", "tail_count_bound"), ("staircase", "qz_bound"),
    ("staircase", "sampler_marginals"),
    ("separation", "grid_arrangements"), ("separation", "validity"),
    ("separation", "m_large"), ("separation", "count_formula"),
    ("separation", "parameter_bound"),
    ("adversary", "matrix_game"), ("adversary", "proposition_stronger"),
    ("adversary", "diagonal_solver"), ("adversary", "staircase_family"),
    ("solvers", "correctness"), ("solvers", "determinism"),
    ("bench", "determinism"),
]
DETAILS = {("separation", "m_large"): "182 good sequences"}
SKIPPED_AT_ZERO = {("staircase", "qz_bound"), ("staircase", "sampler_marginals"),
                   ("solvers", "determinism")}


def _report(results):
    return [(r.scope, r.name, r.passed, r.detail, r.skipped) for r in results]


@pytest.mark.parametrize("budget", [None, 0])
def test_verify_report_pinned(budget):
    expected = []
    for key in CHECKS:
        if budget == 0 and key in SKIPPED_AT_ZERO:
            expected.append((*key, False, "no case examined", True))
        else:
            expected.append((*key, True, DETAILS.get(key, ""), False))
    assert _report(verify.run_verify("all", budget=budget)) == expected


def test_verify_reports_injected_faults(monkeypatch):
    count = staircase.count_good_with_prefix
    monkeypatch.setattr(staircase, "count_good_with_prefix",
                        lambda *args: count(*args) + 1)
    monkeypatch.setattr(separation, "relation_separation", lambda *args: 0)
    results = verify.run_verify("staircase") + verify.run_verify("separation")
    assert [r for r in _report(results) if not r[2]] == [
        ("staircase", "count_denominator", False,
         "n=4 L=1 x=(1, 2) j=1: 2 != 3", False),
        ("separation", "m_large", False,
         "m=4 c=1 x=(1, 2, 3): M=0 < 2944/125", False),
        ("separation", "count_formula", False,
         "m=4 c=1 x=(1, 2, 3) j=1: 4 != 5", False),
    ]


def test_verify_lets_other_exceptions_propagate(monkeypatch):
    def crash(*args):
        raise RuntimeError("bound crashed")

    monkeypatch.setattr(separation, "arrangement_parameter_bound", crash)
    with pytest.raises(RuntimeError, match="bound crashed"):
        verify.run_verify("separation")
