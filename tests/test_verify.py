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


def _scaled_weights(rv_scale, rtilde_scale, case=None):
    """distinguishing_weights with r_v and r~_v scaled, on every pair or
    only on pairs of instances of the given (n, L)."""
    weights = staircase.distinguishing_weights

    def scaled(v, f1, f2):
        r, rv, rtv = weights(v, f1, f2)
        if case not in (None, (len(f1.table) - 1, len(f1.milestones) - 1)):
            return r, rv, rtv
        return r, rv * rv_scale, rtv * rtilde_scale
    return scaled


@pytest.mark.parametrize("fault, failures", [
    # r~ zeroed: the exhaustive Gray-code sweep at (4, 1) fails first
    (_scaled_weights(1, 0),
     [("rv_twice_rtilde", "n=4 L=1 v=2 Z=[0, 1]: 32 > 2*0")]),
    # r~ zeroed at (5, 2) only, the sampled case
    (_scaled_weights(1, 0, case=(5, 2)),
     [("rv_twice_rtilde",
       "n=5 L=2 v=2 Z=[0, 1, 2, 10, 11, 13, 19, 20, 22, 23]: 250 > 2*0")]),
    # r_v inflated tenfold, r~ alike so that r_v <= 2 r~ still holds
    (_scaled_weights(10, 10),
     [("qz_bound", "n=4 L=2 Z=[2, 3, 6, 7]: q=2720 > 2688")]),
], ids=["zero-rtilde", "zero-rtilde-sampled", "inflate-rv"])
def test_verify_pair_weight_checks_report_injected_faults(monkeypatch, fault,
                                                          failures):
    monkeypatch.setattr(staircase, "distinguishing_weights", fault)
    assert [(r.name, r.detail) for r in verify.run_verify("staircase")
            if not r.passed] == failures
