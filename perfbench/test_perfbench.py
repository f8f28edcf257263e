"""Tests of the benchmark's own arithmetic: span self times and the oracles.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
import types

import numpy as np
import pytest

import oracles
from tracer import Tracer, covered, median_ms


def _spans(rows):
    """A tracer holding ``(name, start, end, parent)`` rows as recorded spans."""
    t = Tracer()
    for name, start, end, parent in rows:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.counts.append(0)
    return t


# -- tracer --------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 12.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)


def test_self_time_subtracts_direct_children_only():
    t = _spans([
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 5.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("mid", 6.0, 8.0, 0),
        ("top", 11.0, 12.0, -1),
    ])
    assert t.self_times() == pytest.approx([4.0, 3.0, 1.0, 2.0, 1.0])
    agg = t.summary()
    assert agg["mid"]["calls"] == 2
    assert agg["mid"]["self_s"] == pytest.approx(5.0)
    assert agg["mid"]["durations"] == pytest.approx([4.0, 2.0])
    # self times of all spans add up to the wall time the top-level spans cover
    assert sum(t.self_times()) == pytest.approx(11.0)


def test_nested_calls_counts_descendants_at_any_depth():
    t = _spans([
        ("check", 0.0, 10.0, -1),
        ("solve", 1.0, 2.0, 0),
        ("helper", 3.0, 6.0, 0),
        ("solve", 4.0, 5.0, 2),
        ("solve", 11.0, 12.0, -1),
    ])
    assert t.nested_calls("check", "solve") == 2
    assert t.nested_calls("helper", "solve") == 1
    assert t.nested_calls("absent", "solve") == 0


def test_patch_replaces_every_binding_and_records_parents():
    def inner(x):
        return x + 1

    owner = types.ModuleType("owner")
    owner.inner = inner
    user = types.ModuleType("user")
    user.alias = inner

    def outer(x):
        return user.alias(x) * 2

    owner.outer = outer
    t = Tracer()
    t.patch([owner, user], [("owner.inner", owner, "inner", lambda x: x),
                            ("owner.outer", owner, "outer", None)])
    assert user.alias is not inner and owner.inner is user.alias
    assert owner.outer(3) == 8
    assert owner.inner(4) == 5
    t.restore()
    assert owner.inner is inner and user.alias is inner and owner.outer is outer
    assert t.names == ["owner.outer", "owner.inner", "owner.inner"]
    assert t.parents == [-1, 0, -1]
    assert t.counts == [0, 3, 4]
    assert all(e >= s for s, e in zip(t.starts, t.ends))


def test_span_is_closed_when_the_call_raises():
    t = Tracer()
    failing = t.wrap("f", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert len(t.names) == 1 and not math.isnan(t.ends[0])
    t.begin("g")  # the failed span no longer counts as open
    assert t.parents[-1] == -1


def test_median_ms():
    assert median_ms([0.001, 0.003, 0.002]) == pytest.approx(2.0)
    assert median_ms([]) == 0.0


# -- oracles on closed-form channels ---------------------------------------

ZERO_ONE = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIFORM = np.array([0.5, 0.5])


@pytest.mark.parametrize("p, q", [(0.1, 0.3), (0.05, 0.45), (0.2, 0.25), (0.0, 0.5)])
def test_deficiency_between_binary_symmetric_channels(p, q):
    bp, bq = oracles.bsc_matrix(p), oracles.bsc_matrix(q)
    assert oracles.deficiency_value(bp, bq, UNIFORM) == pytest.approx(0.0, abs=1e-12)
    assert oracles.deficiency_value(bq, bp, UNIFORM) == pytest.approx(q - p, abs=1e-12)
    assert oracles.bsc_deficiency(p, q) == 0.0
    assert oracles.bsc_deficiency(q, p) == pytest.approx(q - p)


def test_minimax_and_bayes_values_of_bsc_under_zero_one_loss():
    e = oracles.bsc_matrix(0.1)
    assert oracles.minimax_value(ZERO_ONE, e) == pytest.approx(0.1, abs=1e-12)
    assert oracles.bayes_value(ZERO_ONE, e, UNIFORM) == pytest.approx(0.1)
    identity_rule = np.eye(2)
    assert oracles.risk_of_rule(ZERO_ONE, e, identity_rule) == pytest.approx([0.1, 0.1])


def test_domination_and_supporting_prior_on_bsc():
    e = oracles.bsc_matrix(0.1)
    # answering the observation is admissible; answering its opposite is
    # beaten by 0.8 at each unknown
    assert oracles.domination_slack(ZERO_ONE, e, np.array([0.1, 0.1])) == pytest.approx(0.0, abs=1e-12)
    assert oracles.domination_slack(ZERO_ONE, e, np.array([0.9, 0.9])) == pytest.approx(1.6)
    assert oracles.bayes_margin(ZERO_ONE, e, (0, 1)) == pytest.approx(0.4)
    assert oracles.bayes_margin(ZERO_ONE, e, (1, 0)) < 0.0


def test_mutual_information_of_bsc_is_one_minus_binary_entropy():
    for p in (0.1, 0.3):
        bits = oracles.mutual_information(oracles.bsc_matrix(p), UNIFORM) / math.log(2.0)
        assert bits == pytest.approx(1.0 - oracles.h2(p))
    assert oracles.h2(0.5) == pytest.approx(1.0)


def test_support_height_of_zero_one_loss():
    # the entropy of 0/1 loss on two unknowns is min(P0, P1), highest at 1/2
    assert oracles.support_height(ZERO_ONE, np.zeros(2)) == pytest.approx(0.5)
    col = ZERO_ONE[:, 0]
    assert oracles.support_height(ZERO_ONE, col - col.mean()) == pytest.approx(col.mean())


def test_cli_checks_reject_wrong_answers():
    good = (0, '{"value": 0.1}', None)
    oracles.check_cli_minimax(good, 0.1)
    with pytest.raises(oracles.CheckError):
        oracles.check_cli_minimax((0, '{"value": 0.11}', None), 0.1)
    with pytest.raises(oracles.CheckError):
        oracles.check_cli_minimax((2, '{"value": 0.1}', None), 0.1)
    info = 1.0 - oracles.h2(0.1)
    oracles.check_cli_mutual_info((0, f'{{"mutual_information": {info!r}}}', None), 0.1)
    payload = '{"value": 0.0, "reverse_value": 0.2}'
    oracles.check_cli_deficiency((0, payload, None), 0.1, 0.3)
    with pytest.raises(oracles.CheckError):
        oracles.check_cli_deficiency((0, payload, None), 0.3, 0.1)
