"""Independent checks for every benchmark output.

Nothing here calls expcompare's own assembly code.  The linear programs
(deficiency, minimax, domination, supporting prior, support height) are
written afresh from their definitions and solved with
``scipy.optimize.linprog(method="highs")``; Bayes values come from a
per-observation argmin brute force; the CLI answers are compared with
closed forms of binary symmetric channels.  Each ``check_*`` function
takes an operation's output followed by the operation's arguments and
raises :class:`CheckError` on a mismatch.

Verdicts (admissible, has a supporting prior, divides) are compared
only outside a small gray zone around the decision tolerance, where two
correct solvers may disagree by round-off.
"""

from __future__ import annotations

import json
import math
from itertools import product as iter_product

import numpy as np
from scipy.optimize import linprog

VALUE_TOL = 1e-9  # agreement of optimal values with HiGHS
PROB_TOL = 1e-9  # stochasticity of returned matrices
DECIDE_TOL = 1e-7  # expcompare's divisibility / admissibility threshold
GRAY = 1e-9  # verdicts with an oracle margin this close to the threshold are not compared


class CheckError(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def close(got: float, want: float, what: str, tol: float = VALUE_TOL) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, oracle {want!r}")


def _highs(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None)) -> float:
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise CheckError(f"oracle LP did not solve: {res.message}")
    return float(res.fun)


# -- linear programs written from their definitions ----------------------


def deficiency_value(e: np.ndarray, e2: np.ndarray, pi: np.ndarray) -> float:
    """Directed deficiency in the equality form.

    Variables ``F`` (``|W| x |Z|``, column-stochastic) and ``p, q >= 0``
    with ``pi_j ([F E]_ij - E2_ij) = p_ij - q_ij``; minimise ``sum(p + q)``
    and halve it (total variation is half the l1 distance).
    """
    n_z, n_t = e.shape
    n_w = e2.shape[0]
    n_f, n_g = n_w * n_z, n_w * n_t
    a_eq = np.zeros((n_g + n_z, n_f + 2 * n_g))
    b_eq = np.zeros(n_g + n_z)
    for i in range(n_w):
        for j in range(n_t):
            row = i * n_t + j
            a_eq[row, i * n_z : (i + 1) * n_z] = pi[j] * e[:, j]
            a_eq[row, n_f + row] = -1.0
            a_eq[row, n_f + n_g + row] = 1.0
            b_eq[row] = pi[j] * e2[i, j]
    for k in range(n_z):
        a_eq[n_g + k, k : n_f : n_z] = 1.0
        b_eq[n_g + k] = 1.0
    c = np.concatenate([np.zeros(n_f), np.ones(2 * n_g)])
    return 0.5 * _highs(c, a_eq=a_eq, b_eq=b_eq)


def _risk_rows(loss: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``rows[t, a*|Z| + z] = e[z, t] * L[t, a]``: risk at ``t`` of a rule ``d[a, z]``."""
    return np.einsum("zt,ta->taz", e, loss).reshape(loss.shape[0], -1)


def _rule_rows(n_a: int, n_z: int) -> np.ndarray:
    """Column sums of a rule ``d[a, z]`` flattened row-major."""
    rows = np.zeros((n_z, n_a * n_z))
    for z in range(n_z):
        rows[z, z::n_z] = 1.0
    return rows


def minimax_value(loss: np.ndarray, e: np.ndarray) -> float:
    """``min over rules of max over t of risk``, epigraph level free."""
    n_t, n_a = loss.shape
    n_z = e.shape[0]
    n_d = n_a * n_z
    a_ub = np.hstack([_risk_rows(loss, e), -np.ones((n_t, 1))])
    a_eq = np.hstack([_rule_rows(n_a, n_z), np.zeros((n_z, 1))])
    c = np.zeros(n_d + 1)
    c[-1] = 1.0
    bounds = [(0, None)] * n_d + [(None, None)]
    return _highs(c, a_ub, np.zeros(n_t), a_eq, np.ones(n_z), bounds)


def domination_slack(loss: np.ndarray, e: np.ndarray, target: np.ndarray) -> float:
    """Largest total improvement ``sum(s)`` with ``risk(d') + s <= target``."""
    n_t, n_a = loss.shape
    n_z = e.shape[0]
    n_d = n_a * n_z
    a_ub = np.hstack([_risk_rows(loss, e), np.eye(n_t)])
    a_eq = np.hstack([_rule_rows(n_a, n_z), np.zeros((n_z, n_t))])
    c = np.concatenate([np.zeros(n_d), -np.ones(n_t)])
    return -_highs(c, a_ub, target, a_eq, np.ones(n_z))


def bayes_margin(loss: np.ndarray, e: np.ndarray, rule: tuple[int, ...]) -> float:
    """Best margin ``m`` by which some prior makes ``rule`` Bayes.

    Per observation ``z`` and action ``b``:
    ``sum_t pi_t e[z, t] (L[t, b] - L[t, rule[z]]) >= m``.  A supporting
    prior exists exactly when the optimum is nonnegative.
    """
    n_t, n_a = loss.shape
    rows = []
    for z, g in enumerate(rule):
        for b in range(n_a):
            if b != g:
                rows.append(np.append(-(e[z] * (loss[:, b] - loss[:, g])), 1.0))
    a_eq = np.append(np.ones(n_t), 0.0)[None, :]
    c = np.zeros(n_t + 1)
    c[-1] = -1.0
    bounds = [(0, None)] * n_t + [(None, 1.0)]
    return -_highs(c, np.array(rows), np.zeros(len(rows)), a_eq, [1.0], bounds)


def support_height(loss: np.ndarray, v: np.ndarray) -> float:
    """``max over the simplex of min_a <P, L[:, a]> - <P, v>``."""
    n_t, n_a = loss.shape
    a_ub = np.hstack([-loss.T, np.ones((n_a, 1))])
    a_eq = np.append(np.ones(n_t), 0.0)[None, :]
    c = np.append(v, -1.0)
    bounds = [(0, None)] * n_t + [(None, None)]
    return -_highs(c, a_ub, np.zeros(n_a), a_eq, [1.0], bounds)


# -- brute force and closed forms ----------------------------------------


def bayes_scores(loss: np.ndarray, e: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """``scores[z, a] = sum_t pi_t e[z, t] L[t, a]``."""
    return (e * pi[None, :]) @ loss


def bayes_value(loss: np.ndarray, e: np.ndarray, pi: np.ndarray) -> float:
    return float(bayes_scores(loss, e, pi).min(axis=1).sum())


def risk_of_rule(loss: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Risk profile of a (randomized) rule ``d[a, z]`` at every unknown."""
    return np.einsum("zt,ta,az->t", e, loss, d)


def mutual_information(e: np.ndarray, pi: np.ndarray) -> float:
    joint = e * pi[None, :]
    marginal = joint.sum(axis=1, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log((joint / (marginal * pi[None, :]))[mask])).sum())


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bsc_matrix(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def bsc_deficiency(p_from: float, p_to: float) -> float:
    """Directed deficiency between binary symmetric channels, uniform prior.

    ``BSC(q)`` for ``q <= 1/2`` is ``BSC(p)`` followed by ``BSC(r)`` with
    ``1 - 2q = (1 - 2p)(1 - 2r)`` whenever ``p <= q``, so the cost from the
    less noisy channel is 0.  The other way, any post-processing ``F``
    maps the column difference ``1 - 2q`` to at most ``1 - 2q``, so the
    averaged variation is at least ``q - p``, which the identity attains.
    """
    return max(p_from - p_to, 0.0)


# -- checks on results ---------------------------------------------------


def _stochastic(m: np.ndarray, what: str) -> None:
    expect(bool(np.all(m >= -PROB_TOL)), f"{what} has a negative entry")
    expect(bool(np.allclose(m.sum(axis=0), 1.0, rtol=0.0, atol=PROB_TOL)),
           f"{what} is not column-stochastic")


def check_directed_deficiency(res, e, e2, pi) -> None:
    close(res.value, deficiency_value(e.matrix, e2.matrix, pi.weights), "deficiency")
    w = res.witness.matrix
    _stochastic(w, "witness")
    gap = 0.5 * np.abs(w @ e.matrix - e2.matrix).sum(axis=0)
    close(float(pi.weights @ gap), res.value, "prior-weighted variation of the witness")


def check_divides(out, e, e2) -> None:
    ok, witness = out
    n = e.matrix.shape[1]
    value = deficiency_value(e.matrix, e2.matrix, np.full(n, 1.0 / n))
    if abs(value - DECIDE_TOL) > GRAY:
        expect(ok == (value <= DECIDE_TOL), f"divides={ok}, oracle deficiency {value!r}")
    if ok:
        _stochastic(witness.matrix, "witness")
        gap = np.abs(witness.matrix @ e.matrix - e2.matrix).max()
        expect(gap <= 1e-6, f"witness misses the target by {gap!r}")
    else:
        expect(witness is None, "a witness was returned for a non-dividing pair")


def check_minimax(res, loss, e) -> None:
    L, E = loss.values, e.matrix
    close(res.value, minimax_value(L, E), "minimax value")
    d = res.rule.matrix
    _stochastic(d, "minimax rule")
    close(float(risk_of_rule(L, E, d).max()), res.value, "max risk of the minimax rule")
    lfp = res.least_favorable_prior.weights
    close(bayes_value(L, E, lfp), res.value, "Bayes risk at the least favorable prior", 1e-8)


def _admissible_verdict(got: bool, slack: float) -> None:
    if abs(slack - DECIDE_TOL) > GRAY:
        expect(got == (slack <= DECIDE_TOL), f"admissible={got}, oracle slack {slack!r}")


def check_is_admissible(got, loss, e, d) -> None:
    L, E = loss.values, e.matrix
    _admissible_verdict(got, domination_slack(L, E, risk_of_rule(L, E, d.matrix)))


def check_complete_class(rep, loss, e) -> None:
    L, E = loss.values, e.matrix
    n_a = L.shape[1]
    rules = list(iter_product(range(n_a), repeat=E.shape[0]))
    expect(len(rep.rules) == len(rules), "wrong number of deterministic rules")
    labels = loss.actions.labels
    for g, r in zip(rules, rep.rules):
        expect(r.actions == tuple(labels[a] for a in g), "rules out of enumeration order")
        profile = sum(E[z] * L[:, a] for z, a in enumerate(g))
        close(float(np.abs(r.risk - profile).max()), 0.0, "rule risk profile")
        _admissible_verdict(r.admissible, domination_slack(L, E, profile))
        if r.prior is not None:
            scores = bayes_scores(L, E, r.prior.weights)
            chosen = scores[np.arange(len(g)), list(g)]
            excess = float((chosen - scores.min(axis=1)).max())
            expect(excess <= DECIDE_TOL, f"supporting prior leaves rule {g} {excess!r} above Bayes")
        else:
            margin = bayes_margin(L, E, g)
            expect(margin <= GRAY, f"rule {g} has no prior but the oracle margin is {margin!r}")
    expect(rep.ok, "complete-class report is not ok")


def check_psi(value, loss, v) -> None:
    close(value, support_height(loss.values, np.asarray(v)), "support height")


def check_achievable_column(value, loss, v, col_mean) -> None:
    """``psi(zero_sum_part(col)) == mean(col)`` for an achievable column."""
    check_psi(value, loss, v)
    close(value, col_mean, "height of an achievable column")


def check_is_achievable(got, loss, action) -> None:
    col = loss.column(action)
    gap = support_height(loss.values, col - col.mean()) - col.mean()
    if abs(gap + DECIDE_TOL) > GRAY:
        expect(got == (gap >= -DECIDE_TOL), f"is_achievable={got}, oracle gap {gap!r}")


def check_bias_variance(bv, loss, e, d, theta) -> None:
    t = loss.unknowns.index(theta)
    risk = float(risk_of_rule(loss.values, e.matrix, d.matrix)[t])
    close(bv.bias + bv.variance, risk, "bias + variance", 1e-8)
    expect(bv.variance >= -1e-9, f"negative variance {bv.variance!r}")


def check_min_bayes_risk(res, loss, e, pi) -> None:
    L, E, w = loss.values, e.matrix, pi.weights
    close(res.value, bayes_value(L, E, w), "minimum Bayes risk")
    close(float(w @ risk_of_rule(L, E, res.rule.matrix)), res.value, "Bayes risk of the rule")


def check_mutual_information(value, e, pi) -> None:
    close(value, mutual_information(e.matrix, pi.weights), "mutual information")


def check_matrix(t, *inputs) -> None:
    """Output of ``compose``/``product``/``replicate`` against the matrix built by numpy.

    ``inputs`` are the operation's arguments followed by that matrix.
    """
    want = inputs[-1]
    expect(t.matrix.shape == want.shape, f"shape {t.matrix.shape}, expected {want.shape}")
    close(float(np.abs(t.matrix - want).max()), 0.0, "transition matrix", 1e-12)


def check_dpi(rep, kind, trials, seed) -> None:
    expect((rep.kind, rep.trials, rep.seed) == (kind, trials, seed), "report echoes wrong inputs")
    expect(rep.violations == 0, f"{rep.violations} dpi violations for {kind}")


def check_randomization(rep, e, e2, pi, trials, seed) -> None:
    expect((rep.trials, rep.seed) == (trials, seed), "report echoes wrong inputs")
    expect(rep.violations == 0, f"{rep.violations} risk-gap violations")
    fwd = deficiency_value(e.matrix, e2.matrix, pi.weights)
    back = deficiency_value(e2.matrix, e.matrix, pi.weights)
    close(rep.epsilon, fwd, "audited directed deficiency")
    close(rep.deficiency, max(fwd, back), "audited deficiency")
    expect(rep.max_abs_gap <= rep.deficiency + 1e-9, "risk gap above the deficiency")


# -- CLI outputs: (exit code, stdout, written report or None) -------------


def _cli_payload(out, code: int = 0) -> dict:
    rc, stdout, _ = out
    expect(rc == code, f"exit code {rc}, expected {code}")
    return json.loads(stdout)


def check_cli_validate(out, kind: str) -> None:
    payload = _cli_payload(out)
    expect(payload["kind"] == kind and payload["valid"] is True, f"validate said {payload}")


def check_cli_minimax(out, p: float) -> None:
    close(_cli_payload(out)["value"], min(p, 1.0 - p), "BSC minimax risk under 0/1 loss")


def check_cli_deficiency(out, p_from: float, p_to: float) -> None:
    payload = _cli_payload(out)
    close(payload["value"], bsc_deficiency(p_from, p_to), "BSC directed deficiency")
    close(payload["reverse_value"], bsc_deficiency(p_to, p_from), "BSC reverse deficiency")


def check_cli_mutual_info(out, p: float) -> None:
    close(_cli_payload(out)["mutual_information"], 1.0 - h2(p), "BSC information in bits")


def check_cli_dpi_report(out, kind: str, trials: int, seed: int) -> None:
    rc, _, written = out
    expect(rc == 0, f"exit code {rc}")
    report = json.loads(written)
    res = report["result"]
    expect(report["command"] == "dpi-check" and report["seed"] == seed, "report header")
    expect((res["kind"], res["trials"], res["violations"], res["ok"]) == (kind, trials, 0, True),
           f"dpi report {res}")
