import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import labeled, random_distribution, random_loss, random_markov

from expcompare import (
    ArgumentError,
    Distribution,
    LabeledSet,
    LossMatrix,
    PhiSpec,
    Transition,
    binary_symmetric,
    compose,
    dpi_check,
    identity,
    log_loss_grid,
    min_bayes_risk,
    mutual_information,
    phi_divergence,
    point_mass,
    push,
    randomization_check,
    reverse,
    risk_gap,
    shannon_entropy,
    terminal,
    uniform,
    variational,
    zero_one_loss,
)
from expcompare import _samplers, compare, divergence, risk
from expcompare._samplers import TRIAL_BLOCK
from expcompare.core import EPS_TOL

THETA = LabeledSet(("-1", "1"))
UNIF = uniform(THETA)
BSC01 = binary_symmetric(0.1)

H_09_01 = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)  # 0.325082973391448...


def dist(weights, space=THETA):
    return Distribution(space, weights)


positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3
)


class TestVariational:
    def test_identity(self):
        P = dist([0.4, 0.6])
        assert variational(P, P) == 0.0

    def test_disjoint_point_masses(self):
        assert variational(point_mass(THETA, "-1"), point_mass(THETA, "1")) == 1.0

    def test_hand_value(self):
        assert variational(dist([0.9, 0.1]), dist([0.1, 0.9])) == pytest.approx(0.8)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(90)
        for _ in range(40):
            space = labeled("z", int(rng.integers(2, 6)))
            P, Q = (random_distribution(rng, space) for _ in range(2))
            v = variational(P, Q)
            assert v == variational(Q, P)
            assert 0.0 <= v <= 1.0

    @settings(max_examples=80, deadline=None)
    @given(a=positive_weights, b=positive_weights, c=positive_weights)
    def test_triangle_inequality(self, a, b, c):
        space = labeled("z", 3)
        P, Q, R = (
            Distribution(space, np.asarray(w) / np.sum(w)) for w in (a, b, c)
        )
        assert variational(P, R) <= variational(P, Q) + variational(Q, R) + 1e-12

    def test_indiscernibles(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            space = labeled("z", 4)
            P = random_distribution(rng, space)
            assert variational(P, Distribution(space, P.weights.copy())) <= 1e-12


class TestPhiDivergence:
    @pytest.mark.parametrize(
        "spec", [PhiSpec.total_variation(), PhiSpec.kl(), PhiSpec.chi2()]
    )
    def test_zero_at_equal_arguments(self, spec):
        rng = np.random.default_rng(92)
        P = random_distribution(rng, labeled("z", 4))
        assert phi_divergence(spec, P, P) == pytest.approx(0.0, abs=1e-12)

    def test_absolute_ratio_weight_doubles_the_variation(self):
        spec = PhiSpec("l1", lambda x: abs(x - 1.0), tail_slope=1.0)
        P, Q = dist([0.9, 0.1]), dist([0.1, 0.9])
        assert phi_divergence(spec, P, Q) == pytest.approx(1.6)
        assert phi_divergence(spec, P, Q) == pytest.approx(2 * variational(P, Q))

    def test_kl_support_violation_is_infinite(self):
        assert math.isinf(
            phi_divergence(PhiSpec.kl(), point_mass(THETA, "-1"), point_mass(THETA, "1"))
        )

    def test_kl_zero_mass_in_second_argument_is_finite(self):
        # Q vanishing where P does not contributes x log x -> 0
        P, Q = dist([0.5, 0.5]), point_mass(THETA, "-1")
        assert phi_divergence(PhiSpec.kl(), P, Q) == pytest.approx(math.log(2))

    def test_nonnegative_and_separating(self):
        rng = np.random.default_rng(93)
        kl = PhiSpec.kl()
        for _ in range(60):
            space = labeled("z", int(rng.integers(2, 5)))
            P, Q = (random_distribution(rng, space) for _ in range(2))
            d = phi_divergence(kl, P, Q)
            assert d >= -1e-12
            if np.abs(P.weights - Q.weights).sum() >= 0.01:
                assert d > 0.0

    def test_spec_validation(self):
        with pytest.raises(ArgumentError):
            PhiSpec("off", lambda x: x)  # phi(1) != 0
        with pytest.raises(ArgumentError):
            PhiSpec("concave", lambda x: -((x - 1.0) ** 2))


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy(point_mass(THETA, "-1")) == 0.0

    def test_uniform_binary(self):
        assert shannon_entropy(UNIF) == pytest.approx(math.log(2), abs=1e-15)

    def test_lopsided(self):
        assert shannon_entropy(dist([0.9, 0.1])) == pytest.approx(0.325083, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(94)
        for _ in range(30):
            space = labeled("z", int(rng.integers(2, 6)))
            P = random_distribution(rng, space)
            h = shannon_entropy(P)
            assert -1e-12 <= h <= math.log(len(space)) + 1e-12


class TestMutualInformation:
    def test_no_information(self):
        assert mutual_information(terminal(THETA), UNIF) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_information(self):
        assert mutual_information(identity(THETA), UNIF) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_binary_symmetric_closed_form(self):
        want = math.log(2) - H_09_01  # 0.368064 nats
        got = mutual_information(BSC01, UNIF)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.368064, abs=1e-4)

    def test_bounds(self):
        rng = np.random.default_rng(95)
        for _ in range(30):
            unknowns = labeled("t", int(rng.integers(2, 5)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 5))))
            pi = random_distribution(rng, unknowns)
            mi = mutual_information(e, pi)
            assert mi >= -1e-9
            assert mi <= min(shannon_entropy(pi), math.log(len(e.target))) + 1e-9

    def test_matches_expected_posterior_entropy(self):
        # reference: H(pi) - sum_z m_z H(post_z) from the reversal, with a
        # zero prior weight and an observation of zero mass in half the cases
        rng = np.random.default_rng(96)
        for i in range(40):
            unknowns = labeled("t", int(rng.integers(2, 5)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 5))))
            pi = random_distribution(rng, unknowns)
            if i % 2:
                m = e.matrix.copy()
                m[0] += m[-1]
                m[-1] = 0.0
                e = Transition(unknowns, e.target, m)
                w = pi.weights.copy()
                w[-1] = 0.0
                pi = Distribution(unknowns, w / w.sum())
            rev = reverse(e, pi)
            cond = sum(
                rev.marginal[z] * shannon_entropy(Distribution(unknowns, rev.posterior.matrix[:, k]))
                for k, z in enumerate(e.target.labels)
                if z in rev.support
            )
            assert mutual_information(e, pi) == pytest.approx(
                shannon_entropy(pi) - cond, abs=1e-12
            )


class TestRiskGap:
    def test_binary_zero_one_gap_is_half_the_variation(self):
        L01 = zero_one_loss(THETA)
        gap = risk_gap(L01, BSC01, UNIF)
        assert gap == pytest.approx(0.4, abs=1e-12)
        cols = [BSC01.column(t) for t in THETA.labels]
        assert gap == pytest.approx(0.5 * variational(cols[0], cols[1]), abs=1e-12)

    def test_subset_form_of_the_gap(self):
        # gap == 0.5 * max over outcome subsets of the mass difference
        L01 = zero_one_loss(THETA)
        for flip in (0.1, 0.25, 0.4):
            e = binary_symmetric(flip)
            outcomes = range(len(e.target))
            best = max(
                sum(e.matrix[z, 0] - e.matrix[z, 1] for z in subset)
                for r in range(len(e.target) + 1)
                for subset in combinations(outcomes, r)
            )
            assert risk_gap(L01, e, UNIF) == pytest.approx(0.5 * best, abs=1e-12)

    def test_uninformative_gap_is_zero(self):
        L01 = zero_one_loss(THETA)
        assert risk_gap(L01, terminal(THETA), UNIF) == pytest.approx(0.0, abs=1e-12)

    def test_log_loss_gap_tracks_mutual_information(self):
        grid = log_loss_grid(THETA, 64)
        for flip in (0.1, 0.3):
            e = binary_symmetric(flip)
            assert risk_gap(grid, e, UNIF) == pytest.approx(
                mutual_information(e, UNIF), abs=1e-2
            )

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(96)
        for _ in range(25):
            unknowns = labeled("t", int(rng.integers(2, 4)))
            L = random_loss(rng, unknowns, int(rng.integers(2, 4)))
            e = random_markov(rng, unknowns, labeled("z", int(rng.integers(2, 4))))
            pi = random_distribution(rng, unknowns)
            assert risk_gap(L, e, pi) >= -1e-9


class TestDpiCheck:
    @pytest.mark.parametrize("kind", ["variational", "phi", "mutual_information", "risk_gap"])
    def test_no_violations(self, kind):
        rep = dpi_check(kind, trials=120, seed=7)
        assert rep.ok
        assert rep.max_excess <= 1e-9

    def test_permutation_preserves_mutual_information(self):
        from expcompare import compose, from_function

        rng = np.random.default_rng(97)
        for _ in range(10):
            space = labeled("z", 3)
            e = random_markov(rng, THETA, space)
            pi = random_distribution(rng, THETA)
            perm = from_function(space, space, {"z0": "z2", "z1": "z0", "z2": "z1"})
            assert mutual_information(compose(perm, e), pi) == pytest.approx(
                mutual_information(e, pi), abs=1e-9
            )

    def test_terminal_processing_kills_the_risk_gap(self):
        from expcompare import compose, risk_gap, zero_one_loss

        L01 = zero_one_loss(THETA)
        original = risk_gap(L01, BSC01, UNIF)
        crushed = risk_gap(L01, compose(terminal(BSC01.target), BSC01), UNIF)
        assert crushed == pytest.approx(0.0, abs=1e-12)
        assert crushed <= original + 1e-12

    def test_deterministic_given_seed(self):
        for kind in divergence.DPI_KINDS:
            a = dpi_check(kind, trials=40, seed=11)
            b = dpi_check(kind, trials=40, seed=11)
            assert a == b

    def test_argument_validation(self):
        with pytest.raises(ArgumentError):
            dpi_check("nope", trials=10)
        with pytest.raises(ArgumentError):
            dpi_check("variational", trials=0)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, False, "3", None, np.float64(3.0)])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(ArgumentError, match="trials"):
            dpi_check("variational", trials=trials)
        e = binary_symmetric(0.2)
        with pytest.raises(ArgumentError, match="trials"):
            randomization_check(e, BSC01, UNIF, trials=trials)

    def test_numpy_integer_trials_accepted(self):
        rep = dpi_check("phi", trials=np.int64(7), seed=3)
        assert rep == dpi_check("phi", trials=7, seed=3)
        assert type(rep.trials) is int
        rand = randomization_check(binary_symmetric(0.2), BSC01, UNIF, trials=np.int32(5))
        assert rand.trials == 5 and type(rand.trials) is int

    def test_every_trial_counts_below_the_slack(self, monkeypatch):
        monkeypatch.setattr(divergence, "DPI_SLACK", -10.0)
        for kind in divergence.DPI_KINDS:
            assert dpi_check(kind, trials=60, seed=5).violations == 60

    def test_undefined_excess_is_neither_violation_nor_maximum(self, monkeypatch):
        # a KL excess of inf - inf is NaN; the per-trial loop's max and > skip it
        blocks = iter([np.array([np.nan, -1.0, np.nan]), np.array([np.nan])])
        monkeypatch.setattr(_samplers, "TRIAL_BLOCK", 3)
        monkeypatch.setattr(divergence, "_dpi_block", lambda *_: next(blocks))
        rep = dpi_check("phi", trials=4)
        assert (rep.violations, rep.max_excess) == (0, -1.0)
        monkeypatch.setattr(divergence, "_dpi_block", lambda *_: np.array([np.nan]))
        assert dpi_check("phi", trials=1).max_excess == -math.inf

    def test_stacked_kl_keeps_the_zero_mass_conventions(self):
        kl = PhiSpec.kl()
        pairs = [
            ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]),  # Q off P's support: inf
            ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]),  # Q vanishes inside it: finite
            ([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]),
        ]
        stack = np.zeros((len(pairs), 4, 2))
        for b, pair in enumerate(pairs):
            stack[b, :3] = np.transpose(pair)
        space = labeled("z", 3)
        want = [phi_divergence(kl, Distribution(space, p), Distribution(space, q)) for p, q in pairs]
        assert divergence._kl(stack).tolist() == want

    def test_stacked_bayes_risk_skips_unsupported_observations(self):
        # observation z0 has joint mass 1e-13: unsupported, as in min_bayes_risk
        L = random_loss(np.random.default_rng(98), THETA, 3)
        m = np.array([[1e-13, 1e-13], [0.3, 1.0 - 1e-13], [0.7, 0.0]])
        e = Transition(THETA, labeled("z", 3), m)
        pi = dist([0.25, 0.75])
        joint = np.zeros((1, 4, 4))
        joint[0, :3, :2] = e.matrix * pi.weights
        loss = np.zeros((1, 4, 4))
        loss[0, :2, :3] = L.values
        actions = (np.arange(4) < 3)[None, None, :]
        want = [min_bayes_risk(L, e, pi).value]
        assert risk._bayes_values(joint, loss, actions).tolist() == want
        assert risk._bayes_values(joint[0], loss, actions).tolist() == want

    def test_stacked_ingestion_checks_only_the_unpadded_columns(self):
        m = np.zeros((2, 4, 4))
        m[:, :2, :3] = [[0.5, 1.0, 0.25], [0.5, -1e-12, 0.75]]
        columns = np.arange(4) < np.array([[3], [3]])
        out = divergence._stochastic(m, columns, "transition matrix")
        want = Transition(labeled("z", 3), labeled("w", 2), m[0, :2, :3]).matrix
        assert np.array_equal(out[0, :2, :3], want)
        assert not out[:, 2:].any() and not out[:, :, 3:].any()
        for cell, value, match in [
            ((0, 1, 2), 0.5, "summing to 0.75"),
            ((1, 0, 0), -0.1, "negative"),
            ((0, 0, 1), np.nan, "non-finite"),
        ]:
            worse = m.copy()
            worse[cell] = value
            with pytest.raises(ArgumentError, match=match):
                divergence._stochastic(worse, columns, "transition matrix")

    def test_memory_is_bounded_by_the_block(self):
        def peak(trials):
            tracemalloc.start()
            try:
                dpi_check("risk_gap", trials=trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(5000) <= 2 * peak(1024)


#: The doubles of one trial of each dpi kind, in the order the ``dpi_check``
#: docstring gives: sizes, post-processing, then P and Q, or experiment,
#: prior and loss.
DPI_FIELDS = {
    "variational": (2, 16, 8),
    "phi": (2, 16, 8),
    "mutual_information": (3, 16, 16, 4),
    "risk_gap": (4, 16, 16, 4, 16),
}


def _flat_dirichlet(u, rows, cols):
    """Flat-Dirichlet columns from a slice read row-major as zero-padded ``4 x (len(u) / 4)``."""
    x = -np.log1p(-u.reshape(4, -1)[:rows, :cols])
    return x / x.sum(axis=0)


def _reference_dpi(kind, trials, seed):
    """The audit one trial at a time, through the objects and functions of the library.

    Trial ``i`` reads row ``i`` of one ``rng.random((trials, W))`` draw.
    """
    fields = DPI_FIELDS[kind]
    kl = PhiSpec.kl()
    violations, max_excess = 0, -math.inf
    for row in np.random.default_rng(seed).random((trials, sum(fields))):
        size, f_u, *rest = np.split(row, np.cumsum(fields)[:-1])
        n_src, n_tgt, *more = (2 + int(3.0 * u) for u in size)
        src, tgt = labeled("z", n_src), labeled("w", n_tgt)
        f = Transition(src, tgt, _flat_dirichlet(f_u, n_tgt, n_src))
        if kind in ("variational", "phi"):
            pq = _flat_dirichlet(rest[0], n_src, 2)
            P, Q = Distribution(src, pq[:, 0]), Distribution(src, pq[:, 1])
            if kind == "variational":
                excess = variational(push(f, P), push(f, Q)) - variational(P, Q)
            else:
                excess = phi_divergence(kl, push(f, P), push(f, Q)) - phi_divergence(kl, P, Q)
        else:
            unknowns = labeled("t", more[0])
            e = Transition(unknowns, src, _flat_dirichlet(rest[0], n_src, more[0]))
            pi = Distribution(unknowns, _flat_dirichlet(rest[1], more[0], 1)[:, 0])
            noisy = compose(f, e)
            if kind == "mutual_information":
                excess = mutual_information(noisy, pi) - mutual_information(e, pi)
            else:
                values = 2.0 * rest[2].reshape(4, 4)[: more[0], : more[1]] - 1.0
                L = LossMatrix(unknowns, labeled("a", more[1]), values)
                excess = risk_gap(L, noisy, pi) - risk_gap(L, e, pi)
        if excess > divergence.DPI_SLACK:
            violations += 1
        max_excess = max(max_excess, excess)
    return violations, max_excess


class TestDpiEquivalence:
    """The stacked audit against the per-trial reference on seeded instances."""

    @staticmethod
    def _check(kind, trials, seed):
        rep = dpi_check(kind, trials=trials, seed=seed)
        violations, max_excess = _reference_dpi(kind, trials, seed)
        assert (rep.kind, rep.trials, rep.seed) == (kind, trials, seed)
        assert rep.violations == violations
        assert abs(rep.max_excess - max_excess) <= 1e-12

    @pytest.mark.parametrize("kind", ["variational", "phi", "mutual_information", "risk_gap"])
    def test_matches_per_trial_reference(self, kind):
        rng = np.random.default_rng(9300 + divergence.DPI_KINDS.index(kind))
        for i in range(200):
            trials = 1 if i % 20 == 0 else int(rng.integers(1, 40))
            self._check(kind, trials, int(rng.integers(1 << 30)))
        # across block boundaries, up to 2,500 trials
        for trials in (TRIAL_BLOCK + 1, int(rng.integers(2049, 2501))):
            self._check(kind, trials, int(rng.integers(1 << 30)))

    @pytest.mark.parametrize("block", [1, 7])
    def test_small_blocks_match_per_trial_reference(self, block, monkeypatch):
        monkeypatch.setattr(_samplers, "TRIAL_BLOCK", block)
        rng = np.random.default_rng(9400 + block)
        for kind in divergence.DPI_KINDS:
            for _ in range(10):
                self._check(kind, int(rng.integers(1, 30)), int(rng.integers(1 << 30)))

    @pytest.mark.parametrize("kind", ["variational", "phi", "mutual_information", "risk_gap"])
    def test_reports_do_not_depend_on_the_block_size(self, kind, monkeypatch):
        reports = []
        for block in (1, 7, 1024):
            monkeypatch.setattr(_samplers, "TRIAL_BLOCK", block)
            reports.append(dpi_check(kind, trials=1030, seed=17))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("kind", ["variational", "phi", "mutual_information", "risk_gap"])
    def test_a_longer_run_scores_the_same_first_trials(self, kind, monkeypatch):
        monkeypatch.setattr(_samplers, "TRIAL_BLOCK", 7)
        block, scored = divergence._dpi_block, []
        monkeypatch.setattr(divergence, "_dpi_block", lambda *a: scored.append(block(*a)) or scored[-1])

        def excesses(trials):
            scored.clear()
            dpi_check(kind, trials=trials, seed=23)
            return np.concatenate(scored)

        assert np.array_equal(excesses(25), excesses(50)[:25], equal_nan=True)


def _recorder(monkeypatch, module, name):
    """Replace the draw ``module.name(u, cells)`` by one that also records ``(cells, draw)``."""
    draw, calls = getattr(module, name), []

    def record(u, cells):
        out = draw(u, cells)
        calls.append((np.broadcast_to(cells, out.shape), out))
        return out

    monkeypatch.setattr(module, name, record)
    return calls


def _assert_uniform_sizes(counts):
    """Sizes hit each of 2, 3 and 4, each within five standard errors of a third."""
    share = np.bincount(counts, minlength=5) / counts.size
    assert share[:2].sum() == 0.0 and share[2:].min() > 0.0
    assert np.abs(share[2:] - 1.0 / 3.0).max() <= 5.0 * math.sqrt(2.0 / 9.0 / counts.size)


def _assert_uniform_losses(calls):
    """Padded cells are exact zeros; the rest lie in [-1, 1) with mean 0 within five standard errors."""
    for cells, loss in calls:
        assert not loss[~cells].any()
    values = np.concatenate([loss[cells] for cells, loss in calls])
    assert values.min() >= -1.0 and values.max() < 1.0
    assert abs(values.mean()) <= 5.0 * math.sqrt(1.0 / 3.0 / values.size)
    _assert_uniform_sizes(np.concatenate([cells.any(axis=1).sum(axis=1) for cells, _ in calls]))


class TestSampledDraws:
    """The laws of the draws, recorded from inside the sampled audits."""

    def test_dpi_draws(self, monkeypatch):
        columns = _recorder(monkeypatch, divergence, "dirichlet")
        losses = _recorder(monkeypatch, divergence, "uniform_loss")
        dpi_check("risk_gap", trials=30_000, seed=3)
        for cells, m in columns:
            assert not m[~cells].any()
            used = cells.any(axis=1)
            assert np.abs(m.sum(axis=1)[used] - 1.0).max() <= EPS_TOL
        # the post-processings' and experiments' rows and columns count the
        # target, source and unknowns outcomes of each trial
        square = [cells for cells, _ in columns if cells.shape[-1] == 4]
        _assert_uniform_sizes(np.concatenate(
            [c.any(axis=axis).sum(axis=1) for c in square for axis in (1, 2)]
        ))
        _assert_uniform_losses(losses)
        # entries of flat-Dirichlet columns of k rows are Beta(1, k - 1)
        for k in (2, 3, 4):
            x = np.concatenate([
                m.transpose(0, 2, 1)[cells.sum(axis=1) == k][:, :k] for cells, m in columns
            ])
            m2, m4 = 2.0 / (k * (k + 1)), 24.0 / (k * (k + 1) * (k + 2) * (k + 3))
            var = m2 - 1.0 / k**2
            assert np.abs(x.mean(axis=0) - 1.0 / k).max() <= 5.0 * math.sqrt(var / len(x))
            assert np.abs((x**2).mean(axis=0) - m2).max() <= 5.0 * math.sqrt((m4 - m2**2) / len(x))

    def test_randomization_draws(self, monkeypatch):
        losses = _recorder(monkeypatch, compare, "uniform_loss")
        randomization_check(binary_symmetric(0.2), BSC01, UNIF, trials=30_000, seed=3)
        _assert_uniform_losses(losses)
