"""Seeded inputs and operation lists for the four workloads.

A workload is one *round*: a fixed list of operations, each a single
call into expcompare's public API (or, for ``cli``, one command-line
process).  The runner repeats whole rounds, so every run attempts the
same mix.  All inputs are drawn from ``numpy.random.default_rng(seed)``
here; the program only ever sees the finished matrices.

Sizes and operations are fixed by the program's current faults as much
as by its speed: the cases the README lists as left out fail on some
random instances only, and a benchmark whose failure count depends on
the seed cannot compare runs.  The one failing operation kept
(``FAILING_COMPLETE_CLASS_SEED``) fails the same way on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from expcompare import fileio
from expcompare.core import Distribution, LabeledSet, Transition
from expcompare.loss import LossMatrix, log_loss_grid, zero_one_loss


@dataclass(frozen=True)
class Op:
    """One operation: ``expcompare.<call>(*args)``, checked by ``oracles.<check>``.

    ``call`` is looked up when the operation runs, so a traced run sees
    the traced wrapper.  For the ``cli`` workload ``call`` is ``"cli"``,
    ``args`` is the argument vector and ``out`` the file it writes.
    """

    kind: str
    call: str
    args: tuple
    check: str
    extra: tuple = ()
    out: str | None = None

    @property
    def check_args(self) -> tuple:
        """What the check takes after the output: the call's inputs, then ``extra``."""
        return self.extra if self.call == "cli" else self.args + self.extra


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)


def _labels(prefix: str, n: int) -> LabeledSet:
    return LabeledSet(tuple(f"{prefix}{i}" for i in range(n)))


def _markov(rng, source: LabeledSet, target: LabeledSet) -> Transition:
    return Transition(source, target, rng.dirichlet(np.ones(len(target)), size=len(source)).T)


def _prior(rng, space: LabeledSet) -> Distribution:
    return Distribution(space, rng.dirichlet(np.ones(len(space))))


def _loss(rng, unknowns: LabeledSet, n_actions: int) -> LossMatrix:
    return LossMatrix(unknowns, _labels("a", n_actions),
                      rng.uniform(0.0, 1.0, (len(unknowns), n_actions)))


def _rule(rng, obs: LabeledSet, actions: LabeledSet) -> Transition:
    """A deterministic rule choosing a uniform random action per observation."""
    m = np.zeros((len(actions), len(obs)))
    m[rng.integers(0, len(actions), len(obs)), np.arange(len(obs))] = 1.0
    return Transition(obs, actions, m)


def _shuffled(rng, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# -- deficiency ----------------------------------------------------------

#: (|T| = |Z| = |W|, directed_deficiency on random pairs, divides on
#: random pairs, divides on divisible pairs F.e) per round.
DEFICIENCY_MIX = ((4, 72, 24, 24), (6, 48, 16, 16))


def deficiency(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for size, n_dd, n_rand, n_div in DEFICIENCY_MIX:
        theta, z, w = _labels("t", size), _labels("z", size), _labels("w", size)
        for _ in range(n_dd):
            args = (_markov(rng, theta, z), _markov(rng, theta, w), _prior(rng, theta))
            ops.append(Op(f"directed_deficiency/{size}", "compare.directed_deficiency",
                          args, "check_directed_deficiency"))
        for _ in range(n_rand):
            args = (_markov(rng, theta, z), _markov(rng, theta, w))
            ops.append(Op(f"divides/{size}", "compare.divides", args, "check_divides"))
        for _ in range(n_div):
            e = _markov(rng, theta, z)
            f = rng.dirichlet(np.ones(size), size=size).T
            args = (e, Transition(theta, w, f @ e.matrix))
            ops.append(Op(f"divides/{size}", "compare.divides", args, "check_divides"))
    ops = _shuffled(rng, ops)
    return Workload(ops, warmup=ops[:20])


# -- decision ------------------------------------------------------------

#: |T|, |Z|, |A| of the admissibility instances.
DECISION_SIZE = (6, 24, 12)
GRID_UNKNOWNS, GRID_RESOLUTION = 3, 32  # log-loss lattice with C(31, 2) = 465 actions
#: Operations per round.
DECISION_MIX = {"admissible": 8, "psi": 12, "achievable": 6, "bias_variance": 6}
#: Observations of the bias/variance experiments: four selected actions
#: average ten support-height LPs per call, which keeps the per-call time
#: of this class (the 90th percentile) within about 8% across inputs.
BIAS_VARIANCE_OBSERVATIONS = 4
#: Seed of the fixed 243-rule complete-class instance (|T|=3, |Z|=5,
#: |A|=3) whose domination LP for the 152nd rule cycles until the pivot
#: limit.  It is the one operation that fails, on every seed.
FAILING_COMPLETE_CLASS_SEED = 42


def _failing_complete_class() -> tuple[LossMatrix, Transition]:
    rng = np.random.default_rng(FAILING_COMPLETE_CLASS_SEED)
    theta = _labels("t", 3)
    return _loss(rng, theta, 3), _markov(rng, theta, _labels("z", 5))


def decision(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    mix = DECISION_MIX
    n_t, n_z, n_a = DECISION_SIZE
    theta, obs = _labels("t", n_t), _labels("z", n_z)
    ops = []
    for _ in range(mix["admissible"]):
        L = _loss(rng, theta, n_a)
        args = (L, _markov(rng, theta, obs), _rule(rng, obs, L.actions))
        ops.append(Op("is_admissible", "risk.is_admissible", args, "check_is_admissible"))
    grid = log_loss_grid(_labels("t", GRID_UNKNOWNS), GRID_RESOLUTION)
    acts = grid.actions.labels
    for k in range(mix["psi"]):
        if k % 2 == 0:  # an achievable column: its height is its mean
            col = grid.column(acts[rng.integers(len(acts))])
            ops.append(Op("psi", "loss.psi", (grid, col - col.mean()),
                          "check_achievable_column", (float(col.mean()),)))
        else:
            v = rng.uniform(-1.0, 1.0, GRID_UNKNOWNS)
            ops.append(Op("psi", "loss.psi", (grid, v - v.mean()), "check_psi"))
    for _ in range(mix["achievable"]):
        args = (grid, acts[rng.integers(len(acts))])
        ops.append(Op("is_achievable", "loss.is_achievable", args, "check_is_achievable"))
    for _ in range(mix["bias_variance"]):
        e = _markov(rng, grid.unknowns, _labels("z", BIAS_VARIANCE_OBSERVATIONS))
        args = (grid, e, _rule(rng, e.target, grid.actions),
                grid.unknowns.labels[rng.integers(GRID_UNKNOWNS)])
        ops.append(Op("bias_variance", "risk.bias_variance", args, "check_bias_variance"))
    ops.append(Op("complete_class_check/fixed", "risk.complete_class_check",
                  _failing_complete_class(), "check_complete_class"))
    ops = _shuffled(rng, ops)
    return Workload(ops, warmup=[op for op in ops if op.kind == "psi"][:4])


# -- audit ---------------------------------------------------------------

DPI_KINDS = ("variational", "phi", "mutual_information", "risk_gap")
DPI_TRIALS = 50
RANDOMIZATION_TRIALS = 200
#: randomization_check operations per round: the slowest class, about a
#: sixth of all operations, so the 90th percentile falls inside it.
RANDOMIZATION_CHECKS = 8
#: Structured experiments per round, each used by mutual_information and
#: min_bayes_risk; compose/product/replicate build them once more as ops.
AUDIT_EXPERIMENTS = 12


def _audit_experiment(rng, theta: LabeledSet, k: int) -> tuple[Op, LabeledSet, np.ndarray]:
    """An operation building an experiment, its source set and its matrix by numpy."""
    if k % 3 == 0:
        e = _markov(rng, theta, _labels("z", 3))
        f = _markov(rng, e.target, _labels("w", 4))
        m = f.matrix @ e.matrix
        return Op("compose", "core.compose", (f, e), "check_matrix", (m,)), theta, m
    if k % 3 == 1:
        a = _markov(rng, theta, _labels("x", 2))
        b = _markov(rng, _labels("s", 2), _labels("y", 3))
        m = np.kron(a.matrix, b.matrix)
        op = Op("product", "core.product", ([a, b],), "check_matrix", (m,))
        return op, _labels("u", m.shape[1]), m
    e = _markov(rng, theta, _labels("z", 2))
    m = np.column_stack([np.kron(np.kron(c, c), c) for c in e.matrix.T])
    return Op("replicate", "core.replicate", (e, 3), "check_matrix", (m,)), theta, m


def audit(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for kind in DPI_KINDS:
        args = (kind, DPI_TRIALS, int(rng.integers(2**31)))
        ops.append(Op(f"dpi_check/{kind}", "divergence.dpi_check", args, "check_dpi"))
    theta = _labels("t", 3)
    for _ in range(RANDOMIZATION_CHECKS):
        e, e2 = _markov(rng, theta, _labels("z", 3)), _markov(rng, theta, _labels("w", 4))
        args = (e, e2, _prior(rng, theta), RANDOMIZATION_TRIALS, int(rng.integers(2**31)))
        ops.append(Op("randomization_check", "compare.randomization_check", args,
                      "check_randomization"))
    for k in range(AUDIT_EXPERIMENTS):
        build, source, m = _audit_experiment(rng, theta, k)
        ops.append(build)
        x = Transition(source, _labels("o", m.shape[0]), m)
        pi = _prior(rng, source)
        ops.append(Op("mutual_information", "divergence.mutual_information", (x, pi),
                      "check_mutual_information"))
        ops.append(Op("min_bayes_risk", "risk.min_bayes_risk",
                      (_loss(rng, source, 3), x, pi), "check_min_bayes_risk"))
    ops = _shuffled(rng, ops)
    return Workload(ops, warmup=[op for op in ops if not op.kind.startswith(("dpi", "rand"))])


# -- cli -----------------------------------------------------------------

CLI_DPI_TRIALS = 200
#: Input sets per round; each gives one invocation of each of the five commands.
CLI_SETS = 2


def cli(seed: int, work: Path) -> Workload:
    """JSON inputs on disk and one round of command-line invocations.

    Each input set is a pair of binary symmetric channels ``BSC(p)`` and
    ``BSC(q)`` with ``p < q < 1/2`` drawn from the seed, whose minimax
    risk, deficiencies and information have closed forms, plus a random
    experiment for ``validate``.
    """
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    pm = LabeledSet(("-1", "1"))

    def save(name: str, obj: dict) -> str:
        fileio.save_object(obj, work / name)
        return str(work / name)

    def bsc(name: str, p: float) -> str:
        return save(name, fileio.experiment_to_object(Transition(pm, pm, [[1 - p, p], [p, 1 - p]])))

    zero_one = save("zero_one.json", fileio.loss_to_object(zero_one_loss(pm)))
    machine = ("--format", "machine")
    ops = []
    for k in range(CLI_SETS):
        p, q = float(rng.uniform(0.05, 0.2)), float(rng.uniform(0.25, 0.45))
        bp, bq = bsc(f"bsc_p{k}.json", p), bsc(f"bsc_q{k}.json", q)
        rand = save(f"random{k}.json", fileio.experiment_to_object(
            _markov(rng, _labels("t", 4), _labels("z", int(rng.integers(3, 7))))))
        kind, dpi_seed = DPI_KINDS[k % len(DPI_KINDS)], int(rng.integers(2**31))
        report = str(work / f"dpi_report{k}.json")
        ops += [
            Op("validate", "cli", ("validate", rand) + machine, "check_cli_validate",
               ("experiment",)),
            Op("minimax", "cli", ("minimax", "--experiment", bp, "--loss", zero_one) + machine,
               "check_cli_minimax", (p,)),
            Op("deficiency", "cli", ("deficiency", "--from", bp, "--to", bq,
                                     "--prior", "uniform") + machine,
               "check_cli_deficiency", (p, q)),
            Op("mutual-info", "cli", ("mutual-info", "--experiment", bq, "--prior", "uniform",
                                      "--units", "bits") + machine,
               "check_cli_mutual_info", (q,)),
            Op("report dpi-check", "cli", ("report", "dpi-check", "--kind", kind, "--trials",
                                           str(CLI_DPI_TRIALS), "--seed", str(dpi_seed),
                                           "--out", report),
               "check_cli_dpi_report", (kind, CLI_DPI_TRIALS, dpi_seed), out=report),
        ]
    return Workload(_shuffled(rng, ops), warmup=ops[:1])


BUILDERS = {"deficiency": deficiency, "decision": decision, "audit": audit, "cli": cli}


def build(name: str, seed: int, work: Path) -> Workload:
    return BUILDERS[name](seed, work)
