"""Layered benchmark of expcompare: end-to-end run or traced run of one workload.

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed):

    python3 perfbench/run.py --workload deficiency --seed 1 --seconds 20 --trace 0

Workloads are ``deficiency``, ``decision``, ``audit`` and ``cli`` (see
``workloads.py`` and the README).  With ``--trace 0`` the run times every
operation of whole rounds, for at least ``--seconds`` seconds and at
least ``MIN_OPS`` operations, and reports the end-to-end metrics.  With
``--trace 1`` it runs rounds untraced for half the time, then the same
number of rounds with spans recorded around the public functions of
every layer, and reports the per-layer metrics per round.

Every output is checked against ``oracles.py`` after the timed part,
so the checks and their scipy import cost neither time nor memory in
the measurement.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with the environment, is also written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and its children: with OpenBLAS's default
# of one thread per core, any other busy process on a 2-core machine makes
# lp.solve's dense linear algebra spin-wait, slowing psi on the 465-action
# grid about tenfold.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
MIN_OPS = 100
SETUP_REPEATS = 9
CLI_PROBE_REPEATS = 5
WORKLOADS = ("deficiency", "decision", "audit", "cli")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_child(argv, root: Path, cwd: Path) -> tuple[int, str, float, float]:
    """Run one process to its end: exit code, stdout, seconds, peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, stdout, elapsed, usage.ru_maxrss / 1024.0


def _setup_seconds(name: str, seed: int, root: Path, work: Path) -> float:
    """Median over fresh processes of ``import expcompare`` plus input generation."""
    times = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                str(work / f"probe{k}")]
        code, out, _, _ = _run_child(argv, root, root)
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
        times.append(float(out.split()[-1]))
    return statistics.median(times)


class Runner:
    """Executes operations and keeps what the checks need.

    The first output of every operation is kept for the oracle checks;
    each later output of the same operation must pickle to the same bytes
    (the solver is deterministic), which is checked outside the timing.
    """

    def __init__(self, ops, execute) -> None:
        self.ops = ops
        self.execute = execute
        self.first: dict[int, object] = {}
        self.digest: dict[int, bytes] = {}
        self.errors: dict[int, str] = {}
        self.mismatches: list[str] = []
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0

    def round(self) -> None:
        for i, op in enumerate(self.ops):
            start = time.perf_counter()
            try:
                out = self.execute(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.durations.append(time.perf_counter() - start)
                self.attempted += 1
                self.failed += 1
                self.errors.setdefault(i, f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            self.durations.append(time.perf_counter() - start)
            self.attempted += 1
            digest = pickle.dumps(out)
            if i not in self.digest:
                self.first[i], self.digest[i] = out, digest
            elif digest != self.digest[i]:
                self.mismatches.append(f"{op.kind} #{i}: output changed between rounds")

    def rounds_for(self, seconds: float, min_ops: int = 0) -> tuple[int, float]:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ran."""
        start = time.perf_counter()
        n = 0
        while True:
            self.round()
            n += 1
            wall = time.perf_counter() - start
            if wall >= seconds and len(self.durations) >= min_ops:
                return n, wall

    def rounds(self, n: int) -> float:
        start = time.perf_counter()
        for _ in range(n):
            self.round()
        return time.perf_counter() - start

    def typical(self) -> list[float]:
        """Each operation's median time over the rounds run."""
        n = len(self.ops)
        return [statistics.median(self.durations[i::n]) for i in range(n)]

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for k, t in enumerate(self.durations):
            out.setdefault(self.ops[k % len(self.ops)].kind, []).append(t)
        return out

    def check(self) -> list[str]:
        import oracles

        problems = list(self.mismatches)
        for i, out in self.first.items():
            op = self.ops[i]
            try:
                getattr(oracles, op.check)(out, *op.check_args)
            except oracles.CheckError as exc:
                problems.append(f"{op.kind} #{i}: {exc}")
        return problems


def _in_process(xc_modules):
    def execute(op):
        module, attr = op.call.split(".")
        return getattr(xc_modules[module], attr)(*op.args)

    return execute


def _cli_subprocess(root: Path, work: Path):
    peak = [0.0]

    def execute(op):
        argv = [sys.executable, "-m", "expcompare.cli", *op.args]
        code, stdout, _, rss = _run_child(argv, root, work)
        peak[0] = max(peak[0], rss)
        return code, stdout, Path(op.out).read_text(encoding="utf-8") if op.out else None

    return execute, peak


def _cli_in_process(cli_module):
    def execute(op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_module.main(list(op.args))
        return code, buf.getvalue(), Path(op.out).read_text(encoding="utf-8") if op.out else None

    return execute


def _lane_parity(runner: Runner) -> list[str]:
    """Identical deficiency optima on every kernel lane that imports."""
    from expcompare import compare, lp

    lanes = lp.available_kernels()
    if len(lanes) < 2:
        return []
    default = lp.active_kernel()
    problems = []
    try:
        for i, op in enumerate(runner.ops):
            if op.call != "compare.directed_deficiency":
                continue
            values = set()
            for lane in lanes:
                lp.use_kernel(lane)
                values.add(compare.directed_deficiency(*op.args).value)
            if len(values) != 1:
                problems.append(f"{op.kind} #{i}: kernel lanes disagree: {sorted(values)}")
    finally:
        lp.use_kernel(default)
    return problems


def _trace_targets():
    from expcompare import compare, core, divergence, fileio, loss, lp, risk

    def cells(p):
        return (p.a_eq.shape[0] + p.a_ub.shape[0]) * p.n_vars

    plain = {
        compare: ("directed_deficiency", "divides", "deficiency", "randomization_check"),
        risk: ("min_bayes_risk", "minimax_risk", "is_admissible", "complete_class_check",
               "reverse", "bias_variance", "risk_profile"),
        loss: ("psi", "support_gap", "is_achievable", "entropy", "canonical_loss"),
        core: ("compose", "product", "replicate", "push"),
        divergence: ("dpi_check", "mutual_information", "risk_gap", "variational",
                     "phi_divergence", "shannon_entropy"),
        fileio: ("load_object", "load_any", "load_experiment", "load_loss", "load_prior",
                 "load_rule", "save_object"),
    }
    targets = [("lp.solve", lp, "solve", cells)]
    for mod, names in plain.items():
        layer = mod.__name__.rsplit(".", 1)[-1]
        targets += [(f"{layer}.{n}", mod, n, None) for n in names]
    return targets


def _layer_metrics(tracer, rounds: int) -> dict[str, tuple[float, str]]:
    from tracer import median_ms

    agg = tracer.summary()

    def get(name, key):
        return agg[name][key] / rounds if name in agg else 0

    def fileio_self(prefix):
        return sum(a["self_s"] for n, a in agg.items() if n.startswith(prefix)) / rounds

    solve = agg.get("lp.solve", {"durations": []})
    return {
        "lp.solve.calls": (get("lp.solve", "calls"), "count"),
        "lp.solve.self_s": (get("lp.solve", "self_s"), "s"),
        "lp.solve.p50_ms": (median_ms(solve["durations"]), "ms"),
        "lp.program_cells": (get("lp.solve", "count"), "count"),
        "compare.directed_deficiency.calls": (get("compare.directed_deficiency", "calls"), "count"),
        "compare.directed_deficiency.self_s": (get("compare.directed_deficiency", "self_s"), "s"),
        "compare.randomization_check.self_s": (get("compare.randomization_check", "self_s"), "s"),
        "risk.minimax_risk.self_s": (get("risk.minimax_risk", "self_s"), "s"),
        "risk.is_admissible.self_s": (get("risk.is_admissible", "self_s"), "s"),
        "risk.complete_class_check.self_s": (get("risk.complete_class_check", "self_s"), "s"),
        "risk.complete_class_check.lp_solves": (
            tracer.nested_calls("risk.complete_class_check", "lp.solve") / rounds, "count"),
        "risk.min_bayes_risk.calls": (get("risk.min_bayes_risk", "calls"), "count"),
        "risk.min_bayes_risk.self_s": (get("risk.min_bayes_risk", "self_s"), "s"),
        "risk.reverse.self_s": (get("risk.reverse", "self_s"), "s"),
        "core.compose.calls": (get("core.compose", "calls"), "count"),
        "core.compose.self_s": (get("core.compose", "self_s"), "s"),
        "divergence.dpi_check.self_s": (get("divergence.dpi_check", "self_s"), "s"),
        "divergence.mutual_information.self_s": (
            get("divergence.mutual_information", "self_s"), "s"),
        "loss.psi.calls": (get("loss.psi", "calls"), "count"),
        "loss.support_gap.self_s": (get("loss.support_gap", "self_s"), "s"),
        "fileio.load_s": (fileio_self("fileio.load"), "s"),
        "fileio.save_s": (fileio_self("fileio.save"), "s"),
    }


def _cli_probes(root: Path) -> tuple[float, float]:
    """Median seconds of a bare interpreter and of a fresh ``import expcompare.cli``."""
    bare, imported = [], []
    for _ in range(CLI_PROBE_REPEATS):
        bare.append(_run_child([sys.executable, "-c", "pass"], root, root)[2])
        imported.append(_run_child([sys.executable, "-c", "import expcompare.cli"],
                                   root, root)[2])
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def _environment() -> dict:
    import numpy
    from expcompare import lp

    return {
        "lp_kernel": lp.active_kernel(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "expcompare" / "__init__.py").is_file():
        print(f"error: {root} is not an expcompare source checkout (no src/expcompare)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    setup_s = _setup_seconds(args.workload, args.seed, root, work)

    from expcompare import cli, compare, core, divergence, fileio, loss, lp, risk

    import workloads
    from tracer import Tracer

    wl = workloads.build(args.workload, args.seed, work / "inputs")
    modules = {"compare": compare, "core": core, "divergence": divergence, "fileio": fileio,
               "loss": loss, "lp": lp, "risk": risk}
    if args.workload == "cli" and args.trace:
        execute, peak = _cli_in_process(cli), None
    elif args.workload == "cli":
        execute, peak = _cli_subprocess(root, work)
    else:
        execute, peak = _in_process(modules), None

    Runner(wl.warmup, execute).round()
    runner = Runner(wl.ops, execute)
    if not args.trace:
        runner.rounds_for(args.seconds, MIN_OPS)
        times = runner.typical()
        rss = peak[0] if peak else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        n_rounds, plain_wall = runner.rounds_for(args.seconds / 2)
        interp = imp = main_s = 0.0
        if args.workload == "cli":
            main_s = statistics.median(runner.durations)
            interp, imp = _cli_probes(root)
        tracer = Tracer()
        xc_modules = [m for n, m in sys.modules.items()
                      if n == "expcompare" or n.startswith("expcompare.")]
        tracer.patch(xc_modules, _trace_targets())
        try:
            traced_wall = runner.rounds(n_rounds)
        finally:
            tracer.restore()
        metrics = _layer_metrics(tracer, n_rounds)
        metrics["cli.interpreter_s"] = (interp, "s")
        metrics["cli.import_s"] = (imp, "s")
        metrics["cli.main_s"] = (main_s, "s")
        metrics["trace.overhead_s"] = ((traced_wall - plain_wall) / n_rounds, "s")
        tracer.dump(work / "spans.json")

    problems = runner.check() + _lane_parity(runner)
    env = _environment()
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"operations attempted={runner.attempted} failed={runner.failed} "
          f"per_round={len(wl.ops)}")
    for msg in sorted(set(runner.errors.values())):
        print(f"failed operation: {msg}")
    for msg in problems[:20]:
        print(f"check failed: {msg}")
    for kind, times in sorted(runner.by_kind().items()):
        print(f"class {kind}: {len(times)} ops, median {statistics.median(times):.4g} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "workload": args.workload,
                    "seed": args.seed, "seconds": args.seconds}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
