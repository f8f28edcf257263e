"""Command-line surface.

Every computation is exposed as a subcommand over JSON files (see
``fileio`` for the layouts).  Exit codes follow a scripting contract:
0 for success (and for predicates that hold), 1 for predicates that do
not hold, 2 for any error.  Numbers print with 12 significant digits;
``--format machine`` emits the same payload as JSON.  ``report``
re-runs a subcommand and writes its payload, together with the seed,
tolerances and toolkit version, to a file for batch pipelines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, compare, core, divergence, fileio, lp, risk
from .core import EPS_TOL, uniform
from .errors import ArgumentError, ShapeError, ToolkitError

LN2 = math.log(2.0)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _print_table(payload: dict, indent: str = "") -> None:
    for key, val in payload.items():
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _print_table(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], list):
            print(f"{indent}{key}:")
            for row in val:
                print(indent + "  " + "  ".join(_fmt(float(v)) for v in row))
        elif isinstance(val, list) and all(isinstance(v, (int, float)) for v in val):
            print(f"{indent}{key} = " + "  ".join(_fmt(float(v)) for v in val))
        elif isinstance(val, list):
            print(f"{indent}{key}:")
            for item in val:
                if isinstance(item, dict):
                    _print_table(item, indent + "  ")
                    print()
                else:
                    print(f"{indent}  {item}")
        else:
            print(f"{indent}{key} = {_fmt(val)}")


def _resolve_prior(arg: str, space) -> core.Distribution:
    if arg == "uniform":
        return uniform(space)
    pi = fileio.load_prior(arg)
    if pi.space != space:
        raise ShapeError(
            f"prior labels {pi.space.labels} do not match unknowns {space.labels}"
        )
    return pi


# ---------------------------------------------------------------------------
# handlers: each returns (payload, exit_code)


def _cmd_validate(args):
    kind, value = fileio.load_any(args.path)
    if kind == "experiment":
        summary = f"{len(value.source)} unknowns, {len(value.target)} outcomes"
    elif kind == "loss":
        summary = f"{len(value.unknowns)} unknowns, {len(value.actions)} actions"
    elif kind == "prior":
        summary = f"{len(value.space)} unknowns"
    else:
        summary = f"{len(value.source)} outcomes, {len(value.target)} actions"
    return {"kind": kind, "valid": True, "summary": summary}, 0


def _cmd_risk(args):
    e = fileio.load_experiment(args.experiment)
    L = fileio.load_loss(args.loss)
    d = fileio.load_rule(args.rule)
    profile = risk.risk_profile(L, e, d)
    return {
        "risk_profile": {t: float(v) for t, v in zip(L.unknowns.labels, profile.values)}
    }, 0


def _cmd_bayes_risk(args):
    e = fileio.load_experiment(args.experiment)
    L = fileio.load_loss(args.loss)
    d = fileio.load_rule(args.rule)
    pi = _resolve_prior(args.prior, L.unknowns)
    return {"bayes_risk": risk.bayes_risk(L, e, d, pi)}, 0


def _cmd_minimax(args):
    e = fileio.load_experiment(args.experiment)
    L = fileio.load_loss(args.loss)
    res = risk.minimax_risk(L, e)
    return {
        "value": res.value,
        "least_favorable_prior": fileio.prior_to_object(res.least_favorable_prior),
        "rule": fileio.rule_to_object(res.rule),
    }, 0


def _cmd_reverse(args):
    e = fileio.load_experiment(args.experiment)
    pi = _resolve_prior(args.prior, e.source)
    rev = risk.reverse(e, pi)
    return {
        "marginal": fileio.prior_to_object(rev.marginal),
        "posterior": {
            "outcomes": list(rev.posterior.source.labels),
            "theta": list(rev.posterior.target.labels),
            "matrix": rev.posterior.matrix.tolist(),
        },
        "support": list(rev.support),
    }, 0


def _cmd_bias_variance(args):
    e = fileio.load_experiment(args.experiment)
    L = fileio.load_loss(args.loss)
    d = fileio.load_rule(args.rule)
    bv = risk.bias_variance(L, e, d, args.theta)
    pointwise = risk.risk_profile(L, e, d)[args.theta]
    return {
        "theta": args.theta,
        "bias": bv.bias,
        "variance": bv.variance,
        "risk": pointwise,
    }, 0


def _cmd_divides(args):
    e = fileio.load_experiment(args.from_path)
    e2 = fileio.load_experiment(args.to_path)
    tol = compare.DIVIDES_TOL if args.tol is None else args.tol
    ok, witness = compare.divides(e, e2, tol=tol)
    payload = {"divides": ok}
    if witness is not None:
        payload["witness"] = fileio.rule_to_object(witness)
    return payload, 0 if ok else 1


def _cmd_deficiency(args):
    e = fileio.load_experiment(args.from_path)
    e2 = fileio.load_experiment(args.to_path)
    pi = _resolve_prior(args.prior, e.source)
    fwd = compare.directed_deficiency(e, e2, pi)
    payload = {"value": fwd.value}
    if not args.directed:
        back = compare.directed_deficiency(e2, e, pi)
        payload["reverse_value"] = back.value
        payload["deficiency"] = max(fwd.value, back.value)
    payload["witness"] = fileio.rule_to_object(fwd.witness)
    return payload, 0


def _cmd_sufficient(args):
    e = fileio.load_experiment(args.experiment)
    kind, f = fileio.load_any(args.post)
    if kind not in ("experiment", "rule"):
        raise ArgumentError(f"{args.post}: expected an experiment or a rule file, got a {kind}")
    pi = _resolve_prior(args.prior, e.source)
    # e divides f.e by construction, so the deficiency is the reverse value
    value = compare.directed_deficiency(core.compose(f, e), e, pi).value
    tol = compare.DIVIDES_TOL if args.tol is None else args.tol
    ok = value <= tol
    return {"sufficient": ok, "deficiency": value}, 0 if ok else 1


def _cmd_divergence(args):
    if args.units == "bits" and args.kind != "kl":
        raise ArgumentError(f"--units bits applies to --kind kl only, not {args.kind}")
    P = fileio.load_prior(args.p)
    Q = fileio.load_prior(args.q)
    if P.space != Q.space:
        raise ShapeError("the two distributions live on different label sets")
    if args.kind == "variational":
        value = divergence.variational(P, Q)
    else:
        spec = divergence.PhiSpec.kl() if args.kind == "kl" else divergence.PhiSpec.chi2()
        value = divergence.phi_divergence(spec, P, Q)
        if args.units == "bits":
            value = value / LN2
    return {"kind": args.kind, "units": args.units, "value": value}, 0


def _cmd_mutual_info(args):
    e = fileio.load_experiment(args.experiment)
    pi = _resolve_prior(args.prior, e.source)
    value = divergence.mutual_information(e, pi)
    if args.units == "bits":
        value = value / LN2
    return {"mutual_information": value, "units": args.units}, 0


def _cmd_dpi_check(args):
    rep = divergence.dpi_check(args.kind, trials=args.trials, seed=args.seed)
    return {**dataclasses.asdict(rep), "ok": rep.ok}, 0 if rep.ok else 1


def _cmd_randomization_check(args):
    e = fileio.load_experiment(args.from_path)
    e2 = fileio.load_experiment(args.to_path)
    pi = _resolve_prior(args.prior, e.source)
    rep = compare.randomization_check(e, e2, pi, trials=args.trials, seed=args.seed)
    return {**dataclasses.asdict(rep), "ok": rep.ok}, 0 if rep.ok else 1


def _cmd_metric_check(args):
    experiments = [fileio.load_experiment(p) for p in args.experiments]
    pi = _resolve_prior(args.prior, experiments[0].source)
    rep = compare.metric_check(experiments, pi, trials=args.trials)
    payload = {"experiments": len(experiments), **dataclasses.asdict(rep), "ok": rep.ok}
    return payload, 0 if rep.ok else 1


def _cmd_complete_class(args):
    e = fileio.load_experiment(args.experiment)
    L = fileio.load_loss(args.loss)
    rep = risk.complete_class_check(L, e, cap=args.cap)
    rules = [
        {
            "actions": list(r.actions),
            "risk": r.risk.tolist(),
            "admissible": r.admissible,
            "prior": None if r.prior is None else r.prior.weights.tolist(),
        }
        for r in rep.rules
    ]
    return {
        "rules": rules,
        "every_admissible_has_prior": rep.every_admissible_has_prior,
        "ok": rep.ok,
    }, 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# parser assembly


def _add_units(p: argparse.ArgumentParser) -> None:
    p.add_argument("--units", choices=("nats", "bits"), default="nats")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="override decision tolerance")


def _conf_validate(p):
    p.add_argument("path")


def _conf_risk(p):
    p.add_argument("--experiment", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--rule", required=True)


def _conf_bayes_risk(p):
    _conf_risk(p)
    p.add_argument("--prior", required=True, help="prior file or 'uniform'")


def _conf_minimax(p):
    p.add_argument("--experiment", required=True)
    p.add_argument("--loss", required=True)


def _conf_reverse(p):
    p.add_argument("--experiment", required=True)
    p.add_argument("--prior", required=True)


def _conf_bias_variance(p):
    _conf_risk(p)
    p.add_argument("--theta", required=True)


def _conf_pair(p):
    p.add_argument("--from", dest="from_path", required=True)
    p.add_argument("--to", dest="to_path", required=True)


def _conf_divides(p):
    _conf_pair(p)
    _add_tol(p)


def _conf_deficiency(p):
    _conf_pair(p)
    p.add_argument("--prior", required=True)
    p.add_argument("--directed", action="store_true", help="skip the reverse direction")


def _conf_sufficient(p):
    p.add_argument("--experiment", required=True)
    p.add_argument("--post", required=True, help="post-processing file, experiment or rule layout")
    p.add_argument("--prior", required=True)
    _add_tol(p)


def _conf_divergence(p):
    p.add_argument("--kind", choices=("variational", "kl", "chi2"), required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    _add_units(p)


def _conf_mutual_info(p):
    p.add_argument("--experiment", required=True)
    p.add_argument("--prior", required=True)
    _add_units(p)


def _conf_dpi_check(p):
    p.add_argument(
        "--kind",
        choices=("variational", "phi", "mutual_information", "risk_gap"),
        required=True,
    )
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)


def _conf_randomization_check(p):
    _conf_pair(p)
    p.add_argument("--prior", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)


def _conf_metric_check(p):
    p.add_argument("--experiments", nargs="+", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--trials", type=int, default=None)


def _conf_complete_class(p):
    p.add_argument("--experiment", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--cap", type=int, default=risk.ENUMERATION_CAP)


_COMMANDS = {
    "validate": (_conf_validate, _cmd_validate, "validate a JSON input file"),
    "risk": (_conf_risk, _cmd_risk, "pointwise risk profile of a rule"),
    "bayes-risk": (_conf_bayes_risk, _cmd_bayes_risk, "prior-averaged risk of a rule"),
    "minimax": (_conf_minimax, _cmd_minimax, "minimax rule and least favorable prior"),
    "reverse": (_conf_reverse, _cmd_reverse, "posterior reversal of an experiment"),
    "bias-variance": (_conf_bias_variance, _cmd_bias_variance, "risk split at one unknown"),
    "divides": (_conf_divides, _cmd_divides, "exact divisibility with witness"),
    "deficiency": (_conf_deficiency, _cmd_deficiency, "directed/symmetrized deficiency"),
    "sufficient": (_conf_sufficient, _cmd_sufficient, "post-processing sufficiency test"),
    "divergence": (_conf_divergence, _cmd_divergence, "divergence between two distributions"),
    "mutual-info": (_conf_mutual_info, _cmd_mutual_info, "mutual information of an experiment"),
    "dpi-check": (_conf_dpi_check, _cmd_dpi_check, "sampled data-processing audit"),
    "randomization-check": (
        _conf_randomization_check,
        _cmd_randomization_check,
        "risk-gap audit of the deficiency bound",
    ),
    "metric-check": (_conf_metric_check, _cmd_metric_check, "metric audit of deficiency over a family"),
    "complete-class": (_conf_complete_class, _cmd_complete_class, "admissible rules and their priors"),
}

_REPORTABLE = (
    "deficiency",
    "divides",
    "dpi-check",
    "randomization-check",
    "metric-check",
    "complete-class",
    "mutual-info",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcompare",
        description="compare finite statistical experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (conf, handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        conf(p)
        p.add_argument("--format", choices=("table", "machine"), default="table")
        p.set_defaults(handler=handler)

    rp = sub.add_parser("report", help="run a subcommand and write its payload to a file")
    rsub = rp.add_subparsers(dest="report_kind", required=True)
    for name in _REPORTABLE:
        conf, handler, _ = _COMMANDS[name]
        p = rsub.add_parser(name)
        conf(p)
        p.add_argument("--out", required=True, help="output file path")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
        payload = _jsonable(payload)
        out_path = getattr(args, "out", None)
        if args.command == "report":
            wrapped = {
                "command": args.report_kind,
                "version": __version__,
                "seed": getattr(args, "seed", None),
                "tolerances": {
                    "ingestion": EPS_TOL,
                    "solver_feasibility": lp.FEAS_TOL,
                    "solver_pivot": lp.PIVOT_TOL,
                },
                "result": payload,
            }
            fileio.save_object(wrapped, out_path)
            print(f"wrote {out_path}")
        elif args.format == "machine":
            print(json.dumps(payload, indent=2, ensure_ascii=False))
        else:
            _print_table(payload)
        return code
    except (ToolkitError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
