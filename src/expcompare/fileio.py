"""JSON file formats for experiments, losses, priors and rules.

All files are flat JSON objects with label lists and row-major nested
``matrix`` lists; label order in the file is authoritative.  Entries
must be JSON numbers; any other leaf is rejected, naming file and key.

* experiment: ``{"theta": [...], "outcomes": [...], "matrix": [...]}``
  with one row per outcome and one column per unknown (column
  stochastic).
* loss: ``{"theta": [...], "actions": [...], "matrix": [...]}`` with one
  row per unknown.
* prior: ``{"theta": [...], "weights": [...]}``.
* rule: ``{"outcomes": [...], "actions": [...], "matrix": [...]}`` with
  one row per action and one column per outcome (column stochastic).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Distribution, LabeledSet, Transition
from .errors import ArgumentError
from .loss import LossMatrix

_KIND_KEYS = {
    "experiment": {"theta", "outcomes", "matrix"},
    "loss": {"theta", "actions", "matrix"},
    "prior": {"theta", "weights"},
    "rule": {"outcomes", "actions", "matrix"},
}


def load_object(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ArgumentError(f"{path}: expected a JSON object at top level")
    return obj


def detect_kind(obj: dict) -> str:
    keys = set(obj)
    for kind, wanted in _KIND_KEYS.items():
        if keys == wanted:
            return kind
    raise ArgumentError(
        f"unrecognized file layout with keys {sorted(keys)}; expected one of "
        + ", ".join(sorted(str(sorted(v)) for v in _KIND_KEYS.values()))
    )


def _labels(obj: dict, key: str, path) -> LabeledSet:
    if key not in obj:
        raise ArgumentError(f"{path}: missing label list '{key}'")
    raw = obj[key]
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ArgumentError(f"{path}: '{key}' must be a list of strings")
    return LabeledSet(tuple(raw))


def _numbers(obj: dict, key: str, path) -> np.ndarray:
    if key not in obj:
        raise ArgumentError(f"{path}: missing '{key}'")
    todo = [obj[key]]
    while todo:  # depth first, so the first bad leaf in file order is named
        x = todo.pop()
        if isinstance(x, list):
            todo.extend(reversed(x))
        elif type(x) not in (int, float):  # bool is a subclass of int
            raise ArgumentError(f"{path}: '{key}' holds {json.dumps(x)}, not a number")
    try:
        return np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{path}: '{key}' is not a numeric array: {exc}") from None


def experiment_from_object(obj: dict, path="<object>") -> Transition:
    theta = _labels(obj, "theta", path)
    outcomes = _labels(obj, "outcomes", path)
    return Transition(theta, outcomes, _numbers(obj, "matrix", path))


def loss_from_object(obj: dict, path="<object>") -> LossMatrix:
    theta = _labels(obj, "theta", path)
    actions = _labels(obj, "actions", path)
    return LossMatrix(theta, actions, _numbers(obj, "matrix", path))


def prior_from_object(obj: dict, path="<object>") -> Distribution:
    theta = _labels(obj, "theta", path)
    return Distribution(theta, _numbers(obj, "weights", path))


def rule_from_object(obj: dict, path="<object>") -> Transition:
    outcomes = _labels(obj, "outcomes", path)
    actions = _labels(obj, "actions", path)
    return Transition(outcomes, actions, _numbers(obj, "matrix", path))


_LOADERS = {
    "experiment": experiment_from_object,
    "loss": loss_from_object,
    "prior": prior_from_object,
    "rule": rule_from_object,
}


def load_any(path: str | Path):
    """Load a file of any supported kind; returns ``(kind, value)``."""
    obj = load_object(path)
    kind = detect_kind(obj)
    return kind, _LOADERS[kind](obj, path)


def load_experiment(path: str | Path) -> Transition:
    return experiment_from_object(load_object(path), path)


def load_loss(path: str | Path) -> LossMatrix:
    return loss_from_object(load_object(path), path)


def load_prior(path: str | Path) -> Distribution:
    return prior_from_object(load_object(path), path)


def load_rule(path: str | Path) -> Transition:
    return rule_from_object(load_object(path), path)


def experiment_to_object(e: Transition) -> dict:
    return {
        "theta": list(e.source.labels),
        "outcomes": list(e.target.labels),
        "matrix": [list(map(float, row)) for row in e.matrix],
    }


def loss_to_object(L: LossMatrix) -> dict:
    return {
        "theta": list(L.unknowns.labels),
        "actions": list(L.actions.labels),
        "matrix": [list(map(float, row)) for row in L.values],
    }


def prior_to_object(pi: Distribution) -> dict:
    return {"theta": list(pi.space.labels), "weights": list(map(float, pi.weights))}


def rule_to_object(d: Transition) -> dict:
    return {
        "outcomes": list(d.source.labels),
        "actions": list(d.target.labels),
        "matrix": [list(map(float, row)) for row in d.matrix],
    }


def save_object(obj: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
