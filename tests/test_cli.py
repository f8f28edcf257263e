import dataclasses
import json
import math

import numpy as np
import pytest

from expcompare import fileio, lp
from expcompare.cli import main
from expcompare.compare import MetricReport, RandomizationReport
from expcompare.divergence import DpiReport

THETA = ["-1", "1"]


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        fileio.save_object(obj, path)
        return str(path)

    return {
        "bsc01": write(
            "bsc01.json",
            {"theta": THETA, "outcomes": THETA, "matrix": [[0.9, 0.1], [0.1, 0.9]]},
        ),
        "bsc03": write(
            "bsc03.json",
            {"theta": THETA, "outcomes": THETA, "matrix": [[0.7, 0.3], [0.3, 0.7]]},
        ),
        "zeroone": write(
            "zeroone.json",
            {"theta": THETA, "actions": THETA, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        ),
        "uniform": write("uniform.json", {"theta": THETA, "weights": [0.5, 0.5]}),
        "skew": write("skew.json", {"theta": THETA, "weights": [0.9, 0.1]}),
        "id_rule": write(
            "id_rule.json",
            {"outcomes": THETA, "actions": THETA, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        ),
        "mixed_rule": write(
            "mixed_rule.json",
            {"outcomes": THETA, "actions": THETA, "matrix": [[0.6, 0.3], [0.4, 0.7]]},
        ),
        "bad_column": write(
            "bad.json",
            {"theta": THETA, "outcomes": THETA, "matrix": [[0.88, 0.1], [0.1, 0.9]]},
        ),
        "missing_labels": write(
            "missing.json", {"outcomes": THETA, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        ),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestValidate:
    def test_valid_experiment(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["bsc01"])
        assert code == 0
        assert "experiment" in out

    def test_bad_column_sum(self, files, capsys):
        code, _, err = run(capsys, "validate", files["bad_column"])
        assert code == 2
        assert "column '-1' sums to 0.98" in err

    def test_missing_label_list(self, files, capsys):
        code, _, err = run(capsys, "validate", files["missing_labels"])
        assert code == 2

    def test_unparseable_file(self, files, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2

    @pytest.mark.parametrize("obj, key, leaf", [
        ({"theta": THETA, "outcomes": THETA, "matrix": [["1", True], ["0", False]]},
         "matrix", '"1"'),
        ({"theta": THETA, "outcomes": THETA, "matrix": [[1, True], [0, False]]},
         "matrix", "true"),
        ({"theta": THETA, "weights": [" 0.5 ", "5e-1"]}, "weights", '" 0.5 "'),
        ({"theta": THETA, "weights": [0.5, None]}, "weights", "null"),
        ({"theta": THETA, "actions": THETA, "matrix": [[0, 1], [1, {"x": 0}]]},
         "matrix", '{"x": 0}'),
    ])
    def test_non_number_leaves_rejected(self, capsys, tmp_path, obj, key, leaf):
        # strings and booleans once loaded as numbers, through float()
        path = tmp_path / "leaves.json"
        fileio.save_object(obj, path)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert str(path) in err and f"'{key}' holds {leaf}, not a number" in err

    def test_integer_leaves_accepted(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        fileio.save_object({"theta": THETA, "outcomes": THETA, "matrix": [[1, 0], [0, 1]]}, path)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "experiment" in out


class TestCompute:
    def test_bayes_risk_value(self, files, capsys):
        code, out, _ = run(
            capsys,
            "bayes-risk",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--rule", files["id_rule"],
            "--prior", files["uniform"],
        )
        assert code == 0
        assert out == "bayes_risk = 0.1"

    def test_uniform_shorthand_matches_file(self, files, capsys):
        args = (
            "bayes-risk",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--rule", files["id_rule"],
        )
        _, out_file, _ = run(capsys, *args, "--prior", files["uniform"])
        _, out_word, _ = run(capsys, *args, "--prior", "uniform")
        assert out_file == out_word

    def test_deficiency_divisible_pair(self, files, capsys):
        code, out, _ = run(
            capsys,
            "deficiency",
            "--from", files["bsc01"],
            "--to", files["bsc03"],
            "--prior", files["uniform"],
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"]) <= 1e-7
        assert payload["deficiency"] == pytest.approx(0.2, abs=1e-6)
        assert "witness" in payload

    def test_divides_exit_codes(self, files, capsys):
        code, _, _ = run(capsys, "divides", "--from", files["bsc01"], "--to", files["bsc03"])
        assert code == 0
        code, _, _ = run(capsys, "divides", "--from", files["bsc03"], "--to", files["bsc01"])
        assert code == 1
        code, _, err = run(capsys, "divides", "--from", files["bad_column"], "--to", files["bsc01"])
        assert code == 2 and err

    def test_mutual_info_bits(self, files, capsys):
        code, out, _ = run(
            capsys,
            "mutual-info",
            "--experiment", files["bsc01"],
            "--prior", files["uniform"],
            "--units", "bits",
        )
        assert code == 0
        value = float(out.split("=")[1].split()[0])
        assert value == pytest.approx(0.531004, abs=1e-5)

    def test_minimax_machine_output(self, files, capsys):
        code, out, _ = run(
            capsys,
            "minimax",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--format", "machine",
        )
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.1, abs=1e-9)
        assert sum(payload["least_favorable_prior"]["weights"]) == pytest.approx(1.0)

    def test_reverse_and_bias_variance(self, files, capsys):
        code, out, _ = run(
            capsys,
            "reverse",
            "--experiment", files["bsc01"],
            "--prior", files["skew"],
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == THETA
        code, out, _ = run(
            capsys,
            "bias-variance",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--rule", files["id_rule"],
            "--theta", "-1",
            "--format", "machine",
        )
        payload = json.loads(out)
        assert payload["bias"] + payload["variance"] == pytest.approx(payload["risk"], abs=1e-7)

    def test_bias_variance_of_a_randomized_rule(self, files, capsys):
        code, out, _ = run(
            capsys,
            "bias-variance",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--rule", files["mixed_rule"],
            "--theta", "1",
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        # risk at "1": 0.1 * 0.6 + 0.9 * 0.3 on the wrong action "-1"
        assert payload["risk"] == pytest.approx(0.33, abs=1e-12)
        assert payload["bias"] + payload["variance"] == pytest.approx(payload["risk"], abs=1e-12)

    def test_divergence_variational(self, files, capsys, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        fileio.save_object({"theta": THETA, "weights": [0.9, 0.1]}, p)
        fileio.save_object({"theta": THETA, "weights": [0.1, 0.9]}, q)
        code, out, _ = run(capsys, "divergence", "--kind", "variational", "--p", str(p), "--q", str(q))
        assert code == 0
        assert "value = 0.8" in out

    def test_sufficient_exit_codes(self, files, capsys):
        code, _, _ = run(
            capsys,
            "sufficient",
            "--experiment", files["bsc01"],
            "--post", files["bsc03"],
            "--prior", files["uniform"],
        )
        assert code == 1  # extra noise is not sufficient

    def test_sufficient_solves_one_program(self, files, capsys, monkeypatch):
        # e always divides f.e, so only the reverse direction is solved
        calls = []
        real = lp.solve
        monkeypatch.setattr(lp, "solve", lambda p: calls.append(p) or real(p))
        code, out, _ = run(capsys, "sufficient", "--experiment", files["bsc01"],
                           "--post", files["bsc03"], "--prior", "uniform",
                           "--format", "machine")
        assert code == 1 and json.loads(out)["deficiency"] > 0.1
        assert len(calls) == 1

    def test_sufficient_reads_the_post_layout_from_the_file(self, files, capsys):
        base = ("sufficient", "--experiment", files["bsc01"], "--prior", "uniform")
        code, _, _ = run(capsys, *base, "--post", files["id_rule"])
        assert code == 0  # a relabelling loses nothing
        for other in ("zeroone", "skew"):
            code, _, err = run(capsys, *base, "--post", files[other])
            assert code == 2 and "expected an experiment or a rule file" in err

    def test_risk_profile_table(self, files, capsys):
        code, out, _ = run(
            capsys,
            "risk",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--rule", files["id_rule"],
        )
        assert code == 0
        assert "-1 = 0.1" in out

    def test_complete_class(self, files, capsys):
        code, out, _ = run(
            capsys,
            "complete-class",
            "--experiment", files["bsc01"],
            "--loss", files["zeroone"],
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["rules"]) == 4

    def test_dpi_check_deterministic(self, files, capsys):
        args = ("dpi-check", "--kind", "variational", "--trials", "30", "--seed", "42")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_randomization_check(self, files, capsys):
        code, out, _ = run(
            capsys,
            "randomization-check",
            "--from", files["bsc01"],
            "--to", files["bsc03"],
            "--prior", files["uniform"],
            "--trials", "40",
            "--seed", "3",
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["max_abs_gap"] <= payload["deficiency"] + 1e-7

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_randomization_check_rejects_meaningless_trials(self, files, capsys, trials):
        code, out, err = run(
            capsys,
            "randomization-check",
            "--from", files["bsc01"],
            "--to", files["bsc03"],
            "--prior", "uniform",
            "--trials", trials,
        )
        assert code == 2
        assert out == "" and "trials" in err

    def test_metric_check_rejects_negative_trials(self, files, capsys):
        code, out, err = run(
            capsys,
            "metric-check",
            "--experiments", files["bsc01"], files["bsc03"],
            "--prior", "uniform",
            "--trials", "-2",
        )
        assert code == 2
        assert out == "" and "trials" in err

    def test_audit_payloads_follow_their_reports(self, files, capsys):
        pair = ("--from", files["bsc01"], "--to", files["bsc03"], "--prior", "uniform")
        cases = [
            (("dpi-check", "--kind", "phi", "--trials", "5"), DpiReport,
             ["kind", "trials", "seed", "violations", "max_excess", "ok"]),
            (("randomization-check", *pair, "--trials", "5"), RandomizationReport,
             ["trials", "seed", "epsilon", "deficiency", "violations",
              "max_directed_gap", "max_abs_gap", "ok"]),
            (("metric-check", "--experiments", files["bsc01"], files["bsc03"],
              "--prior", "uniform"), MetricReport,
             ["experiments", "directed", "symmetrized", "triangles_checked",
              "max_triangle_violation", "max_self_deficiency", "ok"]),
        ]
        for argv, report, keys in cases:
            code, out, _ = run(capsys, *argv, "--format", "machine")
            assert code == 0
            assert list(json.loads(out)) == keys
            fields = [f.name for f in dataclasses.fields(report)]
            assert keys[-len(fields) - 1:] == fields + ["ok"]


class TestReport:
    def test_dpi_report_contents(self, files, capsys, tmp_path):
        out_path = tmp_path / "dpi.json"
        code, out, _ = run(
            capsys,
            "report", "dpi-check",
            "--kind", "variational",
            "--trials", "50",
            "--seed", "42",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["command"] == "dpi-check"
        assert doc["seed"] == 42
        assert doc["result"]["violations"] == 0
        assert set(doc["tolerances"]) == {"ingestion", "solver_feasibility", "solver_pivot"}
        assert doc["version"]

    def test_deficiency_report_includes_witness(self, files, capsys, tmp_path):
        out_path = tmp_path / "def.json"
        code, _, _ = run(
            capsys,
            "report", "deficiency",
            "--from", files["bsc01"],
            "--to", files["bsc03"],
            "--prior", files["uniform"],
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        witness = np.asarray(doc["result"]["witness"]["matrix"])
        np.testing.assert_allclose(witness, [[0.75, 0.25], [0.25, 0.75]], atol=1e-6)

    def test_metric_check_report(self, files, capsys, tmp_path):
        out_path = tmp_path / "metric.json"
        code, _, _ = run(
            capsys,
            "report", "metric-check",
            "--experiments", files["bsc01"], files["bsc03"], files["bsc01"],
            "--prior", files["uniform"],
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["result"]["ok"] is True
        assert len(doc["result"]["directed"]) == 3

    def test_metric_check_top_level_matches_report(self, files, capsys, tmp_path):
        args = ("--experiments", files["bsc01"], files["bsc03"], "--prior", files["uniform"])
        out_path = tmp_path / "metric.json"
        assert run(capsys, "report", "metric-check", *args, "--out", str(out_path))[0] == 0
        code, out, _ = run(capsys, "metric-check", *args, "--format", "machine")
        assert code == 0
        directed = json.loads(out)["directed"]
        assert directed == json.loads(out_path.read_text())["result"]["directed"]
        assert directed[0][1] < 1e-9 < directed[1][0]


class TestFlags:
    """Each flag is accepted only by the commands that honour it."""

    @pytest.mark.parametrize("argv", [
        ("deficiency", "--from", "bsc01", "--to", "bsc03", "--prior", "uniform", "--units", "bits"),
        ("mutual-info", "--experiment", "bsc01", "--prior", "uniform", "--tol", "1"),
        ("report", "dpi-check", "--kind", "phi", "--out", "bsc01", "--format", "machine"),
        ("sufficient", "--experiment", "bsc01", "--post", "id_rule", "--prior", "uniform",
         "--post-kind", "rule"),
        ("reverse", "--experiment", "bsc01", "--prior", "uniform", "--cutoff", "0.5"),
    ])
    def test_unhonoured_flags_rejected(self, files, argv):
        with pytest.raises(SystemExit) as info:
            main([files.get(a, a) for a in argv])
        assert info.value.code == 2

    def test_divergence_bits_only_for_kl(self, files, capsys):
        args = ("divergence", "--p", files["uniform"], "--q", files["skew"], "--format", "machine")
        code, _, err = run(capsys, *args, "--kind", "chi2", "--units", "bits")
        assert code == 2 and "--units bits" in err
        nats = json.loads(run(capsys, *args, "--kind", "kl")[1])["value"]
        bits = json.loads(run(capsys, *args, "--kind", "kl", "--units", "bits")[1])["value"]
        assert nats / bits == pytest.approx(math.log(2.0), rel=1e-12)

    def test_tol_on_predicates(self, files, capsys):
        # a tolerance of 1 accepts what the default tolerance rejects
        code, _, _ = run(capsys, "divides", "--from", files["bsc03"], "--to", files["bsc01"],
                         "--tol", "1")
        assert code == 0
        code, _, _ = run(capsys, "sufficient", "--experiment", files["bsc01"],
                         "--post", files["bsc03"], "--prior", "uniform", "--tol", "1")
        assert code == 0


class TestRoundTrip:
    def test_save_load_save_is_identical(self, files, tmp_path):
        for key in ("bsc01", "zeroone", "uniform", "id_rule"):
            kind, value = fileio.load_any(files[key])
            out1 = tmp_path / f"{key}_out1.json"
            to_obj = {
                "experiment": fileio.experiment_to_object,
                "loss": fileio.loss_to_object,
                "prior": fileio.prior_to_object,
                "rule": fileio.rule_to_object,
            }[kind]
            fileio.save_object(to_obj(value), out1)
            kind2, value2 = fileio.load_any(out1)
            out2 = tmp_path / f"{key}_out2.json"
            fileio.save_object(to_obj(value2), out2)
            assert out1.read_bytes() == out2.read_bytes()
            assert kind2 == kind
