import json
import math

import pytest

from regloss import (
    ConfigError,
    ExperimentConfig,
    ReportBundle,
    emit_report,
    revalidate_certificate,
    run_experiment,
)
from regloss.cli import main


def test_config_validation_reports_field():
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(mode="nope")
    with pytest.raises(ConfigError, match="grid_points"):
        ExperimentConfig(mode="mix", grid_points=100)
    with pytest.raises(ConfigError, match="datum_radius"):
        ExperimentConfig(mode="mix", datum_radius=0.9)
    with pytest.raises(ConfigError, match="r:"):
        ExperimentConfig(mode="certify-partial", r=1.0)
    with pytest.raises(ConfigError, match="p:"):
        ExperimentConfig(mode="certify-partial", r=2.0, p=5.0)
    with pytest.raises(ConfigError, match="sweep_order"):
        ExperimentConfig(mode="lower-bound-sweep", sweep_order=1.5)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({"mode": "mix", "bogus": 1})


def test_config_round_trip():
    config = ExperimentConfig(mode="mix", seed=9, orders=(0.0, 1.0))
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def _fast_certify_config(**overrides):
    data = {
        "mode": "certify-total",
        "s_grid": [0.1, 0.5, 0.9],
        "t_grid": [0.01, 1.0],
        "rate_c": 1.0,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_certify_total_bundle():
    bundle = run_experiment(_fast_certify_config())
    assert bundle.certificates
    blowups = [c for c in bundle.certificates if c.condition.value == "D"]
    assert blowups and all(c.verdict == "divergent" for c in blowups)
    others = [c for c in bundle.certificates if c.condition.value != "D"]
    assert others and all(c.holds for c in others)


def test_certify_total_certifies_the_dimensions_it_is_given():
    config = _fast_certify_config(dimension=4, construction_dimension=5)
    bundle = run_experiment(config)
    assert sorted(bundle.tables) == ["blowup_sweep_d4", "blowup_sweep_d5"]
    dimensions = [c.params["schedule"]["dimension"] for c in bundle.certificates]
    assert sorted(set(dimensions)) == [4, 5]
    blowups = [c for c in bundle.certificates if c.condition.value == "D"]
    assert len(blowups) == 2 * 3 * 2 and all(c.verdict == "divergent" for c in blowups)
    others = [c for c in bundle.certificates if c.condition.value != "D"]
    assert others and all(c.holds for c in others)


def test_certify_partial_bundle():
    config = ExperimentConfig.from_dict(
        {"mode": "certify-partial", "rate_b": 0.9, "rate_c": 0.9}
    )
    bundle = run_experiment(config)
    by_id = {c.condition.value: c for c in bundle.certificates}
    for key in ("A", "B", "B-tilde", "C", "C-hat"):
        assert by_id[key].holds
    assert any("0 disagreements" in line for line in bundle.summary)
    cols, rows = bundle.tables["loss_threshold"]
    assert len(rows) == config.threshold_samples


def test_emit_report_deterministic(tmp_path):
    config = _fast_certify_config()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    emit_report(run_experiment(config), out1)
    emit_report(run_experiment(config), out2)
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certificates_revalidate(tmp_path):
    partial = _fast_certify_config(mode="certify-partial", rate_b=0.9, rate_c=1.3)
    for name, config in (("total", _fast_certify_config()), ("partial", partial)):
        emit_report(run_experiment(config), tmp_path / name)
        payload = json.loads((tmp_path / name / "certificates.json").read_text())
        assert payload["certificates"]
        for cert in payload["certificates"]:
            assert revalidate_certificate(cert)
    # the partial bundle sends B's r, p, b, t and C-hat through revalidation
    conditions = {cert["condition"] for cert in payload["certificates"]}
    assert {"B", "C-hat"} <= conditions


def test_certificates_json_round_trip(tmp_path):
    emit_report(run_experiment(_fast_certify_config()), tmp_path)
    text = (tmp_path / "certificates.json").read_text()
    parsed = json.loads(text)
    again = json.dumps(parsed, sort_keys=True) + "\n"
    assert again == text
    # every key written is one that from_dict reads back: no write-only field
    for cert in parsed["certificates"]:
        schedule = cert["params"]["schedule"]
        assert set(schedule) == {"lam", "tau", "gamma", "dimension"}
        for series in (cert["series"], schedule["lam"], schedule["tau"], schedule["gamma"]):
            assert set(series) == {"c", "k", "q"}


@pytest.mark.parametrize(
    "argv",
    [
        ["mix", "--grid", "32", "--steps", "4"],
        ["norms", "--grid", "16"],
        ["certify", "--target", "total"],
        ["certify", "--target", "partial", "--rate-b", "0.9", "--rate-c", "1.3"],
        ["sweep", "--grid", "64"],
        ["solve", "--grid", "64", "--pieces", "2"],
    ],
    ids=["mix", "norms", "certify-total", "certify-partial", "sweep", "solve"],
)
def test_json_text_matches_the_stdlib_on_every_mode_bundle(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.json").read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    assert all(revalidate_certificate(cert) for cert in payload["certificates"])


def test_empty_bundle_emits_valid_files(tmp_path):
    bundle = ReportBundle(config=_fast_certify_config())
    written = emit_report(bundle, tmp_path)
    payload = json.loads((tmp_path / "certificates.json").read_text())
    assert payload["certificates"] == []
    assert (tmp_path / "summary.txt").exists()
    assert written


def test_mix_zero_amplitude_flat_rates():
    config = ExperimentConfig.from_dict(
        {
            "mode": "mix",
            "grid_points": 64,
            "steps": 4,
            "amplitude": 0.0,
            "orders": [0.5, 1.0],
        }
    )
    bundle = run_experiment(config)
    cols, rows = bundle.tables["rates"]
    assert rows
    for row in rows:
        rate = row[cols.index("rate")]
        r2 = row[cols.index("r_squared")]
        assert rate == 0.0
        assert r2 == 1.0


def test_mix_mode_reports_norm_table():
    config = ExperimentConfig.from_dict(
        {
            "mode": "mix",
            "grid_points": 64,
            "steps": 4,
            "orders": [-1.0, 0.0],
        }
    )
    bundle = run_experiment(config)
    cols, rows = bundle.tables["norms"]
    assert cols == ["t", "order", "method", "value"]
    assert len(rows) == 5 * 2
    assert all(math.isfinite(r[-1]) for r in rows)


def test_norms_mode_table():
    config = ExperimentConfig.from_dict(
        {
            "mode": "norms",
            "grid_points": 64,
            "orders": [0.0, 0.5],
        }
    )
    bundle = run_experiment(config)
    cols, rows = bundle.tables["norm_table"]
    assert cols == ["field_id", "s", "p", "method", "value"]
    methods = {r[3] for r in rows}
    assert "gagliardo" in methods and "multiplier" in methods


def test_sweep_mode_smoke():
    config = ExperimentConfig.from_dict(
        {
            "mode": "lower-bound-sweep",
            "grid_points": 128,
            "steps": 16,
            "sweep_max_terms": 40,
        }
    )
    bundle = run_experiment(config)
    cols, rows = bundle.tables["lower_bound"]
    sums = [r[1] for r in rows]
    assert len(sums) == 40
    finite = [v for v in sums if math.isfinite(v)]
    assert all(b >= a - 1e-30 for a, b in zip(finite, finite[1:]))
    assert any("smallest truncation" in line for line in bundle.summary)


def test_solve_mode_smoke():
    config = ExperimentConfig.from_dict(
        {
            "mode": "truncated-solution",
            "grid_points": 128,
            "steps": 16,
            "pieces": 3,
            "solve_times": [0.0, 0.1],
        }
    )
    bundle = run_experiment(config)
    cols, rows = bundle.tables["truncated_solution"]
    assert all(row[-1] for row in rows)


def test_cli_certify(tmp_path, capsys):
    out = tmp_path / "report"
    code = main(
        [
            "certify",
            "--target",
            "partial",
            "--rate-b",
            "0.9",
            "--rate-c",
            "0.9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "certificates.json").exists()
    assert (out / "summary.txt").exists()
    captured = capsys.readouterr()
    assert "wrote" in captured.out


@pytest.mark.parametrize(
    "rates, assumed",
    [({"rate_c": 1.3}, True), ({"rate_b": 0.9}, False), ({"rate_b": 0.9, "rate_c": 1.3}, False)],
    ids=["b-unset", "c-unset", "both-set"],
)
def test_certify_partial_says_when_b_is_assumed(rates, assumed):
    config = ExperimentConfig(mode="certify-partial", grid_points=32, **rates)
    [line] = [s for s in run_experiment(config).summary if s.startswith("rates:")]
    assert ("(the measured c, assumed)" in line) == assumed


def test_cli_config_file_and_flag_precedence(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"s_grid": [0.5], "t_grid": [0.1], "seed": 3, "rate_c": 1.0})
    )
    out = tmp_path / "report"
    code = main(
        ["certify", "--target", "total", "--config", str(config_path), "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "certificates.json").read_text())
    assert payload["config"]["seed"] == 4
    assert payload["config"]["s_grid"] == [0.5]


def test_cli_invalid_config_exit_code(tmp_path):
    code = main(["mix", "--grid", "100", "--out", str(tmp_path)])
    assert code == 2


def test_cli_config_error_from_the_run_exit_code(tmp_path, capsys):
    config_path = tmp_path / "rates.json"
    config_path.write_text(json.dumps({"rate_b": 1.0, "rate_c": 1.0}))
    no_times = tmp_path / "no_times.json"
    no_times.write_text(json.dumps({"solve_times": []}))
    still = tmp_path / "still.json"
    still.write_text(json.dumps({"amplitude": 0}))
    creeping = tmp_path / "creeping.json"
    creeping.write_text(json.dumps({"amplitude": 1e-12}))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"seed": ')
    refused = {}  # config files whose content validation refuses
    for name, value in (
        ("top_level_list", [1, 2]),
        ("seed", {"seed": 1.5}),
        ("grid_points", {"grid_points": "64"}),
        ("orders", {"orders": 0.5}),
        ("repeated_orders", {"orders": [0.5, 0.5]}),
        ("amplitude", {"amplitude": "3"}),
        # sweep and solve measure their rates: one injected rate would go unused
        ("only_b", {"rate_b": 5.0}),
        ("only_c", {"rate_c": 5.0}),
        # mix and norms read no rate, and certify-total reads only c
        ("both_rates", {"rate_b": 2.0, "rate_c": 5.0}),
        ("b_for_total", {"rate_b": 7.0}),
        ("s_grid", {"s_grid": []}),
        ("t_grid", {"t_grid": []}),
        # non-finite numbers and orders or times out of range
        ("nan_duration", {"step_duration": math.nan}),
        ("inf_amplitude", {"amplitude": math.inf}),
        ("inf_horizon", {"horizon": math.inf}),
        ("nan_order", {"s_grid": [math.nan]}),
        ("order_above_one", {"s_grid": [1.5]}),
        ("negative_time", {"t_grid": [-1.0]}),
        # W^{r,p} needs p >= 1, the construction d >= 2, and the threshold sweep a sample
        ("p_zero", {"p": 0}),
        ("p_negative", {"p": -1}),
        ("construction_d1", {"construction_dimension": 1, "p": 0.5}),
        ("no_samples", {"threshold_samples": 0}),
    ):
        refused[name] = tmp_path / f"{name}.json"
        refused[name].write_text(json.dumps(value))
    rates = ["--rate-b", "1", "--rate-c", "1"]
    cases = [
        (["sweep", "--config", str(config_path)], "configuration error: rate_b/rate_c"),
        (["sweep", "--grid", "64", "--config", str(refused["only_b"])],
         "configuration error: rate_b/rate_c"),
        (["sweep", "--grid", "64", "--config", str(refused["only_c"])],
         "configuration error: rate_b/rate_c"),
        (["solve", "--grid", "128", "--pieces", "2", "--config", str(refused["only_b"])],
         "configuration error: rate_b/rate_c"),
        (["solve", "--grid", "128", "--pieces", "2", "--config", str(refused["only_c"])],
         "configuration error: rate_b/rate_c"),
        (["mix", "--grid", "32", "--config", str(refused["both_rates"])],
         "configuration error: rate_b/rate_c"),
        (["norms", "--grid", "16", "--config", str(refused["both_rates"])],
         "configuration error: rate_b/rate_c"),
        (["certify", "--target", "total", "--config", str(refused["b_for_total"])],
         "configuration error: rate_b"),
        # three pieces need a finer window than 64 points per side
        (["solve", "--grid", "64"], "resolution error: piece 3"),
        (["certify", "--target", "partial", "--horizon", "0"], "configuration error: horizon"),
        (["certify", "--target", "partial", "--sigma", "0", *rates], "configuration error: sigma"),
        (["solve", "--grid", "128", "--times", "0", "-0.05"], "configuration error: solve_times"),
        (["solve", "--config", str(no_times)], "configuration error: solve_times"),
        (["mix", "--steps", "3"], "configuration error: steps"),
        (["mix", "--seed", "-1"], "configuration error: seed"),
        # rates fitted on a protocol that does not move
        (["sweep", "--grid", "64", "--config", str(still)], "configuration error: amplitude"),
        # a flow too weak to mix the datum fails the rate fit
        (["sweep", "--grid", "64", "--config", str(creeping)],
         "configuration error: amplitude: no rates can be measured"),
        (["certify", "--target", "partial", "--rate-b", "-1", "--rate-c", "1"],
         "configuration error: rate_b"),
        (["certify", "--target", "partial", "--rate-b", "1", "--rate-c", "0"],
         "configuration error: rate_c"),
        # config files that cannot be read, or hold something other than an object
        (["mix", "--config", str(tmp_path / "missing.json")], "configuration error: config"),
        (["mix", "--config", str(malformed)], "configuration error: config"),
        (["mix", "--config", str(refused["top_level_list"])], "configuration error: config"),
        # values of the wrong type are refused, not coerced or run
        (["mix", "--config", str(refused["seed"])], "configuration error: seed"),
        (["mix", "--config", str(refused["grid_points"])], "configuration error: grid_points"),
        (["norms", "--config", str(refused["orders"])], "configuration error: orders"),
        (["mix", "--grid", "32", "--config", str(refused["repeated_orders"])],
         "configuration error: orders"),
        (["mix", "--grid", "32", "--config", str(refused["amplitude"])],
         "configuration error: amplitude"),
        # an empty certificate sweep
        (["certify", "--config", str(refused["s_grid"])], "configuration error: s_grid"),
        (["certify", "--config", str(refused["t_grid"])], "configuration error: t_grid"),
        (["mix", "--grid", "32", "--config", str(refused["nan_duration"])],
         "configuration error: step_duration"),
        (["mix", "--grid", "32", "--config", str(refused["inf_amplitude"])],
         "configuration error: amplitude"),
        (["certify", "--config", str(refused["inf_horizon"])], "configuration error: horizon"),
        (["certify", "--config", str(refused["nan_order"])], "configuration error: s_grid"),
        (["certify", "--config", str(refused["order_above_one"])], "configuration error: s_grid"),
        (["certify", "--config", str(refused["negative_time"])], "configuration error: t_grid"),
        (["certify", "--target", "partial", "--config", str(refused["p_zero"]), *rates],
         "configuration error: p"),
        (["certify", "--target", "partial", "--config", str(refused["p_negative"]), *rates],
         "configuration error: p"),
        (["certify", "--target", "partial", "--config", str(refused["construction_d1"]), *rates],
         "configuration error: construction_dimension"),
        (["certify", "--target", "partial", "--config", str(refused["no_samples"]), *rates],
         "configuration error: threshold_samples"),
    ]
    for argv, message in cases:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


# settings that are constants now, each with the value it always held
REMOVED_FIELDS = {
    "profile": "sine",
    "banded": False,
    "datum_center": [0.5, 0.5],
    "datum_amplitude": 1.0,
    "integrabilities": [2.0, 4.0],
    "alpha_margin": 2.0,
    "sweep_threshold": 1.0e6,
}


@pytest.mark.parametrize("key", list(REMOVED_FIELDS))
def test_cli_refuses_a_removed_field(tmp_path, capsys, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: REMOVED_FIELDS[key]}))
    argv = ["mix", "--grid", "32", "--config", str(config_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {key}: unknown configuration field\n"


def test_cli_lower_bound_at_an_unmeasured_order(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--order", "0.3", "--grid", "64", "--out", str(out)]) == 0
    assert "order 0.3" in (out / "summary.txt").read_text()
    config_path = tmp_path / "solve.json"
    config_path.write_text(json.dumps({"solve_order": 0.3}))
    argv = ["solve", "--grid", "64", "--pieces", "2", "--config", str(config_path)]
    assert main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["certify", "--target", "partial"], ["solve", "--pieces", "2"]],
    ids=["sweep", "certify-partial", "solve"],
)
def test_cli_planar_measurements_accept_a_3d_config(tmp_path, argv):
    config_path = tmp_path / "d3.json"
    config_path.write_text(json.dumps({"dimension": 3}))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config_path), "--grid", "64", "--out", str(out)]) == 0
