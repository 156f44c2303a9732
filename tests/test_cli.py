import json
import math

import pytest

from tsengsplit.cli import main
from tsengsplit.solver import read_trace_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def affine_config(tmp_path):
    return write_config(
        tmp_path,
        "affine.json",
        {
            "version": 1,
            "seed": 7,
            "problem": {"family": "affine_vi", "params": {"m": 50, "q": "zero"}},
            "schedules": {"preset": "paper_default", "mu_seq": {"kind": "constant", "value": 0.0}},
            "solver": {"max_iters": 60000, "tol": 1e-3, "stop_rule": "iterate_norm", "record_distance": True},
        },
    )


def test_solve_writes_artifacts_and_converges(affine_config, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", affine_config, "--out", str(out), "--quiet"]) == 0
    trace = read_trace_csv(out / "trace.csv")
    assert trace.status == "tolerance_met"
    assert trace.rows[-1].e_n <= 1e-3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "tolerance_met"
    assert summary["iterations"] == len(trace)
    validation = json.loads((out / "validation.json").read_text())
    assert validation["c3"]["passed"] is True
    assert (out / "trace.jsonl").exists()


def test_solve_replay_is_byte_identical(affine_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", affine_config, "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", affine_config, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_solve_budget_exhausted_exit(affine_config, tmp_path):
    code = main([
        "solve", "--config", affine_config, "--out", str(tmp_path / "x"),
        "--max-iters", "1", "--quiet",
    ])
    assert code == 1


def test_solve_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_solve_unknown_family(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"problem": {"family": "qp"}, "seed": 1})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_seed_override_changes_instance(affine_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["solve", "--config", affine_config, "--out", str(out1), "--quiet"])
    main(["solve", "--config", affine_config, "--out", str(out2), "--seed", "99", "--quiet"])
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


@pytest.fixture
def sweep_config(tmp_path):
    return write_config(
        tmp_path,
        "sweep.json",
        {
            "version": 1,
            "seed": 7,
            "problem": {"family": "affine_vi", "params": {"m": 50, "q": "zero"}},
            "schedules": {
                "mu": 0.9, "lambda1": 0.1, "epsilon": 1.2, "theta_floor": 0.01,
                "alpha": {"kind": "constant", "value": 1.0},
                "beta": {"kind": "constant", "value": 0.1},
                "theta": {"kind": "constant", "value": 0.45},
                "mu_seq": {"kind": "constant", "value": 0.0},
                "p_seq": {"kind": "inverse_square"},
            },
            "solver": {"max_iters": 60000, "tol": 1e-3, "stop_rule": "iterate_norm"},
            "sweep": {"axes": [{"param": "theta", "values": [0.15, 0.3, 0.45]}]},
        },
    )


def test_sweep_summary_and_trends(sweep_config, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", sweep_config, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_key,sweep_value,iters,status,final_metric,elapsed_s"
    assert len(lines) == 1 + 3  # one row per grid point
    stats = [ln.split(",") for ln in lines[1:]]
    assert all(s[3] == "tolerance_met" for s in stats)
    iters = [int(s[2]) for s in stats]
    assert iters == sorted(iters, reverse=True)  # relaxation helps
    trends = json.loads((out / "sweep_trends.json").read_text())
    assert trends["theta"]["nonincreasing"] is True


def test_single_point_sweep_matches_solve(sweep_config, affine_config, tmp_path):
    cfg = json.loads(open(sweep_config).read())
    cfg["sweep"] = {"axes": [{"param": "theta", "values": [0.45]}]}
    single = write_config(tmp_path, "single.json", cfg)
    out = tmp_path / "single_out"
    assert main(["sweep", "--config", single, "--out", str(out), "--quiet"]) == 0
    row = (out / "sweep_summary.csv").read_text().strip().splitlines()[1].split(",")

    del cfg["sweep"]
    cfg["schedules"]["theta"] = {"kind": "constant", "value": 0.45}
    solo = write_config(tmp_path, "solo.json", cfg)
    out2 = tmp_path / "solo_out"
    assert main(["solve", "--config", solo, "--out", str(out2), "--quiet"]) == 0
    trace = read_trace_csv(out2 / "trace.csv")
    assert int(row[2]) == len(trace)
    assert float(row[4]) == trace.rows[-1].e_n


def test_validate_pass_and_fail(tmp_path, affine_config):
    assert main(["validate", "--config", affine_config]) == 0
    bad = write_config(
        tmp_path,
        "bad_sched.json",
        {
            "seed": 1,
            "problem": {"family": "oracle_orthant", "params": {"q": [-1.0, 1.0]}},
            "schedules": {
                "mu": 0.9, "lambda1": 0.1, "epsilon": 1.5, "theta_floor": 0.01,
                "alpha": {"kind": "constant", "value": 0.5},
                "beta": {"kind": "constant", "value": 0.0},
                "theta": {"kind": "rational", "a": 0.0, "b": 1.0, "c": 0.0},
                "mu_seq": {"kind": "constant", "value": 0.0},
                "p_seq": {"kind": "constant", "value": 0.0},
            },
        },
    )
    assert main(["validate", "--config", bad]) == 1


def test_validate_prints_strong_report_for_strong_problem(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "strong.json",
        {
            "seed": 3,
            "problem": {"family": "oracle_strong", "params": {"m": 10, "rho": 1.0}},
            "schedules": {
                "mu": 0.4, "lambda1": 0.3, "epsilon": 0.0, "theta_floor": 0.3,
                "alpha": {"kind": "constant", "value": 0.35},
                "beta": {"kind": "constant", "value": 0.0},
                "theta": {"kind": "constant", "value": 0.75},
                "mu_seq": {"kind": "constant", "value": 0.0},
                "p_seq": {"kind": "constant", "value": 0.0},
            },
        },
    )
    main(["validate", "--config", cfg])
    payload = json.loads(capsys.readouterr().out)
    assert "strong" in payload
    assert "theta_interval" in payload["strong"]


def test_certify_roundtrip(tmp_path, affine_config):
    out = tmp_path / "run"
    main(["solve", "--config", affine_config, "--out", str(out), "--quiet"])
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "sqrt"]) == 0
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "linear"]) == 0
    assert main(["certify", "--trace", str(tmp_path / "missing.csv"), "--kind", "sqrt"]) == 2


def test_certify_rejects_short_trace(tmp_path, affine_config):
    out = tmp_path / "short"
    main(["solve", "--config", affine_config, "--out", str(out), "--max-iters", "20", "--quiet"])
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "sqrt"]) == 2


def test_two_axis_sweep_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        "grid.json",
        {
            "seed": 5,
            "problem": {"family": "oracle_strong", "params": {"m": 6, "rho": 1.0}},
            "schedules": {
                "mu": 0.9, "lambda1": 0.3, "epsilon": 1.2, "theta_floor": 0.01,
                "alpha": {"kind": "constant", "value": 0.5},
                "beta": {"kind": "constant", "value": 0.05},
                "theta": {"kind": "constant", "value": 0.4},
                "mu_seq": {"kind": "constant", "value": 0.0},
                "p_seq": {"kind": "inverse_square"},
            },
            "solver": {"max_iters": 5000, "tol": 1e-8, "stop_rule": "step_diff"},
            "sweep": {"axes": [
                {"param": "alpha", "values": [0.2, 0.8]},
                {"param": "beta", "values": [0.0, 0.05]},
            ]},
        },
    )
    out = tmp_path / "grid_out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[1].startswith("alpha;beta,0.2;0.0,")
    trends = json.loads((out / "sweep_trends.json").read_text())
    assert set(trends) == {"alpha", "beta"}
    assert trends["alpha"]["comparisons"] == 2


def test_out_dir_env_default(affine_config, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("TSENGSPLIT_OUT", str(target))
    assert main(["solve", "--config", affine_config, "--quiet"]) == 0
    assert (target / "trace.csv").exists()


def test_certify_q_bound_flag(tmp_path):
    cfg = write_config(
        tmp_path,
        "strong_run.json",
        {
            "seed": 3,
            "problem": {"family": "oracle_strong", "params": {"m": 10, "rho": 1.0}},
            "schedules": {
                "mu": 0.4, "lambda1": 0.3, "epsilon": 0.0, "theta_floor": 0.3,
                "alpha": {"kind": "constant", "value": 0.35},
                "beta": {"kind": "constant", "value": 0.0},
                "theta": {"kind": "constant", "value": 0.75},
                "mu_seq": {"kind": "constant", "value": 0.0},
                "p_seq": {"kind": "constant", "value": 0.0},
            },
            "solver": {"max_iters": 5000, "tol": 1e-11, "stop_rule": "step_diff", "record_distance": True},
        },
    )
    out = tmp_path / "strong_out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "linear", "--q-bound", "0.99"]) == 0


def test_trace_jsonl_is_valid(affine_config, tmp_path):
    out = tmp_path / "r"
    main(["solve", "--config", affine_config, "--out", str(out), "--quiet"])
    lines = (out / "trace.jsonl").read_text().strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert all("n" in r for r in records[:-1])
    assert records[-1]["status"] == "tolerance_met"
    assert len(records) - 1 == records[-1]["iterations"]


def test_lasso_config_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        "lasso.json",
        {
            "seed": 42,
            "problem": {
                "family": "lasso",
                "params": {"k": 5, "m_rows": 32, "n_cols": 64, "noise_var": 1e-4},
            },
            "schedules": {"preset": "paper_default"},
            "solver": {"max_iters": 5000, "tol": 1e-5, "stop_rule": "step_diff"},
        },
    )
    out = tmp_path / "lasso_out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    trace = read_trace_csv(out / "trace.csv")
    assert trace.rows[-1].e_n <= 1e-5


def test_summary_norms_match_weighted_trace(tmp_path):
    # l2_vi runs in the quadrature-weighted norm; the summary must use it too
    cfg = write_config(
        tmp_path,
        "l2.json",
        {
            "seed": 0,
            "problem": {"family": "l2_vi", "params": {"m": 60, "case": 1}},
            "schedules": {"preset": "paper_default", "mu": 0.4, "lambda1": 1.0,
                          "mu_seq": {"kind": "constant", "value": 0.0}},
            "solver": {"max_iters": 1000, "tol": 1e-4, "stop_rule": "iterate_norm", "record_distance": True},
        },
    )
    out = tmp_path / "l2_out"
    main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    last = read_trace_csv(out / "trace.csv").rows[-1]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dist_to_solution"] == last.dist
    assert summary["solution_norm"] == last.e_n


ORTHANT = {
    "version": 1,
    "seed": 1,
    "problem": {"family": "oracle_orthant", "params": {"q": [-1.0, 1.0]}},
    "schedules": {"preset": "paper_default"},
    "solver": {"max_iters": 200, "tol": 1e-8},
}


def orthant_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(ORTHANT))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return write_config(tmp_path, "orthant.json", cfg)


MALFORMED = {
    "version_not_int": ("solve", {"version": "x"}),
    "seed_not_int": ("solve", {"seed": "x"}),
    "max_iters_null": ("solve", {"solver": {"max_iters": None}}),
    "preset_mu_null": ("solve", {"schedules": {"mu": None}}),
    "preset_alpha_string": ("solve", {"schedules": {"alpha": "x"}}),
    "affine_m_null": ("solve", {"problem": {"family": "affine_vi", "params": {"m": None}}}),
    "params_string": ("solve", {"problem": {"family": "affine_vi", "params": "abc"}}),
    "sweep_value_string": ("sweep", {"sweep": {"axes": [{"param": "theta", "values": ["abc"]}]}}),
    "sweep_axis_number": ("sweep", {"sweep": {"axes": [3]}}),
    "sweep_mu_out_of_range": ("sweep", {"sweep": {"axes": [{"param": "mu", "values": [0.5, 1.5]}]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_without_traceback(case, tmp_path, capsys):
    command, overrides = MALFORMED[case]
    cfg = orthant_config(tmp_path, **overrides)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("flags", [["solve", "--max-iters", "0"], ["solve", "--tol", "0"], ["validate", "--horizon", "1"]])
def test_bad_flag_value_exits_2(flags, tmp_path, capsys):
    command, *rest = flags
    out = ["--out", str(tmp_path / "o")] if command == "solve" else []
    assert main([command, "--config", orthant_config(tmp_path), *out, *rest]) == 2
    assert capsys.readouterr().err.startswith("config error:")


DIVERGING = {
    # overflows in the first iteration: no finite row yet
    "huge_step": {"lambda1": 1e200, "p_seq": {"kind": "constant", "value": 1e300}},
    # extrapolation blows up over many iterations
    "huge_inertia": {"alpha": {"kind": "constant", "value": 50.0}},
}


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverged_solve_leaves_summary_and_validation(case, tmp_path):
    cfg = orthant_config(tmp_path, schedules=DIVERGING[case])
    out = tmp_path / "div"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert "not finite" in summary["error"]
    assert summary["problem"] == "oracle_orthant(m=2)" and summary["seed"] == 1
    last = summary["last_row"]
    if case == "huge_step":
        assert last is None
    else:
        assert {"n", "lambda", "residual", "E_n", "dist"} <= set(last)
        assert last["n"] > 1 and math.isfinite(last["E_n"])
    validation = json.loads((out / "validation.json").read_text())
    assert "c3" in validation
    assert not (out / "trace.csv").exists()


def test_sweep_keeps_diverged_points(tmp_path):
    cfg = orthant_config(
        tmp_path,
        schedules={"p_seq": {"kind": "constant", "value": 1e300}},
        sweep={"axes": [{"param": "lambda1", "values": [0.1, 1e200]}]},
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    rows = [ln.split(",") for ln in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["0.1", "1e+200"]
    assert rows[0][3] != "diverged"
    assert rows[1][2:5] == ["0", "diverged", "nan"]
    trends = json.loads((out / "sweep_trends.json").read_text())
    assert trends["lambda1"] == {"nonincreasing": False, "violations": 0, "comparisons": 0, "diverged": 1}


def test_sweep_diverged_point_reports_last_row(tmp_path):
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "alpha", "values": [0.3, 50.0]}]})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    last = (out / "sweep_summary.csv").read_text().splitlines()[-1].split(",")
    assert last[1] == "50.0" and last[3] == "diverged"
    assert int(last[2]) > 1 and math.isfinite(float(last[4]))
    assert json.loads((out / "sweep_trends.json").read_text())["alpha"]["diverged"] == 1
