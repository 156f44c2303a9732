import json
import math
import os
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tsengsplit import ForwardOperator, Problem, cli, orthant_projector, projector_as_resolvent, rational
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
    assert trace.row(-1)["E_n"] <= 1e-3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "tolerance_met"
    assert summary["iterations"] == len(trace)
    assert "tie_break_warning" not in summary
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
    assert float(row[4]) == trace.row(-1)["E_n"]


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


def test_certify_refuses_a_trace_solve_cannot_write(tmp_path, affine_config, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", affine_config, "--out", str(out), "--quiet"]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:-1]]
    for row in rows:
        row[2] = "inf"  # residual
    bad = tmp_path / "inf.csv"
    bad.write_text("\n".join([lines[0], *map(",".join, rows), lines[-1]]) + "\n")
    capsys.readouterr()
    assert main(["certify", "--trace", str(bad), "--kind", "sqrt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot read trace: negative or non-finite residual")


def test_certify_with_no_finite_json_report_exits_2(tmp_path, capsys):
    # every best residual of the first half is 0, so the envelope ratio is infinite
    rows = [f"{n},0.1,0.0,0.0,,0.0" for n in range(1, 61)]
    footer = "# status=max_iters forward_evals=120 resolvent_evals=60 tie_breaks=0"
    path = tmp_path / "zero.csv"
    path.write_text("\n".join(["n,lambda,residual,E_n,dist,elapsed_ms", *rows, footer]) + "\n")
    assert main(["certify", "--trace", str(path), "--kind", "sqrt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("certificate not applicable: Out of range float")


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
    assert trace.row(-1)["E_n"] <= 1e-5


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
    last = read_trace_csv(out / "trace.csv").row(-1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dist_to_solution"] == last["dist"]
    assert summary["solution_norm"] == last["E_n"]


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


def test_tie_breaks_on_a_constant_forward_map_warn_in_the_summary(tmp_path, monkeypatch):
    # A(w) = A(y) on every step: each iteration but the exact stop takes the tie branch
    def constant_problem(cfg):
        return Problem(
            forward=ForwardOperator(fn=np.ones_like),
            backward=projector_as_resolvent(orthant_projector(2)),
            dimension=2,
            x0=np.ones(2),
            x1=np.ones(2),
        )

    monkeypatch.setattr(cli, "build_problem", constant_problem)
    out = tmp_path / "ties"
    cfg = orthant_config(tmp_path, schedules={"preset": "tseng_plain"})
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["status"], summary["iterations"], summary["tie_breaks"]) == ("exact_solution", 11, 10)
    assert summary["tie_break_warning"].startswith("degenerate step-update branch")


class Again(str):
    """A config key that ``json.dumps`` writes a second time: a dict holds it
    next to the same key, because it compares and hashes by identity."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


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
    # would run theta = 0.6 twice and never 0.5 or 0.75
    "sweep_axis_repeated": ("sweep", {"sweep": {"axes": [
        {"param": "theta", "values": [0.5, 0.75]}, {"param": "theta", "values": [0.6]},
    ]}}),
    # flags are true/false only: bool() would read "false" as true
    "assert_descent_string": ("solve", {"solver": {"assert_descent": "false"}}),
    "record_distance_string": ("solve", {"solver": {"record_distance": "no"}}),
    "identity_number": ("solve", {"problem": {"family": "affine_vi", "params": {"m": 2, "identity": 1}}}),
    # integers may be written 20.0, but int() would truncate 10.9 and read true as 1
    "seed_fractional": ("solve", {"seed": 3.7}),
    "version_bool": ("solve", {"version": True}),
    "max_iters_fractional": ("solve", {"solver": {"max_iters": 200.5}}),
    "strong_m_fractional": ("solve", {"problem": {"family": "oracle_strong", "params": {"m": 10.9}}}),
    # the seed is top-level only, and a sequence is always an object
    "problem_seed": ("solve", {"problem": {"seed": 3}}),
    "alpha_bare_number": ("solve", {"schedules": {"alpha": 0.5}}),
    "alpha_bool": ("solve", {"schedules": {"alpha": True}}),
    # floats are JSON numbers: float() would read "0.4" as 0.4 and true as 1.0
    "mu_string": ("solve", {"schedules": {"mu": "0.4"}}),
    "tol_bool": ("solve", {"solver": {"tol": True}}),
    "sequence_value_bool": ("solve", {"schedules": {"alpha": {"kind": "constant", "value": True}}}),
    "sweep_value_numeric_string": ("sweep", {"sweep": {"axes": [{"param": "theta", "values": ["0.5"]}]}}),
    "q_string": ("solve", {"problem": {"family": "oracle_orthant", "params": {"q": ["-1", 1.0]}}}),
    "q_bool": ("solve", {"problem": {"family": "affine_vi", "params": {"m": 2, "q": [-1.0, True]}}}),
    "q_zero_orthant": ("solve", {"problem": {"family": "oracle_orthant", "params": {"q": "zero"}}}),
    # a 284 PiB matrix: numpy refuses it before touching any memory
    "affine_m_unallocatable": ("solve", {"problem": {"family": "affine_vi", "params": {"m": 200_000_000}}}),
    "label_number": ("solve", {"schedules": {"label": 5}}),
    # without a preset, theta has no default: theta_n = 0 would never apply the forward-backward step
    "schedules_without_theta": ("solve", {"schedules": {"preset": None, "mu": 0.9, "lambda1": 0.1}}),
    # json.loads would keep the last of the two values, so a setting would have two spellings
    "seed_twice": ("solve", {Again("seed"): 4}),
    "max_iters_twice": ("solve", {"solver": {Again("max_iters"): 5}}),
    "sequence_value_twice": ("solve", {"schedules": {"alpha": {"kind": "constant", "value": 0.1, Again("value"): 0}}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_without_traceback(case, tmp_path, capsys):
    command, overrides = MALFORMED[case]
    cfg = orthant_config(tmp_path, **overrides)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert MALFORMED_MESSAGES.get(case, "") in err


# the stderr text of cases that must name their cause
MALFORMED_MESSAGES = {
    "q_zero_orthant": """'q' must be a list of numbers (or "zero" for affine_vi), got 'zero'""",
    "seed_twice": "duplicate key 'seed': each setting is given once",
    "max_iters_twice": "duplicate key 'max_iters'",
    "sequence_value_twice": "duplicate key 'value'",
}


@pytest.mark.parametrize("command", ["solve", "sweep", "validate"])
def test_deeply_nested_config_exits_2(command, tmp_path, capsys):
    # json.loads recurses once per level: 1,000 levels exceed the recursion limit
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "problem": ' + "[" * 1000 + "]" * 1000 + "}", encoding="utf-8")
    out = ["--out", str(tmp_path / "o"), "--quiet"] if command != "validate" else []
    assert main([command, "--config", str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is nested too deeply") and err.count("\n") == 1


STRONG = json.loads((Path(__file__).resolve().parent.parent / "configs" / "oracle_strong_linear.json").read_text())

MISSPELLED = {
    "sequence_valu": ("schedules", "alpha", {"kind": "constant", "valu": 0.9}),
    "solver_max_iter": ("solver", "max_iter", 3),
    "schedules_lamda1": ("schedules", "lamda1", 5),
    "params_rh0": ("problem", "params", {"m": 10, "rho": 1.0, "rh0": 5}),
    "top_level_sweeep": (None, "sweeep", {"axes": []}),
}


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case", sorted(MISSPELLED))
def test_unknown_config_key_exits_2(case, command, tmp_path, capsys):
    section, key, value = MISSPELLED[case]
    cfg = json.loads(json.dumps(STRONG))
    (cfg if section is None else cfg[section])[key] = value
    out = ["--out", str(tmp_path / "o"), "--quiet"] if command == "solve" else []
    assert main([command, "--config", write_config(tmp_path, "typo.json", cfg), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown key" in err
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_every_shipped_config_loads():
    from tsengsplit.cli import load_config

    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
        load_config(path)


def test_out_pointing_at_a_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    assert main(["solve", "--config", orthant_config(tmp_path), "--out", str(target), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert target.read_text() == "not a directory\n"
    # an artifact whose path is taken by a directory cannot be written either
    sweep = {"axes": [{"param": "theta", "values": [0.3]}]}
    for command, artifact in [("solve", "validation.json"), ("solve", "trace.csv"), ("sweep", "sweep_summary.csv")]:
        out = tmp_path / f"{command}_{artifact}"
        (out / artifact).mkdir(parents=True)
        cfg = orthant_config(tmp_path, sweep=sweep) if command == "sweep" else orthant_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2, artifact
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output:") and err.count("\n") == 1, err


def test_empty_solver_section_takes_every_solver_config_default(tmp_path):
    from tsengsplit import SolverConfig
    from tsengsplit.cli import load_config

    cfg = json.loads(json.dumps(ORTHANT))
    cfg["solver"] = {}
    solver = load_config(write_config(tmp_path, "defaults.json", cfg)).solver
    assert solver == SolverConfig(solver.schedules)


def test_infinite_problem_param_exits_2(tmp_path, capsys):
    small_lasso = {"k": 3, "m_rows": 16, "n_cols": 32}
    cases = [
        ("oracle_strong", {"m": 10, "rho": math.inf}),
        ("lasso", {**small_lasso, "reg": math.inf}),  # would zero every iterate
        ("lasso", {**small_lasso, "reg_scale": math.inf}),
        ("lasso", {**small_lasso, "noise_var": math.nan}),  # would run noise-free
        ("affine_vi", {"m": 4, "q": [math.inf, 0.0, 0.0, 0.0]}),
    ]
    for i, (family, params) in enumerate(cases):
        cfg = json.loads(json.dumps(STRONG))
        cfg["problem"] = {"family": family, "params": params}
        path = write_config(tmp_path, "inf.json", cfg)  # written as the JSON token Infinity or NaN
        assert "Infinity" in Path(path).read_text() or "NaN" in Path(path).read_text()
        out = tmp_path / f"o{i}"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 2, params
        assert capsys.readouterr().err.startswith("config error:")
        assert not (out / "validation.json").exists()


def test_preset_name_must_be_a_string(tmp_path, capsys):
    cfg = orthant_config(tmp_path, schedules={"preset": ["paper_default"]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'preset'" in err and err.count("\n") == 1


def test_problem_params_are_the_generator_keywords():
    import inspect

    from tsengsplit import gen_affine_vi, gen_l2_vi, gen_lasso, gen_oracle_strong, oracle_orthant_vi

    generators = {
        "lasso": gen_lasso,
        "affine_vi": gen_affine_vi,
        "l2_vi": gen_l2_vi,
        "oracle_strong": gen_oracle_strong,
        "oracle_orthant": oracle_orthant_vi,
    }
    for family, gen in generators.items():
        params = {name: p for name, p in inspect.signature(gen).parameters.items() if name != "rng"}
        assert cli.PROBLEM_PARAMS[family] == tuple(params), family
        # a config may leave out any param: each has its generator's default
        assert all(p.default is not inspect.Parameter.empty for p in params.values()), family


def test_affine_identity_without_m_uses_the_default_dimension(tmp_path):
    from tsengsplit.cli import build_problem, load_config

    cfg = json.loads(json.dumps(ORTHANT))
    cfg["problem"] = {"family": "affine_vi", "params": {"identity": True, "q": [-1.0] * 50}}
    prob = build_problem(load_config(write_config(tmp_path, "eye.json", cfg)))
    assert prob.dimension == 50
    assert (prob.known_solution == 1.0).all()


UNUSABLE_SCHEDULES = {
    **{
        f"{key}_{value}": {key: {"kind": "constant", "value": value}}
        for key in ("alpha", "theta", "mu_seq", "p_seq")
        for value in (math.inf, math.nan)
    },
    "lambda1_inf": {"lambda1": math.inf},
    "epsilon_inf": {"epsilon": math.inf},
    "theta_floor_inf": {"theta_floor": math.inf},
    "mu_seq_turns_negative": {"mu_seq": {"kind": "rational", "a": -0.1, "b": 1.0, "c": 0.0}},
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_SCHEDULES))
def test_unusable_schedule_exits_2_before_any_output(case, tmp_path, capsys):
    out = tmp_path / "o"
    cfg = orthant_config(tmp_path, schedules=UNUSABLE_SCHEDULES[case])
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "validation.json").exists()


def test_schedules_without_a_preset_take_the_schedule_set_defaults(tmp_path):
    from tsengsplit import ScheduleSet
    from tsengsplit.cli import load_config

    theta = {"kind": "rational", "a": 0.45, "b": -1.0, "c": 1000.0}
    cfg = json.loads(json.dumps(ORTHANT))
    cfg["schedules"] = {"mu": 0.9, "lambda1": 0.1, "theta": theta}
    schedules = load_config(write_config(tmp_path, "defaults.json", cfg)).solver.schedules
    assert schedules == ScheduleSet(mu=0.9, lambda1=0.1, theta=rational(0.45, -1.0, 1000.0))


def test_preset_label_kept_only_when_unmodified(tmp_path):
    def run(name, schedules):
        out = tmp_path / name
        cfg = orthant_config(tmp_path, schedules=schedules)
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        return json.loads((out / "summary.json").read_text()), json.loads((out / "validation.json").read_text())

    summary, validation = run("plain", {})
    assert summary["schedules"] == validation["c3"]["label"] == "paper_default"
    # an overridden preset is no longer the named one: the summary spells it out
    summary, validation = run("mu", {"mu": 0.4})
    assert summary["schedules"]["mu"] == 0.4 and summary["schedules"]["label"] == ""
    assert validation["c3"]["label"] == ""
    summary, validation = run("labelled", {"mu": 0.4, "label": "mine"})
    assert summary["schedules"] == validation["c3"]["label"] == "mine"


@pytest.mark.parametrize(
    "schedules", [{"mu_seq": {"kind": "constant", "value": 1e200}}, {"lambda1": 1e200}], ids=["mu_seq", "lambda1"]
)
def test_descent_check_on_huge_legal_schedule_keeps_the_exit_contract(schedules, tmp_path):
    # squaring (mu + mu_n)*lambda_n/lambda_{n+1} with ** once raised OverflowError here
    cfg = json.loads(json.dumps(STRONG))
    cfg["schedules"].update(schedules)
    cfg["solver"]["assert_descent"] = True
    path = write_config(tmp_path, "descent.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) in (0, 1, 3)


@pytest.mark.parametrize(
    "flags",
    # validate takes no --horizon: clause (iv) is always sampled up to 10^6
    [["solve", "--max-iters", "0"], ["solve", "--tol", "0"], ["validate", "--horizon", "5"], ["solve", "--tol", "inf"]],
)
def test_bad_flag_value_exits_2(flags, tmp_path, capsys):
    command, *rest = flags
    out = ["--out", str(tmp_path / "o")] if command == "solve" else []
    argv = [command, "--config", orthant_config(tmp_path), *out, *rest]
    if "--horizon" in rest:  # argparse refuses a flag it does not know
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, prefix = exc.value.code, "usage:"
    else:
        code, prefix = main(argv), "config error:"
    assert code == 2
    assert capsys.readouterr().err.startswith(prefix)


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
        assert summary["iterations"] == 0 and summary["final_metric"] is None
    else:
        assert list(last) == ["n", "lambda", "residual", "E_n", "dist", "elapsed_ms"]
        assert last["n"] > 1 and math.isfinite(last["E_n"])
        assert summary["iterations"] == last["n"] and summary["final_metric"] == last["E_n"]
    # the failing iteration's forward and resolvent calls are counted too
    assert summary["resolvent_evals"] == summary["iterations"] + 1
    assert summary["forward_evals"] - 2 * summary["iterations"] in (1, 2)
    assert summary["label"] == summary["problem"]
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


# --- sweeps on several CPUs --------------------------------------------------

# 6 points; the two with lambda1 = 1e200 diverge in their first iteration
WIDE_SWEEP = {"axes": [{"param": "lambda1", "values": [0.1, 1e200, 0.2]}, {"param": "theta", "values": [0.3, 0.6]}]}
SWEEP_WAIT_S = 120


def run_sweep(cfg, out, monkeypatch, cpus, parent_delay_s=0.0, fail_at=lambda point: False):
    """``sweep`` as if ``cpus`` CPUs were free, run in a thread that must
    finish within SWEEP_WAIT_S.  Each point this process solves is recorded
    and delayed by ``parent_delay_s``, so helpers get points to solve, and
    raises where ``fail_at`` says.  Returns the exit code, the summary
    without elapsed_s, the trends and the points solved here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    solved_here = []
    real_row = cli._sweep_row

    def row_here(problem, solver_cfg, point):
        solved_here.append(point)
        time.sleep(parent_delay_s)
        if fail_at(point):
            raise RuntimeError(f"failed at {point}")
        return real_row(problem, solver_cfg, point)

    monkeypatch.setattr(cli, "_sweep_row", row_here)
    pool = ThreadPoolExecutor(1)
    try:
        rc = pool.submit(main, ["sweep", "--config", cfg, "--out", str(out), "--quiet"]).result(timeout=SWEEP_WAIT_S)
    finally:
        pool.shutdown(wait=False)
    summary = "\n".join(line.rsplit(",", 1)[0] for line in (out / "sweep_summary.csv").read_text().splitlines())
    return rc, summary, (out / "sweep_trends.json").read_bytes(), solved_here


def no_popen(*args, **kwargs):
    raise AssertionError("a helper was started")


@pytest.fixture
def wide_sweep(tmp_path):
    """The config and the serial run's outputs: on one CPU no helper starts."""
    cfg = orthant_config(tmp_path, schedules={"p_seq": {"kind": "constant", "value": 1e300}}, sweep=WIDE_SWEEP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subprocess, "Popen", no_popen)
        *serial, solved_here = run_sweep(cfg, tmp_path / "serial", mp, cpus=1)
    assert serial[0] == 3 and len(solved_here) == 6
    return cfg, serial


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 4])
def test_sweep_on_several_cpus_matches_the_serial_sweep(cpus, wide_sweep, tmp_path, monkeypatch):
    cfg, serial = wide_sweep
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "wide", monkeypatch, cpus, parent_delay_s=0.5)
    assert_no_child_left()
    assert (rc, summary, trends) == tuple(serial)
    assert len(solved_here) < 6  # helpers solved some points


def test_grid_of_one_point_starts_no_helper(tmp_path, monkeypatch):
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "theta", "values": [0.3]}]})
    monkeypatch.setattr(subprocess, "Popen", no_popen)
    *_, solved_here = run_sweep(cfg, tmp_path / "one", monkeypatch, cpus=4)
    assert len(solved_here) == 1


def test_helpers_start_before_the_first_point(tmp_path, monkeypatch):
    events = []

    def popen(*args, **kwargs):
        events.append("popen")
        raise OSError("recorded, not started")

    real_row = cli._sweep_row
    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(cli, "_sweep_row", lambda *args: events.append("row") or real_row(*args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "theta", "values": [0.3, 0.6]}]})
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "two"), "--quiet"])
    assert events == ["popen", "row", "row"]


def test_helpers_that_cannot_start_leave_every_point_to_the_parent(wide_sweep, tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise OSError("no processes left")

    cfg, serial = wide_sweep
    monkeypatch.setattr(subprocess, "Popen", refused)
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "refused", monkeypatch, cpus=4)
    assert (rc, summary, trends) == tuple(serial)
    assert len(solved_here) == 6


def dying_helper(marker):
    """Helper code that claims one point, records it in ``marker`` and dies holding it."""
    return (
        "import os, sys; claim = os.read(int(sys.argv[2]), 4); "
        f"open({str(marker)!r}, 'w').write(str(int.from_bytes(claim, 'little'))); os._exit(1)"
    )


def test_point_of_a_dead_helper_is_solved_by_the_parent(wide_sweep, tmp_path, monkeypatch):
    cfg, serial = wide_sweep
    marker = tmp_path / "claimed"
    monkeypatch.setattr(cli, "HELPER_CODE", dying_helper(marker))
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "dead", monkeypatch, cpus=2, parent_delay_s=0.3)
    assert_no_child_left()
    assert (rc, summary, trends) == tuple(serial)
    assert 0 <= int(marker.read_text()) <= 5  # the helper died holding a point
    assert len(solved_here) == 6


def test_first_error_in_grid_order_surfaces(wide_sweep, tmp_path, monkeypatch):
    # the helper dies holding an early point; the parent fails on the last point
    # first, and then on the early one, which a serial sweep would have raised
    cfg, _ = wide_sweep
    marker = tmp_path / "claimed"
    points = cli._grid_points(cli.load_config(cfg).sweep_axes)
    monkeypatch.setattr(cli, "HELPER_CODE", dying_helper(marker))

    def fail_at(point):
        return point == points[-1] or (marker.exists() and point == points[int(marker.read_text())])

    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg, tmp_path / "err", monkeypatch, cpus=2, parent_delay_s=0.3, fail_at=fail_at)
    assert_no_child_left()
    claimed = int(marker.read_text())
    assert claimed < len(points) - 1
    assert str(err.value) == f"failed at {points[claimed]}"


def test_error_at_the_first_point_surfaces_while_a_helper_runs(wide_sweep, tmp_path, monkeypatch):
    cfg, _ = wide_sweep
    points = cli._grid_points(cli.load_config(cfg).sweep_axes)
    procs, alive_at_error = [], []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    def fail_at(point):
        if point != points[0]:
            return False
        alive_at_error.extend(proc.poll() is None for proc in procs)
        return True

    monkeypatch.setattr(subprocess, "Popen", popen)
    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg, tmp_path / "err", monkeypatch, cpus=2, fail_at=fail_at)
    assert_no_child_left()
    assert alive_at_error == [True]
    assert str(err.value) == f"failed at {points[0]}"
