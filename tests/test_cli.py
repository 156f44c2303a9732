import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contract_cases import BASES, CASES, CONFIGS, EXITS, MALFORMED, ORTHANT, edited, materialize
from tsengsplit import ForwardOperator, Problem, cli, orthant_resolvent, rational
from tsengsplit.cli import main
from tsengsplit.solver import read_trace_csv


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here leaves no child process, a sweep that forks helpers included."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


AFFINE = str(CONFIGS / "affine_vi_m50.json")


def test_solve_writes_artifacts_and_converges(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", AFFINE, "--out", str(out), "--quiet"]) == 0
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


def test_seed_override_changes_instance(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["solve", "--config", AFFINE, "--out", str(out1), "--quiet"])
    main(["solve", "--config", AFFINE, "--out", str(out2), "--seed", "99", "--quiet"])
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


@pytest.fixture
def sweep_config(tmp_path):
    sweep = {"axes": [{"param": "theta", "values": [0.15, 0.3, 0.45]}]}
    return write_config(tmp_path, "sweep.json", edited(BASES["affine_relaxation_sweep"], {"sweep": sweep}))


def test_sweep_summary_and_trends(sweep_config, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", sweep_config, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_key,sweep_value,iterations,status,final_metric,elapsed_s"
    assert len(lines) == 1 + 3  # one row per grid point
    stats = [ln.split(",") for ln in lines[1:]]
    assert all(s[3] == "tolerance_met" for s in stats)
    iters = [int(s[2]) for s in stats]
    assert iters == sorted(iters, reverse=True)  # relaxation helps
    trends = json.loads((out / "sweep_trends.json").read_text())
    assert trends["theta"]["nonincreasing"] is True


def test_single_point_sweep_matches_solve(sweep_config, tmp_path):
    cfg = json.loads(Path(sweep_config).read_text())
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
    summary = json.loads((out2 / "summary.json").read_text())
    assert (int(row[2]), row[3], float(row[4])) == (summary["iterations"], summary["status"], summary["final_metric"])


def test_validate_prints_strong_report_for_strong_problem(capsys):
    main(["validate", "--config", str(CONFIGS / "oracle_strong_linear.json")])
    payload = json.loads(capsys.readouterr().out)
    assert "strong" in payload
    assert "theta_interval" in payload["strong"]


def huge_rho_config(tmp_path):
    """oracle_strong_linear.json with rho = 1e100, a legal rho: its square is finite."""
    cfg = json.loads((CONFIGS / "oracle_strong_linear.json").read_text())
    cfg["problem"]["params"]["rho"] = 1e100
    return write_config(tmp_path, "huge_rho.json", cfg)


def test_validate_passes_the_strong_set_on_a_huge_rho(tmp_path, capsys):
    assert main(["validate", "--config", huge_rho_config(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c3"]["passed"] and payload["strong"]["passed"]
    assert payload["strong"]["q"] == 0.95875


@pytest.mark.xfail(strict=True, reason="the first forward value is near 1e199, and its norm overflows past about 1e154")
def test_solve_converges_on_a_huge_rho_that_validate_passes(tmp_path):
    # exits 3, "overflow while iterating: norm is not finite", after one row; so do rho = 1e78 and 1e150
    assert main(["solve", "--config", huge_rho_config(tmp_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_validate_reads_operator_metadata_only_for_a_report_it_writes(monkeypatch, capsys):
    # the strong report needs constant alpha, beta and theta, then a positive modulus, then L:
    # so lasso_inertia_sweep, constant but with no modulus, runs no SVD of its 256x512 matrix
    real_norm, real_eigvalsh = np.linalg.norm, np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append("norm") or real_norm(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append("eigvalsh") or real_eigvalsh(*a, **k))
    read = {}
    for path in sorted(CONFIGS.glob("*.json")):
        calls.clear()
        main(["validate", "--config", str(path)])
        read[path.stem] = list(calls)
    capsys.readouterr()
    assert read == {
        "affine_relaxation_sweep": ["eigvalsh", "norm"],
        "oracle_strong_linear": ["norm"],
        **dict.fromkeys(["affine_vi_m50", "l2_vi_case1", "lasso_inertia_sweep", "lasso_recovery"], []),
    }


def test_certify_roundtrip(tmp_path):
    out = tmp_path / "run"
    main(["solve", "--config", AFFINE, "--out", str(out), "--quiet"])
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "sqrt"]) == 0
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "linear"]) == 0
    assert main(["certify", "--trace", str(tmp_path / "missing.csv"), "--kind", "sqrt"]) == 2


def test_certify_refuses_a_trace_solve_cannot_write(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", AFFINE, "--out", str(out), "--quiet"]) == 0
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


def test_certify_rejects_short_trace(tmp_path):
    out = tmp_path / "short"
    main(["solve", "--config", AFFINE, "--out", str(out), "--max-iters", "20", "--quiet"])
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


def test_out_dir_env_default(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("TSENGSPLIT_OUT", str(target))
    assert main(["solve", "--config", AFFINE, "--quiet"]) == 0
    assert (target / "trace.csv").exists()


def test_certify_q_bound_flag(tmp_path):
    out = tmp_path / "strong_out"
    assert main(["solve", "--config", str(CONFIGS / "oracle_strong_linear.json"), "--out", str(out), "--quiet"]) == 0
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "linear", "--q-bound", "0.99"]) == 0


def no_certificate(*args, **kwargs):
    raise AssertionError("the certificate ran")


@pytest.mark.parametrize("q_bound", ["nan", "inf", "-inf", "1e400"])
def test_certify_refuses_a_q_bound_that_is_not_finite(q_bound, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", AFFINE, "--out", str(out), "--quiet"]) == 0
    monkeypatch.setattr(cli, "certify_linear_rate", no_certificate)
    capsys.readouterr()
    assert main(["certify", "--trace", str(out / "trace.csv"), "--kind", "linear", f"--q-bound={q_bound}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1 and "--q-bound" in captured.err


def test_one_parser_reads_every_call_of_a_process_as_a_fresh_one_would(monkeypatch, capsys):
    # main() builds its parser once; no call, a usage error included, leaves state for the next
    fresh, builds, parsed = cli.build_parser, [], []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or fresh())
    for name in ("cmd_solve", "cmd_sweep", "cmd_certify"):
        monkeypatch.setattr(cli, name, lambda args: parsed.append(args) or 0)
    cli._parser.cache_clear()
    calls = [
        ["solve", "--config", "a.json", "--quiet", "--seed", "3"],
        ["solve", "--config", "a.json"],
        ["certify", "--trace", "t.csv", "--kind", "linear", "--q-bound", "0.5"],
        ["certify", "--trace", "t.csv", "--kind", "linear"],
        ["solve", "--seed", "4"],  # no --config: a usage error
        ["sweep", "--config", "b.json", "--max-iters", "5", "--tol", "1e-3"],
        ["certify", "--trace", "t.csv", "--kind", "cubic"],
        ["solve", "--config", "a.json"],
        ["certify", "--trace", "t.csv", "--kind", "sqrt"],
    ]
    for argv in calls:
        try:
            expected = fresh().parse_args(argv)
        except SystemExit as usage:
            fresh_err = capsys.readouterr().err
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert (err.value.code, capsys.readouterr().err) == (usage.code, fresh_err)
            assert usage.code == 2 and "usage: tsengsplit" in fresh_err
        else:
            assert main(argv) == 0
            assert parsed.pop() == expected
    assert parsed == [] and len(builds) == 1


def test_trace_jsonl_is_valid(tmp_path):
    out = tmp_path / "r"
    main(["solve", "--config", AFFINE, "--out", str(out), "--quiet"])
    lines = (out / "trace.jsonl").read_text().strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert all("n" in r for r in records[:-1])
    assert records[-1]["status"] == "tolerance_met"
    assert len(records) - 1 == records[-1]["iterations"]


def test_lasso_config_runs(tmp_path):
    small = {"problem": {"params": {"k": 5, "m_rows": 32, "n_cols": 64, "noise_var": 1e-4}}}
    cfg = write_config(tmp_path, "lasso.json", edited(BASES["lasso_recovery"], small))
    out = tmp_path / "lasso_out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    trace = read_trace_csv(out / "trace.csv")
    assert trace.row(-1)["E_n"] <= 1e-5


def test_summary_norms_match_weighted_trace(tmp_path):
    # l2_vi runs in the quadrature-weighted norm; the summary must use it too
    small = {"problem": {"params": {"m": 60, "case": 1}}, "solver": {"stop_rule": "iterate_norm"}}
    cfg = write_config(tmp_path, "l2.json", edited(BASES["l2_vi_case1"], small))
    out = tmp_path / "l2_out"
    main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    last = read_trace_csv(out / "trace.csv").row(-1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dist_to_solution"] == last["dist"]
    assert summary["solution_norm"] == last["E_n"]


def orthant_config(tmp_path, **overrides):
    return write_config(tmp_path, "orthant.json", edited(ORTHANT, overrides))


def test_tie_breaks_on_a_constant_forward_map_warn_in_the_summary(tmp_path, monkeypatch):
    # A(w) = A(y) on every step: each iteration but the exact stop takes the tie branch
    def constant_problem(cfg):
        return Problem(
            forward=ForwardOperator(fn=np.ones_like),
            backward=orthant_resolvent(),
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


def check_case(case, tmp_path, capsys):
    """Run contract case ``case`` through ``main`` (an uncaught exception fails
    the test) and check its exit code; an exit-2 case prints one config error
    line, or argparse's usage, holding its fragment and writes no output.  The
    fragment names the reason, so a case cannot pass by failing for another."""
    *_, code, fragment = CASES[case]
    argv = materialize(case, tmp_path)
    try:
        got = main(argv)
    except SystemExit as usage:  # argparse refuses the command line
        got = usage.code
    err = capsys.readouterr().err
    assert got == code, err
    if code == 2:
        assert fragment and fragment in err, err
        assert err.startswith("usage: tsengsplit") or (err.startswith("config error:") and err.count("\n") == 1), err
        assert not any((tmp_path / case).rglob("*")), "an output was written"


# the two largest sections keep the test names their 56 case ids have always run under
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_without_traceback(case, tmp_path, capsys):
    check_case(case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(EXITS))
def test_config_exits_as_documented(case, tmp_path, capsys):
    check_case(case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(CASES.keys() - MALFORMED.keys() - EXITS.keys()))
def test_contract_case(case, tmp_path, capsys):
    check_case(case, tmp_path, capsys)


def test_contract_script_prints_each_case_as_the_ci_loop_reads_it(tmp_path):
    # CI runs `tsengsplit $argv` for each `<exit> <argv...>` line, so no argument may hold a space
    script = Path(__file__).with_name("contract_cases.py")
    out = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, check=True)
    lines = [line.split(" ") for line in out.stdout.splitlines()]
    assert [line[0] for line in lines] == [str(code) for *_, code, _fragment in CASES.values()]
    assert [line[1:] for line in lines] == [materialize(case, tmp_path) for case in CASES]


def test_every_shipped_config_loads():
    from tsengsplit.cli import load_config

    for path in sorted(CONFIGS.glob("*.json")):
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
    cfg = edited(BASES["oracle_strong_linear"], {"schedules": schedules})
    cfg["solver"]["assert_descent"] = True
    path = write_config(tmp_path, "descent.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) in (0, 1, 3)


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
    assert summary["label"] == "oracle_orthant(m=2)" and summary["seed"] == 1
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
    assert "problem" not in summary
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


@pytest.mark.parametrize(
    "point, status",
    [({"theta": 0.5}, "tolerance_met"), ({"theta": 0.001}, "max_iters"), ({"alpha": 50.0}, "diverged")],
    ids=["converged", "budget", "diverged"],
)
def test_a_sweep_row_reads_what_the_summary_of_a_full_trace_reads(point, status, tmp_path):
    cfg = cli.load_config(orthant_config(tmp_path))  # alpha = 50 is contract case diverging's set
    problem = cli.build_problem(cfg)
    iterations, metric, _, got = cli._sweep_row(problem, cfg.solver, point)
    run_cfg = replace(cfg.solver, schedules=cli.apply_sweep_point(cfg.solver.schedules, point))
    summary = cli._timed_solve(problem, run_cfg)[1].summary()
    assert (iterations, metric, got) == (summary["iterations"], summary["final_metric"], summary["status"])
    assert got == status


def test_a_sweep_point_holds_memory_flat_in_its_iterations(tmp_path):
    cfg = cli.load_config(orthant_config(tmp_path))
    problem = cli.build_problem(cfg)
    peaks = []
    for budget in (2_000, 20_000):
        tracemalloc.start()
        try:
            row = cli._sweep_row(problem, replace(cfg.solver, max_iters=budget), {"theta": 0.001})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (row[0], row[3]) == (budget, "max_iters")
    # a trace that kept every row would grow by 18,000 rows of about 223 B: 3.8 MiB
    assert peaks[1] - peaks[0] < 64 * 1024


# --- sweeps on several CPUs --------------------------------------------------

# 6 points; the two with lambda1 = 1e200 diverge in their first iteration
WIDE_SWEEP = {"axes": [{"param": "lambda1", "values": [0.1, 1e200, 0.2]}, {"param": "theta", "values": [0.3, 0.6]}]}
SWEEP_WAIT_S = 120


def run_sweep(cfg, out, monkeypatch, cpus, parent_delay_s=0.0, fail_at=lambda point: False):
    """``sweep`` as if ``cpus`` CPUs were free, run in a thread that must
    finish within SWEEP_WAIT_S.  Each point this process solves is recorded
    and delayed by ``parent_delay_s``, so helpers get points to solve, and
    raises where ``fail_at`` says; a forked helper inherits the patch but
    solves its points unchanged.  Returns the exit code, the summary without
    elapsed_s, the trends and the points solved here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    solved_here = []
    real_row, parent = cli._sweep_row, os.getpid()

    def row_here(problem, solver_cfg, point):
        if os.getpid() != parent:
            return real_row(problem, solver_cfg, point)
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


def no_fork():
    raise AssertionError("a helper was forked")


class StoreLog:
    """A sweep table that calls ``on_store(i)`` once a row is stored at grid
    index ``i``: its status goes in last, and a raised point's -1 stores none."""

    def __init__(self, table, on_store):
        self.table, self.on_store = table, on_store

    def __setitem__(self, at, value):
        self.table[at] = value
        if at % cli.ROW_FIELDS == cli.ROW_FIELDS - 1 and value > 0:
            self.on_store(at // cli.ROW_FIELDS)


def observed_stores(on_store):
    """A ``_serve_points`` that stores through a :class:`StoreLog`, in this process and its helpers."""
    real_serve = cli._serve_points

    def serve(claims, table, *args):
        real_serve(claims, StoreLog(table, on_store), *args)

    return serve


@pytest.fixture
def wide_sweep(tmp_path):
    """The config and the serial run's outputs: on one CPU no helper is forked."""
    cfg = orthant_config(tmp_path, schedules={"p_seq": {"kind": "constant", "value": 1e300}}, sweep=WIDE_SWEEP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        *serial, solved_here = run_sweep(cfg, tmp_path / "serial", mp, cpus=1)
    assert serial[0] == 3 and len(solved_here) == 6
    return cfg, serial


@pytest.mark.parametrize("cpus", [2, 4])
def test_sweep_on_several_cpus_matches_the_serial_sweep(cpus, wide_sweep, tmp_path, monkeypatch):
    cfg, serial = wide_sweep
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "wide", monkeypatch, cpus, parent_delay_s=0.5)
    assert (rc, summary, trends) == tuple(serial)
    assert len(solved_here) < 6  # helpers solved some points


# 1,100 points of 5 iterations: about 0.2 s of claims, past the claim file's first 4 KiB, that every process reads
MANY_POINTS = {"axes": [{"param": "theta", "values": [(k + 1) / 1100 for k in range(1100)]}]}


@pytest.mark.parametrize("cpus", [2, 4])
def test_each_point_is_claimed_and_solved_exactly_once(cpus, tmp_path, monkeypatch):
    # a lost or doubled claim still gives the serial rows, since the sweep solves
    # a point no process stored itself: the log shows each solve and each store
    cfg = orthant_config(tmp_path, solver={"max_iters": 5}, sweep=MANY_POINTS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        serial = run_sweep(cfg, tmp_path / "serial", mp, cpus=1)[:3]
    index = {point["theta"]: i for i, point in enumerate(cli._grid_points(cli.load_config(cfg).sweep_axes))}
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_APPEND | os.O_CREAT)  # shared by the helpers
    real_row = cli._sweep_row

    def logged_row(problem, solver_cfg, point):
        os.write(log, f"solved {os.getpid()} {index[point['theta']]}\n".encode())
        return real_row(problem, solver_cfg, point)

    def logged_store(i):
        os.write(log, f"stored {os.getpid()} {i}\n".encode())

    monkeypatch.setattr(cli, "_sweep_row", logged_row)
    monkeypatch.setattr(cli, "_serve_points", observed_stores(logged_store))
    try:
        wide = run_sweep(cfg, tmp_path / "wide", monkeypatch, cpus)[:3]
    finally:
        os.close(log)
    assert wide == serial
    entries = [line.split() for line in (tmp_path / "log").read_text().splitlines()]
    for kind in ("solved", "stored"):
        assert sorted(int(i) for k, _, i in entries if k == kind) == list(range(len(index)))
    assert len({pid for _, pid, _ in entries}) > 1  # helpers took claims


def test_a_claim_file_that_cannot_be_made_exits_2(tmp_path, monkeypatch, capsys):
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "theta", "values": [0.3, 0.6]}]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "config error: cannot write the sweep's claims: OSError: [Errno 28] No space left on device\n"
    assert list(out.iterdir()) == []


def test_grid_of_one_point_starts_no_helper(tmp_path, monkeypatch):
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "theta", "values": [0.3]}]})
    monkeypatch.setattr(os, "fork", no_fork)
    *_, solved_here = run_sweep(cfg, tmp_path / "one", monkeypatch, cpus=4)
    assert len(solved_here) == 1


def test_platform_without_affinity_mask_forks_no_helper(wide_sweep, tmp_path, monkeypatch):
    cfg, serial = wide_sweep
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "no_mask"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == serial[0]
    assert (out / "sweep_trends.json").read_bytes() == serial[2]


def test_helpers_start_before_the_first_point(tmp_path, monkeypatch):
    events = []

    def fork():
        events.append("fork")
        raise OSError("recorded, not forked")

    real_row = cli._sweep_row
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_sweep_row", lambda *args: events.append("row") or real_row(*args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "theta", "values": [0.3, 0.6]}]})
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "two"), "--quiet"])
    assert events == ["fork", "row", "row"]


def test_helpers_that_cannot_start_leave_every_point_to_the_parent(wide_sweep, tmp_path, monkeypatch):
    def refused():
        raise OSError("no processes left")

    cfg, serial = wide_sweep
    monkeypatch.setattr(os, "fork", refused)
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "refused", monkeypatch, cpus=4)
    assert (rc, summary, trends) == tuple(serial)
    assert len(solved_here) == 6


def test_helpers_read_no_setting_the_sweep_did_not_read(wide_sweep, tmp_path, monkeypatch):
    # the config's grid is halved on disk once this process solves its first
    # point: every row still comes from the config as the sweep read it
    cfg, serial = wide_sweep
    edited = json.loads(Path(cfg).read_text())
    for axis in edited["sweep"]["axes"]:
        axis["values"] = [v / 2 for v in axis["values"]]
    real_row, parent = cli._sweep_row, os.getpid()

    def row_after_edit(*args):
        if os.getpid() == parent:
            Path(cfg).write_text(json.dumps(edited))
            time.sleep(0.5)  # so the helper solves some points
        return real_row(*args)

    monkeypatch.setattr(cli, "_sweep_row", row_after_edit)
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "edited", monkeypatch, cpus=2)
    assert (rc, summary, trends) == tuple(serial)
    assert len(solved_here) < 6  # the helper solved some points


def test_a_helper_writes_no_output_it_inherited(tmp_path):
    # stdout into a pipe is block-buffered, so the first line is unwritten at the fork
    cfg = orthant_config(tmp_path, schedules={"p_seq": {"kind": "constant", "value": 1e300}}, sweep=WIDE_SWEEP)
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; print('before the sweep'); "
        "from tsengsplit.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", code, "sweep", "--config", cfg, "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=SWEEP_WAIT_S)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout.count("before the sweep") == 1 and proc.stdout.count('"lambda1": {') == 1


# a sweep on 2 mocked CPUs whose points take ORPHAN_POINT_S each; it prints
# its helper's pid and kills itself with SIGKILL, which runs no ``finally``,
# right after ``_serve_points`` stores its first row
ORPHAN_POINT_S = 0.5
ORPHAN_SWEEP = """
import os, signal, sys, time
from tsengsplit import cli

os.sched_getaffinity = lambda pid: {0, 1}
sweep, fork, row, serve = os.getpid(), os.fork, cli._sweep_row, cli._serve_points


def recorded_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


def slow_row(*args):
    time.sleep(%r)
    return row(*args)


class DieAfterStore:
    def __init__(self, table):
        self.table = table

    def __setitem__(self, at, value):
        self.table[at] = value
        if at %% cli.ROW_FIELDS == cli.ROW_FIELDS - 1 and value > 0 and os.getpid() == sweep:
            os.kill(sweep, signal.SIGKILL)


def serve_then_die(claims, table, *args):
    serve(claims, DieAfterStore(table), *args)


os.fork, cli._sweep_row, cli._serve_points = recorded_fork, slow_row, serve_then_die
cli.main(sys.argv[1:])
""" % ORPHAN_POINT_S


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_helper_exits_after_its_point_when_its_sweep_is_killed(tmp_path):
    # 12 points: a helper that served claims for nobody would run about 5 s longer
    cfg = orthant_config(tmp_path, sweep={"axes": [{"param": "theta", "values": [0.05 * k for k in range(1, 13)]}]})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-c", ORPHAN_SWEEP, "sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    # the helper holds the stdout pipe open: wait for the sweep process, not for the pipe's end
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
        helper = int(proc.stdout.readline())
        assert proc.wait(timeout=SWEEP_WAIT_S) == -signal.SIGKILL
        proc.stdout.close()
    try:
        # it was solving at most one point when its sweep died
        deadline = time.monotonic() + ORPHAN_POINT_S + 1.0
        while running(helper) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not running(helper)
    finally:
        if running(helper):
            os.kill(helper, signal.SIGKILL)


def dying_helper(marker):
    """A ``_serve_points`` under which a helper claims one point, records it
    in ``marker`` and dies holding it; this process serves as before."""
    real_serve, parent = cli._serve_points, os.getpid()

    def serve(claims, *args):
        if os.getpid() == parent:
            return real_serve(claims, *args)
        marker.write_text(str(int.from_bytes(os.read(claims, 4), "little")))
        os._exit(1)

    return serve


def test_point_of_a_dead_helper_is_solved_by_the_parent(wide_sweep, tmp_path, monkeypatch):
    cfg, serial = wide_sweep
    marker = tmp_path / "claimed"
    monkeypatch.setattr(cli, "_serve_points", dying_helper(marker))
    rc, summary, trends, solved_here = run_sweep(cfg, tmp_path / "dead", monkeypatch, cpus=2, parent_delay_s=0.3)
    assert (rc, summary, trends) == tuple(serial)
    assert 0 <= int(marker.read_text()) <= 5  # the helper died holding a point
    assert len(solved_here) == 6


def test_first_error_in_grid_order_surfaces(wide_sweep, tmp_path, monkeypatch):
    # the helper dies holding an early point; the parent fails on the last point
    # first, and then on the early one, which a serial sweep would have raised
    cfg, _ = wide_sweep
    marker = tmp_path / "claimed"
    points = cli._grid_points(cli.load_config(cfg).sweep_axes)
    monkeypatch.setattr(cli, "_serve_points", dying_helper(marker))

    def fail_at(point):
        return point == points[-1] or (marker.exists() and point == points[int(marker.read_text())])

    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg, tmp_path / "err", monkeypatch, cpus=2, parent_delay_s=0.3, fail_at=fail_at)
    claimed = int(marker.read_text())
    assert claimed < len(points) - 1
    assert str(err.value) == f"failed at {points[claimed]}"


def test_error_at_the_first_point_surfaces_while_a_helper_runs(wide_sweep, tmp_path, monkeypatch):
    cfg, _ = wide_sweep
    points = cli._grid_points(cli.load_config(cfg).sweep_axes)
    pids, alive_at_error = [], []
    real_fork, real_serve, parent = os.fork, cli._serve_points, os.getpid()

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    def slow_serve(*args):  # a helper is slow, as one building a large instance is, so this process claims point 0
        if os.getpid() != parent:
            time.sleep(1.0)
        real_serve(*args)

    def fail_at(point):
        if point != points[0]:
            return False
        if not alive_at_error:  # the first error; the sweep solves the point again once its helper is reaped
            alive_at_error.extend(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in pids)
        return True

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_serve_points", slow_serve)
    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg, tmp_path / "err", monkeypatch, cpus=2, fail_at=fail_at)
    assert alive_at_error == [True]
    assert str(err.value) == f"failed at {points[0]}"


def test_a_helper_whose_point_raises_serves_on(wide_sweep, tmp_path, monkeypatch):
    # the helper's first point raises in every process; this process holds its
    # first point until the helper has stored another one after that error
    cfg, _ = wide_sweep
    points = cli._grid_points(cli.load_config(cfg).sweep_axes)
    raising, stored, pids, held = tmp_path / "raising", tmp_path / "stored", [], []
    real_fork, real_row, parent = os.fork, cli._sweep_row, os.getpid()

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    def store(i):
        with open(stored, "a") as log:
            log.write(f"{os.getpid()} {i}\n")

    def helper_stored() -> bool:
        lines = stored.read_text().splitlines() if stored.exists() else []
        return any(int(line.split()[0]) != parent for line in lines)

    def row(problem, solver_cfg, point):
        if os.getpid() != parent:
            if not raising.exists():
                raising.write_text(str(points.index(point)))
        elif not held:
            held.append(point)
            deadline = time.monotonic() + 10.0
            while not helper_stored() and time.monotonic() < deadline:
                time.sleep(0.02)
        if raising.exists() and point == points[int(raising.read_text())]:
            raise RuntimeError(f"failed at {point}")
        return real_row(problem, solver_cfg, point)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_sweep_row", row)
    monkeypatch.setattr(cli, "_serve_points", observed_stores(store))
    with pytest.raises(RuntimeError) as err:
        run_sweep(cfg, tmp_path / "err", monkeypatch, cpus=2)
    assert str(err.value) == f"failed at {points[int(raising.read_text())]}"
    assert helper_stored(), "the helper stored no point after its error"
    for pid in pids:  # every helper was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
