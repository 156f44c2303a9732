"""The CLI's exit-code contract as one table of cases, which
``tests/test_cli.py`` runs through ``main`` and CI through the installed
script: ``python tests/contract_cases.py DIR`` writes each case's config
under DIR and prints its ``<exit> <argv...>`` line.

A case is ``(command, base, edit, argv, exit code, stderr fragment)``: the
config is ``BASES[base]`` (``{}`` for ``None``) changed by :func:`edited`,
or ``edit`` itself when it is text, or no file when it is ``None``. An
exit-2 case prints one ``config error:`` line (or argparse's usage)
holding the fragment, which names its reason (the key, or the exception),
and writes nothing under ``--out``.
"""

import json
import math
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ORTHANT = {
    "version": 1,
    "seed": 1,
    "problem": {"family": "oracle_orthant", "params": {"q": [-1.0, 1.0]}},
    "schedules": {"preset": "paper_default"},
    "solver": {"max_iters": 200, "tol": 1e-8},
}
BASES = {"orthant": ORTHANT, **{path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}}
STRONG = "oracle_strong_linear"
SMALL_LASSO = {"k": 3, "m_rows": 16, "n_cols": 32}


class Again(str):
    """A config key that ``json.dumps`` writes a second time: a dict holds it
    next to the same key, because it compares and hashes by identity."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def rational(a, b, c):
    return {"kind": "rational", "a": a, "b": b, "c": c}


def refused(edit, fragment, command="solve", base="orthant", argv=()):
    """A case that exits 2 with ``fragment`` in its one stderr line."""
    return command, base, edit, list(argv), 2, fragment


MALFORMED = {
    "version_not_int": refused({"version": "x"}, "'version' must be an integer, got 'x'"),
    "seed_not_int": refused({"seed": "x"}, "'seed' must be an integer, got 'x'"),
    "max_iters_null": refused({"solver": {"max_iters": None}}, "'max_iters' must be an integer, got None"),
    "preset_mu_null": refused({"schedules": {"mu": None}}, "'mu' must be a number, got None"),
    "preset_alpha_string": refused({"schedules": {"alpha": "x"}}, "'alpha' must be an object"),
    "affine_m_null": refused(
        {"problem": {"family": "affine_vi", "params": {"m": None}}}, "'m' must be an integer, got None"
    ),
    "params_string": refused({"problem": {"family": "affine_vi", "params": "abc"}}, "'params' must be an object"),
    "sweep_value_string": refused(
        {"sweep": {"axes": [{"param": "theta", "values": ["abc"]}]}}, "'values' must be a number, got 'abc'", "sweep"
    ),
    "sweep_axis_number": refused({"sweep": {"axes": [3]}}, "'sweep axis' must be an object", "sweep"),
    "sweep_mu_out_of_range": refused(
        {"sweep": {"axes": [{"param": "mu", "values": [0.5, 1.5]}]}}, "mu must lie in (0, 1), got 1.5", "sweep"
    ),
    # would run theta = 0.6 twice and never 0.5 or 0.75
    "sweep_axis_repeated": refused({"sweep": {"axes": [
        {"param": "theta", "values": [0.5, 0.75]}, {"param": "theta", "values": [0.6]},
    ]}}, "sweep param 'theta' appears twice", "sweep"),
    # flags are true/false only: bool() would read "false" as true
    "assert_descent_string": refused(
        {"solver": {"assert_descent": "false"}}, "'assert_descent' must be true or false, got 'false'"
    ),
    "record_distance_string": refused(
        {"solver": {"record_distance": "no"}}, "'record_distance' must be true or false, got 'no'"
    ),
    # affine_vi has no identity switch: the identity affine VI is oracle_orthant
    "identity_number": refused(
        {"problem": {"family": "affine_vi", "params": {"m": 2, "identity": 1}}}, "unknown key(s) in 'params': identity"
    ),
    # integers may be written 20.0, but int() would truncate 10.9 and read true as 1
    "seed_fractional": refused({"seed": 3.7}, "'seed' must be an integer, got 3.7"),
    "version_bool": refused({"version": True}, "'version' must be an integer, got True"),
    "max_iters_fractional": refused({"solver": {"max_iters": 200.5}}, "'max_iters' must be an integer, got 200.5"),
    "strong_m_fractional": refused(
        {"problem": {"family": "oracle_strong", "params": {"m": 10.9}}}, "'m' must be an integer, got 10.9"
    ),
    # the seed is top-level only, and a sequence is always an object
    "problem_seed": refused({"problem": {"seed": 3}}, "unknown key(s) in 'problem': seed"),
    "alpha_bare_number": refused({"schedules": {"alpha": 0.5}}, "'alpha' must be an object"),
    "alpha_bool": refused({"schedules": {"alpha": True}}, "'alpha' must be an object"),
    # floats are JSON numbers: float() would read "0.4" as 0.4 and true as 1.0
    "mu_string": refused({"schedules": {"mu": "0.4"}}, "'mu' must be a number, got '0.4'"),
    "tol_bool": refused({"solver": {"tol": True}}, "'tol' must be a number, got True"),
    "sequence_value_bool": refused(
        {"schedules": {"alpha": {"kind": "constant", "value": True}}}, "'value' must be a number, got True"
    ),
    "sweep_value_numeric_string": refused(
        {"sweep": {"axes": [{"param": "theta", "values": ["0.5"]}]}}, "'values' must be a number, got '0.5'", "sweep"
    ),
    "q_string": refused(
        {"problem": {"family": "oracle_orthant", "params": {"q": ["-1", 1.0]}}}, "'q' must be a list of numbers"
    ),
    "q_bool": refused(
        {"problem": {"family": "affine_vi", "params": {"m": 2, "q": [-1.0, True]}}}, "'q' must be a list of numbers"
    ),
    "q_zero_orthant": refused(
        {"problem": {"family": "oracle_orthant", "params": {"q": "zero"}}}, "'q' must be a list of numbers, got 'zero'"
    ),
    # a 284 PiB matrix: numpy refuses it before touching any memory
    "affine_m_unallocatable": refused(
        {"problem": {"family": "affine_vi", "params": {"m": 200_000_000}}}, "bad problem params: MemoryError"
    ),
    "label_number": refused({"schedules": {"label": 5}}, "'label' must be a string, got 5"),
    # without a preset, theta has no default: theta_n = 0 would never apply the forward-backward step
    "schedules_without_theta": refused(
        json.dumps({**ORTHANT, "schedules": {"mu": 0.9, "lambda1": 0.1}}),
        "missing key(s) in 'schedules': theta (a 'preset' supplies them)",
        base=None,
    ),
    "schedules_empty": refused(
        json.dumps({**ORTHANT, "schedules": {}}),
        "missing key(s) in 'schedules': theta, mu, lambda1 (a 'preset' supplies them)",
        base=None,
    ),
    # json.loads would keep the last of the two values, so a setting would have two spellings
    "seed_twice": refused({Again("seed"): 4}, "duplicate key 'seed': each setting is given once"),
    "max_iters_twice": refused({"solver": {Again("max_iters"): 5}}, "duplicate key 'max_iters'"),
    "sequence_value_twice": refused(
        {"schedules": {"alpha": {"kind": "constant", "value": 0.1, Again("value"): 0}}}, "duplicate key 'value'"
    ),
    # a default is taken only by leaving its key out: these old spellings of one are refused
    "affine_q_zero": refused(
        {"problem": {"family": "affine_vi", "params": {"m": 2, "q": "zero"}}},
        "'q' must be a list of numbers, got 'zero'",
    ),
    "lasso_reg_null": refused(
        {"problem": {"family": "lasso", "params": {**SMALL_LASSO, "reg": None}}}, "'reg' must be a number, got None"
    ),
    "preset_null": refused({"schedules": {"preset": None}}, "'preset' must be a string, got None"),
    "sweep_null": refused({"sweep": None}, "'sweep' must be an object"),
    "affine_identity": refused(
        {"problem": {"family": "affine_vi", "params": {"m": 2, "q": [-1.0, 1.0], "identity": True}}},
        "unknown key(s) in 'params': identity",
    ),
}

MISSPELLED = {
    f"{name}-{command}": refused(edit, "unknown key", command, STRONG)
    for name, edit in {
        "sequence_valu": {"schedules": {"alpha": {"kind": "constant", "valu": 0.9}}},
        "solver_max_iter": {"solver": {"max_iter": 3}},
        "schedules_lamda1": {"schedules": {"lamda1": 5}},
        "params_rh0": {"problem": {"params": {"m": 10, "rho": 1.0, "rh0": 5}}},
        "top_level_sweeep": {"sweeep": {"axes": []}},
    }.items()
    for command in ("validate", "solve")
}

UNUSABLE_SCHEDULES = {
    name: refused({"schedules": schedules}, fragment)
    for name, schedules, fragment in [
        *(
            (f"{key}_{value}", {key: {"kind": "constant", "value": value}}, "sequence parameters must be finite")
            for key in ("alpha", "theta", "mu_seq", "p_seq")
            for value in (math.inf, math.nan)
        ),
        ("lambda1_inf", {"lambda1": math.inf}, "lambda1 must be positive and finite, got inf"),
        ("epsilon_inf", {"epsilon": math.inf}, "epsilon must be nonnegative and finite, got inf"),
        ("theta_floor_inf", {"theta_floor": math.inf}, "theta_floor must be positive and finite, got inf"),
        ("mu_seq_turns_negative", {"mu_seq": rational(-0.1, 1.0, 0.0)}, "mu_seq must stay nonnegative"),
    ]
}

BAD_FLAGS = {
    "max_iters_zero": refused({}, "max_iters must be >= 1", argv=["--max-iters", "0"]),
    "tol_zero": refused({}, "tol must be positive and finite, got 0.0", argv=["--tol", "0"]),
    # validate takes no --horizon: clause (iv) is always sampled up to 10^6
    "validate_horizon": refused({}, "unrecognized arguments: --horizon", "validate", argv=["--horizon", "5"]),
    "tol_inf": refused({}, "tol must be positive and finite, got inf", argv=["--tol", "inf"]),
}

# json.loads recurses once per level: 1,000 levels exceed the recursion limit
NESTED = {
    f"nested_{command}": refused(
        '{"version": 1, "problem": ' + "[" * 1000 + "]" * 1000 + "}", "config is nested too deeply", command, None
    )
    for command in ("solve", "sweep", "validate")
}
# each written as the JSON token Infinity or NaN, but for a rho whose square overflows
NON_FINITE_PARAMS = {
    name: refused({"problem": {"family": family, "params": params}}, fragment, base=STRONG)
    for name, family, params, fragment in [
        ("strong_rho_inf", "oracle_strong", {"m": 10, "rho": math.inf}, "rho must be positive with a finite square"),
        # L = sqrt(rho^2 + ||S||^2) would overflow
        ("strong_rho_huge", "oracle_strong", {"m": 10, "rho": 1e155}, "rho must be positive with a finite square"),
        # would zero every iterate
        ("lasso_reg_inf", "lasso", {**SMALL_LASSO, "reg": math.inf}, "reg must be positive and finite, got inf"),
        (
            "lasso_reg_scale_inf", "lasso", {**SMALL_LASSO, "reg_scale": math.inf},
            "reg must be positive and finite, got inf from reg_scale = inf",
        ),
        # would run noise-free
        ("lasso_noise_var_nan", "lasso", {**SMALL_LASSO, "noise_var": math.nan}, "noise_var must be nonnegative"),
        ("affine_q_inf", "affine_vi", {"m": 4, "q": [math.inf, 0.0, 0.0, 0.0]}, "NonFiniteError: q contains"),
    ]
}

# single cases: three refusals, a budget run out, and validate passing and failing
OTHERS = {
    "not_json": refused("{not json", "config is not valid JSON", base=None),
    "unknown_family": refused({"problem": {"family": "qp"}, "seed": 1}, "problem.family must be one of", base=None),
    "preset_not_string": refused({"schedules": {"preset": ["paper_default"]}}, "'preset' must be a string"),
    "budget_exhausted": ("solve", "affine_vi_m50", {}, ["--max-iters", "1"], 1, ""),
    "validate_passes": ("validate", "affine_vi_m50", {}, [], 0, ""),
    # theta_n = 1/n falls: clause (iii) fails
    "theta_falls": ("validate", "orthant", {"schedules": {"theta": rational(0.0, 1.0, 0.0)}}, [], 1, ""),
}

# configs and flags through every exit code
EXITS = {
    # alpha = 50 overflows over many iterations
    "diverging": ("solve", "orthant", {"schedules": {"alpha": {"kind": "constant", "value": 50.0}}}, [], 3, ""),
    # alpha_n = 1 + 1e-7 - 1/n leaves [0, 1] only beyond n = 10^7: clause (i) fails on its limit
    "alpha_limit": ("validate", "affine_vi_m50", {"schedules": {"alpha": rational(1 + 1e-7, -1.0, 0.0)}}, [], 1, ""),
    # the blend 0.4 alpha_n falls by ~2e-15 a step: clause (iv) fails at n = 1
    "blend_drop": (
        "validate", "affine_vi_m50", {"schedules": {"preset": "chc_relaxed", "alpha": rational(0.3, 0.5, 1e7)}}, [], 1, ""
    ),
    "missing_config": refused(None, "cannot read config", base=None),
    # schedules no run can use are refused before anything is written
    "strong_lambda1_inf": refused(
        {"schedules": {"lambda1": math.inf}}, "lambda1 must be positive and finite, got inf", base=STRONG
    ),
    "repeated_axis": refused(
        {"sweep": {"axes": [*BASES["affine_relaxation_sweep"]["sweep"]["axes"], {"param": "theta", "values": [0.6]}]}},
        "sweep param 'theta' appears twice", "sweep", "affine_relaxation_sweep",
    ),
    # each setting has one spelling: flags are true/false, the seed is top-level, validate has no --horizon
    "strong_descent_string": refused(
        {"solver": {"assert_descent": "false"}}, "'assert_descent' must be true or false", base=STRONG
    ),
    "strong_problem_seed": refused({"problem": {"seed": 3}}, "unknown key(s) in 'problem': seed", base=STRONG),
    "strong_horizon": refused({}, "unrecognized arguments", "validate", STRONG, ["--horizon", "5"]),
    # float settings take JSON numbers only: float() would read "0.4" as 0.4 and true as 1.0
    "strong_mu_string": refused({"schedules": {"mu": "0.4"}}, "'mu' must be a number, got '0.4'", base=STRONG),
    "strong_tol_bool": refused({"solver": {"tol": True}}, "'tol' must be a number, got True", base=STRONG),
    # a 284 PiB problem: numpy refuses it before touching any memory
    "affine_huge": refused(
        {"problem": {"params": {"m": 200_000_000}}}, "bad problem params: MemoryError", base="affine_vi_m50"
    ),
    # a key given twice: JSON would silently keep the second value
    "strong_seed_twice": refused(
        '{"seed": 3, ' + (CONFIGS / f"{STRONG}.json").read_text().lstrip()[1:], "duplicate key 'seed'", "validate", None
    ),
    # lasso's l1 weight is reg, or derived from reg_scale: never both, and never a weight that is not positive
    "lasso_reg_scale_zero": refused(
        {"problem": {"family": "lasso", "params": {**SMALL_LASSO, "reg_scale": 0}}},
        "reg must be positive and finite, got 0.0 from reg_scale = 0",
    ),
    "lasso_reg_scale_negative": refused(
        {"problem": {"family": "lasso", "params": {**SMALL_LASSO, "reg_scale": -0.01}}},
        "reg must be positive and finite, got -",
    ),
    "lasso_reg_and_reg_scale": refused(
        {"problem": {"params": {**BASES["lasso_recovery"]["problem"]["params"], "reg": 0.05}}},
        "give reg or reg_scale, not both",
        base="lasso_recovery",
    ),
}

SECTIONS = [MALFORMED, MISSPELLED, UNUSABLE_SCHEDULES, BAD_FLAGS, NESTED, NON_FINITE_PARAMS, OTHERS, EXITS]
CASES = {name: case for section in SECTIONS for name, case in section.items()}
assert len(CASES) == sum(map(len, SECTIONS)), "a case name is used twice"


def edited(base: dict, edit: dict) -> dict:
    """A copy of ``base`` in which each dict value of ``edit`` updates the
    section of its key, and each other value replaces its key."""
    cfg = json.loads(json.dumps(base))
    for key, value in edit.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def materialize(name: str, directory) -> list[str]:
    """Write case ``name``'s config in ``directory`` and return its argv."""
    command, base, edit, argv, *_ = CASES[name]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / f"{name}.json"
    if edit is not None:
        text = edit if isinstance(edit, str) else json.dumps(edited(BASES[base] if base else {}, edit))
        config.write_text(text, encoding="utf-8")
    out = ["--out", str(directory / name), "--quiet"] if command in ("solve", "sweep") else []
    return [command, "--config", str(config), *out, *argv]


if __name__ == "__main__":
    for name, (*_, code, _fragment) in CASES.items():
        print(code, *materialize(name, sys.argv[1]))
