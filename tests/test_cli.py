import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import thetalab
from thetalab import metaplectic, suite, symplectic4, thetanum
from thetalab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_congruence_member(capsys):
    code, payload, _ = run_cli(
        capsys, "congruence", "member", "--group", "theta12", "--gamma", "0,-1,1,0"
    )
    assert code == 0
    assert payload == {"group": "Gamma(1,2)", "member": True}
    code, payload, _ = run_cli(
        capsys,
        "congruence", "member", "--group", "gamma-m-2m", "--m", "2", "--gamma", "1,4,0,1",
    )
    assert code == 0 and payload["member"] is True


# a `thetalab` process whose `congruence des` can be made to fail internally
PIPE_CHILD = """
import sys
from thetalab import congruence
from thetalab.cli import main

def des_hom(g, m):
    raise ArithmeticError("forced")

if sys.argv[1] == "fail":
    congruence.des_hom = des_hom
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "mode, argv, code, err",
    (
        ("ok", ("congruence", "member", "--group", "theta12", "--gamma", "0,-1,1,0"), 0, ""),
        ("fail", ("congruence", "des", "--m", "2", "--gamma", "1,1,4,5"), 3,
         "internal error: forced\n"),
    ),
)
def test_closed_stdout_exits_quietly_with_the_command_code(mode, argv, code, err):
    """A reader that closed stdout before the JSON is written (`thetalab ... |
    head -c 0`) gets the command's exit code and no traceback."""
    src = os.path.dirname(os.path.dirname(thetalab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", PIPE_CHILD, mode, *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, err)


def test_congruence_index_and_des(capsys):
    code, payload, _ = run_cli(capsys, "congruence", "index", "--group", "gamma0", "--n", "4")
    assert code == 0 and payload["index"] == 6
    code, payload, _ = run_cli(capsys, "congruence", "des", "--m", "2", "--gamma", "1,1,4,5")
    assert code == 0 and payload["des"] == [1, 2, 2, 5]


def test_weilrep_t_matrix(capsys):
    code, payload, _ = run_cli(capsys, "weilrep", "--m", "2", "--mp", "1,1,0,1:+")
    assert code == 0
    matrix = payload["matrix"]
    assert matrix[0] == ["1+0i", "0+0i"]
    assert matrix[1][0] == "0+0i"
    assert abs(complex(matrix[1][1].replace("i", "j")) - 1j) < 1e-12


def test_mp_mul(capsys):
    code, payload, _ = run_cli(
        capsys, "mp", "mul", "--left", "0,-1,1,0:+", "--right", "0,-1,1,0:+"
    )
    assert code == 0
    assert payload == {"mp": "-1,0,0,-1:+"}


def test_mp_mul_large_entries(capsys):
    """Entries near 1e15, where gamma(2i) rounds onto the real axis: the
    product is exact, not an upper-half-plane error."""
    x = "-15393440768503,45822502016896,-1062339659015906,3162324908378425:+"
    code, payload, _ = run_cli(capsys, "mp", "mul", f"--left={x}", f"--right={x}")
    assert code == 0
    p = metaplectic.MpElement.from_string(x)
    square = metaplectic.mp_from_word(metaplectic.mp_lift_word(p.gamma, p.eps) * 2)
    assert payload == {"mp": square.as_string()}


def test_discriminant(capsys):
    code, payload, _ = run_cli(
        capsys, "discriminant", "--g", "1", "--parity", "even", "--gamma", "0,3,1,0"
    )
    assert code == 0
    assert payload["lambda"] == {"num": 1, "den": 4}


def test_heisenberg_commands(capsys):
    code, payload, _ = run_cli(capsys, "heisenberg", "splittings", "--type", "2,2")
    assert code == 0 and payload["count"] == 4
    code, payload, _ = run_cli(
        capsys, "heisenberg", "aut", "--type", "2", "--stabilizer-u0sym"
    )
    assert code == 0 and payload["count"] == 4
    serialized = [json.dumps(u, sort_keys=True) for u in payload["automorphisms"]]
    assert serialized == sorted(serialized) or len(serialized) == len(set(serialized))


# sha256 of the stdout of `thetalab heisenberg aut`, recorded with the
# numerical semicharacter solver that the closed form replaced
HEISENBERG_AUT_STDOUT_SHA256 = {
    ("--type", "2", "--stabilizer-u0sym"): (
        "2415a711a1856470e647cdba80d6eab161a480fe865554c4495ec2ea4a6dd23c"
    ),
    ("--type", "2,2"): "dbf31a48c7bb5faa36dcb8721ac62fbb2d3bd33b61a5350b599e170af0b7db83",
}


@pytest.mark.parametrize("args", sorted(HEISENBERG_AUT_STDOUT_SHA256))
def test_heisenberg_aut_stdout_is_pinned(capsys, args):
    assert main(["heisenberg", "aut", *args]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == HEISENBERG_AUT_STDOUT_SHA256[args]


def test_schrodinger_matrix(capsys):
    code, payload, _ = run_cli(
        capsys, "schrodinger", "matrix", "--type", "4", "--element", "1/4,3,1"
    )
    assert code == 0
    mat = np.array(
        [[complex(e.replace("i", "j")) for e in row] for row in payload["matrix"]]
    )
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(4))) < 1e-12


def test_theta_eval(capsys):
    code, payload, _ = run_cli(
        capsys, "theta", "eval", "--m", "2", "--tau", "0.3+1.1i", "--tol", "1e-12"
    )
    assert code == 0
    assert payload["m"] == 2 and len(payload["values"]) == 2
    assert payload["err_bound"] <= 1e-12


def test_verify_transform(capsys):
    code, payload, _ = run_cli(
        capsys,
        "verify", "transform", "--m", "4", "--mp", "0,-1,1,0:+", "--tau", "0.3+1.1i",
        "--tol", "1e-9",
    )
    assert code == 0
    assert payload["pass"] is True and payload["convention"] == "direct"
    assert payload["residual"] < 1e-9


def test_verify_suite_quick(capsys):
    code, payload, err = run_cli(capsys, "verify", "suite", "--level", "quick")
    assert code == 0
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["checks"])
    assert "[pass]" in err
    # entries are emitted in the declared order
    ids = [c["check_id"] for c in payload["checks"]]
    assert ids.index("transformation_law") < ids.index("discriminant_oracle")
    assert ids.index("discriminant_oracle") < ids.index("index_multiplicativity")


def test_suite_reports_stages_and_meta():
    report = suite.run_suite("quick", seed=3)
    stages = report["stages"]
    assert [st["name"] for st in stages] == [name for name, _ in suite.CHECK_ORDER]
    assert sum(st["checks"] for st in stages) == len(report["checks"])
    assert all(st["wall_time"] >= 0 for st in stages)
    # each time is rounded to 6 significant digits (relative error 5e-6)
    assert sum(st["wall_time"] for st in stages) <= report["wall_time"] * (1 + 2e-5)
    meta = report["meta"]
    assert meta["seed"] == 3 and meta["level"] == "quick"
    assert meta["numpy"] == np.__version__
    assert meta["thetalab"] and meta["python"].count(".") == 2
    # at most one decisive query per (m, word, tau) of the quick battery,
    # counted per run, not since the process started
    queries = meta["decisive_queries"]
    assert 0 < queries <= 3 * 6 * len(suite.TRANSFORM_TAUS)
    assert suite.run_suite("quick", seed=3)["meta"]["decisive_queries"] == queries


def test_suite_checks_are_fixed_by_the_seed():
    first = suite.run_suite("quick", seed=5)["checks"]
    assert suite.run_suite("quick", seed=5)["checks"] == first


def test_quick_sweep_sizes():
    """Each sweep filters the same entry-bounded pool, whatever the seed."""
    report = suite.run_suite("quick", seed=11)
    sizes = [
        (c["check_id"], c["params"].get("m"), c["params"]["matrices"])
        for c in report["checks"]
        if "matrices" in c["params"]
    ]
    assert sizes == [
        ("discriminant_oracle", None, 132),
        ("theta_structure_stabilizer", 2, 178),
        ("splitting_stabilizer", 2, 342),
        ("theta_structure_stabilizer", 4, 17),
        ("splitting_stabilizer", 4, 170),
    ]


def test_timings_flag_prints_stages_to_stderr(capsys):
    code = main(["--timings", "verify", "suite", "--level", "quick"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # exactly one JSON object on stdout
    assert code == 0 and payload["pass"] is True
    assert len(captured.out.strip().splitlines()) == 1
    for name, _ in suite.CHECK_ORDER:
        assert f"[time] {name}: " in captured.err
    assert "[time]" not in captured.out


def test_verify_suite_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("THETA_LAB_SEED", "17")
    code, payload, _ = run_cli(capsys, "verify", "suite", "--level", "quick")
    assert code == 0 and payload["seed"] == 17 and payload["pass"] is True


@pytest.mark.parametrize("raw", ("abc", "1.5", "-1", ""))
def test_bad_seed_env_exits_2_naming_the_variable(capsys, monkeypatch, raw):
    monkeypatch.setenv("THETA_LAB_SEED", raw)
    code, payload, err = run_cli(capsys, "verify", "suite", "--level", "quick")
    assert code == 2 and payload is None
    assert f"THETA_LAB_SEED must be a non-negative integer, got {raw!r}" in err


def test_outputs_are_deterministic(capsys):
    argv = ["theta", "eval", "--m", "4", "--tau", "0.2+0.9i", "--tol", "1e-10"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_bad_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "congruence", "member", "--group", "gamma0", "--gamma", "1,0,0,2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "discriminant", "--g", "1", "--parity", "even", "--gamma", "1,1,0,1")
    assert code == 2
    code, _, err = run_cli(capsys, "theta", "eval", "--m", "2", "--tau", "0.3+0.01i")
    assert code == 2
    for argv in (
        ("congruence", "member", "--group", "gamma0", "--n", "0", "--gamma", "1,0,0,1"),
        ("congruence", "index", "--group", "gamma-m-2m", "--m", "0"),
        ("congruence", "index", "--group", "gamma", "--n", "-4"),
    ):
        code, payload, err = run_cli(capsys, *argv)
        assert code == 2 and "positive" in err and payload is None, argv
    code, payload, err = run_cli(capsys, "schrodinger", "matrix", "--type", "2", "--element", "1/0,1,0")
    assert code == 2 and "zero denominator" in err and payload is None


def test_non_finite_and_oversized_input_exits_2(capsys):
    for argv in (
        ("theta", "eval", "--m", "4", "--tau", "nan+1i"),
        ("theta", "eval", "--m", "4", "--tau", "0.3+nani"),
        ("theta", "eval", "--m", "4", "--tau", "0.3+1.1i", "--tol", "nan"),
        ("verify", "transform", "--m", "4", "--mp", "0,-1,1,0:+", "--tau", "nan+1i"),
        ("verify", "transform", "--m", "4", "--mp", "0,-1,1,0:+", "--tau", "0.3+1.1i", "--tol", "inf"),
    ):
        code, payload, err = run_cli(capsys, *argv)
        assert code == 2 and "finite" in err and payload is None, argv
    code, payload, err = run_cli(capsys, "congruence", "index", "--group", "gamma0", "--n", "1000")
    assert code == 2 and "bound" in err and payload is None


def test_json_round_trips(capsys):
    for argv in (
        ["weilrep", "--m", "2", "--mp", "0,-1,1,0:+"],
        ["heisenberg", "splittings", "--type", "2"],
        ["theta", "eval", "--m", "2", "--tau", "2i"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == json.loads(out)


def test_internal_arithmetic_errors_exit_3(capsys, monkeypatch):
    def unresolved(left, right):
        raise ArithmeticError("branch sign not resolved")

    monkeypatch.setattr(metaplectic, "mp_mul", unresolved)
    code, payload, err = run_cli(
        capsys, "mp", "mul", "--left", "0,-1,1,0:+", "--right", "0,-1,1,0:+"
    )
    assert code == 3 and "internal error" in err
    assert payload == {"error": "branch sign not resolved", "kind": "ArithmeticError"}

    def non_unique(gamma, parity):
        raise symplectic4.NonUnique("two characters pass")

    monkeypatch.setattr(symplectic4, "discriminant", non_unique)
    code, payload, _ = run_cli(
        capsys, "discriminant", "--g", "1", "--parity", "even", "--gamma", "0,3,1,0"
    )
    assert code == 3
    assert payload == {"error": "two characters pass", "kind": "NonUnique"}

    # only the CLI's own parsing turns a zero denominator into malformed input
    def divides_by_zero(gamma, parity):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(symplectic4, "discriminant", divides_by_zero)
    code, payload, _ = run_cli(
        capsys, "discriminant", "--g", "1", "--parity", "even", "--gamma", "0,3,1,0"
    )
    assert code == 3
    assert payload == {"error": "division by zero", "kind": "ZeroDivisionError"}


def test_convention_flip_exits_3(capsys, monkeypatch):
    def flipped(level, seed):
        raise thetanum.ConventionFlip("convention flipped from direct to conjugate")

    monkeypatch.setattr(suite, "run_suite", flipped)
    code, payload, err = run_cli(capsys, "verify", "suite", "--level", "quick")
    assert code == 3 and "internal error" in err
    assert payload == {
        "error": "convention flipped from direct to conjugate",
        "kind": "ConventionFlip",
    }
