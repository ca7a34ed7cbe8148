"""Command-line interface: every operation as a subcommand with JSON output.

JSON goes to stdout (one object per invocation, numbers at 15 significant
digits, complex values as "a+bi" strings); human summaries go to stderr,
and so do the per-stage suite timings that `thetalab --timings verify
suite` adds.
Exit codes: 0 success (and every suite check passed), 1 a suite check
failed, 2 malformed input or an input outside the documented domain, 3 an
internal failure (an ArithmeticError such as an unresolved branch sign or a
non-unique solve, or a ConventionFlip), reported on stdout as
{"error": <message>, "kind": <exception class name>}.  A reader that
closes stdout before the JSON is written gets the same exit code and no
traceback.  THETA_LAB_SEED fixes the generator for sampled sweeps.

Principal branch convention: square roots take arg in (-pi, pi], so
sqrt(-1) = i; every branch sign in `mp` and `verify` output depends on it.

A subcommand loads only the library modules it uses: each handler imports
them when it runs, so `congruence` and `mp` never load numpy.  Handlers
call through the module (`hb.enumerate_sym_automorphisms(...)`), so a
function rebound on its module is the one called.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

__all__ = ["main"]


def _fmt_float(x: float) -> float:
    return float(f"{x:.15g}")


def _fmt_complex(z: complex) -> str:
    re = f"{z.real:.15g}"
    im = f"{abs(z.imag):.15g}"
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    return complex(cleaned)


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _parse_type(text: str):
    from . import heisenberg as hb

    return hb.ThetaType(tuple(_parse_ints(text)))


def _parse_sl2(text: str):
    from . import congruence as cg

    nums = _parse_ints(text)
    if len(nums) != 4:
        raise ValueError(f"need four entries a,b,c,d: {text!r}")
    return cg.SL2Matrix(*nums)


def _matrix_json(mat) -> list[list[str]]:
    return [[_fmt_complex(z) for z in row] for row in mat]


# group name -> the group, built from the `congruence` module and the arguments
GROUP_NAMES = {
    "gamma": lambda cg, ns: cg.Gamma(_require(ns, "n")),
    "gamma0": lambda cg, ns: cg.Gamma0(_require(ns, "n")),
    "gamma-m-2m": lambda cg, ns: cg.GammaM2M(_require(ns, "m")),
    "theta12": lambda cg, ns: cg.THETA12,
}


def _require(ns: argparse.Namespace, field: str) -> int:
    value = getattr(ns, field, None)
    if value is None:
        raise ValueError(f"--{field} is required for this group")
    return value


def _cmd_heisenberg(ns) -> dict:
    from . import heisenberg as hb

    typ = _parse_type(ns.type)
    if ns.heisenberg_cmd == "splittings":
        splittings = hb.enumerate_symmetric_splittings(typ)
        return {
            "type": list(typ.divisors),
            "count": len(splittings),
            "splittings": [s.to_json() for s in splittings],
        }
    auts = hb.enumerate_sym_automorphisms(typ)
    if ns.stabilizer_u0sym:
        auts = hb.stabilizer_u0sym(typ, auts)
    return {
        "type": list(typ.divisors),
        "count": len(auts),
        "automorphisms": [u.to_json() for u in auts],
    }


def _cmd_schrodinger(ns) -> dict:
    from . import heisenberg as hb
    from . import schrodinger as sc
    from .cyclo import RootOfUnity

    typ = _parse_type(ns.type)
    parts = ns.element.split(",")
    if len(parts) != 1 + 2 * typ.g:
        raise ValueError(
            f"--element needs a scalar exponent and {2 * typ.g} coordinates"
        )
    try:
        exponent = Fraction(parts[0])
    except ZeroDivisionError:
        raise ValueError(f"scalar exponent {parts[0]!r} has a zero denominator") from None
    scalar = RootOfUnity(exponent)
    coords = [int(t) for t in parts[1:]]
    z = hb.KVector(typ, tuple(coords[: typ.g]), tuple(coords[typ.g :]))
    matrix = sc.rho(hb.HeisenbergElement(scalar, z))
    return {
        "type": list(typ.divisors),
        "element": {"scalar": scalar.to_json(), "x": list(z.x), "y": list(z.y)},
        "matrix": _matrix_json(matrix.to_numpy()),
    }


def _cmd_discriminant(ns) -> dict:
    from . import symplectic4 as s4

    nums = _parse_ints(ns.gamma)
    n = 2 * ns.g
    if len(nums) != n * n:
        raise ValueError(f"--gamma needs {n * n} entries for g={ns.g}")
    mat = [nums[i * n : (i + 1) * n] for i in range(n)]
    value = s4.discriminant(mat, ns.parity)
    return {"g": ns.g, "parity": ns.parity, "lambda": value.to_json()}


def _cmd_congruence(ns) -> dict:
    from . import congruence as cg

    if ns.congruence_cmd == "member":
        group = GROUP_NAMES[ns.group](cg, ns)
        gamma = _parse_sl2(ns.gamma)
        return {"group": str(group), "member": cg.member(gamma, group)}
    if ns.congruence_cmd == "index":
        group = GROUP_NAMES[ns.group](cg, ns)
        return {"group": str(group), "index": cg.subgroup_index(group)}
    gamma = _parse_sl2(ns.gamma)
    image = cg.des_hom(gamma, ns.m)
    return {"m": ns.m, "des": list(image.entries())}


def _cmd_mp(ns) -> dict:
    from . import metaplectic as mp

    left = mp.MpElement.from_string(ns.left)
    right = mp.MpElement.from_string(ns.right)
    product = mp.mp_mul(left, right)
    return {"mp": product.as_string()}


def _cmd_weilrep(ns) -> dict:
    from . import metaplectic as mp
    from . import weilrep as wr

    p = mp.MpElement.from_string(ns.mp)
    mat = wr.weil_rep(ns.m, p)
    return {"m": ns.m, "mp": p.as_string(), "matrix": _matrix_json(mat)}


def _cmd_theta(ns) -> dict:
    from . import thetanum as tn

    tau = _parse_complex(ns.tau)
    vec = tn.theta_constants(ns.m, tau, ns.tol)
    return {
        "m": ns.m,
        "tau": _fmt_complex(tau),
        "values": [_fmt_complex(z) for z in vec.values],
        "err_bound": _fmt_float(vec.err_bound),
    }


def _internal_error(exc: Exception) -> tuple[dict, int]:
    print(f"internal error: {exc}", file=sys.stderr)
    return {"error": str(exc), "kind": type(exc).__name__}, 3


def _seed() -> int:
    raw = os.environ.get("THETA_LAB_SEED", "0")
    if not raw.strip().isdecimal():
        raise ValueError(f"THETA_LAB_SEED must be a non-negative integer, got {raw!r}")
    return int(raw)


def _cmd_verify(ns) -> tuple[dict, int]:
    from . import thetanum as tn

    # ConventionFlip is raised only under `verify`, so only this handler loads
    # `thetanum` to catch it
    try:
        return _verify(ns, tn)
    except tn.ConventionFlip as exc:
        return _internal_error(exc)


def _verify(ns, tn) -> tuple[dict, int]:
    if ns.verify_cmd == "transform":
        from . import metaplectic as mp

        p = mp.MpElement.from_string(ns.mp)
        tau = _parse_complex(ns.tau)
        check = tn.verify_transformation(ns.m, p, tau, ns.tol)
        return (
            {
                "m": ns.m,
                "mp": p.as_string(),
                "tau": _fmt_complex(tau),
                "tol": _fmt_float(ns.tol),
                "residual": _fmt_float(check.residual),
                "convention": check.convention,
                "pass": check.passed,
            },
            0 if check.passed else 1,
        )
    from . import suite as suite_mod

    seed = _seed()
    report = suite_mod.run_suite(ns.level, seed)
    for check in report["checks"]:
        check["residual"] = _fmt_float(check["residual"])
        status = "pass" if check["pass"] else "FAIL"
        print(f"[{status}] {check['check_id']}: {check['observed']}", file=sys.stderr)
    if ns.timings:
        for stage in report["stages"]:
            print(
                f"[time] {stage['name']}: {stage['wall_time']:.3f} s, {stage['checks']} checks",
                file=sys.stderr,
            )
        print(f"[time] total: {report['wall_time']:.3f} s", file=sys.stderr)
    return report, 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetalab",
        description="Finite Heisenberg / metaplectic machinery with numerical "
        "verification of theta transformation laws.",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print the wall time of each `verify suite` stage to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("heisenberg", help="splittings and automorphisms")
    sub_h = p_h.add_subparsers(dest="heisenberg_cmd", required=True)
    p_hs = sub_h.add_parser("splittings")
    p_hs.add_argument("--type", required=True, help="divisor chain, e.g. 2,2")
    p_ha = sub_h.add_parser("aut")
    p_ha.add_argument("--type", required=True)
    p_ha.add_argument("--stabilizer-u0sym", action="store_true")

    p_s = sub.add_parser("schrodinger", help="representation matrices")
    sub_s = p_s.add_subparsers(dest="schrodinger_cmd", required=True)
    p_sm = sub_s.add_parser("matrix")
    p_sm.add_argument("--type", required=True)
    p_sm.add_argument(
        "--element", required=True, help="scalar exponent then coordinates: 1/4,3,1"
    )

    p_d = sub.add_parser("discriminant", help="mu_4 discriminant character")
    p_d.add_argument("--g", type=int, required=True, choices=(1, 2))
    p_d.add_argument("--parity", required=True, choices=("even", "odd"))
    p_d.add_argument("--gamma", required=True, help="row-major entries mod 4")

    p_c = sub.add_parser("congruence", help="congruence subgroup operations")
    sub_c = p_c.add_subparsers(dest="congruence_cmd", required=True)
    p_cm = sub_c.add_parser("member")
    p_cm.add_argument("--group", required=True, choices=sorted(GROUP_NAMES))
    p_cm.add_argument("--n", type=int)
    p_cm.add_argument("--m", type=int)
    p_cm.add_argument("--gamma", required=True)
    p_ci = sub_c.add_parser("index")
    p_ci.add_argument("--group", required=True, choices=sorted(GROUP_NAMES))
    p_ci.add_argument("--n", type=int)
    p_ci.add_argument("--m", type=int)
    p_cd = sub_c.add_parser("des")
    p_cd.add_argument("--m", type=int, required=True)
    p_cd.add_argument("--gamma", required=True)

    p_mp = sub.add_parser("mp", help="metaplectic arithmetic")
    sub_mp = p_mp.add_subparsers(dest="mp_cmd", required=True)
    p_mpm = sub_mp.add_parser("mul")
    p_mpm.add_argument("--left", required=True, help='"a,b,c,d:+|-"')
    p_mpm.add_argument("--right", required=True)

    p_w = sub.add_parser("weilrep", help="unitary representation matrices")
    p_w.add_argument("--m", type=int, required=True)
    p_w.add_argument("--mp", required=True, help='"a,b,c,d:+|-"')

    p_t = sub.add_parser("theta", help="theta constants")
    sub_t = p_t.add_subparsers(dest="theta_cmd", required=True)
    p_te = sub_t.add_parser("eval")
    p_te.add_argument("--m", type=int, required=True)
    p_te.add_argument("--tau", required=True, help='"x+yi"')
    p_te.add_argument("--tol", type=float, default=1e-12)

    p_v = sub.add_parser("verify", help="transformation-law verification")
    sub_v = p_v.add_subparsers(dest="verify_cmd", required=True)
    p_vt = sub_v.add_parser("transform")
    p_vt.add_argument("--m", type=int, required=True)
    p_vt.add_argument("--mp", required=True)
    p_vt.add_argument("--tau", required=True)
    p_vt.add_argument("--tol", type=float, default=1e-9)
    p_vs = sub_v.add_parser("suite")
    p_vs.add_argument("--level", default="quick", choices=("quick", "full"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    exit_code = 0
    try:
        if ns.command == "heisenberg":
            payload = _cmd_heisenberg(ns)
        elif ns.command == "schrodinger":
            payload = _cmd_schrodinger(ns)
        elif ns.command == "discriminant":
            payload = _cmd_discriminant(ns)
        elif ns.command == "congruence":
            payload = _cmd_congruence(ns)
        elif ns.command == "mp":
            payload = _cmd_mp(ns)
        elif ns.command == "weilrep":
            payload = _cmd_weilrep(ns)
        elif ns.command == "theta":
            payload = _cmd_theta(ns)
        elif ns.command == "verify":
            payload, exit_code = _cmd_verify(ns)
        else:  # pragma: no cover - argparse enforces choices
            raise ValueError(f"unknown command {ns.command!r}")
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        payload, exit_code = _internal_error(exc)
    try:
        print(json.dumps(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point stdout at devnull so that the
        # flush at interpreter exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
