"""Worker processes of the benchmark: set-up, passes and correctness gates.

run.py starts this file in a fresh interpreter, with the checkout's `src`
first on PYTHONPATH:

    python3 perfbench/workloads.py '{"workload": "numeric-verify", "job": "measure",
                                     "seed": 0, "seconds": 10}'

Jobs: `setup` (set up, then exit), `measure` (exact-enum: the build and
`seconds` of lookups; numeric-verify: passes for `seconds`; with `passes`
set, a fixed amount of work instead), `traced` (the same
work with a span around every layer call, followed by the per-layer
probes) and `cli` (one traced in-process `thetalab` command, the traced
counterpart of a CLI process).  The worker prints `READY` once set-up is
done and `PASS` when the timed passes end, so run.py can time both from
outside, and ends with one JSON line: its result.

Inputs come only from the seed, through public thetalab calls, and every
input is checked against the library's precision contracts before use.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict

from speed import Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# --- workload definitions -------------------------------------------------------------

# exact-enum: (g, parity) -> group order; Heisenberg types and their counts.
EXACT = {
    "groups": {(1, "even"): 16, (1, "odd"): 48, (2, "even"): 73728, (2, "odd"): 122880},
    "maxiso_type": (4, 4),
    "maxiso_count": 120,
    "orbit_type": (2, 2),
    "aut_count": 11520,
    "stab_count": 192,
    "orbit_index": 60,
    "lookup_g": 2,
    "lookup_pairs": 1000,  # per parity; three lookups per pair
    "kernel_gens": 20,
}

# numeric-verify: one pass runs one round of words (token_mix) through
# verify_transformation at each m in "verify" and through dense weil_rep at
# each m in "weil", and every theta tau through theta_constants at each m in
# "theta".  Every pass does the same mix of work, so the median over passes
# does not depend on which words a pass drew; the m=512 operations dominate.
NUMERIC = {
    "verify": (6, 64, 512),
    "weil": (512,),
    "theta": (6, 512),
    "max_letters": 12,
    "verify_im": (0.5, 1.5),
    "theta_im": (0.1, 0.15),
    # words per round by token count of their S/T factorization: the
    # distribution the suite's rule gives (0: 6%, 1: 17%, 2: 20%, 3: 22%,
    # 4: 18%, 5: 10%, 6: 5%, more: 1%) rounded to twenty words
    "token_mix": {0: 1, 1: 4, 2: 4, 3: 4, 4: 4, 5: 2, 6: 1},
    "rounds": 8,
    "theta_taus": 64,
    "w60_pairs": 100,
}
# operations made of dense m=512 products, scaled by the dense kernel (speed.py)
DENSE = frozenset({"verify.m512", "weil.m512"})
THETA_TOL = 1e-12  # theta_constants' default tol; job_numeric checks it against the signature
TRACE_PASSES = 2  # numeric-verify passes in the traced run and its untraced reference

LETTERS = (("S", 1), ("T", 1), ("T", -1))  # the verify suite's word alphabet


class Recorder:
    """Latency samples per operation kind, correctness gates, and an optional tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.windows: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.passes: list[dict[str, tuple[int, int]]] = []
        self.raw: dict[str, list[float]] = {}  # wall times, once at_speed() scaled the samples
        self.raw_pass_means: dict[str, list[float]] = {}
        self.reference_s: dict[str, float] = {}
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def timed(self, kind: str, fn, *args, **kwargs):
        idx = self.tracer.open(f"bench.{kind}") if self.tracer is not None else None
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        if idx is not None:
            self.tracer.close(idx)
        self.add(kind, t0, t1)
        return out

    def add(self, kind: str, t0: float, t1: float) -> None:
        """One sample of `kind`: the operation ran from t0 to t1."""
        self.samples[kind].append(t1 - t0)
        self.windows[kind].append((t0, t1))

    def begin_pass(self) -> dict[str, int]:
        return {kind: len(v) for kind, v in self.samples.items()}

    def end_pass(self, begin: dict[str, int], kinds=None) -> None:
        """Samples taken since begin_pass() (of `kinds`, default all) form one pass."""
        members = {
            kind: (begin.get(kind, 0), len(v))
            for kind, v in self.samples.items()
            if kind != "pass" and len(v) > begin.get(kind, 0) and (kinds is None or kind in kinds)
        }
        self.passes.append(members)
        self.samples["pass"].append(self._pass_sum(members))

    def pass_means(self) -> dict[str, list[float]]:
        """Per kind, the mean of its samples in each pass."""
        out: dict[str, list[float]] = defaultdict(list)
        for members in self.passes:
            for kind, (a, b) in members.items():
                out[kind].append(sum(self.samples[kind][a:b]) / (b - a))
        return dict(out)

    def _pass_sum(self, members: dict) -> float:
        return sum(sum(self.samples[kind][a:b]) for kind, (a, b) in members.items())

    def at_speed(self, speedo, dense=frozenset()) -> None:
        """Scale every sample to the nominal speed (speed.py); keep the wall times.

        Samples of the kinds in `dense` are scaled by the dense kernel, the
        rest by the interpreter kernel.
        """
        self.raw = {kind: list(v) for kind, v in self.samples.items()}
        self.raw_pass_means = self.pass_means()
        for kind, windows in self.windows.items():
            ref = "dense" if kind in dense else "interp"
            self.samples[kind] = [speedo.scaled(ref, t0, t1) for t0, t1 in windows]
        if self.passes:
            self.samples["pass"] = [self._pass_sum(members) for members in self.passes]
        self.reference_s = speedo.medians()

    def gate(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def result(self) -> dict:
        return {
            "samples": dict(self.samples),
            "counts": dict(self.counts),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "pass_means": self.pass_means(),
            "raw": {"samples": self.raw, "pass_means": self.raw_pass_means},
            "reference_s": self.reference_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def require(ok: bool, what: str) -> None:
    """Refuse an input outside the library's documented contract."""
    if not ok:
        raise ValueError(f"benchmark input outside the contract: {what}")


def import_thetalab():
    import thetalab

    where = os.path.realpath(thetalab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"thetalab was imported from {where}, not from {SRC}")
    return thetalab


def runtime_meta() -> dict:
    """Versions, BLAS and backend of this interpreter."""
    import ctypes
    import platform

    import numpy as np

    from thetalab import _kernels

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "backend": _kernels.BACKEND,
        "numba_imports": numba_imports,
    }


# --- exact-enum -------------------------------------------------------------------------

def exact_inputs(seed: int, spec: dict):
    """Seeded index pairs into the lookup groups, and the rows for the kernel probe."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pairs = {}
    for parity in ("even", "odd"):
        order = spec["groups"][(spec["lookup_g"], parity)]
        pairs[parity] = rng.integers(0, order, size=(spec["lookup_pairs"], 2))
    largest = spec["groups"][(spec["lookup_g"], "odd")]
    kernel_rows = rng.choice(largest, size=spec["kernel_gens"], replace=False)
    return pairs, kernel_rows


def exact_pass(rec: Recorder, spec: dict, pairs, seconds: float = 0.0) -> dict:
    """Build phase (cold enumerations) then lookup phase (discriminant on products).

    The lookup phase walks the seeded pairs until `seconds` have passed, at
    least once, so its latencies sample the whole run and not a two-second
    window; the pass is the build plus the first walk.
    """
    import numpy as np

    from thetalab import heisenberg as hb
    from thetalab import symplectic4 as s4
    from thetalab.cyclo import ru_mul

    t0 = time.perf_counter()
    groups = {}
    for (g, parity), order in spec["groups"].items():
        data = rec.timed(f"group_data.g{g}-{parity}", s4.group_data, g, parity)
        rec.gate(data.order == order, f"group_data({g}, {parity}) order {data.order} != {order}")
        groups[(g, parity)] = data
    big = hb.ThetaType(spec["maxiso_type"])
    subs = rec.timed("maximal_isotropic_subgroups", hb.maximal_isotropic_subgroups, big)
    rec.gate(len(subs) == spec["maxiso_count"], f"{len(subs)} maximal isotropic subgroups")
    typ = hb.ThetaType(spec["orbit_type"])
    auts = rec.timed("enumerate_sym_automorphisms", hb.enumerate_sym_automorphisms, typ)
    rec.gate(len(auts) == spec["aut_count"], f"{len(auts)} symmetric automorphisms")
    stab = rec.timed("stabilizer_u0sym", hb.stabilizer_u0sym, typ, auts)
    rec.gate(len(stab) == spec["stab_count"], f"stabilizer of order {len(stab)}")
    orbit_subs = hb.maximal_isotropic_subgroups(typ)
    t1 = time.perf_counter()
    pairs_found = 0
    for gens in orbit_subs:
        pairs_found += len(hb.symmetric_splittings_over(gens, typ))
    rec.add("symmetric_splittings_over", t1, time.perf_counter())
    rec.counts["symmetric_splittings_over"].append(pairs_found)
    index = len(auts) // len(stab) if stab else -1
    rec.gate(
        index == spec["orbit_index"] == pairs_found and len(auts) % len(stab) == 0,
        f"orbit index {index} vs {pairs_found} splitting pairs",
    )
    begin = rec.begin_pass()
    rec.add("enum", t0, time.perf_counter())
    rec.counts["maximal_isotropic_subgroups"].append(len(subs))
    rec.counts["enumerate_sym_automorphisms"].append(len(auts))
    rec.counts["stabilizer_u0sym"].append(len(stab))
    for (g, parity), data in groups.items():
        rec.counts[f"group_data.g{g}-{parity}"].append(data.order)

    # lookup phase: the operands are prepared first, so only lookups are timed
    jobs = []
    for parity, idx in pairs.items():
        mats = groups[(spec["lookup_g"], parity)].matrices
        for i, j in idx:
            a = mats[i].astype(np.int64)
            b = mats[j].astype(np.int64)
            jobs.append((parity, a, b, (a @ b) % 4))
    t1 = time.perf_counter()
    deadline = t1 + seconds
    walked = False
    while not walked or time.perf_counter() < deadline:
        for parity, a, b, ab in jobs:
            la = rec.timed("discriminant", s4.discriminant, a, parity)
            lb = rec.timed("discriminant", s4.discriminant, b, parity)
            lab = rec.timed("discriminant", s4.discriminant, ab, parity)
            rec.gate(ru_mul(la, lb) == lab, f"discriminant not multiplicative ({parity})")
        if not walked:
            rec.add("first_walk", t1, time.perf_counter())
            rec.end_pass(begin, kinds=("enum", "first_walk"))
            walked = True
    rec.add("lookup_phase", t1, time.perf_counter())
    return groups


def kernel_probe(rec: Recorder, data, rows) -> None:
    """mod4_products and pack_mod4 on every element of (2, odd) times 20 of its elements."""
    import numpy as np

    from thetalab import _kernels

    mats = np.ascontiguousarray(data.matrices, dtype=np.uint8)
    gens = np.ascontiguousarray(mats[rows])
    prods = rec.timed("mod4_products", _kernels.mod4_products, mats, gens)
    keys = rec.timed("pack_mod4", _kernels.pack_mod4, prods)
    n, k, _ = mats.shape
    g = len(gens)
    rec.counts["mod4_products_bytes"].append(float(mats.nbytes + gens.nbytes + prods.nbytes))
    rec.counts["pack_mod4_bytes"].append(float(prods.nbytes + keys.nbytes))
    rng = np.random.default_rng(len(rows))
    weights = 4 ** np.arange(k * k, dtype=np.uint64)
    for flat in rng.integers(0, n * g, size=64):
        i, j = divmod(int(flat), g)
        want = (mats[i].astype(np.int64) @ gens[j].astype(np.int64)) % 4
        ok = prods.shape == (n * g, k, k) and np.array_equal(prods[flat], want)
        ok = ok and int(keys[flat]) == int(want.reshape(-1).astype(np.uint64) @ weights)
        rec.gate(bool(ok), f"mod4_products/pack_mod4 wrong at row {flat}")


# --- numeric-verify ---------------------------------------------------------------------

class NumericInputs:
    """Seeded metaplectic words with taus inside the verifier's contract, and theta taus.

    The draws are stratified so that different seeds give workloads of the
    same cost.  A word costs about one dense m x m product per token of its
    S/T factorization, so words come in rounds with a fixed number of words
    per token count (TOKEN_MIX, the mix the suite's rule produces), in
    seeded order; pass k runs round k (mod the number of rounds).  Theta
    taus are spread evenly over their Im range with a seeded jitter; every
    pass evaluates all of them.
    """

    def __init__(self, seed: int, spec: dict):
        import numpy as np

        from thetalab import metaplectic as mp
        from thetalab import thetanum as tn

        rng = np.random.default_rng(seed)
        lo, hi = spec["verify_im"]
        self.rounds = []
        self.word_lengths = []
        for _ in range(spec["rounds"]):
            wanted = dict(spec["token_mix"])
            batch = []
            while any(wanted.values()):
                # the suite's rule: redraw a word whose gamma pushes tau below the eval floor
                length = int(rng.integers(0, spec["max_letters"] + 1))
                word = [LETTERS[int(rng.integers(0, 3))] for _ in range(length)]
                p = mp.mp_from_word(word)
                if int(rng.integers(0, 2)):
                    p = mp.mp_mul(p, mp.MP_Z)
                tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(lo, hi))
                tokens = len(mp.mp_lift_word(p.gamma, p.eps))
                if p.gamma.moebius(tau).imag < tn.MIN_IM_EVAL or not wanted.get(tokens):
                    continue
                wanted[tokens] -= 1
                require(tau.imag >= tn.MIN_IM_VERIFY, f"Im tau {tau.imag} < MIN_IM_VERIFY")
                require(p.gamma.moebius(tau).imag >= tn.MIN_IM_EVAL, "Im(gamma tau) < MIN_IM_EVAL")
                batch.append((p, tau, length))
            self.rounds.append([])
            for i in rng.permutation(len(batch)):
                p, tau, length = batch[i]
                self.rounds[-1].append((p, tau))
                self.word_lengths.append(length)
        self.verify = [word for words in self.rounds for word in words]
        lo, hi = spec["theta_im"]
        n = spec["theta_taus"]
        self.theta = [
            complex(rng.uniform(-0.5, 0.5), lo + (hi - lo) * (i + rng.uniform()) / n)
            for i in rng.permutation(n)
        ]
        for tau in self.theta:
            require(tau.imag >= tn.MIN_IM_EVAL, f"Im tau {tau.imag} < MIN_IM_EVAL")
        self.radius = {
            m: [tn.truncation_radius(m, t.imag, THETA_TOL) for t in self.theta]
            for m in spec["theta"]
        }


def _default(fn, name: str) -> float:
    return inspect.signature(fn).parameters[name].default


def numeric_warm(spec: dict, inputs: NumericInputs) -> None:
    """Build the generator tables and run each operation kind once, untimed."""
    from thetalab import thetanum as tn
    from thetalab import weilrep as wr

    p, tau = inputs.verify[0]
    for m in sorted(set(spec["verify"]) | set(spec["weil"])):
        wr.weil_generator(m, "S")
        tn.verify_transformation(m, p, tau)
    for m in spec["weil"]:
        wr.weil_rep(m, p)
    for m in spec["theta"]:
        tn.theta_constants(m, inputs.theta[0])


def numeric_pass(rec: Recorder, spec: dict, inputs: NumericInputs, k: int) -> None:
    """Pass k: each word of round k through every operation, with its share of the taus.

    The kinds are interleaved, word by word, so each kind's samples spread
    over the whole pass, as the speed marks taken during it do (speed.py):
    a kind timed in one short block would see one moment of a drifting
    machine and be scaled by marks a fraction of a second away.
    """
    import numpy as np

    from thetalab import _kernels
    from thetalab import metaplectic as mp
    from thetalab import thetanum as tn
    from thetalab import weilrep as wr

    verify_tol = _default(tn.verify_transformation, "tol")
    begin = rec.begin_pass()
    words = inputs.rounds[k % len(inputs.rounds)]
    for w, (p, tau) in enumerate(words):
        for m in spec["verify"]:
            check = rec.timed(f"verify.m{m}", tn.verify_transformation, m, p, tau)
            rec.gate(
                check.passed and check.residual_direct < verify_tol,
                f"verify m={m} {p.as_string()} tau={tau}: direct residual "
                f"{check.residual_direct:.3e}",
            )
        for m in spec["weil"]:
            mat = rec.timed(f"weil.m{m}", wr.weil_rep, m, p)
            here = tn.theta_constants(m, tau).values
            moved = tn.theta_constants(m, p.gamma.moebius(tau)).values
            residual = float(np.max(np.abs(moved - mp.phi_eval(p, tau) * (mat @ here))))
            rec.gate(residual < verify_tol, f"weil_rep m={m} {p.as_string()}: {residual:.3e}")
        for m in spec["theta"]:
            for i in range(w, len(inputs.theta), len(words)):
                t = inputs.theta[i]
                vec = rec.timed(f"theta.m{m}", tn.theta_constants, m, t)
                radius = inputs.radius[m][i]
                ref = _kernels.theta_class_sums(m, t, radius + 10)
                error = float(np.max(np.abs(vec.values - ref)))
                rec.gate(
                    error <= vec.err_bound + _rounding(m, t, radius),
                    f"theta m={m} tau={t}: outside err_bound {vec.err_bound:.3e}",
                )
    rec.end_pass(begin)


def _rounding(m: int, tau: complex, radius: int) -> float:
    """Float rounding allowed between two class sums of up to n = 2(R+10)+1 terms.

    Both sums are float sums of the same terms in ascending r; each is within
    n * eps * sum|term| of its exact value (the standard gamma_n bound with a
    factor 2 for the computed exponentials), so together 4 n eps sum|term|.
    """
    n = 2 * (radius + 10) + 1
    x = math.pi * tau.imag / m
    total = sum(math.exp(-x * r * r) for r in range(-radius - 10, radius + 11))
    return 4.0 * n * sys.float_info.epsilon * total


def w60_probe(rec: Recorder, seed: int, pairs: int) -> None:
    """Share of 60-letter products where mp_mul disagrees with mp_from_word(w1 + w2) or raises.

    A letter pair is T^k S with |k| in {2, 3}, so entries grow like a
    continued fraction with partial quotients >= 2 (|entries| ~ 1e12 - 1e15).
    """
    import numpy as np

    from thetalab import metaplectic as mp

    rng = np.random.default_rng(seed)
    ks = (2, 3, -2, -3)

    def word():
        out = []
        for _ in range(30):
            out += [("T", ks[int(rng.integers(0, 4))]), ("S", 1)]
        return out

    bad = 0
    for _ in range(pairs):
        w1, w2 = word(), word()
        p, q = mp.mp_from_word(w1), mp.mp_from_word(w2)
        try:
            ok = mp.mp_mul(p, q) == mp.mp_from_word(w1 + w2)
        except (ArithmeticError, ValueError):
            ok = False
        bad += not ok
    rec.counts["mp_mul.w60_failed_ratio"].append(bad / pairs)


# --- suite-cli probes -------------------------------------------------------------------

def suite_probes(rec: Recorder) -> None:
    """Entry-bound enumeration, batched membership tests, and the (2,2) Schroedinger calls.

    These run after the traced suite: the enumeration is a generator and
    `member` is too cheap for a span of its own, and the (2,2) calls are
    mixed with the (2,) and (4,) ones inside the suite.
    """
    from thetalab import congruence as cg
    from thetalab import heisenberg as hb
    from thetalab import schrodinger as sc
    from thetalab.cyclo import ONE, mu_group

    t0 = time.perf_counter()
    matrices = list(cg.sl2_with_entry_bound(40))
    rec.samples["sl2_with_entry_bound.40"].append(time.perf_counter() - t0)
    rec.counts["sl2_with_entry_bound.40"].append(len(matrices))
    for group in (cg.Gamma(4), cg.Gamma0(4), cg.GammaM2M(2), cg.THETA12):
        t0 = time.perf_counter()
        hits = sum(cg.member(g, group) for g in matrices)
        rec.samples["member"].append((time.perf_counter() - t0) / len(matrices))
        rec.gate(0 < hits < len(matrices), f"{hits} of {len(matrices)} matrices in {group}")

    typ = hb.ThetaType((2, 2))
    elems = [
        hb.HeisenbergElement(lam, z) for lam in mu_group(typ.degree) for z in hb.k_elements(typ)
    ]
    for e in elems:
        rec.timed("rho.2-2", sc.rho, e)
    group = [hb.HeisenbergElement(ONE, z) for z in hb.k_elements(typ)]
    image = [sc.rho(e).to_numpy() for e in group]
    commutant = rec.timed("intertwiner_space.2-2", sc.intertwiner_space, image, image)
    rec.gate(len(commutant) == 1, f"(2,2) commutant of dimension {len(commutant)}")
    for s in hb.enumerate_symmetric_splittings(typ):
        inv = rec.timed("invariant_subspace.2-2", sc.invariant_subspace, s)
        rec.gate(len(inv) == 1, f"(2,2) invariant line of dimension {len(inv)}")


def cli_command(rec: Recorder, argv: list[str], expect: dict) -> None:
    """Run one `thetalab` command in this process and gate its JSON and exit code."""
    from thetalab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rec.timed("cli.main", cli.main, argv)
    check_cli_output(rec, argv, code, out.getvalue(), expect)


def check_cli_output(rec: Recorder, argv, code: int, stdout: str, expect: dict) -> None:
    """Gate a CLI run: exit 0, and the JSON fields named in `expect`."""
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        payload = None
    ok = code == 0 and isinstance(payload, dict)
    if ok and "checks" in expect:
        ok = payload.get("pass") is True and len(payload.get("checks", ())) == expect["checks"]
    if ok and "member" in expect:
        ok = payload.get("member") is expect["member"]
    rec.gate(ok, f"{' '.join(argv)}: exit {code}, expected {expect}")


# --- traced layer metrics ---------------------------------------------------------------

def _us(values):
    return [v * 1e6 for v in values]


def _ms(values):
    return [v * 1e3 for v in values]


def layer_samples(tracer, rec: Recorder, workload: str, level: str | None = None) -> dict:
    """Per-layer metric samples this traced worker can give, named as in metrics.LAYER."""
    t = tracer
    out: dict[str, list[float]] = {}

    def put(name, values):
        if values:
            out[name] = list(values)

    if workload == "suite-cli":
        put("cli.import_s", t.durations("bench.cli.import"))
        if level == "quick":
            put("suite.quick_total_s", t.durations("suite.run_suite"))
        if level == "full":
            for name in t.names:
                if name.startswith("suite.") and name != "suite.run_suite":
                    put(f"{name}_s", [sum(t.durations(name))])
            put("symplectic4.discriminant.g1_us", _us(t.durations("symplectic4.discriminant")))
            put("kernels.riemann_theta_sum_us", _us(t.durations("_kernels.riemann_theta_sum")))
            put("thetanum.halfform_cocycle_us", _us(t.durations("thetanum.halfform_cocycle")))
            put("thetanum.shimura_cocycle_us", _us(t.durations("thetanum.shimura_cocycle")))
            put("congruence.member_us", _us(rec.samples.get("member", ())))
            for fn in ("theta_action_factor", "splitting_action_factor"):
                put(f"congruence.{fn}_us", _us(t.durations(f"congruence.{fn}")))
            put("congruence.sl2_with_entry_bound.40_s", rec.samples.get("sl2_with_entry_bound.40"))
            put("congruence.sl2_with_entry_bound.40_count",
                rec.counts.get("sl2_with_entry_bound.40"))
            put("schrodinger.rho.2-2_us", _us(rec.samples.get("rho.2-2", ())))
            put("schrodinger.intertwiner_space.2-2_s", rec.samples.get("intertwiner_space.2-2"))
            put("schrodinger.invariant_subspace.2-2_us",
                _us(rec.samples.get("invariant_subspace.2-2", ())))
    elif workload == "exact-enum":
        for case in ("g1-even", "g1-odd", "g2-even", "g2-odd"):
            put(f"symplectic4.group_data.{case}_s", rec.samples.get(f"group_data.{case}"))
            put(f"symplectic4.group_data.{case}_order", rec.counts.get(f"group_data.{case}"))
        for fn, typ in (
            ("maximal_isotropic_subgroups", "4-4"),
            ("enumerate_sym_automorphisms", "2-2"),
            ("stabilizer_u0sym", "2-2"),
            ("symmetric_splittings_over", "2-2"),
        ):
            put(f"heisenberg.{fn}.{typ}_s", rec.samples.get(fn))
            put(f"heisenberg.{fn}.{typ}_count", rec.counts.get(fn))
        put("symplectic4.discriminant.g2_us",
            _us(t.durations("symplectic4.discriminant", under="bench.discriminant")))
        for fn in ("mod4_products", "pack_mod4"):
            put(f"kernels.{fn}_s", rec.samples.get(fn))
            put(f"kernels.{fn}_bytes", rec.counts.get(f"{fn}_bytes"))
    else:
        for m in NUMERIC["verify"]:
            under = f"bench.verify.m{m}"
            unit, conv = ("ms", _ms) if m == 512 else ("us", _us)
            put(f"thetanum.verify_transformation.m{m}_{unit}",
                conv(t.durations("thetanum.verify_transformation", under=under)))
            weil = t.durations("weilrep.weil_rep", under=under)
            if m == 512:
                weil += t.durations("weilrep.weil_rep", under="bench.weil.m512")
            put(f"weilrep.weil_rep.m{m}_{unit}", conv(weil))
        for m in NUMERIC["theta"]:
            under = f"bench.theta.m{m}"
            radii = rec.counts[f"radius.m{m}"]
            put(f"thetanum.theta_constants.m{m}_us",
                _us(t.durations("thetanum.theta_constants", under=under)))
            put(f"kernels.theta_class_sums.m{m}_us",
                _us(t.durations("_kernels.theta_class_sums", under=under)))
            put(f"kernels.theta_class_sums.m{m}_terms", [2 * r + 1 for r in radii])
            put(f"thetanum.radius.m{m}", radii)
        for fn in ("mp_lift_word", "phi_eval", "mp_mul", "mp_from_word"):
            put(f"metaplectic.{fn}_us",
                _us(t.durations(f"metaplectic.{fn}", under="bench.verify.m6")))
        put("metaplectic.mp_mul.w60_failed_ratio", rec.counts.get("mp_mul.w60_failed_ratio"))
        put("weilrep.tokens_per_word", rec.counts.get("tokens_per_word"))
        put("weilrep.first_call.m512_s", rec.samples.get("first_call.m512"))
    for layer, seconds in t.self_times().items():
        out[f"{layer.lstrip('_')}.self_s"] = [seconds]
    out["trace.spans"] = [len(t)]
    return out


# --- jobs -------------------------------------------------------------------------------

def _signal(word: str) -> None:
    print(word, flush=True)


def job_exact(spec: dict, traced: bool, speedo=None) -> dict:
    import_thetalab()
    from thetalab import heisenberg, symplectic4  # noqa: F401  (set-up: imports)

    tracer = _tracer(spec, traced)
    rec = Recorder(tracer)
    pairs, kernel_rows = exact_inputs(spec["seed"], EXACT)
    # a fixed number of passes (traced run and its reference) means one lookup walk
    seconds = 0.0 if spec.get("passes") else spec["seconds"]
    _signal("READY")
    groups = exact_pass(rec, EXACT, pairs, seconds)
    _signal("PASS")
    if speedo is not None:
        speedo.stop()
        rec.at_speed(speedo)
    if tracer is not None:
        kernel_probe(rec, groups[(EXACT["lookup_g"], "odd")], kernel_rows)
    return _finish(rec, tracer, spec)


def job_numeric(spec: dict, traced: bool, speedo=None) -> dict:
    import_thetalab()
    from thetalab import metaplectic as mp
    from thetalab import thetanum as tn
    from thetalab import weilrep as wr

    if _default(tn.theta_constants, "tol") != THETA_TOL:
        raise RuntimeError("theta_constants' default tol changed; update THETA_TOL")
    inputs = NumericInputs(spec["seed"], NUMERIC)
    tracer = _tracer(spec, traced)
    rec = Recorder(tracer)
    for m, radii in inputs.radius.items():
        rec.counts[f"radius.m{m}"] = list(radii)
    rec.counts["word_length"] = list(inputs.word_lengths)
    if tracer is not None:
        p, _ = inputs.verify[0]
        rec.timed("first_call.m512", wr.weil_rep, 512, p)
        rec.counts["tokens_per_word"] = [
            len(mp.mp_lift_word(p.gamma, p.eps)) for p, _ in inputs.verify
        ]
    numeric_warm(NUMERIC, inputs)
    _signal("READY")
    passes = spec.get("passes")
    deadline = time.perf_counter() + spec["seconds"]
    done = 0
    while (done < passes) if passes else (done == 0 or time.perf_counter() < deadline):
        numeric_pass(rec, NUMERIC, inputs, done)
        done += 1
    _signal("PASS")
    if speedo is not None:
        speedo.stop()
        rec.at_speed(speedo, DENSE)
    rec.gate(tn.get_convention() in (None, "direct"), f"run convention {tn.get_convention()}")
    if tracer is not None:
        w60_probe(rec, spec["seed"], NUMERIC["w60_pairs"])
    return _finish(rec, tracer, spec)


def job_cli(spec: dict) -> dict:
    """One `thetalab` command in-process, traced: the counterpart of one CLI process."""
    from tracing import Tracer, instrument

    tracer = Tracer(spec["run_id"])
    rec = Recorder(tracer)
    os.environ["THETA_LAB_SEED"] = str(spec["suite_seed"])
    with tracer.span("bench.cli.import"):
        import_thetalab()
        import thetalab.cli  # noqa: F401
    import thetalab.suite  # noqa: F401  (imported by cli; named so instrument finds it)

    instrument(tracer)
    _signal("READY")
    cli_command(rec, spec["argv"], spec["expect"])
    _signal("PASS")
    level = spec["argv"][-1] if spec["argv"][:2] == ["verify", "suite"] else None
    if level == "full":
        suite_probes(rec)
    return _finish(rec, tracer, spec, level=level)


def job_setup(spec: dict) -> dict:
    """Set up as the workload's measuring worker would, then stop."""
    import_thetalab()
    if spec["workload"] == "suite-cli":
        from thetalab import cli

        cli.build_parser()
    elif spec["workload"] == "exact-enum":
        from thetalab import heisenberg, symplectic4  # noqa: F401

        exact_inputs(spec["seed"], EXACT)
    else:
        inputs = NumericInputs(spec["seed"], NUMERIC)
        numeric_warm(NUMERIC, inputs)
    _signal("READY")
    return {"meta": runtime_meta()}


def _tracer(spec: dict, traced: bool):
    if not traced:
        return None
    import thetalab.cli  # noqa: F401  (every layer must be loaded before instrumenting)
    import thetalab.suite  # noqa: F401
    from tracing import Tracer, instrument

    tracer = Tracer(spec["run_id"])
    instrument(tracer)
    return tracer


def _finish(rec: Recorder, tracer, spec: dict, level: str | None = None) -> dict:
    out = rec.result()
    out["meta"] = runtime_meta()
    if tracer is not None:
        out["layer"] = layer_samples(tracer, rec, spec["workload"], level)
        if spec.get("trace_dir"):
            os.makedirs(spec["trace_dir"], exist_ok=True)
            tag = f"{spec['workload']}-{spec.get('part', 'pass')}-{tracer.run_id}"
            tracer.write(os.path.join(spec["trace_dir"], f"spans-{tag}.csv.gz"))
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    job = spec["job"]
    speedo = None
    if job == "setup" or (job == "measure" and not spec.get("passes")):
        # a measured process marks its speed from the start; the dense kernel needs numpy
        kinds = ("interp",)
        if spec["workload"] == "numeric-verify":
            import numpy  # noqa: F401

            kinds = ("interp", "dense")
        speedo = Speedometer(kinds)
        speedo.start()
    if job == "setup":
        result = job_setup(spec)
    elif job == "cli":
        result = job_cli(spec)
    elif spec["workload"] == "exact-enum":
        result = job_exact(spec, traced=job == "traced", speedo=speedo)
    elif spec["workload"] == "numeric-verify":
        result = job_numeric(spec, traced=job == "traced", speedo=speedo)
    else:
        raise ValueError(f"no worker job {job!r} for {spec['workload']!r}")
    if speedo is not None:
        speedo.stop()
        result["speed"] = speedo.state()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
