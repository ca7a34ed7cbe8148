"""Reproducers of unbounded loops and huge allocations, run in a child process.

Each case once ran for minutes or asked for gigabytes.  They run in child
processes with a wall-clock timeout and an address-space limit, so a
regression fails this test in seconds instead of stalling the run or
exhausting the machine's memory.  The largest Heisenberg types get their own
child with a larger limit, since their index tables alone take about 0.5 GB.
"""

import os
import subprocess
import sys

import pytest

import thetalab

resource = pytest.importorskip("resource")

ADDRESS_SPACE = 2 << 30

CHILD = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))

from thetalab.cli import main
from thetalab.heisenberg import (
    ThetaType,
    TooLarge,
    enumerate_sym_automorphisms,
    maximal_isotropic_subgroups,
)
from thetalab.metaplectic import mp_from_word, tilde_lambda
from thetalab.symplectic4 import discriminant
from thetalab.thetanum import TauTooLow, functional_eq_lambda, halfform_cocycle

repro = mp_from_word([t for i in range(9) for t in (("T", 2 + 2 * i), ("S", 1))])
big = mp_from_word([("T", 2), ("S", 1), ("T", 4), ("S", 1), ("T", 6), ("S", 1)] * 10)
for p in (repro, big):
    g = p.gamma
    mod4 = [[g.a % 4, g.b % 4], [g.c % 4, g.d % 4]]
    assert tilde_lambda(p) ** 2 == functional_eq_lambda(g) == discriminant(mod4, "even")
try:
    halfform_cocycle(repro.gamma, 0.3 + 1.1j)
except TauTooLow:
    pass
else:
    raise AssertionError("halfform_cocycle answered below the radius cap")
assert main(["congruence", "index", "--group", "gamma0", "--n", "1000"]) == 2
assert main(["theta", "eval", "--m", "200000000", "--tau", "3i"]) == 2
assert main(["heisenberg", "splittings", "--type", ",".join(["2"] * 40)]) == 2
assert main(["heisenberg", "aut", "--type", "2,2,2"]) == 2
for enumerate_, divisors in (
    (enumerate_sym_automorphisms, (2, 8)),
    (enumerate_sym_automorphisms, (2, 2, 2, 2)),
    (enumerate_sym_automorphisms, (64,)),
    (maximal_isotropic_subgroups, (2, 2, 2, 2)),
):
    try:
        enumerate_(ThetaType(divisors))
    except TooLarge:
        pass
    else:
        raise AssertionError(enumerate_.__name__ + str(divisors) + " answered")
print("ok")
"""


def run_child(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(thetalab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_reproducers_finish_in_bounded_time_and_memory():
    done = run_child(CHILD)
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr


# a type inside the documented domain (|K| <= 2^12) is refused by its
# enumeration bound, not by an allocation of its index tables
KTABLE_ADDRESS_SPACE = 5 << 29

KTABLE_CHILD = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({KTABLE_ADDRESS_SPACE}, {KTABLE_ADDRESS_SPACE}))

from thetalab.cli import main

for divisors in ("2,2,2,2,2,2", "2,2,2,2,4"):
    assert main(["heisenberg", "aut", "--type", divisors]) == 2, divisors
print("ok")
"""


def test_largest_types_are_refused_within_the_address_space_limit():
    done = run_child(KTABLE_CHILD)
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
