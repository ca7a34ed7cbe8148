"""The discriminant-oracle, Stone-von Neumann and stabilizer-sweep checks of
`verify suite`: their exact report entries, and that the last two still
report a deliberately broken input (a perturbed rho matrix, a wrong action
factor)."""

from fractions import Fraction

import numpy as np
import pytest

from thetalab import congruence as cg
from thetalab import heisenberg as hb
from thetalab import schrodinger as sc
from thetalab import suite
from thetalab.cyclo import ONE, RootOfUnity

SVN = "exact homomorphism, commutant 1, invariants delta_0, line per splitting"
SVN_OK = "hom violations 0, commutant 1, canonical delta_0, dims "
SWEEP = "triviality iff membership"
DISC = "0 mismatches"
SOLUTION_COUNT = [
    {"check_id": "discriminant_solution_count", "params": {"g": 1, "parity": parity},
     "expected": 1, "observed": 1, "residual": 0.0, "pass": True}
    for parity in ("even", "odd")
]

# the entries at seed 0, recorded from the object-per-operation checks
# (one `hmul` and one matrix product per pair, `Fraction` action factors);
# the discriminant-oracle entries were recorded while each mod-4 group was
# still stored in discovery order with an index permutation to key order
PINNED = {
    "quick": SOLUTION_COUNT + [
        {"check_id": "discriminant_oracle", "expected": DISC, "observed": DISC,
         "params": {"entry_bound": 6, "matrices": 132}, "pass": True, "residual": 0.0},
        {"check_id": "theta_structure_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 10, "m": 2, "matrices": 178},
         "pass": True, "residual": 0.0},
        {"check_id": "splitting_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 10, "m": 2, "matrices": 342},
         "pass": True, "residual": 0.0},
        {"check_id": "theta_structure_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 10, "m": 4, "matrices": 17},
         "pass": True, "residual": 0.0},
        {"check_id": "splitting_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 10, "m": 4, "matrices": 170},
         "pass": True, "residual": 0.0},
        {"check_id": "stone_von_neumann", "expected": SVN,
         "observed": SVN_OK + "[1, 1]", "params": {"type": [2]},
         "pass": True, "residual": 0.0},
    ],
    "full": SOLUTION_COUNT + [
        {"check_id": "discriminant_oracle", "expected": DISC, "observed": DISC,
         "params": {"entry_bound": 20, "matrices": 1380}, "pass": True, "residual": 0.0},
        {"check_id": "theta_structure_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 40, "m": 2, "matrices": 2650},
         "pass": True, "residual": 0.0},
        {"check_id": "splitting_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 40, "m": 2, "matrices": 5242},
         "pass": True, "residual": 0.0},
        {"check_id": "theta_structure_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 40, "m": 4, "matrices": 329},
         "pass": True, "residual": 0.0},
        {"check_id": "splitting_stabilizer", "expected": SWEEP,
         "observed": "0 exceptions", "params": {"entry_bound": 40, "m": 4, "matrices": 2642},
         "pass": True, "residual": 0.0},
        {"check_id": "stone_von_neumann", "expected": SVN,
         "observed": SVN_OK + "[1, 1]", "params": {"type": [2]},
         "pass": True, "residual": 0.0},
        {"check_id": "stone_von_neumann", "expected": SVN,
         "observed": SVN_OK + "[1, 1]", "params": {"type": [4]},
         "pass": True, "residual": 0.0},
        {"check_id": "stone_von_neumann", "expected": SVN,
         "observed": SVN_OK + "[1, 1, 1, 1]", "params": {"type": [2, 2]},
         "pass": True, "residual": 0.0},
    ],
}


def run(check, level):
    return check(level, np.random.default_rng(0))


@pytest.mark.parametrize("level", ("quick", "full"))
def test_entries_are_pinned(level):
    got = [
        *run(suite.check_discriminant_oracle, level),
        *run(suite.check_stabilizer_sweeps, level),
        *run(suite.check_stone_von_neumann, level),
    ]
    assert got == PINNED[level]


@pytest.mark.parametrize("field", ("rows", "exps"))
@pytest.mark.parametrize("level", ("quick", "full"))
def test_svn_reports_a_perturbed_rho(monkeypatch, level, field):
    """One wrong entry of one element's matrix breaks the homomorphism on
    some pair, and the check says so."""
    rho = sc.rho

    def perturbed(a):
        mat = rho(a)
        if a.scalar != ONE or a.z != hb.k_elements(a.type)[1]:
            return mat
        rows, exps = list(mat.row_of_col), list(mat.exponents)
        if field == "exps":
            exps[0] = (exps[0] + Fraction(1, a.type.degree)) % 1
        else:
            rows[0], rows[1] = rows[1], rows[0]
        return sc.SchrodingerMatrix(a.type, tuple(rows), tuple(exps))

    monkeypatch.setattr(sc, "rho", perturbed)
    for got in run(suite.check_stone_von_neumann, level):
        violations = int(got["observed"].split(",")[0].removeprefix("hom violations "))
        assert violations > 0 and got["residual"] == violations
        assert got["pass"] is False


# the library's factors, which the mutants call for their membership checks
theta_factor = cg.theta_action_factor
splitting_factor = cg.splitting_action_factor


def drop_ab_term(g, m, u1, u2):
    """The theta factor without its a b u1^2 term."""
    a, b, c, d = g.entries()
    theta_factor(g, m, u1, u2)
    return RootOfUnity(Fraction(-((a * d + b * c - 1) * u1 * u2 + c * d * u2 * u2), 2 * m))


def drop_u1u2_term(g, m, u1, u2):
    """The theta factor without its (a d + b c - 1) u1 u2 term."""
    a, b, c, d = g.entries()
    theta_factor(g, m, u1, u2)
    return RootOfUnity(Fraction(-(a * b * u1 * u1 + c * d * u2 * u2), 2 * m))


def half_denominator(g, m, u):
    """The splitting factor over m instead of 2m."""
    splitting_factor(g, m, u)
    return RootOfUnity(Fraction(-g.c * g.d * u * u, m))


@pytest.mark.parametrize(
    "name, mutant, check_id",
    (
        ("theta_action_factor", drop_ab_term, "theta_structure_stabilizer"),
        ("splitting_action_factor", half_denominator, "splitting_stabilizer"),
    ),
)
def test_sweep_reports_a_wrong_action_factor(monkeypatch, name, mutant, check_id):
    monkeypatch.setattr(cg, name, mutant)
    entries = [e for e in run(suite.check_stabilizer_sweeps, "quick") if e["check_id"] == check_id]
    assert [e["pass"] for e in entries] == [False, False]
    assert all(e["residual"] > 0 for e in entries)


def test_the_u1u2_term_vanishes_on_gamma_m(monkeypatch):
    """On Gamma(m), a d + b c - 1 = 2 b c with m | b, c, so the u1 u2 term is
    0 mod 2m and dropping it is no fault: the sweep cannot see it, by design."""
    monkeypatch.setattr(cg, "theta_action_factor", drop_u1u2_term)
    entries = run(suite.check_stabilizer_sweeps, "quick")
    assert all(e["pass"] for e in entries)
