"""The discriminant-oracle, Stone-von Neumann, stabilizer-sweep and cocycle
checks of `verify suite`: their exact report entries, and that the first
three still report a deliberately broken input (a discriminant wrong on one
residue class, a perturbed rho matrix, a wrong action factor)."""

import hashlib
import json
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


# the half-form and Shimura cocycle entries of the full level at seed 0,
# residuals included, recorded while every call still summed both thetas
COCYCLE = "identity within 1e-08"
PINNED_COCYCLES = [
    {"check_id": "halfform_cocycle", "params": {"composites": 100, "tau": "(0.1+1.3j)"},
     "expected": COCYCLE, "observed": "max deviation 1.119e-11",
     "residual": 1.1186712453056524e-11, "pass": True},
    {"check_id": "shimura_cocycle", "params": {"k": 0, "composites": 100},
     "expected": COCYCLE, "observed": "max deviation 0.000e+00", "residual": 0.0, "pass": True},
    {"check_id": "shimura_cocycle", "params": {"k": 1, "composites": 100},
     "expected": COCYCLE, "observed": "max deviation 2.474e-12",
     "residual": 2.4739347380257097e-12, "pass": True},
    {"check_id": "shimura_cocycle", "params": {"k": 3, "composites": 100},
     "expected": COCYCLE, "observed": "max deviation 1.786e-10",
     "residual": 1.78597266200479e-10, "pass": True},
]


# the transformation-law and metaplectic-Weil entries at seed 0, residuals
# included, recorded while each word was drawn one scalar letter at a time and
# multiplied out with one `MpElement` (and one `SL2Matrix`) per token
LAW = "max residual < 1e-09"
CENTRAL = [
    {"check_id": "central_element", "params": {}, "expected": "S^4 = (I,-) and S^8 = (I,+)",
     "observed": "S^4 = 1,0,0,1:-", "residual": 0.0, "pass": True},
    {"check_id": "genuine_center", "params": {"ms": [2, 4, 6, 8]},
     "expected": "rho(I,-) = -identity", "observed": "max deviation 0.000e+00",
     "residual": 0.0, "pass": True},
]
PINNED_WORDS = {
    "quick": [
        {"check_id": "transformation_law", "params": {"m": 2, "words": 6, "taus": 3},
         "expected": LAW, "observed": "max residual 6.280e-16, convention direct",
         "residual": 6.280369834735101e-16, "pass": True},
        {"check_id": "transformation_law", "params": {"m": 4, "words": 6, "taus": 3},
         "expected": LAW, "observed": "max residual 3.202e-15, convention direct",
         "residual": 3.202493113162136e-15, "pass": True},
        {"check_id": "transformation_law", "params": {"m": 6, "words": 6, "taus": 3},
         "expected": LAW, "observed": "max residual 1.264e-14, convention direct",
         "residual": 1.2639488093229842e-14, "pass": True},
        *CENTRAL,
        {"check_id": "mp_associativity", "params": {"triples": 100},
         "expected": "(pq)r = p(qr) exactly", "observed": "0 of 100 triples differ",
         "residual": 0.0, "pass": True},
        {"check_id": "weil_unitarity", "params": {"ms": [2, 4, 6, 8], "pairs_per_m": 8},
         "expected": "unitary within 1e-10", "observed": "max deviation 5.551e-16",
         "residual": 5.551115123125783e-16, "pass": True},
        {"check_id": "weil_multiplicativity", "params": {"ms": [2, 4, 6, 8], "pairs_per_m": 8},
         "expected": "multiplicative within 1e-9", "observed": "max deviation 6.684e-16",
         "residual": 6.684427777288335e-16, "pass": True},
    ],
    "full": [
        {"check_id": "transformation_law", "params": {"m": 2, "words": 50, "taus": 3},
         "expected": LAW, "observed": "max residual 8.455e-16, convention direct",
         "residual": 8.455206652451151e-16, "pass": True},
        {"check_id": "transformation_law", "params": {"m": 4, "words": 50, "taus": 3},
         "expected": LAW, "observed": "max residual 3.101e-14, convention direct",
         "residual": 3.1009425431785757e-14, "pass": True},
        {"check_id": "transformation_law", "params": {"m": 6, "words": 50, "taus": 3},
         "expected": LAW, "observed": "max residual 1.791e-14, convention direct",
         "residual": 1.791473517260768e-14, "pass": True},
        *CENTRAL,
        {"check_id": "mp_associativity", "params": {"triples": 1000},
         "expected": "(pq)r = p(qr) exactly", "observed": "0 of 1000 triples differ",
         "residual": 0.0, "pass": True},
        {"check_id": "weil_unitarity", "params": {"ms": [2, 4, 6, 8], "pairs_per_m": 50},
         "expected": "unitary within 1e-10", "observed": "max deviation 6.661e-16",
         "residual": 6.661338147750939e-16, "pass": True},
        {"check_id": "weil_multiplicativity", "params": {"ms": [2, 4, 6, 8], "pairs_per_m": 50},
         "expected": "multiplicative within 1e-9", "observed": "max deviation 1.517e-15",
         "residual": 1.517107245493603e-15, "pass": True},
    ],
}


# sha256 of json.dumps(run_suite(level, seed)["checks"], sort_keys=True), recorded
# while theta(g tau) was summed one matrix at a time and the pools were tuples
CHECKS_SHA256 = {
    ("quick", 0): "92becb81bdc07c35d81714ea6981826ea421a18afa61cb98c73db2bcc9ce26e8",
    ("quick", 1): "0a310291bf93e9ab8ebe764efcf2393ae2a76870e4adaa6bde378de4f3264550",
    ("quick", 7): "ffd3b80eedaf831abc05db335393ba8e170072a88753bc77593fa8842c9b204c",
    ("quick", 17): "439da1622b1052fabb446e243c1e22a93fafba2acb21416d4e58e96c4184a417",
    ("full", 0): "8a2f6bc4326d5bd576108d4a71767d371ce3e74e22623b4e5849b81b4f9f7d14",
    ("full", 1): "cf6aa567d0db1a6ea211cfbe2736a561121513b422e1a525954cde0270586f5a",
    ("full", 7): "c675b6cf0955913e5199f13a4be779e27b2855e72442f6f721960f22a2f29067",
    ("full", 17): "5496edbc3d12f944b8ef169cbbdbd0901db6f0dafbc2ead1843b2df9baba03c7",
}


@pytest.mark.parametrize("level, seed", CHECKS_SHA256)
def test_suite_checks_are_pinned(level, seed):
    """Every check entry of the whole battery, residuals included, at four seeds."""
    checks = suite.run_suite(level, seed)["checks"]
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == CHECKS_SHA256[level, seed]


def run(check, level):
    return check(level, np.random.default_rng(0))


def test_cocycle_entries_are_pinned():
    got = run(suite.check_cocycle_identities, "full")
    assert got[: len(PINNED_COCYCLES)] == PINNED_COCYCLES


@pytest.mark.parametrize("level", ("quick", "full"))
def test_entries_are_pinned(level):
    got = [
        *run(suite.check_discriminant_oracle, level),
        *run(suite.check_stabilizer_sweeps, level),
        *run(suite.check_stone_von_neumann, level),
    ]
    assert got == PINNED[level]


@pytest.mark.parametrize("level", ("quick", "full"))
def test_word_entries_are_pinned(level):
    got = [
        *run(suite.check_transformation_law, level),
        *run(suite.check_metaplectic_weil, level),
    ]
    assert got == PINNED_WORDS[level]


def scalar_word(rng, max_len):
    """The letter-by-letter draw: one scalar `integers` call per letter."""
    length = int(rng.integers(0, max_len + 1))
    return [[("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))] for _ in range(length)]


@pytest.mark.parametrize("max_len", (10, 12, 15))
def test_random_word_matches_scalar_draws(max_len):
    """One bounded draw of `length` letters gives the values of `length`
    scalar draws and leaves the generator in the same state, so the suite's
    entries do not depend on which of the two draws it makes; interleaved
    `uniform` draws, as in the cocycle checks, stay aligned too."""
    for seed in range(50):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert suite._random_word(fast, max_len) == scalar_word(slow, max_len)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.uniform(-1, 1) == slow.uniform(-1, 1)


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


@pytest.mark.parametrize("level", ("quick", "full"))
def test_oracle_counts_every_member_of_a_wrong_residue_class(monkeypatch, level):
    """A discriminant that is wrong on one residue class mod 4 is caught on
    every member of that class: the lookup is shared per class, the
    comparison is not."""
    discriminant = suite.s4.discriminant
    wrong = (1, 2, 0, 1)

    def mutant(gamma, parity):
        value = discriminant(gamma, parity)
        if tuple(int(x) % 4 for x in np.ravel(gamma)) == wrong:
            return value * RootOfUnity(Fraction(1, 4))
        return value

    monkeypatch.setattr(suite.s4, "discriminant", mutant)
    got = run(suite.check_discriminant_oracle, level)[-1]
    bound = got["params"]["entry_bound"]
    in_class = sum(
        tuple(x % 4 for x in g.entries()) == wrong
        for g in cg.sl2_with_entry_bound(bound)
        if cg.member(g, cg.THETA12)
    )
    assert in_class > 0
    assert got["observed"] == f"{in_class} mismatches"
    assert got["residual"] == in_class and got["pass"] is False
