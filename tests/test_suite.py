"""The checks of `verify suite`: their exact report entries, and that the
discriminant-oracle, Stone-von Neumann, stabilizer-sweep and metaplectic
checks still report a deliberately broken input (a discriminant wrong on
one residue class, a perturbed rho matrix, a wrong action factor, a
non-associative product, a scaled Weil matrix)."""

import cmath
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from thetalab import congruence as cg
from thetalab import heisenberg as hb
from thetalab import metaplectic as mp
from thetalab import schrodinger as sc
from thetalab import thetanum as tn
from thetalab import weilrep as wr
from thetalab import suite
from thetalab.cyclo import ONE, NoSnap, RootOfUnity, _root, ru_snap

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


def scalar_words(rng, count, max_len, flip=False, keep=None, attempts=None):
    """The per-value loop: `scalar_word`, then one scalar flip draw, until `count` are kept."""
    out, drawn = [], 0
    while len(out) < count:
        if attempts is not None and drawn >= attempts:
            raise RuntimeError("rejection sampling failed to find enough words")
        word = scalar_word(rng, max_len)
        if flip and int(rng.integers(0, 2)):
            word.append(("Z", 1))
        drawn += 1
        value = word if keep is None else keep(word)
        if value is not None:
            out.append(value)
    return out


def every_third_length(word):
    """A stand-in rejection rule: drops the words whose length is a multiple of 3."""
    return word if len(word) % 3 else None


@pytest.mark.parametrize("max_len", (10, 12, 15))
def test_random_word_matches_scalar_draws(max_len):
    """Words read from one block of the 32-bit stream are the words of one
    scalar draw per value, and leave the generator in the same state, with
    and without the flip draw and a rejection rule; a later `uniform` draw,
    as in the cocycle checks, stays aligned."""
    for seed in range(50):
        for flip in (False, True):
            for keep in (None, every_third_length):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                for count in (1, 20, 150):
                    got = suite._random_words(fast, count, max_len, flip, keep)
                    assert got == scalar_words(slow, count, max_len, flip, keep)
                    assert fast.bit_generator.state == slow.bit_generator.state
                    assert fast.uniform(-1, 1) == slow.uniform(-1, 1)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_word_state(seed, step):
    """A PCG64 state whose 64-bit output number `step` has a zero low half, so
    that 32-bit word number 2 (step - 1) of its stream is 0: a word every
    bounded draw with n not a power of 2 discards."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    hi, y = (int(v) for v in rng.integers(0, 2**64, size=2, dtype=np.uint64))
    rot = hi >> 58  # XSL-RR: the output is hi ^ lo rotated right by the top 6 bits
    y &= ~0xFFFFFFFF
    x = ((y << rot) | (y >> (64 - rot))) & (2**64 - 1)
    s = (hi << 64) | (hi ^ x)
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(step):
        s = (s - state["state"]["inc"]) * inverse % 2**128
    state["state"]["state"] = s
    return state


def generator_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def test_random_words_fall_back_to_per_value_draws_on_a_discarded_word():
    """A raw word that numpy discards, placed at many points of the stream,
    still gives the words and generator state of the per-value loop."""
    discarded = 0
    for step in range(1, 80, 3):
        state = zero_word_state(step, step)
        raw = generator_at(state).integers(0, 2**32, size=2 * step, dtype=np.uint32)
        assert raw[2 * (step - 1)] == 0
        for max_len in (10, 12, 15):
            for flip in (False, True):
                seen = []

                def keep(word):
                    seen.append(word)
                    return every_third_length(word)

                fast, slow = generator_at(state), generator_at(state)
                got = suite._random_words(fast, 20, max_len, flip, every_third_length)
                assert got == scalar_words(slow, 20, max_len, flip, keep)
                assert fast.bit_generator.state == slow.bit_generator.state
                assert fast.uniform(-1, 1) == slow.uniform(-1, 1)
                # the per-value loop read one raw word more than it made draws
                # exactly when numpy discarded the zero word
                draws = sum(1 + len(w) - (w[-1:] == [("Z", 1)]) + flip for w in seen)
                probe = generator_at(state)
                probe.integers(0, 2**32, size=draws, dtype=np.uint32)
                discarded += probe.bit_generator.state != slow.bit_generator.state
    assert discarded >= 140


def test_random_words_attempt_bound():
    """More than `attempts` words raise, with the generator past those words."""
    fast, slow = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(RuntimeError, match="enough words"):
        suite._random_words(fast, 2, 12, True, lambda word: None, attempts=7)
    with pytest.raises(RuntimeError, match="enough words"):
        scalar_words(slow, 2, 12, True, lambda word: None, attempts=7)
    assert fast.bit_generator.state == slow.bit_generator.state
    with pytest.raises(ValueError, match="max_len"):
        suite._random_words(fast, 2, 0)


def test_sampled_elements_match_the_per_word_loop():
    """`_sample_mp_words` keeps the elements of the per-word loop it replaces,
    which multiplied by (I, -) after the word instead of appending ("Z", 1)."""

    def per_word(rng, count, max_len):
        out = []
        while len(out) < count:
            p = mp.mp_from_word(scalar_word(rng, max_len))
            if int(rng.integers(0, 2)):
                p = mp.mp_mul(p, mp.MP_Z)
            if all(p.gamma.moebius(t).imag >= tn.MIN_IM_EVAL for t in suite.TRANSFORM_TAUS):
                out.append(p)
        return out

    for seed in range(20):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert suite._sample_mp_words(fast, 50, 12) == per_word(slow, 50, 12)
        assert fast.bit_generator.state == slow.bit_generator.state


def pairwise_deviation(rng, members, composites, tau, cocycle):
    """The one-pair-per-draw loop: one `integers` call per candidate pair."""
    worst, accepted = 0.0, 0
    while accepted < composites:
        i, j = rng.integers(0, len(members), size=2)
        g1, g2 = members[i], members[j]
        moved = g2.moebius(tau)
        if moved.imag < tn.MIN_IM_EVAL:
            continue
        accepted += 1
        worst = max(worst, abs(cocycle(g1 * g2, tau) - cocycle(g1, moved) * cocycle(g2, tau)))
    return worst


def test_cocycle_block_draws_match_pairwise_draws():
    """Pairs drawn in blocks of the missing count are the pairs, in order, of
    one draw per pair: the same worst deviation, the same generator state,
    and a later `uniform` draw stays aligned.  The stand-in cocycle is not
    one, so the deviation depends on which pairs were compared."""
    pool = cg._entry_bound_rows(12)
    tau = 0.1 + 1.3j

    def cocycle(g, t):
        return complex(g.a + 3 * g.b, g.d) + g.c * t

    for group in (cg.THETA12, cg.Gamma0(4)):
        members = [cg.SL2Matrix(*row) for row in pool[cg._contains(group, *pool.T)].tolist()]
        for composites in (1, 20, 100):
            for seed in range(50):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                got = suite._cocycle_deviation(fast, members, composites, tau, cocycle)
                assert got == pairwise_deviation(slow, members, composites, tau, cocycle) > 0
                assert fast.bit_generator.state == slow.bit_generator.state
                assert fast.uniform(-1, 1) == slow.uniform(-1, 1)


def test_associativity_reports_a_non_associative_product(monkeypatch):
    """A product whose sign drops the branch correction of gamma1 gamma2 is
    not associative, and the integer-tuple triples catch it."""
    mul = mp._mul

    def mutant(*args):
        a, b, c, d, e = mul(*args)
        return a, b, c, d, -e if c == 0 and d < 0 else e

    monkeypatch.setattr(mp, "_mul", mutant)
    for level in ("quick", "full"):
        got = next(e for e in run(suite.check_metaplectic_weil, level)
                   if e["check_id"] == "mp_associativity")
        assert 0 < got["residual"] == int(got["observed"].split()[0])
        assert got["pass"] is False


def test_weil_checks_report_a_scaled_matrix(monkeypatch):
    """rho(I, +) scaled by 2 is not unitary, and rho(p) rho(q) = rho(pq)
    fails on the pairs it enters: the stacked checks report both.  The
    mutant is `weil_rep`'s list form, which the checks call, with the slices
    whose element is (I, +) scaled; one element is left alone."""
    weil_rep = wr.weil_rep

    def mutant(m, ps, vectors=None):
        mats = weil_rep(m, ps, vectors)
        if isinstance(ps, list):
            for i, p in enumerate(ps):
                if p == mp.MP_I:
                    mats[i] *= 2
        return mats

    monkeypatch.setattr(wr, "weil_rep", mutant)
    for level in ("quick", "full"):
        got = {e["check_id"]: e for e in run(suite.check_metaplectic_weil, level)}
        assert got["weil_unitarity"]["residual"] == pytest.approx(3.0)
        assert got["weil_multiplicativity"]["residual"] >= 1.0
        assert not got["weil_unitarity"]["pass"] and not got["weil_multiplicativity"]["pass"]
        assert got["genuine_center"]["pass"]


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


ORACLE_BOUND = {"quick": 6, "full": 20}
# the residue classes mod 4 of the theta group, each met at both levels
ORACLE_CLASSES = sorted(
    {tuple(x % 4 for x in g.entries()) for g in cg.sl2_with_entry_bound(6) if cg.member(g, cg.THETA12)}
)


@pytest.mark.parametrize("level", ("quick", "full"))
@pytest.mark.parametrize(
    "wrong", [None, *ORACLE_CLASSES], ids=lambda w: "".join(map(str, w)) if w else "right"
)
def test_oracle_mismatches_are_the_wrong_class_members(monkeypatch, level, wrong):
    """A discriminant turned by a quarter on one residue class mod 4 gives as
    many mismatches as that class has members; one right everywhere gives 0.
    It is looked up once per class."""
    discriminant = suite.s4.discriminant
    calls = []

    def mutant(gamma, parity):
        residues = tuple(int(x) % 4 for x in np.ravel(gamma))
        calls.append(residues)
        value = discriminant(gamma, parity)
        return value * RootOfUnity(Fraction(1, 4)) if residues == wrong else value

    monkeypatch.setattr(suite.s4, "discriminant", mutant)
    got = run(suite.check_discriminant_oracle, level)[-1]
    classes = [
        tuple(x % 4 for x in g.entries())
        for g in cg.sl2_with_entry_bound(ORACLE_BOUND[level])
        if cg.member(g, cg.THETA12)
    ]
    assert sorted(calls) == sorted(set(classes))
    in_class = classes.count(wrong)
    assert (in_class > 0) == (wrong is not None)
    assert got["params"] == {"entry_bound": ORACLE_BOUND[level], "matrices": len(classes)}
    assert got["observed"] == f"{in_class} mismatches"
    assert got["residual"] == in_class and got["pass"] is (in_class == 0)


def test_oracle_counts_a_value_outside_mu4_as_a_mismatch(monkeypatch):
    """A discriminant value of order 8 matches no quotient in mu_4."""
    discriminant = suite.s4.discriminant
    wrong = (1, 0, 0, 1)

    def mutant(gamma, parity):
        value = discriminant(gamma, parity)
        if tuple(int(x) % 4 for x in np.ravel(gamma)) == wrong:
            return value * RootOfUnity(Fraction(1, 8))
        return value

    monkeypatch.setattr(suite.s4, "discriminant", mutant)
    got = run(suite.check_discriminant_oracle, "quick")[-1]
    in_class = sum(
        tuple(x % 4 for x in g.entries()) == wrong
        for g in cg.sl2_with_entry_bound(6)
        if cg.member(g, cg.THETA12)
    )
    assert got["observed"] == f"{in_class} mismatches" and not got["pass"]


def scalar_functional_eq_quotient(members, taus=tn.PROBE_POINTS):
    """The suite's functional-equation quotient as it was: one `ru_snap` per quotient,
    the probe points compared root by root."""
    rows = members.tolist()
    snaps = []
    for t in taus:
        moved = [(a * t + b) / (c * t + d) for a, b, c, d in rows]
        base = tn._riemann_theta_unchecked(t, 1e-13)
        cocycle = tn._riemann_thetas_unchecked(moved, 1e-13) / base
        quotient = (members[:, 2] * t + members[:, 3]) / cocycle**2
        snaps.append([ru_snap(q, 4, 1e-6) for q in quotient.tolist()])
    for values in snaps[1:]:
        for row, first, other in zip(rows, snaps[0], values):
            if first != other:
                raise ArithmeticError(
                    f"probe points disagree on {row}: {first}, {other}; convention failure"
                )
    return snaps[0]


def theta_members(bound):
    pool = cg._entry_bound_rows(bound)
    return pool[cg._contains(cg.THETA12, *pool.T)]


def test_functional_eq_quotient_equals_the_scalar_snaps():
    """The array snap gives every member the exponent of the root the
    per-quotient `ru_snap` gives it, at entry bound 20 and at other probe
    points."""
    members = theta_members(20)
    got = suite._functional_eq_exponents(members)
    assert got.dtype == np.int64
    assert [_root(k, 4) for k in got.tolist()] == scalar_functional_eq_quotient(members)
    taus = (0.1 + 0.9j, -0.45 + 1.7j)
    got = suite._functional_eq_exponents(members, taus).tolist()
    assert [_root(k, 4) for k in got] == scalar_functional_eq_quotient(members, taus)


def broken_thetas(monkeypatch, call, row, factor):
    """Make `thetanum._riemann_thetas_unchecked` multiply `row` by factor on
    its call number `call` (from 0)."""
    batch = tn._riemann_thetas_unchecked
    calls = []

    def patched(taus, tol):
        out = batch(taus, tol)
        if len(calls) == call:
            out[row] *= factor
        calls.append(None)
        return out

    monkeypatch.setattr(tn, "_riemann_thetas_unchecked", patched)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "call, factor, error",
    (
        (0, 1.01, NoSnap),
        (1, 0.999, NoSnap),
        (0, complex("nan"), NoSnap),
        (1, float("inf"), NoSnap),
        (1, cmath.exp(1j * cmath.pi / 4), ArithmeticError),
    ),
)
def test_functional_eq_quotient_failures_match_the_scalar_snaps(monkeypatch, call, factor, error):
    """A quotient off every root, a non-finite one, and probe points that
    disagree (theta times e^{i pi/4} turns the quotient by -i) raise what the
    scalar snaps raise, with the same message."""
    members = theta_members(6)
    broken_thetas(monkeypatch, call, 17, factor)
    with pytest.raises(error) as want:
        scalar_functional_eq_quotient(members)
    broken_thetas(monkeypatch, call, 17, factor)
    with pytest.raises(error) as got:
        suite._functional_eq_exponents(members)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_snap_mu4_follows_ru_snap():
    """`_snap_mu4` snaps each entry as `ru_snap(z, 4, tol)` does: near the four
    roots, between them, on the unit circle and off it, non-finite; an array
    with a miss raises NoSnap naming its first miss."""
    rng = np.random.default_rng(4)
    roots = np.exp(0.5j * np.pi * rng.integers(0, 4, 2000))
    offsets = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    near = roots + offsets * 10 ** rng.uniform(-12, -5, 2000)
    anywhere = np.exp(2j * np.pi * rng.uniform(size=500)) * rng.uniform(0.5, 1.5, 500)
    special = [complex("nan"), complex("inf"), complex("nan+nanj"), complex(0, float("-inf")), 0j]
    for z in [*near.tolist(), *anywhere.tolist(), *special]:
        try:
            want = ru_snap(z, 4, 1e-6)
        except NoSnap as exc:
            with pytest.raises(NoSnap) as got:
                suite._snap_mu4(np.array([1.0, z]))
            assert str(got.value) == str(exc)
        else:
            assert suite._snap_mu4(np.array([z])).tolist() == [int(want.exponent * 4)]


# the stabilizer sweeps' lists, rebuilt from `SL2Matrix` objects: (factor
# name, m) -> (the group whose members the factor is swept over, the check id)
SWEEP_LISTS = {
    ("theta_action_factor", 2): (cg.Gamma(2), "theta_structure_stabilizer"),
    ("splitting_action_factor", 2): (cg.Gamma0(2), "splitting_stabilizer"),
    ("theta_action_factor", 4): (cg.Gamma(4), "theta_structure_stabilizer"),
    ("splitting_action_factor", 4): (cg.Gamma0(4), "splitting_stabilizer"),
}
SWEEP_BOUND = {"quick": 10, "full": 40}


def all_u_trivial(name, g, m):
    """The per-(member, u) triviality test, one factor call per u."""
    if name == "theta_action_factor":
        return all(
            cg.theta_action_factor(g, m, u1, u2).is_one() for u1 in range(m) for u2 in range(m)
        )
    return all(cg.splitting_action_factor(g, m, u).is_one() for u in range(m))


def sweep_members(level, name, m):
    group, _ = SWEEP_LISTS[name, m]
    return [g for g in cg.sl2_with_entry_bound(SWEEP_BOUND[level]) if cg.member(g, group)]


@pytest.mark.parametrize("level", ("quick", "full"))
@pytest.mark.parametrize("name, m", SWEEP_LISTS)
def test_class_verdicts_match_the_per_member_loop(level, name, m):
    """Every member of both lists gets the verdict of its own per-u loop."""
    members = sweep_members(level, name, m)
    rows = np.array([g.entries() for g in members], dtype=np.int64)
    got = suite._class_values(rows, 2 * m, lambda g: all_u_trivial(name, g, m))
    assert got.tolist() == [all_u_trivial(name, g, m) for g in members]


@pytest.mark.parametrize("level", ("quick", "full"))
@pytest.mark.parametrize("name, m", SWEEP_LISTS)
@pytest.mark.parametrize("cls", ("identity", "moved"))
def test_sweep_counts_every_member_of_a_wrong_residue_class(monkeypatch, level, name, m, cls):
    """A factor that is wrong on one residue class mod 2m (negated on the
    identity class, which the factor fixes, or 1 on a class it moves) makes
    every member of that class an exception, and no other member."""
    if cls == "identity":
        residues, wrong = (1, 0, 0, 1), lambda value: value * RootOfUnity(Fraction(1, 2))
    else:
        moved = (1, m, 0, 1) if name == "theta_action_factor" else (1, 0, m, 1)
        residues, wrong = moved, lambda value: ONE
    factor = getattr(cg, name)

    def mutant(g, mm, *u):
        value = factor(g, mm, *u)
        if mm == m and tuple(x % (2 * m) for x in g.entries()) == residues:
            return wrong(value)
        return value

    in_class = sum(
        tuple(x % (2 * m) for x in g.entries()) == residues for g in sweep_members(level, name, m)
    )
    assert in_class > 0
    monkeypatch.setattr(cg, name, mutant)
    _, check_id = SWEEP_LISTS[name, m]
    for e in run(suite.check_stabilizer_sweeps, level):
        hit = e["check_id"] == check_id and e["params"]["m"] == m
        assert e["residual"] == (in_class if hit else 0), e
        assert e["observed"] == f"{in_class if hit else 0} exceptions"


def test_full_sweep_calls_each_factor_once_per_class_and_u(monkeypatch):
    """The sweep evaluates each factor at most once per (residue class mod 2m, u),
    and each at least once, so the factors' traced spans keep opening."""
    calls = {name: 0 for name, _ in SWEEP_LISTS}
    allowed = dict.fromkeys(calls, 0)
    for name, m in SWEEP_LISTS:
        classes = {tuple(x % (2 * m) for x in g.entries()) for g in sweep_members("full", name, m)}
        allowed[name] += len(classes) * (m * m if name == "theta_action_factor" else m)

    def counting(name, factor):
        def wrapper(*args):
            calls[name] += 1
            return factor(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cg, name, counting(name, getattr(cg, name)))
    entries = run(suite.check_stabilizer_sweeps, "full")
    assert all(e["pass"] for e in entries)
    assert all(1 <= calls[name] <= allowed[name] for name in calls), (calls, allowed)


@pytest.mark.parametrize("level, lifts", [("quick", 18), ("full", 150)])
def test_transformation_law_lifts_each_word_once(monkeypatch, level, lifts):
    """The stage lifts each of its words once (6 or 50 words at each of
    m = 2, 4, 6), not once per (word, tau) query."""
    calls = []
    lift = wr.mp_lift_word

    def counting(gamma, eps=1):
        calls.append((gamma, eps))
        return lift(gamma, eps)

    monkeypatch.setattr(wr, "mp_lift_word", counting)
    entries = run(suite.check_transformation_law, level)
    assert all(e["pass"] for e in entries)
    assert len(calls) == sum(e["params"]["words"] for e in entries) == lifts
