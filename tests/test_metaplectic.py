import ast
import cmath
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.congruence import (
    SL2Matrix,
    SL2_I,
    SL2_S,
    SL2_T,
    THETA12,
    NotMember,
    member,
    sl2_with_entry_bound,
)
from thetalab.cyclo import MINUS_ONE, ONE, RootOfUnity, ru_mul, ru_snap
from thetalab.metaplectic import (
    MP_I,
    MP_S,
    MP_T,
    MP_Z,
    MpElement,
    mp_from_word,
    mp_inv,
    mp_lift_word,
    mp_mul,
    mp_pow,
    phi_eval,
    st_factor,
    tilde_lambda,
    word_to_matrix,
)
from thetalab import metaplectic, thetanum
from thetalab.symplectic4 import discriminant
from thetalab.thetanum import PROBE_POINTS, functional_eq_lambda, halfform_cocycle


def probe_mul(p: MpElement, q: MpElement) -> MpElement:
    """The product with its branch sign read off numerically at tau = 2i.

    phi1(gamma2 tau) phi2(tau) is compared against the principal square root
    of c tau + d and snapped to +-1.  Well-conditioned only for small
    entries; for large ones gamma2(2i) rounds onto the real axis.
    """
    gamma = p.gamma * q.gamma
    value = phi_eval(p, q.gamma.moebius(2j)) * phi_eval(q, 2j)
    ratio = value / cmath.sqrt(gamma.c * 2j + gamma.d)
    for eps in (1, -1):
        if abs(ratio - eps) < 1e-6:
            return MpElement(gamma, eps)
    raise AssertionError(f"branch ratio {ratio} is not near +-1")


SMALL = [
    MpElement(SL2Matrix(a, b, c, d), eps)
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if a * d - b * c == 1
    for eps in (1, -1)
]

# T^k S blocks, the shape the continued-fraction factorization produces
blocks = st.lists(st.integers(-40, 40).map(lambda k: [("T", k), ("S", 1)]), max_size=40)
words = blocks.map(lambda bs: [token for block in bs for token in block])
elements = st.builds(
    lambda word, eps: mp_from_word(word + [("Z", 1)] * eps), words, st.integers(0, 1)
)


def test_string_round_trip():
    p = MpElement(SL2Matrix(1, -2, 3, -5), -1)
    assert MpElement.from_string(p.as_string()) == p
    assert MP_S.as_string() == "0,-1,1,0:+"
    with pytest.raises(ValueError):
        MpElement.from_string("1,0,0,1")


def test_phi_eval_examples():
    assert phi_eval(MP_I, 0.3 + 2j) == 1
    assert abs(phi_eval(MP_S, 1j) - cmath.exp(1j * cmath.pi / 4)) < 1e-15
    assert phi_eval(MP_Z, 5j) == -1
    for tau in (2j, 0.3 + 1.1j, -4 + 0.2j):
        val = phi_eval(MpElement(SL2Matrix(1, 0, 4, 1), -1), tau)
        assert abs(val * val - (4 * tau + 1)) < 1e-12 * abs(4 * tau + 1)


def test_mp_mul_examples():
    t_inv = MpElement(SL2_T.inverse(), 1)
    assert mp_mul(MP_T, t_inv) == MP_I
    assert mp_mul(MP_S, MP_S) == MpElement(-SL2_I, 1)
    assert mp_pow(MP_S, 4) == MP_Z
    assert mp_pow(MP_S, 8) == MP_I


def test_projection_kernel_is_mu2():
    assert mp_mul(MP_Z, MP_Z) == MP_I
    assert mp_mul(MP_Z, MP_S) == mp_mul(MP_S, MP_Z)  # central
    assert {MP_I, MP_Z} == {MP_I, MP_Z}
    p = MpElement(SL2_S, -1)
    assert mp_mul(MP_Z, MP_S) == p


def test_mp_inv():
    rng = np.random.default_rng(0)
    for _ in range(50):
        word = [
            [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
            for _ in range(int(rng.integers(0, 12)))
        ]
        p = mp_from_word(word)
        assert mp_mul(p, mp_inv(p)) == MP_I
        assert mp_mul(mp_inv(p), p) == MP_I


def test_st_factor_examples():
    assert st_factor(SL2_I) == []
    assert st_factor(SL2_T) == [("T", 1)]
    g = SL2Matrix(1, 0, 1, 1)
    assert word_to_matrix(st_factor(g)) == g


def test_st_factor_random_round_trip():
    rng = np.random.default_rng(1)
    pool = list(sl2_with_entry_bound(60))
    for i in rng.integers(0, len(pool), size=300):
        g = pool[int(i)]
        word = st_factor(g)
        assert word_to_matrix(word) == g
        # token count stays logarithmic in the entries
        assert len(word) <= 4 * (
            2 + int(np.log2(max(abs(e) for e in g.entries()) + 1))
        ) + 4


def object_cf_word(gamma: SL2Matrix, step: int) -> list[tuple[str, int]]:
    """The continued-fraction reduction on `SL2Matrix` objects, one per step:
    the slow oracle for the reduction on four integers."""
    tokens = []
    w = gamma
    s_inv = SL2_S.inverse()
    while w.c != 0:
        k = step * metaplectic._nearest_quotient(w.a, step * w.c)
        if k != 0:
            tokens.append(("T", k))
            w = SL2Matrix(w.a - k * w.c, w.b - k * w.d, w.c, w.d)
        tokens.append(("S", 1))
        w = s_inv * w
    if w.a == -1:
        tokens.append(("S", 1))
        tokens.append(("S", 1))
        w = -w
    if w.b != 0:
        tokens.append(("T", w.b))
        w = SL2_I
    assert w == SL2_I
    return tokens


def test_cf_word_matches_the_object_reduction():
    """Step 1 on every matrix with entries at most 30, step 2 on its theta-group
    members: the same tokens as the reduction on matrix objects."""
    pool = list(sl2_with_entry_bound(30))
    theta = [g for g in pool if member(g, THETA12)]
    assert len(theta) < len(pool)
    for g in pool:
        assert metaplectic._cf_word(g, 1) == object_cf_word(g, 1), g
    for g in theta:
        assert metaplectic._cf_word(g, 2) == object_cf_word(g, 2), g


def test_mp_lift_word_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        word = [
            [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
            for _ in range(int(rng.integers(0, 20)))
        ]
        p = mp_from_word(word)
        if rng.integers(0, 2):
            p = mp_mul(p, MP_Z)
        lifted = mp_lift_word(p.gamma, p.eps)
        assert mp_from_word(lifted) == p
        # at most one trailing central token
        assert sum(1 for name, _ in lifted if name == "Z") <= 1
        if lifted and lifted[-1][0] != "Z":
            assert all(name != "Z" for name, _ in lifted)
        for eps in (1, -1):
            assert word_to_matrix(mp_lift_word(p.gamma, eps)) == p.gamma


def test_mp_lift_word_trivial_cases():
    assert mp_lift_word(SL2_I, 1) == []
    assert mp_lift_word(SL2_I, -1) == [("Z", 1)]


def test_mp_associativity_numeric():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        ps = []
        for _ in range(3):
            word = [
                [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
                for _ in range(int(rng.integers(0, 10)))
            ]
            ps.append(mp_from_word(word))
        left = mp_mul(mp_mul(ps[0], ps[1]), ps[2])
        right = mp_mul(ps[0], mp_mul(ps[1], ps[2]))
        assert left == right


def test_mp_mul_matches_probe_on_small_entries():
    """Every pair with entries at most 3, both branches: the exact cocycle
    agrees with the numeric probe where the probe is well-conditioned."""
    for p in SMALL:
        for q in SMALL:
            assert mp_mul(p, q) == probe_mul(p, q), (p, q)


@settings(max_examples=200, deadline=None)
@given(elements, elements, elements)
def test_mp_associativity_property(p, q, r):
    assert mp_mul(mp_mul(p, q), r) == mp_mul(p, mp_mul(q, r))


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_mp_mul_matches_word_concatenation(w1, w2):
    assert mp_mul(mp_from_word(w1), mp_from_word(w2)) == mp_from_word(w1 + w2)


@settings(max_examples=100, deadline=None)
@given(elements, st.integers(-12, 12))
def test_mp_inv_and_pow_match_repeated_mul(p, n):
    inv = mp_inv(p)
    assert mp_mul(p, inv) == MP_I and mp_mul(inv, p) == MP_I
    expected = MP_I
    for _ in range(abs(n)):
        expected = mp_mul(expected, p if n >= 0 else inv)
    assert mp_pow(p, n) == expected


def test_word_powers_of_s_and_z_are_group_powers():
    """("S", k) and ("Z", k) are k-th powers for every integer k, inverse
    powers included, not k-fold repetitions that skip k <= 0."""
    assert mp_pow(MP_S, 8) == MP_I and mp_pow(MP_Z, 2) == MP_I
    for k in range(-16, 17):
        assert mp_from_word([("S", k)]) == mp_pow(MP_S, k)
        assert mp_from_word([("Z", k)]) == mp_pow(MP_Z, k)
    assert mp_from_word([("S", -1)]) == mp_inv(MP_S) != MP_I
    assert mp_from_word([("S", 10**12 + 1)]) == MP_S


def letter_word(tokens):
    """The product of a token word, one `_mul` per letter: S^k as k mod 8
    factors S, T^k as one factor, and (I, -) flipping the sign in place."""
    x = (1, 0, 0, 1, 1)
    for name, k in tokens:
        if name == "T":
            x = metaplectic._mul(*x, 1, k, 0, 1, 1)
        elif name == "S":
            for _ in range(k % 8):
                x = metaplectic._mul(*x, 0, -1, 1, 0, 1)
        elif name == "Z":
            if k % 2:
                x = (*x[:4], -x[4])
        else:
            raise ValueError(f"unknown token {name!r}")
    return x


def run_words(rng, count):
    """Words of runs of S^k (k in [-17, 17]) and T^k (k = 0 included), with
    Z^k tokens between and inside runs."""
    out = [[]]
    for _ in range(count):
        word = []
        for _ in range(rng.integers(0, 8)):
            name = ("S", "T")[rng.integers(0, 2)]
            for _ in range(rng.integers(1, 4)):
                word.append((name, int(rng.integers(-17, 18))))
                if rng.random() < 0.2:
                    word.append(("Z", int(rng.integers(-3, 4))))
        out.append(word)
    return out


def test_run_products_match_the_letter_by_letter_product():
    rng = np.random.default_rng(32)
    words = run_words(rng, 400)
    assert any(("T", 0) in w for w in words) and any(("Z", 0) in w for w in words)
    for word in words:
        assert metaplectic._word(word) == letter_word(word), word
    lifts = [mp_lift_word(g, eps) for g in sl2_with_entry_bound(6) for eps in (1, -1)]
    for word in lifts:
        assert metaplectic._word(word) == letter_word(word), word


def test_s_power_table_and_unknown_tokens():
    assert [metaplectic._element(*x) for x in metaplectic._S_POWERS] == [
        mp_pow(MP_S, k) for k in range(8)
    ]
    for word in ([("X", 1)], [("T", 1), ("S", 1), ("s", 1)], [("S", 2), ("Y", 0), ("S", 1)]):
        with pytest.raises(ValueError, match="unknown token"):
            mp_from_word(word)


def test_tilde_lambda_basics():
    assert tilde_lambda(MP_I) == RootOfUnity(0)
    # the defining relation with principal branches gives the eighth root
    # sqrt(i) on (S, sqrt(tau)), i.e. exponent 1/8
    assert tilde_lambda(MP_S) == RootOfUnity.of(1, 8)
    with pytest.raises(NotMember):
        tilde_lambda(MP_T)  # T is not in the theta group


def test_probe_points_have_one_definition():
    """PROBE_POINTS lives in `thetanum`; `metaplectic` imports nothing from it."""
    assert thetanum.PROBE_POINTS == (2j, 0.3 + 1.1j)
    assert not hasattr(metaplectic, "PROBE_POINTS")
    tree = ast.parse(inspect.getsource(metaplectic))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"thetanum", "_kernels"}


def probe_tilde_lambda(p: MpElement) -> RootOfUnity:
    """lambda~(p) = phi(tau) theta(tau) / theta(gamma tau), measured.

    The quotient is snapped into mu_8 at both probe points, which must
    agree.  Well-conditioned only for small entries: for large ones
    Im(gamma tau) is so small that the theta series needs a huge radius.
    """
    values = {
        ru_snap(phi_eval(p, tau) / halfform_cocycle(p.gamma, tau), 8, 1e-6)
        for tau in PROBE_POINTS
    }
    assert len(values) == 1, values
    return values.pop()


def test_tilde_lambda_matches_probe_oracle():
    """The word value equals the measured one on both lifts of every theta-group
    matrix with entries at most 20, and the pinned generator values are the
    measured ones."""
    assert probe_tilde_lambda(MP_S) == metaplectic._LAMBDA_S == RootOfUnity.of(1, 8)
    t2 = MpElement(SL2Matrix(1, 2, 0, 1), 1)
    assert probe_tilde_lambda(t2) == metaplectic._LAMBDA_T2 == ONE
    assert probe_tilde_lambda(MP_Z) == metaplectic._LAMBDA_Z == MINUS_ONE
    pool = [g for g in sl2_with_entry_bound(20) if member(g, THETA12)]
    assert len(pool) == 1380
    for g in pool:
        for eps in (1, -1):
            p = MpElement(g, eps)
            assert tilde_lambda(p) == probe_tilde_lambda(p), p


# words in the generators (S,+)^+-1, (T^2,+)^k and (I,-) of the metaplectic
# theta group, with the value of lambda~ on each letter
theta_letters = st.one_of(
    st.sampled_from([("S", 1), ("S", -1), ("Z", 1)]),
    st.integers(-20, 20).map(lambda k: ("T", 2 * k)),
)
LETTER_VALUES = {"S": RootOfUnity.of(1, 8), "T": ONE, "Z": MINUS_ONE}


@settings(max_examples=200, deadline=None)
@given(st.lists(theta_letters, max_size=60))
def test_tilde_lambda_is_the_product_of_generator_values(word):
    """Far beyond the probe's range: the exact character multiplies over a word,
    and its square is the exact mod-4 discriminant."""
    expected = ONE
    for name, k in word:
        expected *= LETTER_VALUES[name] ** k
    p = mp_from_word(word)
    assert tilde_lambda(p) == expected
    g = p.gamma
    mod4 = [[g.a % 4, g.b % 4], [g.c % 4, g.d % 4]]
    assert functional_eq_lambda(g) == discriminant(mod4, "even") == expected**2


def test_tilde_lambda_on_large_entries():
    """The reproducer whose probe needed a radius near 4e8 and an element with
    entries near 4e15: both values come from the word."""
    repro = mp_from_word([t for i in range(9) for t in (("T", 2 + 2 * i), ("S", 1))])
    assert repro.gamma == SL2Matrix(146181170, -8149601, 84066001, -4686680)
    assert tilde_lambda(repro) == RootOfUnity.of(1, 8)
    g = repro.gamma
    mod4 = [[g.a % 4, g.b % 4], [g.c % 4, g.d % 4]]
    assert functional_eq_lambda(g) == discriminant(mod4, "even") == RootOfUnity.of(1, 4)
    big = mp_from_word([("T", 2), ("S", 1), ("T", 4), ("S", 1), ("T", 6), ("S", 1)] * 10)
    assert 10**15 < max(abs(e) for e in big.gamma.entries()) < 10**16
    assert tilde_lambda(big) == RootOfUnity.of(3, 4)
    assert tilde_lambda(mp_mul(big, MP_Z)) == RootOfUnity.of(1, 4)
    assert functional_eq_lambda(big.gamma) == MINUS_ONE


def test_tilde_lambda_multiplicative():
    rng = np.random.default_rng(4)
    pool = [g for g in sl2_with_entry_bound(8) if member(g, THETA12)]
    for _ in range(200):
        g1 = pool[int(rng.integers(0, len(pool)))]
        g2 = pool[int(rng.integers(0, len(pool)))]
        p1 = MpElement(g1, 1 if rng.integers(0, 2) else -1)
        p2 = MpElement(g2, 1 if rng.integers(0, 2) else -1)
        assert tilde_lambda(mp_mul(p1, p2)) == ru_mul(tilde_lambda(p1), tilde_lambda(p2))


def test_tilde_lambda_square_has_global_sign():
    """lambda~^2 = lambda^s with one global sign s across all tested elements."""
    pool = [g for g in sl2_with_entry_bound(6) if member(g, THETA12)]
    signs = set()
    for g in pool[:120]:
        p = MpElement(g, 1)
        square = tilde_lambda(p) * tilde_lambda(p)
        lam = functional_eq_lambda(g)
        if square == lam:
            signs.add(1 if lam != lam.inverse() else 0)
        elif square == lam.inverse():
            signs.add(-1)
        else:
            raise AssertionError(f"{square} is neither lambda nor its inverse")
    signs.discard(0)  # elements with lambda in mu_2 are blind to the sign
    assert signs == {1}
