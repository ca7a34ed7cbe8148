import cmath
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cli import main
from thetalab.congruence import SL2Matrix
from thetalab.metaplectic import (
    MP_I,
    MP_S,
    MP_T,
    MP_Z,
    MpElement,
    mp_from_word,
    mp_lift_word,
    mp_mul,
)
from thetalab.thetanum import theta_constants, verify_transformation
from thetalab.weilrep import (
    BadIndex,
    _fold,
    _det_exponents,
    _generators,
    det_character,
    det_character_order,
    det_character_square_order,
    weil_generator,
    weil_rep,
)

from dense_oracle import (
    allocating_fold,
    dense_det_exponents,
    dense_generators,
    dense_weil_rep,
    dense_word,
    generator_tables,
    probe_prefactor,
)


def test_generator_examples_m2():
    t = weil_generator(2, "T")
    assert np.allclose(t, np.diag([1, 1j]))
    s = weil_generator(2, "S")
    base = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    # the relation-consistent prefactor is sqrt(-i) = e^{-i pi/4}; the
    # opposite sign breaks (ST)^3 = S^2
    assert np.allclose(s, np.exp(-1j * np.pi / 4) * base)
    z = weil_generator(2, "Zminus")
    assert np.allclose(z, -np.eye(2))


def test_relations_define_a_representation():
    """The relations as dense matrix products, on the generators the probe
    rows selected, up to the largest m."""
    for m in (2, 4, 6, 8, 10, 64, 512):
        t = weil_generator(m, "T")
        s = weil_generator(m, "S")
        st = s @ t
        assert np.max(np.abs(st @ st @ st - s @ s)) < 1e-9
        s4 = s @ s @ s @ s
        assert np.max(np.abs(s4 @ s4 - np.eye(m))) < 1e-9
        assert np.max(np.abs(s4 + np.eye(m))) < 1e-9  # S^4 = -1


def test_input_validation():
    for bad in (0, 3, -2, 514):
        with pytest.raises(BadIndex):
            weil_generator(bad, "T")
    with pytest.raises(ValueError):
        weil_generator(2, "Q")


NOT_INTEGERS = (6.0, 6.5, "6", Fraction(6))


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_non_integer_m_is_a_bad_index(bad):
    """An m that is not an integer is refused as such, even when it equals 6."""
    calls = (
        lambda: weil_rep(bad, MP_S),
        lambda: weil_rep(bad, MP_S, np.ones(6)),
        lambda: weil_generator(bad, "S"),
        lambda: verify_transformation(bad, MP_S, 0.1 + 1.2j),
        lambda: theta_constants(bad, 0.1 + 1.2j),
        lambda: det_character_order(bad),
    )
    for call in calls:
        with pytest.raises(BadIndex):
            call()


def test_numpy_integer_m_is_the_python_int():
    """np.int64(6) gives the bytes of 6 everywhere and shares its table entry,
    which holds Python scalars even when a numpy integer built it."""
    _generators.cache_clear()
    m, p, tau = np.int64(6), mp_from_word([("T", 1), ("S", 1), ("T", 3)]), 0.1 + 1.2j
    dense = weil_rep(m, p)
    assert type(_generators(6)[0]) is complex and _generators.cache_info().currsize == 1
    assert _same_bits(dense, weil_rep(6, p))
    vectors = np.arange(12.0).reshape(2, 6)
    assert _same_bits(weil_rep(m, p, vectors), weil_rep(6, p, vectors))
    assert _same_bits(weil_generator(m, "S"), weil_generator(6, "S"))
    assert verify_transformation(m, p, tau) == verify_transformation(6, p, tau)
    theta, plain = theta_constants(m, tau), theta_constants(6, tau)
    assert type(theta.m) is int and theta.err_bound == plain.err_bound
    assert _same_bits(theta.values, plain.values)
    assert det_character_order(m) == det_character_order(6)
    assert _generators.cache_info().currsize == 1


# --- the closed-form prefactor and determinants against the numeric choices ---------

ORACLE_DIMS = [*range(2, 65, 2), 128, 256, 510, 512]


@pytest.mark.parametrize("m", ORACLE_DIMS)
def test_generators_match_dense_oracle_bit_for_bit(m):
    c, squares, phases = _generators(m)
    dense_c, dense_squares, dense_phases = dense_generators(m)
    assert type(c) is complex and _same_bits(np.array(c), np.array(dense_c))
    assert _same_bits(squares, dense_squares) and _same_bits(phases, dense_phases)
    assert probe_prefactor(squares, phases) == c


@pytest.mark.parametrize("m", (1024, 4096, 65536))
def test_probe_picks_the_closed_form_prefactor_beyond_the_dense_bound(m):
    assert probe_prefactor(*generator_tables(m)) == cmath.exp(-1j * np.pi / 4) / m**0.5


@pytest.mark.parametrize("m", ORACLE_DIMS)
def test_det_exponents_match_dense_oracle(m):
    assert _det_exponents(m) == dense_det_exponents(m)


def _det_sample() -> list[MpElement]:
    """Seeded words over S^+-1, T^k and Z, and both lifts of the identity."""
    rng = np.random.default_rng(31)
    letters = [("S", 1), ("S", -1), ("T", 1), ("T", -1), ("T", 3), ("Z", 1)]
    words = [
        [letters[i] for i in rng.integers(0, len(letters), rng.integers(1, 9))]
        for _ in range(10)
    ]
    identity = SL2Matrix(1, 0, 0, 1)
    return [mp_from_word(w) for w in words] + [MpElement(identity, 1), MpElement(identity, -1)]


@pytest.mark.parametrize("m", (2, 6, 64, 512))
def test_det_character_matches_dense_determinant(m):
    sample = _det_sample()
    assert mp_lift_word(sample[-1].gamma, sample[-1].eps)[-1] == ("Z", 1)
    for p in sample:
        det = det_character(m, p)
        assert type(det) is complex
        assert abs(det - np.linalg.det(dense_weil_rep(m, p))) < 1e-12


# tables that break the relations for both prefactors
MUTANT_TABLES = {
    # phases of period m instead of 2m: T becomes T^2
    "period m": lambda j, m: ((j * j) % (2 * m), np.exp(2j * np.pi * np.arange(2 * m) / m)),
    # T twisted by the modulation e^{2 pi i j / m}
    "modulated T": lambda j, m: ((j * j + 2 * j) % (2 * m), np.exp(1j * np.pi * np.arange(2 * m) / m)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANT_TABLES))
@pytest.mark.parametrize("m", (6, 64))
def test_relation_check_rejects_mutant_tables(m, mutant):
    squares, phases = MUTANT_TABLES[mutant](np.arange(m, dtype=np.int64), m)
    with pytest.raises(ArithmeticError, match="selected 0 prefactors"):
        probe_prefactor(squares, phases)


def test_weil_rep_on_generators_and_center():
    for m in (2, 4, 6, 8):
        assert np.allclose(weil_rep(m, MP_I), np.eye(m))
        assert np.allclose(weil_rep(m, MP_Z), -np.eye(m))
        assert np.allclose(weil_rep(m, MP_T), weil_generator(m, "T"))
        assert np.allclose(weil_rep(m, MP_S), weil_generator(m, "S"))
        s = weil_generator(m, "S")
        assert np.allclose(s @ s @ s @ s, weil_rep(m, mp_from_word([("S", 4)])))


def test_t_powers_are_structurally_periodic():
    for m in (2, 4, 6):
        t2m = weil_rep(m, mp_from_word([("T", 2 * m)]))
        assert np.array_equal(t2m, np.eye(m) + 0j) or np.max(
            np.abs(t2m - np.eye(m))
        ) == 0.0
        diag = np.diag(weil_generator(m, "T"))
        assert np.allclose(diag ** (2 * m), np.ones(m))


def test_homomorphism_random_words():
    rng = np.random.default_rng(0)
    worst = 0.0
    for m in (2, 4, 6, 8):
        for _ in range(50):
            words = []
            for _ in range(2):
                word = [
                    [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
                    for _ in range(int(rng.integers(0, 15)))
                ]
                words.append(mp_from_word(word))
            p, q = words
            lhs = weil_rep(m, mp_mul(p, q))
            rhs = weil_rep(m, p) @ weil_rep(m, q)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-9


def test_unitarity():
    rng = np.random.default_rng(1)
    for m in (2, 4, 6, 8):
        for which in ("T", "S", "Zminus"):
            mat = weil_generator(m, which)
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(m))) < 1e-10
        for _ in range(20):
            word = [
                [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
                for _ in range(int(rng.integers(0, 15)))
            ]
            mat = weil_rep(m, mp_from_word(word))
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(m))) < 1e-10


def test_genuine_on_the_center():
    # the representation does not factor through the matrix group: the two
    # lifts of the identity act by +-identity
    for m in (2, 4):
        plus = weil_rep(m, MpElement(SL2Matrix(1, 0, 0, 1), 1))
        minus = weil_rep(m, MpElement(SL2Matrix(1, 0, 0, 1), -1))
        assert np.allclose(plus, np.eye(m))
        assert np.allclose(minus, -np.eye(m))


def test_determinants_m2():
    assert abs(det_character(2, MP_T) - 1j) < 1e-12
    # with the relation-consistent prefactor sqrt(-i), det rho_2(S) = +i
    # (the formal substitution with the opposite prefactor would give -i)
    assert abs(det_character(2, MP_S) - 1j) < 1e-12
    assert det_character_order(2) == 4
    assert det_character_square_order(2) == 2


def test_det_character_orders_divide_24():
    for m in (2, 4, 6, 8, 12):
        order = det_character_order(m)
        assert 24 % order == 0
        sq = det_character_square_order(m)
        assert order % sq == 0 and sq in (order, order // 2)
        # the order annihilates both generator determinants
        for p in (MP_T, MP_S):
            val = det_character(m, p) ** order
            assert abs(val - 1) < 1e-9


def test_det_is_a_character():
    rng = np.random.default_rng(2)
    for m in (2, 6):
        for _ in range(25):
            word1 = [
                [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
                for _ in range(int(rng.integers(0, 10)))
            ]
            word2 = [
                [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
                for _ in range(int(rng.integers(0, 10)))
            ]
            p, q = mp_from_word(word1), mp_from_word(word2)
            assert (
                abs(
                    det_character(m, mp_mul(p, q))
                    - det_character(m, p) * det_character(m, q)
                )
                < 1e-9
            )


# --- the word fold against the dense oracle -------------------------------------------

FOLD_DIMS = (2, 4, 6, 8, 64, 512)


@st.composite
def dims_and_words(draw, max_tokens: int, max_t: int):
    """An m from FOLD_DIMS and a word over S^k, Z^k and T^k (|k| up to max_t for T)."""
    m = draw(st.sampled_from(FOLD_DIMS))
    token = st.one_of(
        st.tuples(st.just("S"), st.integers(-2, 2)),
        st.tuples(st.just("Z"), st.integers(-3, 3)),
        st.tuples(st.just("T"), st.integers(-max_t, max_t)),
    )
    return m, draw(st.lists(token, max_size=max_tokens))


@settings(max_examples=40, deadline=None)
@given(dims_and_words(max_tokens=6, max_t=1500), st.integers(0, 2**32))
def test_weil_rep_matches_dense_oracle(case, seed):
    m, word = case
    p = mp_from_word(word)
    dense = dense_weil_rep(m, p)
    assert np.max(np.abs(weil_rep(m, p) - dense)) < 1e-10
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    assert np.max(np.abs(weil_rep(m, p, vectors) - vectors @ dense.T)) < 1e-10
    assert np.max(np.abs(weil_rep(m, p, vectors[0]) - dense @ vectors[0])) < 1e-10


@settings(max_examples=40, deadline=None)
@given(dims_and_words(max_tokens=10, max_t=5000), st.integers(1, 3), st.integers(0, 2**32))
def test_fold_matches_dense_oracle_on_blocks(case, rows, seed):
    m, word = case
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    expected = block @ dense_word(m, word)
    assert np.max(np.abs(_fold(_generators(m), word, block) - expected)) < 1e-10


NEGATIVE_POWER_WORDS = (
    [("S", -1)],
    [("T", 1), ("S", -1), ("T", -2)],
    [("S", -3), ("T", 3), ("Z", -1), ("S", 2), ("T", -1), ("S", -9)],
)


@pytest.mark.parametrize("m", (2, 6, 64))
def test_negative_s_and_z_powers_match_dense_oracle(m):
    """S^-k and Z^-k act as inverse powers, through both the element word and the fold."""
    eye = np.eye(m, dtype=np.complex128)
    for word in NEGATIVE_POWER_WORDS:
        dense = dense_word(m, word)
        assert np.max(np.abs(weil_rep(m, mp_from_word(word)) - dense)) < 1e-10
        assert np.max(np.abs(_fold(_generators(m), word, eye) - dense)) < 1e-10
    s_inv = weil_rep(m, mp_from_word([("S", -1)]))
    assert np.max(np.abs(s_inv @ weil_generator(m, "S") - eye)) < 1e-10


def test_weil_rep_rejects_misshapen_vectors():
    for bad in (np.zeros(5), np.zeros((2, 5)), np.zeros((1, 2, 6)), np.zeros(())):
        with pytest.raises(ValueError):
            weil_rep(6, MP_S, bad)


# --- the in-place fold against the allocating fold, bit for bit -----------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(dims_and_words(max_tokens=10, max_t=5000), st.integers(1, 3), st.integers(0, 2**32))
def test_fold_in_place_is_bit_identical_to_allocating_fold(case, rows, seed):
    """Same order of operations, so the same bytes (signed zeros included) on
    the identity, on (k, m) blocks and on 1-D vectors."""
    m, word = case
    gens = _generators(m)
    eye = np.eye(m, dtype=np.complex128)
    assert _same_bits(_fold(gens, word), allocating_fold(gens, word, eye))
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    assert _same_bits(_fold(gens, word, block), allocating_fold(gens, word, block))
    vector = block[0].copy()
    assert _same_bits(_fold(gens, word, vector), allocating_fold(gens, word, vector))


with open(os.path.join(os.path.dirname(__file__), "weilrep_cli_pins.json")) as _pins:
    CLI_PINS = json.load(_pins)


@pytest.mark.parametrize("key", sorted(CLI_PINS))
def test_weilrep_cli_stdout_is_pinned(capsys, key):
    """`thetalab weilrep --m M --mp P` stdout, byte for byte.  The pins were
    recorded with the allocating fold, before `_fold` worked in place; they
    hold the fold's signed zeros (e.g. "-0+0i" from T over the identity)."""
    m, mp = key.split()
    assert main(["weilrep", "--m", m, "--mp", mp]) == 0
    assert capsys.readouterr().out == CLI_PINS[key] + "\n"


# --- aliasing and dtypes -------------------------------------------------------------

ALIAS_WORDS = ([], [("Z", 1)], [("T", 3)], [("S", 1), ("T", -2), ("Z", 1), ("S", -1)])


@pytest.mark.parametrize("word", ALIAS_WORDS)
@pytest.mark.parametrize("shape", ((6,), (2, 6)))
def test_fold_and_weil_rep_leave_the_callers_array_alone(word, shape):
    """The fold works on its own copy: the caller's rows, writeable or
    read-only, come back unchanged and share no memory with the result."""
    gens = _generators(6)
    p = mp_from_word(word)
    rng = np.random.default_rng(3)
    for writeable in (True, False):
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = rows.copy()
        rows.setflags(write=writeable)
        for out in (_fold(gens, word, rows), weil_rep(6, p, rows)):
            assert out.flags.writeable and not np.shares_memory(out, rows)
            assert np.array_equal(rows, before) and rows.flags.writeable == writeable


@pytest.mark.parametrize("word", ALIAS_WORDS)
def test_integer_and_float_rows_are_promoted_to_complex128(word):
    gens = _generators(6)
    p = mp_from_word(word)
    rows = np.arange(12, dtype=np.int64).reshape(2, 6) - 5
    for real in (rows, rows.astype(np.float64)):
        cast = real.astype(np.complex128)
        assert _same_bits(_fold(gens, word, real), _fold(gens, word, cast))
        assert _same_bits(weil_rep(6, p, real), weil_rep(6, p, cast))
        assert _fold(gens, word, real).dtype == np.complex128


def test_dense_weil_rep_returns_a_fresh_writeable_block_per_call():
    p = mp_from_word([("S", 1), ("T", 5), ("S", 1)])
    a, b = weil_rep(512, p), weil_rep(512, p)
    assert a is not b and not np.shares_memory(a, b)
    assert a.flags.writeable and b.flags.writeable
    assert np.array_equal(a, b)


def test_generator_tables_stay_read_only():
    weil_rep(512, mp_from_word([("T", 1), ("S", 1)]))
    for m in (2, 6, 512):
        _, squares, phases = _generators(m)
        for table in (squares, phases):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[1]
