import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab import _kernels


# --- loop oracles: the obvious implementations the kernels must equal bit for bit ---

def _theta_class_sums_loop(m: int, tau: complex, radius: int) -> np.ndarray:
    out = np.zeros(m, dtype=np.complex128)
    w = 1j * cmath.pi * tau / m
    for r in range(-radius, radius + 1):
        out[r % m] += cmath.exp(w * (r * r))
    return out


def _riemann_theta_sum_loop(tau: complex, radius: int) -> complex:
    acc = 0.0 + 0.0j
    w = 1j * cmath.pi * tau
    for n in range(-radius, radius + 1):
        acc += cmath.exp(w * (n * n))
    return acc


def _riemann_theta_sums_full_range(taus, radii) -> np.ndarray:
    """`riemann_theta_sums` as it was: per distinct radius, every term of
    n = -R..R computed, the real and imaginary parts summed by two cumsums."""
    taus = np.asarray(taus, dtype=np.complex128)
    radii = np.asarray(radii, dtype=np.int64)
    out = np.empty(len(taus), dtype=np.complex128)
    for radius in set(radii.tolist()):
        rows = radii == radius
        n = np.arange(-radius, radius + 1)
        terms = np.exp(1j * cmath.pi * taus[rows, None] * (n * n))
        out.real[rows] = terms.real.cumsum(axis=1)[:, -1] + 0.0
        out.imag[rows] = terms.imag.cumsum(axis=1)[:, -1] + 0.0
    return out


def _mod4_products_einsum(mats: np.ndarray, gens: np.ndarray) -> np.ndarray:
    prod = np.einsum("nab,gbc->ngac", mats.astype(np.int64), gens.astype(np.int64))
    n, g, k, _ = prod.shape
    return (prod % 4).astype(np.uint8).reshape(n * g, k, k)


def _pack_mod4_loop(mats: np.ndarray) -> np.ndarray:
    n, k, _ = mats.shape
    keys = []
    for i in range(n):
        keys.append(sum(int(mats[i, a, b]) * 4 ** (a * k + b)
                        for a in range(k) for b in range(k)))
    return np.array(keys, dtype=np.uint64)


def test_backend_is_reported():
    assert _kernels.BACKEND == "numpy"


def test_kernels_match_loop_oracle():
    """Every kernel equals its loop oracle exactly, not within a tolerance."""
    for tau in (0.21 + 0.73j, -1.4 + 0.1j, 0.5 + 3.0j):
        for m in (1, 2, 6, 8, 64, 512):
            for radius in (0, 7, 123, 600):
                got = _kernels.theta_class_sums(m, tau, radius)
                assert np.array_equal(got, _theta_class_sums_loop(m, tau, radius))
        for radius in (0, 10, 200):
            got = _kernels.riemann_theta_sum(tau, radius)
            assert type(got) is complex
            assert got == _riemann_theta_sum_loop(tau, radius)

    rng = np.random.default_rng(0)
    for k in range(2, 41):
        mats = rng.integers(0, 4, size=(7, k, k), dtype=np.uint8)
        gens = rng.integers(0, 4, size=(3, k, k), dtype=np.uint8)
        # All-3 factors give entries 9k, past 255 from k = 29 on, so the
        # uint8 products wrap before `& 3`.
        mats[0] = gens[0] = 3
        got = _kernels.mod4_products(mats, gens)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _mod4_products_einsum(mats, gens))
    mats = rng.integers(0, 4, size=(37, 4, 4), dtype=np.uint8)
    assert np.array_equal(_kernels.pack_mod4(mats), _pack_mod4_loop(mats))


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from((1, 2, 4, 6, 8, 64, 512)),
    re=st.floats(-4.0, 4.0),
    im=st.floats(0.1, 3.0),
    radius=st.integers(0, 400),
)
def test_theta_class_sums_equal_loop_oracle(m, re, im, radius):
    tau = complex(re, im)
    got = _kernels.theta_class_sums(m, tau, radius)
    assert np.array_equal(got, _theta_class_sums_loop(m, tau, radius))


def _bits(values) -> list[tuple[str, str]]:
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-4.0, 4.0), st.floats(0.1, 3.0), st.sampled_from((0, 1, 2, 7, 30, 120))
        ),
        max_size=12,
    ),
    repeat=st.integers(1, 3),
)
def test_riemann_theta_sums_equal_the_scalar_sums(rows, repeat):
    """The batch gives each tau the scalar kernel's value, and the loop
    oracle's, bit for bit: shared (duplicate) radii, radius 0, one element
    and no element at all."""
    rows = rows * repeat
    taus = [complex(re, im) for re, im, _ in rows]
    radii = [radius for _, _, radius in rows]
    got = _kernels.riemann_theta_sums(taus, radii)
    assert got.dtype == np.complex128 and got.shape == (len(rows),)
    assert _bits(got) == _bits(_kernels.riemann_theta_sum(t, r) for t, r in zip(taus, radii))
    assert _bits(got) == _bits(_riemann_theta_sum_loop(t, r) for t, r in zip(taus, radii))


def test_riemann_theta_sums_equal_the_full_range_batch():
    """The mirrored half-range batch equals the full-range one bit for bit:
    random taus with Im tau from 1e-3 to 3 at the radii `thetanum` picks for
    them, radius 1, duplicate taus, and rows whose imaginary parts are all
    -0.0 (Im tau so large that every term but n = 0 underflows, and a tiny
    negative Re tau, which gives every term a negative zero imaginary part),
    whose sum the final + 0.0 turns into +0.0."""
    from thetalab.thetanum import _radius_unchecked

    rng = np.random.default_rng(33)
    taus = rng.uniform(-1.0, 1.0, 400) + 1j * 10 ** rng.uniform(-3.0, np.log10(3.0), 400)
    radii = [_radius_unchecked(1, t, 1e-13) for t in taus.tolist()]
    cases = [
        (taus, radii),
        (taus[:50], [1] * 50),
        (np.repeat(taus[:20], 3), np.repeat(radii[:20], 3)),
        ([complex(-1e-300, 1e3)] * 3 + [complex(-0.5, 1e3), -0j], [1, 3, 7, 2, 0]),
        ([], []),
    ]
    for case_taus, case_radii in cases:
        got = _kernels.riemann_theta_sums(case_taus, case_radii)
        assert _bits(got) == _bits(_riemann_theta_sums_full_range(case_taus, case_radii))
    n = np.arange(-3, 4)
    assert np.signbit(np.exp(1j * cmath.pi * complex(-1e-300, 1e3) * (n * n)).imag).all()
    zeros = _kernels.riemann_theta_sums([complex(-1e-300, 1e3)], [3])
    assert _bits(zeros) == [((1.0).hex(), (0.0).hex())]


def test_pack_keys_are_injective():
    rng = np.random.default_rng(1)
    mats = rng.integers(0, 4, size=(5000, 4, 4), dtype=np.uint8)
    keys = _kernels.pack_mod4(mats)
    flat = {tuple(m.reshape(-1)) for m in mats}
    assert len(set(keys.tolist())) == len(flat)


def test_summation_is_deterministic():
    tau = 0.3 + 1.1j
    a = _kernels.theta_class_sums(4, tau, 300)
    b = _kernels.theta_class_sums(4, tau, 300)
    assert np.array_equal(a, b)
