"""The batch verification suite behind `thetalab verify suite` and the acceptance tests.

Nine check groups, each returning report entries
{check_id, params, expected, observed, residual, pass}; `run_suite` executes
them in a fixed order at one of two levels ("quick" shrinks sample counts
and sweep bounds, "full" runs the complete battery) and times each group.
Congruence sweeps enumerate one pool of SL2(Z) matrices with bounded
entries per check; the stabilizer sweeps filter each subgroup from the
smallest list already known to contain it (Gamma0(4) from Gamma0(2),
Gamma(m) from Gamma0(m)), and the cocycle identities draw their pairs from
the filtered lists through one shared loop.  The discriminant oracle
compares every member's analytic quotient with the exact discriminant, which
it looks up once per residue class mod 4, the only thing the discriminant
depends on, in one array comparison of mu_4 exponents; the quotient is
taken over the whole member list at once, with
theta(g tau) for every member summed in one `thetanum` batch per probe
point and the quotients of a probe point snapped to mu_4 in one array step
(`_snap_mu4`, `ru_snap`'s rule), and theta at the cocycles' fixed base
points comes from `thetanum`'s bounded theta cache.  Each pool is one
(N, 4) integer array
(`congruence._entry_bound_rows`) filtered by `congruence._contains` masks;
only the members handed to an `SL2Matrix` or an action factor become Python
ints.  The stabilizer sweeps call each action factor once per residue class
mod 2m and (u1, u2), on the class's first member, and broadcast the class's
verdict to its members (the factors depend only on the entries mod 2m); the
factors are looked up on the `congruence` module, so a patched or wrapped
factor is the one called.
The random words of a check are decoded from one block of the generator's
raw 32-bit words (`_random_words`), which gives the words and generator
state of one bounded draw per value, and are multiplied out on integers by
`metaplectic`'s word routine, one product per run of S or T letters; the
associativity triples stay
integer tuples, with `metaplectic._mul` read at call time.  The cocycle
identities draw their candidate pairs in blocks of as many pairs as are
still missing, which consumes the pairs, and leaves the generator state,
of one draw per pair.  The Weil unitarity and multiplicativity checks get
the matrices of each m from one stacked fold (`weilrep._weil_reps`) and
take one batched product per identity.
The transformation law checks each m's (word, tau) queries as one batch
(`thetanum._verify_words`): each word lifted once, one stacked fold, one
array step for the residuals, the queries observed in the order of the
one-query loop.
Randomized sweeps draw from a seeded generator (THETA_LAB_SEED in the CLI),
so a seed fixes every entry, and rejection sampling enforces the
Im(gamma tau) floor required by the verifier's precision contract.
"""

from __future__ import annotations

import cmath
import itertools
import math
import platform
import time
from typing import Callable

import numpy as np

from . import congruence as cg
from . import heisenberg as hb
from . import metaplectic as mp
from . import schrodinger as sc
from . import symplectic4 as s4
from . import thetanum as tn
from . import weilrep as wr
from .cyclo import _TWO_PI, ONE, NoSnap, _root, mu_group

__all__ = ["CHECK_ORDER", "run_suite", "entry"]

TRANSFORM_TAUS = (0.3 + 1.1j, -0.4 + 0.8j, 2j)


def entry(check_id: str, params, expected, observed, residual: float, ok: bool) -> dict:
    return {
        "check_id": check_id,
        "params": params,
        "expected": expected,
        "observed": observed,
        "residual": float(residual),
        "pass": bool(ok),
    }


_LETTERS = (("S", 1), ("T", 1), ("T", -1))
_LETTER_TABLE = np.fromiter(_LETTERS, dtype=object, count=3)  # gathers letters by index
_FLIP = ("Z", 1)  # the central (I, -): flips the sign of a word's product


def _bounded(raw: np.ndarray, n: int, offset: int) -> tuple[np.ndarray, set[int]]:
    """numpy's bounded draws in [0, n) read from raw 32-bit words, and the
    positions (from `offset`) of the words it would discard instead."""
    scaled = raw.astype(np.uint64) * n
    bad = np.flatnonzero((scaled & 0xFFFFFFFF) < 2**32 % n) + offset
    return scaled >> 32, set(bad.tolist())


def _random_words(
    rng: np.random.Generator,
    count: int,
    max_len: int,
    flip: bool = False,
    keep: Callable | None = None,
    attempts: int | None = None,
) -> list:
    """`count` random words of up to max_len letters S, T, T^-1, read from one
    block of the generator's 32-bit stream.

    A word is one draw in [0, max_len] for its length and one draw in [0, 3)
    per letter; with `flip`, one more draw in [0, 2) appends ("Z", 1), the
    central (I, -), when it is 1.  `keep(word)` gives the value kept for a
    word, or None to draw another, and must not draw from `rng`; the first
    `count` kept values are returned, the words themselves without `keep`.
    Needing more than `attempts` words raises RuntimeError.  The words, and
    the generator state afterwards, are those of one `rng.integers(0, n)`
    call per draw.

    This relies on numpy's bounded draws: `Generator.integers(0, n)` with
    n <= 2^32 reads one 32-bit word u of the bit generator and returns
    (u * n) >> 32 (Lemire's multiply-shift), unless (u * n) mod 2^32 <
    2^32 mod n, when it discards u and reads the next word; and
    `integers(0, 2**32, dtype=np.uint32)` returns the words themselves.  So
    the draws are decoded from a block of raw words, word after word; then
    the generator state is restored and exactly the decoded number of raw
    words is drawn again.  A random word holding a raw word that numpy would
    discard is not decoded: the generator is moved to its start, and it and
    the rest are drawn per value.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    state = rng.bit_generator.state
    lengths: list[int] = []
    letters: list[tuple[str, int]] = []
    flips: list[int] = []
    bad_lengths: set[int] = set()
    bad_letters: set[int] = set()

    def extend(words: int) -> None:
        # a word takes 1 + max_len / 2 (+ 1 with flip) draws on average
        size = words * (max_len // 2 + 2) + max_len * math.isqrt(words)
        raw = rng.integers(0, 2**32, size=size, dtype=np.uint32)
        values, bad = _bounded(raw, max_len + 1, len(lengths))
        lengths.extend(values.tolist())
        bad_lengths.update(bad)
        values, bad = _bounded(raw, 3, len(letters))
        letters.extend(_LETTER_TABLE[values].tolist())
        bad_letters.update(bad)
        if flip:
            flips.extend((raw >> 31).tolist())  # 2^32 mod 2 = 0: never discarded

    def rewind() -> None:
        # back to the start, then on by the raw words decoded
        rng.bit_generator.state = state
        rng.integers(0, 2**32, size=pos, dtype=np.uint32)

    out: list = []
    drawn = pos = 0  # random words drawn, raw words decoded
    blockwise = True
    try:
        extend(count)
        while len(out) < count:
            if attempts is not None and drawn >= attempts:
                raise RuntimeError("rejection sampling failed to find enough words")
            if not blockwise:
                length = int(rng.integers(0, max_len + 1))
                word = [_LETTERS[i] for i in rng.integers(0, 3, size=length).tolist()]
                if flip and int(rng.integers(0, 2)):
                    word.append(_FLIP)
            elif pos >= len(lengths) or pos + 1 + lengths[pos] + flip > len(lengths):
                # the words still missing, at the share kept so far
                extend((count - len(out)) * (drawn + 1) // (len(out) + 1) + 1)
                continue
            else:
                length = lengths[pos]
                if (bad_lengths or bad_letters) and (
                    pos in bad_lengths
                    or not bad_letters.isdisjoint(range(pos + 1, pos + 1 + length))
                ):
                    rewind()
                    blockwise = False
                    continue
                word = letters[pos + 1 : pos + 1 + length]
                pos += 1 + length + flip
                if flip and flips[pos - 1]:
                    word.append(_FLIP)
            drawn += 1
            value = word if keep is None else keep(word)
            if value is not None:
                out.append(value)
    finally:
        if blockwise:
            rewind()
    return out


def _sample_mp_words(
    rng: np.random.Generator, count: int, max_len: int, taus=TRANSFORM_TAUS
) -> list[mp.MpElement]:
    """Random metaplectic words whose gamma keeps Im(gamma tau) above the eval floor.

    Words violating the floor at any probe tau are redrawn, so every sampled
    element satisfies the verifier's precision contract at all probes.
    """

    def keep(word):
        p = mp.mp_from_word(word)
        return p if all(p.gamma.moebius(t).imag >= tn.MIN_IM_EVAL for t in taus) else None

    return _random_words(rng, count, max_len, flip=True, keep=keep, attempts=500 * count)


# --- 1. transformation law ---------------------------------------------------------

def check_transformation_law(level: str, rng: np.random.Generator) -> list[dict]:
    words_per_m = 50 if level == "full" else 6
    tol = 1e-9
    results = []
    for m in (2, 4, 6):
        words = _sample_mp_words(rng, words_per_m, 12)
        checks = tn._verify_words(m, words, TRANSFORM_TAUS, tol)
        worst = max(0.0, *(check.residual for check in checks))
        ok = all(check.passed for check in checks)
        results.append(
            entry(
                "transformation_law",
                {"m": m, "words": words_per_m, "taus": len(TRANSFORM_TAUS)},
                f"max residual < {tol}",
                f"max residual {worst:.3e}, convention {tn.get_convention()}",
                worst,
                ok and worst < tol,
            )
        )
    return results


# --- 2. discriminant vs functional equation ----------------------------------------

# e^{2 pi i k / 4} as `ru_snap` computes it, for its distance test
_MU4 = np.array([cmath.exp(1j * _TWO_PI * (k / 4)) for k in range(4)])


def _snap_mu4(z: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """k in 0..3 with |z - e^{2 pi i k / 4}| < tol for every entry of z, by
    `ru_snap(z, 4, tol)`'s rule in one array step: the nearest k by phase,
    then the distance to that root, measured against `ru_snap`'s own roots.
    The first entry within tol of none, a non-finite one included, raises
    the `NoSnap` that `ru_snap` would raise on it."""
    finite = np.isfinite(z)
    k = np.zeros(len(z), dtype=np.int64)
    k[finite] = np.round(np.angle(z[finite]) / _TWO_PI * 4) % 4
    bad = ~finite | (np.abs(z - _MU4[k]) >= tol)
    if bad.any():
        first = complex(z[np.argmax(bad)])
        raise NoSnap(f"{first} is not within {tol} of any 4-th root of unity")
    return k


def _functional_eq_exponents(members: np.ndarray, taus=tn.PROBE_POINTS) -> np.ndarray:
    """k in 0..3 for each theta-group row (a, b, c, d) of `members`, with
    e^{2 pi i k / 4} the mu_4 snap of (c tau + d) theta(tau)^2 / theta(g tau)^2,
    equal at every tau in taus: the quotient is tau-free.

    theta(g tau) for every row at one tau comes from one `thetanum` batch, each
    value the numerator of `halfform_cocycle(g, tau)`, bit for bit, and the
    quotients of one tau are snapped in one array step (`_snap_mu4`).
    """
    if not cg._contains(cg.THETA12, *members.T).all():
        raise cg.NotMember("the functional equation quotient is taken on the theta group")
    rows = members.tolist()
    snaps = []
    for t in taus:
        moved = [(a * t + b) / (c * t + d) for a, b, c, d in rows]
        base = tn._riemann_theta_unchecked(t, 1e-13)
        cocycle = tn._riemann_thetas_unchecked(moved, 1e-13) / base
        snaps.append(_snap_mu4((members[:, 2] * t + members[:, 3]) / cocycle**2))
    for values in snaps[1:]:
        if (differ := np.flatnonzero(values != snaps[0])).size:
            i = int(differ[0])
            first, other = _root(int(snaps[0][i]), 4), _root(int(values[i]), 4)
            raise ArithmeticError(
                f"probe points disagree on {rows[i]}: {first}, {other}; convention failure"
            )
    return snaps[0]


def _class_values(rows: np.ndarray, modulus: int, value: Callable) -> np.ndarray:
    """`value(g)` for every row (a, b, c, d) of `rows`, as an array, evaluated on
    the first row of each residue class mod `modulus` and broadcast to the rest
    of it.

    Each row's residues are packed into one int64 key, digits base `modulus`,
    so rows share a key exactly when they share a residue class.
    """
    keys = (rows % modulus) @ modulus ** np.arange(3, -1, -1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    values = np.array([value(cg.SL2Matrix(*row)) for row in rows[first].tolist()])
    return values[inverse]


def check_discriminant_oracle(level: str, rng: np.random.Generator) -> list[dict]:
    """The exact mod-4 discriminant against the analytic `_functional_eq_exponents`."""
    bound = 20 if level == "full" else 6
    results = []
    for parity in ("even", "odd"):
        count = s4.character_solution_count(1, parity)
        results.append(
            entry(
                "discriminant_solution_count",
                {"g": 1, "parity": parity},
                1,
                count,
                abs(count - 1),
                count == 1,
            )
        )
    pool = cg._entry_bound_rows(bound)
    members = pool[cg._contains(cg.THETA12, *pool.T)]
    quotients = _functional_eq_exponents(members)

    def exponent(g: cg.SL2Matrix) -> int:
        """k with e^{2 pi i k / 4} the discriminant of g, or -1 (matching no
        quotient) for a value outside mu_4."""
        value = s4.discriminant([[g.a % 4, g.b % 4], [g.c % 4, g.d % 4]], "even").exponent * 4
        return int(value) if value.denominator == 1 else -1

    # `s4.discriminant` reduces its argument mod 4 first, so its value (and its
    # NotMember decision) is looked up once per residue class
    mismatches = int(np.count_nonzero(quotients != _class_values(members, 4, exponent)))
    results.append(
        entry(
            "discriminant_oracle",
            {"entry_bound": bound, "matrices": len(members)},
            "0 mismatches",
            f"{mismatches} mismatches",
            float(mismatches),
            mismatches == 0,
        )
    )
    return results


# --- 3. stabilizer sweeps -----------------------------------------------------------

def check_stabilizer_sweeps(level: str, rng: np.random.Generator) -> list[dict]:
    """Triviality of the action factors on Gamma(m) and Gamma0(m) against
    membership in the stabilizers Gamma(m, 2m) and Gamma0(2m), m = 2 and 4.

    Each factor is e^{-2 pi i e / 2m} with e an integer polynomial in the
    entries a, b, c, d (and u), so e mod 2m, and the factor, depend only on
    the entries mod 2m; the factors' `NotMember` pre-checks on Gamma(m) and
    Gamma0(m) depend only on the entries mod m.  So every member of a residue
    class mod 2m gets the verdict of the class's first member: the all-u
    triviality test runs once per class, and each member's verdict is still
    compared with that member's own membership.  A factor that is wrong on
    one class is counted on every member of it.  The factors are looked up
    on the `congruence` module at call time, so a patched or wrapped factor
    is the one called.
    """
    bound = 40 if level == "full" else 10
    # Gamma0(4) < Gamma0(2) and Gamma(m) < Gamma0(m): each list is filtered
    # from the smallest list already known to contain it, in pool order, by a
    # `_contains` mask over its integer rows; the action factors see one
    # `SL2Matrix` per residue class mod 2m
    pool = cg._entry_bound_rows(bound)
    rows = pool[cg._contains(cg.Gamma0(2), *pool.T)]
    results = []
    for m in (2, 4):
        rows = rows[cg._contains(cg.Gamma0(m), *rows.T)]
        theta_rows = rows[cg._contains(cg.Gamma(m), *rows.T)]
        theta_trivial = _class_values(
            theta_rows,
            2 * m,
            lambda g: all(
                cg.theta_action_factor(g, m, u1, u2).is_one()
                for u1 in range(m)
                for u2 in range(m)
            ),
        )
        split_trivial = _class_values(
            rows,
            2 * m,
            lambda g: all(cg.splitting_action_factor(g, m, u).is_one() for u in range(m)),
        )
        theta_bad = int(
            np.count_nonzero(theta_trivial != cg._contains(cg.GammaM2M(m), *theta_rows.T))
        )
        split_bad = int(np.count_nonzero(split_trivial != cg._contains(cg.Gamma0(2 * m), *rows.T)))
        results.append(
            entry(
                "theta_structure_stabilizer",
                {"m": m, "entry_bound": bound, "matrices": len(theta_rows)},
                "triviality iff membership",
                f"{theta_bad} exceptions",
                float(theta_bad),
                theta_bad == 0,
            )
        )
        results.append(
            entry(
                "splitting_stabilizer",
                {"m": m, "entry_bound": bound, "matrices": len(rows)},
                "triviality iff membership",
                f"{split_bad} exceptions",
                float(split_bad),
                split_bad == 0,
            )
        )
    return results


# --- 4. descended theta characteristic ----------------------------------------------

def check_descended_char(level: str, rng: np.random.Generator) -> list[dict]:
    bad = 0
    for m in (2, 4, 6, 8):
        for u1, u2 in itertools.product((0, 1), repeat=2):
            got = cg.descended_theta_char(m, u1, u2)
            want_exp = s4.quad_form_value([u1, u2], "even")
            if got.exponent * 2 != want_exp:
                bad += 1
    return [
        entry(
            "descended_theta_characteristic",
            {"ms": [2, 4, 6, 8], "points": 4},
            "equals the standard even form",
            f"{bad} deviations",
            float(bad),
            bad == 0,
        )
    ]


# --- 5. Stone-von Neumann suite ------------------------------------------------------

def _rho_hom_violations(typ: hb.ThetaType) -> int:
    """Pairs (e1, e2) of mu_d x K(delta) with rho(e1 e2) != rho(e1) @ rho(e2), exactly.

    `sc.rho` is called once per element, and its rows and `Fraction`
    exponents are stacked into integer arrays, exponents in units of
    1/modulus with modulus the lcm of their denominators, d and the
    scalar modulus.  Element i = k |K| + r is (e^{2 pi i k / d}, z_r), z_r
    the r-th element of K(delta) in the index-table order, so the product
    of every pair is computed from the coordinates: scalars multiply with
    the group-law scalar <x1, y2>, and K parts add.  Both sides of every pair
    are then compared entry by entry in one integer gather.
    """
    table = hb._ktable(typ)
    d, n = typ.degree, table.n
    mats = [
        sc.rho(hb.HeisenbergElement(lam, z)) for lam in mu_group(d) for z in table.elements
    ]
    modulus = math.lcm(
        typ.scalar_modulus, d, *(q.denominator for mat in mats for q in mat.exponents)
    )
    rows = np.array([mat.row_of_col for mat in mats], dtype=np.int64)
    exps = np.array(
        [[q.numerator * (modulus // q.denominator) for q in mat.exponents] for mat in mats],
        dtype=np.int64,
    )
    k, r = np.divmod(np.arange(d * n), n)
    c = table.coords[r]
    xy = c @ table.xy_form @ c.T
    scalar = (k[:, None] + k) * (modulus // d) + xy * (modulus // typ.scalar_modulus)
    product = scalar % modulus // (modulus // d) * n + table.rank(c[:, None] + c)
    # rho(e1) @ rho(e2): column nu of rho(e2) lands in row rows[e2, nu], where
    # rho(e1) moves it on to rows[e1, rows[e2, nu]] and adds exps[e1, rows[e2, nu]]
    first = np.arange(d * n)[:, None, None]
    same = (rows[first, rows] == rows[product]) & (
        (exps + exps[first, rows]) % modulus == exps[product]
    )
    return int((~same.all(axis=2)).sum())


def check_stone_von_neumann(level: str, rng: np.random.Generator) -> list[dict]:
    types = ((2,), (4,), (2, 2)) if level == "full" else ((2,),)
    results = []
    for divisors in types:
        typ = hb.ThetaType(divisors)
        d = typ.degree
        hom_bad = _rho_hom_violations(typ)
        group = [hb.HeisenbergElement(ONE, z) for z in hb.k_elements(typ)]
        image = [sc.rho(e).to_numpy() for e in group]
        commutant = len(sc.intertwiner_space(image, image))
        inv_can = sc.invariant_subspace(hb.canonical_splitting(typ))
        can_ok = len(inv_can) == 1 and bool(
            np.allclose(np.abs(inv_can[0]), np.eye(d)[0])
        )
        split_dims = [
            len(sc.invariant_subspace(s))
            for s in hb.enumerate_symmetric_splittings(typ)
        ]
        ok = (
            hom_bad == 0
            and commutant == 1
            and can_ok
            and all(dim == 1 for dim in split_dims)
        )
        results.append(
            entry(
                "stone_von_neumann",
                {"type": list(divisors)},
                "exact homomorphism, commutant 1, invariants delta_0, line per splitting",
                f"hom violations {hom_bad}, commutant {commutant}, "
                f"canonical {'delta_0' if can_ok else 'WRONG'}, dims {split_dims}",
                float(hom_bad),
                ok,
            )
        )
    return results


# --- 6. descent combinatorics --------------------------------------------------------

def check_descent_combinatorics(level: str, rng: np.random.Generator) -> list[dict]:
    results = []
    for divisors in ((2,), (4,), (2, 2), (4, 4)):
        typ = hb.ThetaType(divisors)
        n = len(hb.symmetric_splittings_over(tuple(hb.k_basis(typ)[: typ.g]), typ))
        results.append(
            entry(
                "splitting_count",
                {"type": list(divisors)},
                2**typ.g,
                n,
                abs(n - 2**typ.g),
                n == 2**typ.g,
            )
        )
    for doubled in ((4,), (4, 4)):
        typ = hb.ThetaType(doubled)
        images = {
            hb.h2_pushforward_splitting(s).star_signs
            for s in hb.enumerate_symmetric_splittings(typ)
        }
        ok = images == {(1,) * typ.g}
        results.append(
            entry(
                "pushforward_constant",
                {"type": list(doubled)},
                "always the canonical splitting",
                f"images {sorted(images)}",
                0.0 if ok else 1.0,
                ok,
            )
        )
    orbit_types = ((2,), (2, 2)) if level == "full" else ((2,),)
    for divisors in orbit_types:
        typ = hb.ThetaType(divisors)
        auts = hb.enumerate_sym_automorphisms(typ)
        stab = hb.stabilizer_u0sym(typ, auts)
        index = len(auts) // len(stab)
        pairs = sum(
            len(hb.symmetric_splittings_over(gens, typ))
            for gens in hb.maximal_isotropic_subgroups(typ)
        )
        results.append(
            entry(
                "orbit_stabilizer",
                {"type": list(divisors), "aut": len(auts), "stab": len(stab)},
                "index equals number of splitting pairs",
                f"index {index}, pairs {pairs}",
                float(abs(index - pairs)),
                index == pairs,
            )
        )
    return results


# --- 7. metaplectic and unitary structure --------------------------------------------

def check_metaplectic_weil(level: str, rng: np.random.Generator) -> list[dict]:
    results = []
    s4th = mp.mp_pow(mp.MP_S, 4)
    ok_s4 = s4th == mp.MP_Z and mp.mp_pow(mp.MP_S, 8) == mp.MP_I
    results.append(
        entry(
            "central_element",
            {},
            "S^4 = (I,-) and S^8 = (I,+)",
            f"S^4 = {s4th.as_string()}",
            0.0 if ok_s4 else 1.0,
            ok_s4,
        )
    )
    worst_center = 0.0
    for m in (2, 4, 6, 8):
        z = wr.weil_rep(m, mp.MP_Z)
        worst_center = max(worst_center, float(np.max(np.abs(z + np.eye(m)))))
    results.append(
        entry(
            "genuine_center",
            {"ms": [2, 4, 6, 8]},
            "rho(I,-) = -identity",
            f"max deviation {worst_center:.3e}",
            worst_center,
            worst_center < 1e-12,
        )
    )
    triples = 1000 if level == "full" else 100
    # the triples stay (a, b, c, d, eps) integer tuples; `_mul` is read here,
    # from the module, so a patched product is the one checked
    mul = mp._mul
    words = _random_words(rng, 3 * triples, 10, keep=mp._word)
    differing = 0
    for p, q, r in zip(words[::3], words[1::3], words[2::3]):
        differing += mul(*mul(*p, *q), *r) != mul(*p, *mul(*q, *r))
    results.append(
        entry(
            "mp_associativity",
            {"triples": triples},
            "(pq)r = p(qr) exactly",
            f"{differing} of {triples} triples differ",
            float(differing),
            differing == 0,
        )
    )
    pairs_per_m = 50 if level == "full" else 8
    worst_unitary = 0.0
    worst_mult = 0.0
    for m in (2, 4, 6, 8):
        # rho(p), rho(q) and rho(pq) of every pair from one stacked fold (read
        # from the module, so a patched fold is the one checked): one batched
        # product per identity, each slice the pair's own matrix product
        words = _random_words(rng, 2 * pairs_per_m, 15, keep=mp.mp_from_word)
        ps, qs = words[::2], words[1::2]
        mat_p, mat_q, prod = np.split(
            wr._weil_reps(m, ps + qs + [mp.mp_mul(p, q) for p, q in zip(ps, qs)]), 3
        )
        unitary = mat_p @ mat_p.conj().transpose(0, 2, 1) - np.eye(m)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(unitary))))
        worst_mult = max(worst_mult, float(np.max(np.abs(prod - mat_p @ mat_q))))
    results.append(
        entry(
            "weil_unitarity",
            {"ms": [2, 4, 6, 8], "pairs_per_m": pairs_per_m},
            "unitary within 1e-10",
            f"max deviation {worst_unitary:.3e}",
            worst_unitary,
            worst_unitary < 1e-10,
        )
    )
    results.append(
        entry(
            "weil_multiplicativity",
            {"ms": [2, 4, 6, 8], "pairs_per_m": pairs_per_m},
            "multiplicative within 1e-9",
            f"max deviation {worst_mult:.3e}",
            worst_mult,
            worst_mult < 1e-9,
        )
    )
    return results


# --- 8. cocycle identities -----------------------------------------------------------

def _cocycle_deviation(
    rng: np.random.Generator,
    members: list[cg.SL2Matrix],
    composites: int,
    tau: complex,
    cocycle: Callable[[cg.SL2Matrix, complex], complex],
) -> float:
    """Worst |c(g1 g2, tau) - c(g1, g2 tau) c(g2, tau)| over random pairs of `members`.

    Pairs whose g2 tau falls below the evaluation floor are redrawn until
    `composites` pairs have been compared.
    """
    worst = 0.0
    accepted = 0
    while accepted < composites:
        # each pair is accepted at most once, so the one-pair-per-draw loop
        # consumes at least the composites - accepted pairs of this block, and
        # bounded draws do not depend on how they are grouped into calls
        for i, j in rng.integers(0, len(members), size=(composites - accepted, 2)).tolist():
            g1, g2 = members[i], members[j]
            moved = g2.moebius(tau)
            if moved.imag < tn.MIN_IM_EVAL:
                continue
            accepted += 1
            lhs = cocycle(g1 * g2, tau)
            rhs = cocycle(g1, moved) * cocycle(g2, tau)
            worst = max(worst, abs(lhs - rhs))
    return worst


def check_cocycle_identities(level: str, rng: np.random.Generator) -> list[dict]:
    composites = 100 if level == "full" else 20
    tol = 1e-8
    pool = cg._entry_bound_rows(12)
    tau0 = 0.1 + 1.3j
    theta_members, gamma0_members = (
        [cg.SL2Matrix(*row) for row in pool[cg._contains(group, *pool.T)].tolist()]
        for group in (cg.THETA12, cg.Gamma0(4))
    )
    cases = [
        ("halfform_cocycle", {"composites": composites, "tau": str(tau0)},
         theta_members, tn.halfform_cocycle),
    ] + [
        ("shimura_cocycle", {"k": k, "composites": composites},
         gamma0_members, lambda g, t, k=k: tn.shimura_cocycle(g, k, t))
        for k in (0, 1, 3)
    ]
    results = []
    for check_id, params, members, cocycle in cases:
        worst = _cocycle_deviation(rng, members, composites, tau0, cocycle)
        results.append(
            entry(
                check_id,
                params,
                f"identity within {tol}",
                f"max deviation {worst:.3e}",
                worst,
                worst < tol,
            )
        )

    m = 2
    worst = 0.0
    small_pool = cg._entry_bound_rows(5).tolist()
    accepted = 0
    while accepted < composites:
        g1 = cg.SL2Matrix(*small_pool[int(rng.integers(0, len(small_pool)))])
        g2 = cg.SL2Matrix(*small_pool[int(rng.integers(0, len(small_pool)))])
        lam1 = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        lam2 = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
        e1 = (g1, lam1)
        e2 = (g2, lam2)
        prod = tn.jacobi_compose(e1, e2)
        lhs = tn.jacobi_cocycle(prod[0], prod[1][0], prod[1][1], m, tau, z)
        moved = tn.jacobi_action(e2, (z, tau))
        rhs = tn.jacobi_cocycle(
            e1[0], e1[1][0], e1[1][1], m, moved[1], moved[0]
        ) * tn.jacobi_cocycle(e2[0], e2[1][0], e2[1][1], m, tau, z)
        # skip samples whose factors leave the comfortably representable
        # range: the relative comparison would degenerate to 0/0
        if not (1e-200 < abs(lhs) < 1e200 and 1e-200 < abs(rhs) < 1e200):
            continue
        accepted += 1
        worst = max(worst, abs(lhs / rhs - 1))
    results.append(
        entry(
            "jacobi_cocycle",
            {"m": m, "composites": composites},
            f"identity within {tol} (relative)",
            f"max relative deviation {worst:.3e}",
            worst,
            worst < tol,
        )
    )
    return results


# --- 9. subgroup indices -------------------------------------------------------------

def check_subgroup_indices(level: str, rng: np.random.Generator) -> list[dict]:
    results = []
    idx4 = cg.subgroup_index(cg.Gamma0(4))
    idx4b = cg.subgroup_index(cg.Gamma0(4), 8)
    results.append(
        entry(
            "index_gamma0_4",
            {"moduli": [4, 8]},
            6,
            [idx4, idx4b],
            float(abs(idx4 - 6) + abs(idx4b - 6)),
            idx4 == idx4b == 6,
        )
    )
    total = cg.subgroup_index(cg.GammaM2M(2))
    total_b = cg.subgroup_index(cg.GammaM2M(2), 8)
    rel = cg.relative_index(cg.GammaM2M(2), cg.Gamma0(4), 4)
    rel_b = cg.relative_index(cg.GammaM2M(2), cg.Gamma0(4), 8)
    ok = total == total_b == idx4 * rel and rel == rel_b
    results.append(
        entry(
            "index_multiplicativity",
            {"chain": "Gamma(2,4) < Gamma0(4) < SL2(Z)", "moduli": [4, 8]},
            "[SL2:sub] = [SL2:mid] * [mid:sub] at both moduli",
            f"total {total}/{total_b}, relative {rel}/{rel_b}, ambient {idx4}",
            0.0 if ok else 1.0,
            ok,
        )
    )
    return results


CHECK_ORDER: list[tuple[str, Callable]] = [
    ("transformation_law", check_transformation_law),
    ("discriminant_oracle", check_discriminant_oracle),
    ("stabilizer_sweeps", check_stabilizer_sweeps),
    ("descended_char", check_descended_char),
    ("stone_von_neumann", check_stone_von_neumann),
    ("descent_combinatorics", check_descent_combinatorics),
    ("metaplectic_weil", check_metaplectic_weil),
    ("cocycle_identities", check_cocycle_identities),
    ("subgroup_indices", check_subgroup_indices),
]


def run_suite(level: str = "quick", seed: int = 0) -> dict:
    """Run the battery; returns {"suite", "seed", "checks", "stages", "meta", "wall_time", "pass"}.

    `stages` has one entry per CHECK_ORDER group, in order: its `name`, its
    `wall_time` and the number of `checks` it produced.  `meta` records the
    thetalab, numpy and Python versions with the seed and level, and
    `decisive_queries`, the number of transformation-law queries in the run
    that decided the convention (`thetanum.verify_transformation`).
    """
    from . import __version__

    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    rng = np.random.default_rng(seed)
    decisive_before = tn.decisive_count()
    start = time.perf_counter()
    checks: list[dict] = []
    stages: list[dict] = []
    for name, fn in CHECK_ORDER:
        t0 = time.perf_counter()
        entries = fn(level, rng)
        seconds = time.perf_counter() - t0
        checks.extend(entries)
        stages.append(
            {"name": name, "wall_time": float(f"{seconds:.6g}"), "checks": len(entries)}
        )
    wall = time.perf_counter() - start
    return {
        "suite": level,
        "seed": seed,
        "checks": checks,
        "stages": stages,
        "meta": {
            "thetalab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "seed": seed,
            "level": level,
            "decisive_queries": tn.decisive_count() - decisive_before,
        },
        "wall_time": float(f"{wall:.6g}"),
        "pass": all(c["pass"] for c in checks),
    }
