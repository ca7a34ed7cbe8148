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
depends on; the quotient is taken over the whole member list at once, with
theta(g tau) for every member summed in one `thetanum` batch per probe
point, and theta at the cocycles' fixed base points comes from `thetanum`'s
bounded theta cache.  Each pool is one (N, 4) integer array
(`congruence._entry_bound_rows`) filtered by `congruence._contains` masks;
only the members handed to an `SL2Matrix` or an action factor become Python
ints.  The stabilizer sweeps call each action factor once per member and
(u1, u2), looked up on the `congruence` module, so a patched or wrapped
factor is the one called.
Random words take one bounded draw for their letters, which gives the same
letters and generator state as one draw per letter, and are multiplied out
by `metaplectic.mp_from_word` on integers.
Randomized sweeps draw from a seeded generator (THETA_LAB_SEED in the CLI),
so a seed fixes every entry, and rejection sampling enforces the
Im(gamma tau) floor required by the verifier's precision contract.
"""

from __future__ import annotations

import itertools
import math
import platform
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import congruence as cg
from . import heisenberg as hb
from . import metaplectic as mp
from . import schrodinger as sc
from . import symplectic4 as s4
from . import thetanum as tn
from . import weilrep as wr
from .cyclo import ONE, RootOfUnity, mu_group, ru_snap

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


def _random_word(rng: np.random.Generator, max_len: int) -> list[tuple[str, int]]:
    """A word of up to max_len letters S, T, T^-1: one draw for the length, one for the letters.

    The bounded draw of `length` letters gives the same values, and leaves
    the generator in the same state, as `length` scalar draws would
    (tests/test_suite.py pins this against the scalar loop).
    """
    length = int(rng.integers(0, max_len + 1))
    return [_LETTERS[i] for i in rng.integers(0, 3, size=length).tolist()]


def _sample_mp_words(
    rng: np.random.Generator, count: int, max_len: int, taus=TRANSFORM_TAUS
) -> list[mp.MpElement]:
    """Random metaplectic words whose gamma keeps Im(gamma tau) above the eval floor.

    Words violating the floor at any probe tau are redrawn, so every sampled
    element satisfies the verifier's precision contract at all probes.
    """
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count:
            raise RuntimeError("rejection sampling failed to find enough words")
        word = _random_word(rng, max_len)
        p = mp.mp_from_word(word)
        if int(rng.integers(0, 2)):
            p = mp.mp_mul(p, mp.MP_Z)
        if all(p.gamma.moebius(t).imag >= tn.MIN_IM_EVAL for t in taus):
            out.append(p)
    return out


# --- 1. transformation law ---------------------------------------------------------

def check_transformation_law(level: str, rng: np.random.Generator) -> list[dict]:
    words_per_m = 50 if level == "full" else 6
    tol = 1e-9
    results = []
    for m in (2, 4, 6):
        words = _sample_mp_words(rng, words_per_m, 12)
        worst = 0.0
        ok = True
        for p in words:
            for tau in TRANSFORM_TAUS:
                check = tn.verify_transformation(m, p, tau, tol)
                worst = max(worst, check.residual)
                ok = ok and check.passed
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

def _functional_eq_quotient(members: np.ndarray, taus=tn.PROBE_POINTS) -> list[RootOfUnity]:
    """The mu_4 snap of (c tau + d) theta(tau)^2 / theta(g tau)^2 for each theta-group
    row (a, b, c, d) of `members`, equal at every tau in taus: the quotient is tau-free.

    theta(g tau) for every row at one tau comes from one `thetanum` batch, each
    value the numerator of `halfform_cocycle(g, tau)`, bit for bit.
    """
    if not cg._contains(cg.THETA12, *members.T).all():
        raise cg.NotMember("the functional equation quotient is taken on the theta group")
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


def check_discriminant_oracle(level: str, rng: np.random.Generator) -> list[dict]:
    """The exact mod-4 discriminant against the analytic `_functional_eq_quotient`."""
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
    # `s4.discriminant` reduces its argument mod 4 first, so its value (and its
    # NotMember decision) is looked up once per residue class
    by_class: dict[tuple[int, ...], RootOfUnity] = {}
    mismatches = 0
    for row, quotient in zip((members % 4).tolist(), _functional_eq_quotient(members)):
        residues = tuple(row)
        if residues not in by_class:
            a, b, c, d = residues
            by_class[residues] = s4.discriminant([[a, b], [c, d]], "even")
        mismatches += quotient != by_class[residues]
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
    bound = 40 if level == "full" else 10
    # Gamma0(4) < Gamma0(2) and Gamma(m) < Gamma0(m): each list is filtered
    # from the smallest list already known to contain it, in pool order, by a
    # `_contains` mask over its integer rows.  The action factors take
    # matrices, so each row of Gamma0(2) is paired with one matrix, built once
    pool = cg._entry_bound_rows(bound)
    rows = pool[cg._contains(cg.Gamma0(2), *pool.T)]
    mats = [cg.SL2Matrix(*row) for row in rows.tolist()]
    results = []
    for m in (2, 4):
        gamma_m, gamma_m2m = cg.Gamma(m), cg.GammaM2M(m)
        gamma0_m, gamma0_2m = cg.Gamma0(m), cg.Gamma0(2 * m)
        keep = cg._contains(gamma0_m, *rows.T)
        rows, mats = rows[keep], list(itertools.compress(mats, keep.tolist()))
        in_gamma_m = cg._contains(gamma_m, *rows.T)
        theta_rows = rows[in_gamma_m]
        theta_mats = list(itertools.compress(mats, in_gamma_m.tolist()))
        theta_bad = sum(
            all(
                cg.theta_action_factor(g, m, u1, u2).is_one()
                for u1 in range(m)
                for u2 in range(m)
            )
            != stable
            for g, stable in zip(theta_mats, cg._contains(gamma_m2m, *theta_rows.T).tolist())
        )
        split_bad = sum(
            all(cg.splitting_action_factor(g, m, u).is_one() for u in range(m)) != stable
            for g, stable in zip(mats, cg._contains(gamma0_2m, *rows.T).tolist())
        )
        results.append(
            entry(
                "theta_structure_stabilizer",
                {"m": m, "entry_bound": bound, "matrices": len(theta_mats)},
                "triviality iff membership",
                f"{theta_bad} exceptions",
                float(theta_bad),
                theta_bad == 0,
            )
        )
        results.append(
            entry(
                "splitting_stabilizer",
                {"m": m, "entry_bound": bound, "matrices": len(mats)},
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
    differing = 0
    for _ in range(triples):
        ps = [mp.mp_from_word(_random_word(rng, 10)) for _ in range(3)]
        left = mp.mp_mul(mp.mp_mul(ps[0], ps[1]), ps[2])
        right = mp.mp_mul(ps[0], mp.mp_mul(ps[1], ps[2]))
        differing += left != right
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
        for _ in range(pairs_per_m):
            p = mp.mp_from_word(_random_word(rng, 15))
            q = mp.mp_from_word(_random_word(rng, 15))
            mat_p = wr.weil_rep(m, p)
            mat_q = wr.weil_rep(m, q)
            worst_unitary = max(
                worst_unitary,
                float(np.max(np.abs(mat_p @ mat_p.conj().T - np.eye(m)))),
            )
            prod = wr.weil_rep(m, mp.mp_mul(p, q))
            worst_mult = max(
                worst_mult, float(np.max(np.abs(prod - mat_p @ mat_q)))
            )
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
        i, j = rng.integers(0, len(members), size=2)
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
