"""Closure oracle for `symplectic4`: the breadth-first closure over every element.

`_bfs_closure` enumerates the group generated by mod-4 (or mod-2) matrices
by breadth-first search on packed keys and checks a candidate character on
every one of the |G| x |gens| products.  `group_data` writes each group out
as an extension of O(2g, +-) by the congruence kernel and decides the
candidate on the quotient edges only; the tests compare its keys, its
values and its verdict with this closure.
"""

import numpy as np

from thetalab import _kernels
from thetalab.symplectic4 import _unpack


def _row_tables(gens: list[np.ndarray], modulus: int) -> list[np.ndarray]:
    """Per-row product tables for right multiplication by each generator.

    In a packed key, row i of a k x k matrix is the 2k-bit field i.  Entry
    [r, s] of table i is the packed row (r @ gens[s]) mod `modulus`, shifted
    into field i, so key(M @ gens[s]) is the OR over i of table i at row i
    of M.  There are 4^k rows, 256 at k = 4.
    """
    k = gens[0].shape[0]
    rows = (np.arange(4**k)[:, None] >> (2 * np.arange(k))) & 3
    images = (rows @ (np.array(gens, dtype=np.int64) % modulus)) % modulus
    packed = (images << (2 * np.arange(k))).sum(axis=2).T.astype(np.uint64)
    return [np.ascontiguousarray(packed << np.uint64(2 * k * i)) for i in range(k)]


def _first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted array `a` that differ from their predecessor."""
    first = np.empty(len(a), dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _bfs_closure(gens: list[np.ndarray], values: np.ndarray, modulus: int = 4):
    """Breadth-first closure that checks a candidate character as it finds products.

    Returns the matrices, their packed keys and the exponents lam (n,) of
    the candidate that takes the int8 value values[s] mod 4 on generator s,
    all three in increasing key order, and whether the candidate is a
    character (alive, a bool).  Products are taken mod `modulus` (4, or 2
    for subgroups of O(2g, +-), which pass zeros).
    The whole search runs on packed uint64 keys: a frontier is expanded by k
    gathers from `_row_tables`, so no product matrix is formed, and the
    matrices are unpacked once at the end.  Each product h * s = t of a
    level carries the value lam(h) + x(s) mod 4 that it implies for t in
    the two bits below its key, and one in-place sort and a cut to the
    distinct entries leave the (key, value) pairs of the level.  The
    candidate dies where one key carries two values, or where a key seen
    on an earlier level carries a value other than its lam; the distinct
    keys are looked up with one `searchsorted` in the sorted array of keys
    seen so far, which lam stays aligned with: the unseen keys and the
    values they carry are inserted into both at the same `searchsorted`
    positions, and they are the next frontier.  Every product is checked,
    so a survivor is a homomorphism.
    """
    k = gens[0].shape[0]
    tables = _row_tables(gens, modulus)
    values = np.asarray(values, dtype=np.int8) % 4
    field = np.uint64(4**k - 1)
    shifts = [np.uint64(2 * k * i) for i in range(k)]

    sorted_keys = _kernels.pack_mod4(np.eye(k, dtype=np.uint8)[None, :, :])
    lam = np.zeros(1, dtype=np.int8)
    alive = True
    frontier_keys, frontier_vals = sorted_keys, lam

    while True:
        prods = tables[0][frontier_keys & field]
        for table, shift in zip(tables[1:], shifts[1:]):
            prods |= table[(frontier_keys >> shift) & field]
        # the value each product implies, in place beside its key: one (2, odd)
        # level holds 1.3M products, and each copy of them is 11 MB
        prods <<= np.uint64(2)
        prods |= ((frontier_vals[:, None] + values) % 4).astype(np.uint8)
        pairs = prods.reshape(-1)
        pairs.sort()
        pairs = pairs[_first_of_runs(pairs)]
        del prods

        keys = pairs >> np.uint64(2)
        first = _first_of_runs(keys)
        alive &= bool(first.all())
        uniq = keys[first]
        carried = (pairs[first] & np.uint64(3)).astype(np.int8)
        pos = np.searchsorted(sorted_keys, uniq)
        new = sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] != uniq
        alive &= bool(np.all(lam[pos[~new]] == carried[~new]))
        if not new.any():
            break

        frontier_keys, frontier_vals = uniq[new], carried[new]
        sorted_keys = np.insert(sorted_keys, pos[new], frontier_keys)
        lam = np.insert(lam, pos[new], frontier_vals)

    return _unpack(sorted_keys, k), sorted_keys, lam, alive
