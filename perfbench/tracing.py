"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end and the span that was open when it
began; every span of one traced run shares the tracer's run id.  Spans are
opened by the benchmark itself: by `Tracer.span` around its own calls, and
by `instrument`, which rebinds each listed thetalab function, in every
thetalab module namespace that holds it, to a wrapper that opens a span.
The library's source is untouched; the wrappers live only inside the
traced worker process.

Spans are kept in typed arrays (32 bytes each), so a run of a million
spans costs about 32 MB, and are written out once, by `write`, when the
run ends.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import sys
import time
from contextlib import contextmanager

# Layer entry points that get a span.  Each is a public function of its
# module.  Left out, with their time counted towards the calling layer:
# generator functions (a span would end before the caller consumed them),
# `cyclo`, and the sub-microsecond predicates `congruence.member` and
# `symplectic4.quad_form_value`, called millions of times, where a span
# would cost more than the call (workloads.py times them in batches).
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "suite": ("run_suite",),
    "heisenberg": (
        "k_elements",
        "hmul",
        "canonical_splitting",
        "enumerate_symmetric_splittings",
        "h2_pushforward_splitting",
        "enumerate_sym_automorphisms",
        "stabilizer_u0sym",
        "maximal_isotropic_subgroups",
        "symmetric_splittings_over",
    ),
    "symplectic4": (
        "group_data",
        "discriminant",
        "character_solution_count",
    ),
    "_kernels": ("theta_class_sums", "riemann_theta_sum", "mod4_products", "pack_mod4"),
    "weilrep": ("weil_rep", "weil_generator"),
    "thetanum": (
        "truncation_radius",
        "theta_constants",
        "verify_transformation",
        "functional_eq_lambda",
        "halfform_cocycle",
        "shimura_cocycle",
        "jacobi_cocycle",
    ),
    "metaplectic": ("mp_lift_word", "phi_eval", "mp_mul", "mp_from_word", "mp_pow"),
    "congruence": (
        "theta_action_factor",
        "splitting_action_factor",
        "descended_theta_char",
        "subgroup_index",
        "relative_index",
    ),
    "schrodinger": ("rho", "intertwiner_space", "invariant_subspace"),
}

LAYERS = tuple(LAYER_FUNCTIONS)
BENCH = "bench"  # prefix of the spans the benchmark opens around its own steps


class Tracer:
    """Spans of one run, in the order they were opened."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._open = [-1]
        self._by_name: tuple[dict[int, list[int]], int] = ({}, 0)

    def __len__(self) -> int:
        return len(self.name_of)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def spans(self, name: str, under: str | None = None) -> list[int]:
        """Indices of spans called `name`, optionally only those with an ancestor `under`."""
        if self._by_name[1] != len(self.name_of):
            index: dict[int, list[int]] = {}
            for i, n in enumerate(self.name_of):
                index.setdefault(n, []).append(i)
            self._by_name = (index, len(self.name_of))
        nid = self._name_ids.get(name)
        found = self._by_name[0].get(nid, []) if nid is not None else []
        if under is None:
            return found
        uid = self._name_ids.get(under)
        return [i for i in found if uid is not None and self._has_ancestor(i, uid)]

    def _has_ancestor(self, idx: int, nid: int) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name_of[p] == nid:
                return True
            p = self.parent[p]
        return False

    def durations(self, name: str, under: str | None = None) -> list[float]:
        return [self.duration(i) for i in self.spans(name, under)]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child spans, summed per module.

        Spans the benchmark opened around its own steps count under `bench`.
        """
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {layer: 0.0 for layer in (*LAYERS, BENCH)}
        for i in range(n):
            layer = self.names[self.name_of[i]].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return totals

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV: run_id,index,name,parent,start,end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run_id,index,name,parent,start,end\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{self.run_id},{i},{self.names[self.name_of[i]]},"
                    f"{self.parent[i]},{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def instrument(tracer: Tracer) -> int:
    """Rebind every function in LAYER_FUNCTIONS to a span-opening wrapper.

    The wrapper replaces the function under every name that refers to it in
    a loaded thetalab module, so calls made through `from .x import f`
    bindings are traced as well; each check group of the suite gets a span
    named `suite.<check>`.  Returns the number of rebound names.
    """
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if (name == "thetalab" or name.startswith("thetalab.")) and mod is not None
    }
    originals = {}
    for layer, funcs in LAYER_FUNCTIONS.items():
        mod = modules.get(f"thetalab.{layer}")
        if mod is None:
            raise RuntimeError(f"thetalab.{layer} is not imported")
        for fname in funcs:
            fn = getattr(mod, fname)
            if inspect.isgeneratorfunction(fn):
                raise TypeError(f"{layer}.{fname} is a generator function")
            originals[id(fn)] = _wrap(tracer, f"{layer}.{fname}", fn)
    suite = modules.get("thetalab.suite")
    if suite is not None:
        suite.CHECK_ORDER[:] = [
            (check, _wrap(tracer, f"suite.{check}", fn)) for check, fn in suite.CHECK_ORDER
        ]
    rebound = 0
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and callable(value):
                setattr(mod, attr, wrapped)
                rebound += 1
    return rebound
