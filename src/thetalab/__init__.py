"""thetalab: finite group machinery behind theta transformation laws, verified numerically.

Submodules by theme, loaded on first access (`thetalab.heisenberg` or
`from thetalab import heisenberg` imports that module and what it needs,
nothing else): exact roots of unity (`cyclo`), finite Heisenberg
groups and their splittings (`heisenberg`), the Schroedinger representation
(`schrodinger`), mod-4 symplectic groups with the discriminant character
(`symplectic4`), congruence subgroups of SL2(Z) (`congruence`), the
metaplectic double cover (`metaplectic`), the m-dimensional unitary
representation it acts through (`weilrep`), certified theta numerics and
the transformation-law verifier (`thetanum`), and the `thetalab` command
line (`cli`).
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "congruence",
    "cyclo",
    "heisenberg",
    "metaplectic",
    "schrodinger",
    "symplectic4",
    "thetanum",
    "weilrep",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
