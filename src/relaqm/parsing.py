"""Reading input documents: YAML text, amplitudes, matrices and named families.

These are the parse steps that ``relaqm run`` and ``relaqm kernel`` share.
They live apart from the scenario runner so that a ``kernel`` request is read
without loading the runner, the measurement layer or the dynamics.  Their
public names are also exported by :mod:`relaqm.scenario`, which is where they
are documented, and which calls them through its own module globals.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ParseError, ValidationError
from .hilbert import ATOL, orthonormality_defect
from .questions import CompleteFamily

__all__ = ["read_text", "parse_yaml", "parse_families", "resolve_family"]


def read_text(path) -> str:
    """The contents of a UTF-8 input file; other bytes are a :class:`ParseError`
    that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def parse_yaml(text: str):
    """The data of one YAML document, read with PyYAML's safe loader.

    The libyaml-backed ``CSafeLoader`` is used where PyYAML was built with
    libyaml; the pure-Python ``SafeLoader`` builds the same tree, only slower.
    A syntax error is a :class:`ParseError`.
    """
    import yaml  # deferred: `unistochastic` and `lattice-check` read no YAML

    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ParseError(f"not a well-formed document: {exc}") from exc


def _real_value(raw, where: str, expected: str = "a number or an [re, im] pair") -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ParseError(f"{where}: expected {expected}, got {raw!r}")
    if not abs(raw) <= sys.float_info.max:  # NaN, ±inf, or an integer past the float range
        raise ParseError(f"{where}: {raw!r} is not a finite number")
    return float(raw)


def _complex_value(raw, where: str) -> complex:
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(_real_value(raw[0], where), _real_value(raw[1], where))
    return complex(_real_value(raw, where))


def _complex_vector(raw, where: str) -> np.ndarray:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ParseError(f"{where}: expected a non-empty list of amplitudes")
    return np.array([_complex_value(x, where) for x in raw], dtype=complex)


def _square_matrix(raw, where: str) -> np.ndarray:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    rows = [_complex_vector(r, where) for r in raw]
    if len({r.size for r in rows}) != 1:
        raise ParseError(f"{where}: rows have differing lengths")
    if rows[0].size != len(rows):
        raise ValidationError("NonSquareMatrix",
                              f"{where}: {len(rows)} rows of {rows[0].size} entries")
    return np.array(rows, dtype=complex)


def _name(raw, where: str):
    """A system, observer or family name; names are non-empty strings."""
    if not isinstance(raw, str) or not raw:
        raise ParseError(f"{where}: a name must be a non-empty string, got {raw!r}")
    return raw


def parse_families(raw) -> dict[str, np.ndarray]:
    """Declared families: names mapped to unitary matrices (columns = basis vectors)."""
    if not raw:
        return {}
    if not isinstance(raw, dict):
        raise ParseError("families must be a mapping from names to matrices")
    families: dict[str, np.ndarray] = {}
    for fname, rows in raw.items():
        basis = _square_matrix(rows, f"families.{fname}")
        if orthonormality_defect(basis) > ATOL:
            raise ValidationError("FamilyNotUnitary",
                                  f"family {fname!r} basis is not unitary")
        _name(fname, "families")
        families[fname] = basis
    return families


def resolve_family(name: str, dim: int, declared: dict[str, np.ndarray]) -> CompleteFamily:
    """Look up a family by name: scenario-declared first, then builtins."""
    if name in declared:
        basis = declared[name]
        if basis.shape[0] != dim:
            raise ValidationError(
                "FamilyDimension",
                f"family {name!r} has dim {basis.shape[0]}, target has dim {dim}")
        return CompleteFamily(basis, name)
    if name == "computational":
        return CompleteFamily.computational(dim)
    if name == "hadamard":
        if dim != 2:
            raise ValidationError("FamilyDimension",
                                  f"hadamard family is two-dimensional, target has dim {dim}")
        return CompleteFamily.hadamard()
    if name == "fourier":
        return CompleteFamily.fourier(dim)
    raise ValidationError("UnknownFamily", f"no family named {name!r}")


# Their documented home is relaqm.scenario (see the module docstring): tools
# that find a module's own functions by ``__module__``, such as pickle and the
# benchmark's tracer in perfbench/, find them there.
for _public in (parse_yaml, parse_families, resolve_family):
    _public.__module__ = "relaqm.scenario"
del _public
