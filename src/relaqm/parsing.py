"""Reading input documents: YAML text, amplitudes, matrices and named families.

These are the parse steps that ``relaqm run`` and ``relaqm kernel`` share,
and the whole of a ``kernel`` request's rules.  They live apart from the
scenario runner so that a ``kernel`` request is read without loading the
runner, the measurement layer or the dynamics.  Their public names are also
exported by :mod:`relaqm.scenario`, which is where they are documented.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ParseError, ValidationError
from .hilbert import _as_complex_vector, _refuse_too_large
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
    libyaml, the pure-Python ``SafeLoader`` otherwise; either composes the
    document into nodes.  The tree is then built from those nodes here: a
    ``str`` scalar is its text, a ``float`` scalar whose text ``float()`` reads
    as a finite number is that number, and ``seq`` nodes and ``map`` nodes
    keyed by plain scalars other than a ``<<`` merge key or a ``=`` value
    key are filled in place.
    Every other node -- ints, bools, nulls, merge keys, non-core tags such as
    ``!!binary`` or ``!!timestamp``, ``1:30.5``, ``.inf``, ``.NaN`` -- goes to
    that loader's own ``SafeConstructor``, so the values are the ones
    ``yaml.load`` builds.  A syntax error, and anything the loader raises
    while building the tree (``!!float abc``, or nesting deeper than the
    pure-Python loader can compose), is a :class:`ParseError` of one line; a
    syntax error names its problem and the problem's 1-based line and column.
    """
    import yaml  # deferred: importing the runner loads no YAML until a document is parsed

    try:
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
        try:
            root = loader.get_single_node()
            return None if root is None else _tree(loader, root)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)  # one line: the problem and where it is
        message = (f"{exc.problem} (line {mark.line + 1}, column {mark.column + 1})"
                   if mark is not None and exc.problem else " ".join(str(exc).split()))
        raise ParseError(f"not a well-formed document: {message}") from exc
    except _BUILD_ERRORS as exc:
        raise ParseError(f"not a well-formed document: a value cannot be read "
                         f"({type(exc).__name__}: {exc})") from exc


# What building the tree raises besides ConstructorError: SafeConstructor on
# a tagged scalar it cannot read, ``!!float abc`` (ValueError), ``!!bool
# maybe`` (KeyError), ``!!timestamp nope`` (AttributeError), ``!!int ''``
# (IndexError); a key tagged as a collection, ``!!seq x`` (TypeError); and
# RecursionError from a document nested deeper than the pure-Python
# composer recurses.
_BUILD_ERRORS = (AttributeError, LookupError, RecursionError, TypeError, ValueError)
_STR = "tag:yaml.org,2002:str"
_FLOAT = "tag:yaml.org,2002:float"
_SEQ = "tag:yaml.org,2002:seq"
_MAP = "tag:yaml.org,2002:map"
# keys that SafeConstructor rewrites before it builds a mapping
_REWRITTEN_KEYS = frozenset(("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value"))


def _tree(loader, root):
    """The data of the composed document ``root``, built as ``yaml.load`` would.

    The walk keeps its own stack, so a deep document does not recurse.  A
    collection is registered in the loader's ``constructed_objects``, the
    constructor's per-document memo of node -> object, before it is filled:
    an alias is the same object, a collection that holds itself holds itself,
    and the constructor, for the nodes it is handed, shares the objects built
    here (and the other way round)."""
    from yaml.nodes import MappingNode, ScalarNode, SequenceNode

    built = loader.constructed_objects
    construct = loader.construct_object
    unfilled = []

    def value(node):
        cls, tag = node.__class__, node.tag
        if cls is ScalarNode:
            if tag == _STR:
                return node.value
            if tag == _FLOAT:
                try:
                    number = float(node.value)
                except ValueError:
                    pass
                else:
                    if number - number == 0.0:  # finite: inf - inf and nan - nan are nan
                        return number
            return construct(node)
        if node in built:
            return built[node]
        if cls is SequenceNode and tag == _SEQ:
            obj = []
        elif cls is MappingNode and tag == _MAP and all(
                key.__class__ is ScalarNode and key.tag not in _REWRITTEN_KEYS
                for key, _ in node.value):
            obj = {}
        else:
            return construct(node)
        built[node] = obj
        unfilled.append((node, obj))
        return obj

    data = value(root)
    while unfilled:
        node, obj = unfilled.pop()
        if obj.__class__ is list:
            obj.extend([value(child) for child in node.value])
        else:
            for key_node, value_node in node.value:
                key = value(key_node)
                obj[key] = value(value_node)
    # the collections the constructor built are filled last, as its own
    # construct_document fills them
    while loader.state_generators:
        generators, loader.state_generators = loader.state_generators, []
        for generator in generators:
            for _ in generator:
                pass
    return data


def _exponent_hint(raw) -> str:
    """YAML 1.1 reads a number with an exponent only when its mantissa has a
    dot and its exponent a sign, so ``1e-3`` and ``1.0e5`` arrive as strings."""
    try:
        if isinstance(raw, str) and "e" in raw.lower() and math.isfinite(float(raw)):
            return ("; YAML 1.1 reads an exponent as a number only after a dot and with a "
                    "sign: write 1.0e-3 or 1.0e+5")
    except ValueError:
        pass
    return ""


def _real_value(raw, where: str, expected: str = "a number or an [re, im] pair") -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ParseError(f"{where}: expected {expected}, got {raw!r}{_exponent_hint(raw)}")
    if not abs(raw) <= sys.float_info.max:  # NaN, ±inf, or an integer past the float range
        raise ParseError(f"{where}: {raw!r} is not a finite number")
    return float(raw)


def _complex_value(raw, where: str) -> complex:
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(_real_value(raw[0], where), _real_value(raw[1], where))
    return complex(_real_value(raw, where))


def _complex_vector(raw, where: str) -> np.ndarray:
    """A non-empty list of amplitudes, each a number or an ``[re, im]`` pair,
    read element by element by :func:`_complex_value`, as a read-only vector."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ParseError(f"{where}: expected a non-empty list of amplitudes")
    return _as_complex_vector([_complex_value(x, where) for x in raw])


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


def _optional(mapping: dict, key: str, default):
    """An optional field: absent or ``null``, it keeps its ``default``."""
    raw = mapping.get(key)
    return default if raw is None else raw


def _name(raw, where: str):
    """A system, observer or family name; names are non-empty strings."""
    if not isinstance(raw, str) or not raw:
        raise ParseError(f"{where}: a name must be a non-empty string, got {raw!r}")
    return raw


def parse_families(raw) -> dict[str, CompleteFamily]:
    """Declared families: names mapped to :class:`CompleteFamily` values, whose
    matrix columns are the basis vectors; each is built, and so checked for
    unitarity, once.  An absent (``None``) field declares none; any other
    value must be a mapping."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ParseError("families must be a mapping from names to matrices")
    families: dict[str, CompleteFamily] = {}
    for fname, rows in raw.items():
        basis = _square_matrix(rows, f"families.{fname}")
        try:
            families[fname] = CompleteFamily(basis, fname)
        except ValueError as exc:  # a square basis fails only the unitarity check
            raise ValidationError("FamilyNotUnitary",
                                  f"family {fname!r} basis is not unitary") from exc
        _name(fname, "families")
    return families


def resolve_family(name: str, dim: int, declared: dict[str, CompleteFamily]) -> CompleteFamily:
    """Look up a family by name: scenario-declared first, then builtins."""
    if name in declared:
        family = declared[name]
        if family.dim != dim:
            raise ValidationError(
                "FamilyDimension",
                f"family {name!r} has dim {family.dim}, target has dim {dim}")
        return family
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


def _family_reader(declared: dict[str, CompleteFamily]):
    """:func:`resolve_family` over one document's ``declared`` families, each
    (name, dim) resolved once: the events that name it share one family.  The
    memo lives only as long as the reader, so no document sees another's."""
    resolved: dict[tuple[str, int], CompleteFamily] = {}

    def family(name: str, dim: int) -> CompleteFamily:
        key = (name, dim)
        if key not in resolved:
            resolved[key] = resolve_family(name, dim, declared)
        return resolved[key]

    return family


def _parse_kernel_request(text: str) -> list[tuple[CompleteFamily, CompleteFamily]]:
    """The family pairs of a ``relaqm kernel`` request, each resolved at the
    request's ``dim``; by default the one pair computational <- fourier."""
    doc = parse_yaml(text)
    if not isinstance(doc, dict) or "dim" not in doc:
        raise ParseError("kernel file needs a 'dim' field")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"kernel file: dim must be a positive integer, got {dim!r}")
    _refuse_too_large(dim * dim, f"kernel file: a dim-{dim} family")
    family = _family_reader(parse_families(doc.get("families")))
    pairs = _optional(doc, "pairs", [["computational", "fourier"]])
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(name, str) for name in pair) for pair in pairs):
        raise ParseError("kernel file: pairs must be a list of [family, family] names")
    if not pairs:
        raise ParseError("kernel file: pairs is empty; leave it out for computational <- fourier")
    return [(family(a, dim), family(b, dim)) for a, b in pairs]


# Their documented home is relaqm.scenario (see the module docstring): tools
# that find a module's own functions by ``__module__``, such as pickle and the
# benchmark's tracer in perfbench/, find them there.
for _public in (parse_yaml, parse_families, resolve_family):
    _public.__module__ = "relaqm.scenario"
del _public
