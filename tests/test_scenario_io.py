"""Scenario I/O: the YAML loaders, the structured renderer and the report linter.

The recursive renderer and linter below are the reference implementations the
library's one-buffer renderer and path-on-failure linter must agree with.
"""

import contextlib
import copy
import io
import json
import math
import struct

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaqm.cli import main
from relaqm.errors import ParseError, RelaqmError
from relaqm.parsing import _complex_value, _complex_vector
from relaqm.scenario import (
    Report,
    _render_json,
    emit_report,
    fixture_path,
    lint_report,
    parse_scenario,
    parse_yaml,
    run,
)

WIGNER = fixture_path("wigner_friend.yaml")
YAML_FIXTURES = sorted(p.name for p in fixture_path("").iterdir() if p.name.endswith(".yaml"))


# ---------------------------------------------------------------------------
# reference implementations


def reference_render(node, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(node, dict):
        if not node:
            return "{}"
        rows = [f'{pad}  "{key}": {reference_render(value, indent + 1)}'
                for key, value in node.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str)) or v is None for v in node) \
            and len(node) <= 16
        if flat:
            return "[" + ", ".join(reference_render(v) for v in node) + "]"
        rows = [f"{pad}  {reference_render(v, indent + 1)}" for v in node]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(node, (bool, np.bool_)):
        return "true" if node else "false"
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, (float, np.floating)):
        x = float(node)
        if x == 0:
            x = 0.0
        return format(x, ".12g")
    if node is None:
        return "null"
    return json.dumps(str(node), ensure_ascii=False)


def reference_lint(report: Report) -> list[str]:
    problems: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            if "amplitudes" in node and not node.get("relative_to"):
                problems.append(f"{path}: state without an observer tag")
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for n, value in enumerate(node):
                walk(value, f"{path}[{n}]")

    walk(report.entries, "entries")
    return problems


# ---------------------------------------------------------------------------
# renderer


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
_TEXT = st.text(alphabet=st.sampled_from(list('ab "\\\n\t\r\x00\x01\x1fé{}[],:')), max_size=6)
_SCALARS = st.one_of(
    _FLOATS,
    st.sampled_from([0.0, -0.0, 1e-300, -2.5e-17, 1 / 3]),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.none(),
    _TEXT,
    _FLOATS.map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
    st.booleans().map(np.bool_),
)
_FLAT_ROWS = st.one_of(
    st.lists(_FLOATS, min_size=16, max_size=17),
    st.lists(_SCALARS, min_size=16, max_size=17),
    st.lists(st.sampled_from([0.0, -0.0, 0.5]), min_size=1, max_size=4),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.lists(st.lists(_FLOATS, max_size=3), max_size=4),  # rows of floats
    )


_TREES = st.recursive(st.one_of(_SCALARS, _FLAT_ROWS), _containers, max_leaves=40)


@settings(deadline=None, max_examples=200)
@given(_TREES)
def test_renderer_matches_the_recursive_reference(tree):
    text = _render_json(tree)
    assert text == reference_render(tree)
    try:
        expected = json_value(tree)
    except ValueError:  # not a tree a report can hold
        return
    assert json.loads(text) == expected


def json_value(node):
    """What ``json.loads`` should read back from the rendering of ``node``:
    floats at 12 significant digits, tuples as lists.  ValueError for nan
    and inf, which have no JSON form, and for keys the renderer writes as
    they are, which are a report's field names and need no escaping."""
    if isinstance(node, dict):
        if any(json.dumps(key, ensure_ascii=False) != f'"{key}"' for key in node):
            raise ValueError("a key that needs escaping")
        return {key: json_value(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [json_value(value) for value in node]
    if isinstance(node, np.bool_):
        return bool(node)
    if isinstance(node, (float, np.floating)):
        if not math.isfinite(node):
            raise ValueError(f"{node} has no JSON form")
        return float(format(float(node), ".12g"))
    if isinstance(node, np.integer):
        return int(node)
    return node


@settings(deadline=None, max_examples=200)
@given(st.text(), st.lists(st.text(st.characters(max_codepoint=0x7f)), max_size=20))
def test_strings_read_back_unchanged(name, names):
    """Any text, control characters included, is escaped so that JSON reads
    it back as it was."""
    tree = {"name": name, "names": names, "rows": [[name, 1.0]] * 2}
    text = _render_json(tree)
    assert text == reference_render(tree)
    assert json.loads(text) == json_value(tree)


@pytest.mark.parametrize("node", [
    [], (), {}, [[]], [[], []], {"a": {}}, [1.0] * 16, [1.0] * 17, [[0.0, -0.0]] * 3,
    [np.float64(-0.0), np.int64(3), np.bool_(True)], 'say "hi" \\ bye',
    [[1.0, 2.0], [np.float64(3.0), 4.0]], [[1.0], (2.0,)], [[1.0] * 17, [1.0]],
    "tab\there\nline\r\x00\x01\x1f\x7f", {"key": ['"\\\b\f']},
])
def test_renderer_edge_cases(node):
    assert _render_json(node) == reference_render(node)


# ---------------------------------------------------------------------------
# linter


def _untagged_report() -> Report:
    """The Wigner's-friend report with untagged payloads in three places."""
    report = run(parse_scenario(WIGNER.read_text()))
    entries = copy.deepcopy(report.entries)
    measure = next(e for e in entries if e["kind"] == "measure")
    del measure["entangled"][0]["post_state"]["relative_to"]
    query = next(e for e in entries if e.get("query") == "state")
    query["state"]["relative_to"] = ""
    entries.append({"kind": "query", "nested": [[{"systems": ["S"],
                                                  "amplitudes": [[1.0, 0.0]]}], []]})
    return Report(scenario="bad", seed=0, entries=entries)


def test_linter_names_the_untagged_payloads_as_the_reference_does():
    report = _untagged_report()
    problems = lint_report(report)
    assert problems == reference_lint(report)
    measure_idx = next(i for i, e in enumerate(report.entries) if e["kind"] == "measure")
    query_idx = next(i for i, e in enumerate(report.entries) if e.get("query") == "state")
    assert problems == [
        f"entries[{measure_idx}].entangled[0].post_state: state without an observer tag",
        f"entries[{query_idx}].state: state without an observer tag",
        f"entries[{len(report.entries) - 1}].nested[0][0]: state without an observer tag",
    ]


QUERIES = """
name: queries
systems: [{name: S, dim: 3}, {name: O, dim: 3}, {name: P, dim: 3}]
observers: [O, P]
preparations: {S: [0.6, 0.8, 0.0], O: [1.0, 0.0, 0.0], P: [[0.0, 1.0], 0.0, 0.0]}
events:
  - measure: {observer: O, target: S, family: fourier}
  - query: {kind: state, of: [S], relative_to: P}
  - query: {kind: kernel, target: S, family_a: computational, family_b: fourier}
  - query: {kind: interference, target: S, family_a: computational, family_b: fourier,
            i: 1, j: 2, k: 3}
  - query: {kind: completion, system: S, pointer: O, relative_to: P}
"""


@pytest.mark.parametrize("text", [WIGNER.read_text(), QUERIES], ids=["wigner", "queries"])
def test_clean_reports_render_and_lint_as_the_references_do(text):
    report = run(parse_scenario(text))
    assert lint_report(report) == reference_lint(report) == []
    tree = {"scenario": report.scenario, "seed": report.seed,
            "entries": report.entries, "violations": report.violations}
    assert emit_report(report, "structured") == reference_render(tree) + "\n"


def _renamed(node, old: str, new: str):
    if isinstance(node, dict):
        return {_renamed(k, old, new): _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


def test_control_characters_in_names_give_a_json_report():
    """A scenario and a system named with a tab, a newline and U+0001 give a
    structured report that parses as JSON, with the names unchanged."""
    scenario_name, system_name = "wigner\tfriend\n\x01", "S\t\n\x01"
    doc = _renamed(parse_yaml(WIGNER.read_text()), "S", system_name)
    doc["name"] = scenario_name
    report = run(parse_scenario(yaml.safe_dump(doc)))
    loaded = json.loads(emit_report(report, "structured"))
    golden = json.loads(fixture_path("wigner_friend.report.json").read_text())
    expected = _renamed(_renamed(golden, "S", system_name), "wigner_friend", scenario_name)
    assert loaded == expected
    assert loaded["scenario"] == scenario_name
    assert loaded["entries"][0]["target"] == system_name


_PAYLOADS = st.fixed_dictionaries(
    {"amplitudes": st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=3)},
    optional={"relative_to": st.sampled_from(["", "O", None]), "systems": st.just(["S"])})
_UNTAGGED = st.fixed_dictionaries(
    {"amplitudes": st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=2)})
# lists of rows, which the linter skips whole when every row holds only scalars
_ROW_LISTS = st.one_of(
    st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=4),  # [re, im] pairs
    st.lists(st.lists(_FLOATS, min_size=17, max_size=17), max_size=3),  # longer than one line
    st.lists(st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.none(), _TEXT),
                      max_size=4), max_size=4),
    st.lists(st.one_of(st.lists(_FLOATS, max_size=2), _UNTAGGED), min_size=1, max_size=4),
    st.lists(st.lists(st.one_of(_FLOATS, _UNTAGGED), max_size=3), min_size=1, max_size=3),
)
_LINT_TREES = st.recursive(
    st.one_of(_SCALARS, _PAYLOADS, _ROW_LISTS),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(st.one_of(_TEXT, st.integers(0, 3)),
                                               children, max_size=4)),
    max_leaves=30)


@settings(deadline=None, max_examples=200)
@given(st.lists(_LINT_TREES, max_size=4))
def test_linter_matches_the_recursive_reference(entries):
    report = Report(scenario="x", seed=0, entries=entries)
    assert lint_report(report) == reference_lint(report)


# ---------------------------------------------------------------------------
# amplitudes


def reference_vector(raw, where: str) -> np.ndarray:
    """The element-by-element amplitude reader."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ParseError(f"{where}: expected a non-empty list of amplitudes")
    return np.array([_complex_value(x, where) for x in raw], dtype=complex)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, math.nan, math.inf, -math.inf])
_PART = st.one_of(
    st.floats(width=64), _EDGE_FLOATS, st.integers(-2**70, 2**70), st.integers(10**308, 10**309),
    st.booleans(), st.none(), st.sampled_from(["1e-3", "1.0", "x", ""]))
_AMPLITUDE = st.one_of(
    _PART,
    st.lists(st.one_of(st.floats(width=64), _EDGE_FLOATS), min_size=2, max_size=2),
    st.lists(_PART, min_size=2, max_size=2),
    st.tuples(_PART, _PART),
    st.lists(_PART, max_size=3),  # pairs of the wrong length among them
)
_FINITE = st.one_of(st.floats(width=64, allow_nan=False, allow_infinity=False),
                    _EDGE_FLOATS.filter(math.isfinite))
_AMPLITUDE_LISTS = st.one_of(
    st.lists(st.lists(_FINITE, min_size=2, max_size=2), max_size=6),  # the one-pass form
    st.lists(st.lists(st.one_of(_FINITE, _EDGE_FLOATS), min_size=2, max_size=2), max_size=4),
    st.lists(_AMPLITUDE, max_size=6),
    st.lists(_AMPLITUDE, max_size=4).map(tuple),
    _PART,
)


@settings(deadline=None, max_examples=400)
@given(_AMPLITUDE_LISTS)
def test_amplitude_reader_matches_the_element_reader(raw):
    """Bit for bit, the sign of zero included; or the same ParseError text."""
    try:
        expected = reference_vector(raw, "preparations.S")
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            _complex_vector(raw, "preparations.S")
        assert str(err.value) == str(exc)
    else:
        got = _complex_vector(raw, "preparations.S")
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# loaders

needs_libyaml = pytest.mark.skipif(not getattr(yaml, "__with_libyaml__", False),
                                   reason="PyYAML built without libyaml")


@needs_libyaml
@pytest.mark.parametrize("name", YAML_FIXTURES)
def test_loaders_build_equal_trees_for_shipped_fixtures(name):
    text = fixture_path(name).read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


_DOC_SCALARS = st.one_of(
    st.floats(allow_nan=False), st.integers(), st.booleans(), st.none(),
    st.text(max_size=8), st.sampled_from(["yes", "no", "1e3", "0x1f", ".inf", "~", "null",
                                          "3.0", "-0.0", "2024-01-01", "'", ": x"]))
_DOCS = st.recursive(
    _DOC_SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=25)


# Scalars that parse_yaml builds itself and ones it hands to SafeConstructor,
# readable or not, and keys among them the constructor rewrites (<<, =).
_TAGGED_SCALARS = [
    "1_000.5", "1:30.5", ".inf", "-.inf", ".NaN", "010", "-0.0", "0.0", "2.5", "-7", "0x1f",
    "1e3", "1.0e+3", "abc", "'s'", "~", "yes", "=", "2024-01-01", "2024-01-01 10:00:00+05:00",
    "!!float 1.5", "!!float abc", "!!float '-0.0'", "!!float '1_0.5'", "!!float ''",
    "!!int 7", "!!int abc", "!!str 12", "!!str ''", "!!binary aGVsbG8=", "!!binary '!'",
    "!!timestamp 2024-01-01", "!!timestamp nope", "!!bool maybe", "!!set {a, b}", "!!set {}",
    "!!seq x"]
_TAGGED_KEYS = ["a", "b", "'1'", "1", "-0.0", "~", "<<", "=", "!!float 2.5", "!!seq x"]
_TAGGED_TREES = st.recursive(
    st.one_of(st.sampled_from(_TAGGED_SCALARS).map(lambda text: ("scalar", text)),
              st.integers(0, 9).map(lambda k: ("alias", k))),
    lambda children: st.one_of(
        st.tuples(st.just("seq"), st.booleans(), st.lists(children, max_size=4)),
        st.tuples(st.just("map"), st.booleans(),
                  st.lists(st.tuples(st.sampled_from(_TAGGED_KEYS), children), max_size=4))),
    max_leaves=20)


def _flow_text(tree, anchors) -> str:
    """``tree`` as flow YAML.  A collection may carry an anchor, and an alias
    names one of the anchors opened before it, its own enclosing ones too: so
    a list can hold itself."""
    kind = tree[0]
    if kind == "scalar":
        return tree[1]
    if kind == "alias":
        return f"*{anchors[tree[1] % len(anchors)]}" if anchors else "~"
    _, anchored, items = tree
    head = ""
    if anchored:
        anchors.append(f"a{len(anchors)}")
        head = f"&{anchors[-1]} "
    if kind == "seq":
        return head + "[" + ", ".join(_flow_text(item, anchors) for item in items) + "]"
    return head + "{" + ", ".join(f"{key}: {_flow_text(value, anchors)}"
                                  for key, value in items) + "}"


def _same_tree(a, b) -> bool:
    """Equal trees: the same types, floats with the same bits (so the sign of
    zero counts), and the same sharing: one collection on one side is one on
    the other.  Walked with a stack, so trees that hold themselves end."""
    partner: dict[int, int] = {}
    partnered: set[int] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, float):
            if struct.pack("<d", x) != struct.pack("<d", y):
                return False
        elif isinstance(x, (list, tuple, dict, set)):
            if id(x) in partner or id(y) in partnered:
                if partner.get(id(x)) != id(y):
                    return False
                continue
            partner[id(x)] = id(y)
            partnered.add(id(y))
            if len(x) != len(y):
                return False
            if isinstance(x, dict):
                stack.extend(zip(x, y))
                stack.extend(zip(x.values(), y.values()))
            elif isinstance(x, set):
                if sorted(map(repr, x)) != sorted(map(repr, y)):
                    return False
            else:
                stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def _assert_parse_yaml_is_yaml_load(text: str) -> None:
    """parse_yaml builds what yaml.load builds with the loader it picks, with
    libyaml and without; or both refuse, parse_yaml with a ParseError."""
    for without_libyaml in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if without_libyaml:
                patch.delattr(yaml, "CSafeLoader")
            try:
                expected = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
            except Exception:  # noqa: BLE001 -- whatever the loader raises, parse_yaml refuses
                with pytest.raises(ParseError):
                    parse_yaml(text)
            else:
                assert _same_tree(parse_yaml(text), expected), text


@needs_libyaml
@settings(deadline=None, max_examples=200)
@given(_DOCS, st.sampled_from([None, True, False]), _TAGGED_TREES)
def test_loaders_build_equal_trees_for_random_documents(doc, flow, tagged):
    """Both loaders build one tree for a dumped document, and parse_yaml
    builds yaml.load's tree for it and for a flow document with anchors,
    aliases, merge keys and tagged scalars."""
    text = yaml.safe_dump({"name": "random", "events": doc}, default_flow_style=flow,
                          allow_unicode=True)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    _assert_parse_yaml_is_yaml_load(text)
    _assert_parse_yaml_is_yaml_load(_flow_text(tagged, []))


@pytest.mark.parametrize("text", [
    "&a [1, *a, {k: *a}]",
    "base: &b {x: 1.5, y: -0.0}\nmerged: {<<: *b, y: 2}\nmany: {<<: [*b, {z: 3}], x: 0}\n",
    "[1_000.5, 1:30.5, .inf, -.inf, .NaN, 010, -0.0, !!float 1, !!int '7', !!str 8]",
    "{=: 1, !!binary aGVsbG8=: 2, 2024-01-01: !!set {a}, ~: &o !!omap [{k: *o}]}",
    "{a: 1, a: 2, 1: x, 1.0: y, true: z}",
    "? [1, 2]\n: unhashable\n",
    "a: =\n",
    "a: !!seq x\n",
    "a: !custom 1\n",
    "",
], ids=["self_holding_list", "merge_keys", "float_and_int_forms", "constructor_nodes",
        "repeated_keys", "unhashable_key", "value_key_as_value", "scalar_tagged_seq",
        "unknown_tag", "empty"])
def test_parse_yaml_builds_what_yaml_load_builds(text):
    _assert_parse_yaml_is_yaml_load(text)


@needs_libyaml
@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_loaders_build_equal_trees_for_random_scenarios(seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 5, size=3)
    names = ["S", "O", "P"]
    preps = {}
    for n, d in zip(names, dims):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        preps[n] = [[float(x.real), float(x.imag)] for x in v]
    doc = {"name": f"s{seed}", "seed": int(seed),
           "systems": [{"name": n, "dim": int(d)} for n, d in zip(names, dims)],
           "observers": ["O", "P"], "preparations": preps,
           "events": [{"measure": {"observer": "O", "target": "S"}},
                      {"query": {"kind": "state", "of": ["S"], "relative_to": "P"}}]}
    text = yaml.safe_dump(doc, sort_keys=False,
                          default_flow_style=[None, True, False][seed % 3])
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.fixture(params=["libyaml", "python"])
def loader(request, monkeypatch):
    """Run a test with the libyaml loader and again with the pure-Python one."""
    if request.param == "libyaml":
        if not getattr(yaml, "__with_libyaml__", False):
            pytest.skip("PyYAML built without libyaml")
    else:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


@pytest.mark.parametrize("command, text", [
    ("run", "systems: [1, 2"),
    ("run", "name: x\n  bad: indent\n"),
    ("run", "a: 'unclosed\n"),
    ("run", "- a\nb: c\n"),
    ("run", "\tname: tab\n"),
    ("kernel", "dim: [2\n"),
    ("kernel", "pairs: {a: b\n"),
])
def test_both_loaders_reject_malformed_documents(loader, tmp_path, capsys, command, text):
    doc = tmp_path / "input.yaml"
    doc.write_text(text)
    assert main([command, str(doc)]) == 2
    assert "not a well-formed document" in capsys.readouterr().err


def _alias_lists(depth: int = 10) -> str:
    """Lists of ten, each level ten aliases of the one below: 10**10 leaves
    if the aliases were expanded, in a few hundred bytes."""
    lines = ["  l0: &l0 [x, x, x, x, x, x, x, x, x, x]"]
    lines += [f"  l{i}: &l{i} [" + ", ".join([f"*l{i - 1}"] * 10) + "]" for i in range(1, depth)]
    return "\n".join(lines) + "\n"


def test_aliased_lists_under_an_ignored_key_are_shared(loader, tmp_path, capsys):
    text = "dim: 2\nignored:\n" + _alias_lists()
    doc = tmp_path / "aliases.yaml"
    doc.write_text(text)
    assert main(["kernel", str(doc)]) == 0
    assert capsys.readouterr().out.startswith("kernel computational <- fourier")
    lists = parse_yaml(text)["ignored"]
    innermost = lists["l9"]
    for _ in range(9):
        innermost = innermost[7]
    assert innermost is lists["l0"]
    assert all(entry is lists["l8"] for entry in lists["l9"])


def test_a_deep_list_under_an_ignored_key(loader, tmp_path, capsys):
    """libyaml composes 20 000 nested lists and parse_yaml builds them without
    recursing; the pure-Python composer recurses, and its refusal is an error
    line, not a traceback."""
    doc = tmp_path / "deep.yaml"
    doc.write_text("dim: 2\nignored: " + "[" * 20_000 + "]" * 20_000 + "\n")
    code = main(["kernel", str(doc)])
    captured = capsys.readouterr()
    if loader == "libyaml":
        assert code == 0, captured.err
    else:
        assert code == 2
        assert captured.err.startswith("error: not a well-formed document")


def test_golden_report_with_either_loader(loader, capsys):
    assert main(["run", str(WIGNER), "--format", "structured"]) == 0
    assert capsys.readouterr().out == fixture_path("wigner_friend.report.json").read_text()


_EXPONENTS = ("systems: [{{name: S, dim: 2}}, {{name: O, dim: 2}}]\nobservers: [O]\n"
              "preparations: {{S: [{amplitude}, 0.0], O: [1.0, 0.0]}}\n"
              "events: [{{evolve: {{target: S, hamiltonian: pauli_x, t: {t}}}}}]\n")


@pytest.mark.parametrize("where, written, fixed", [
    ("events[0].evolve", {"t": "1e-3"}, {"t": "1.0e-3"}),
    ("preparations.S", {"amplitude": "1E0"}, {"amplitude": "1.0e+0"}),
], ids=["duration", "amplitude"])
def test_exponents_that_yaml_reads_as_strings_get_a_hint(loader, tmp_path, capsys,
                                                         where, written, fixed):
    """YAML 1.1 needs a dot and a signed exponent; without them the value is a
    string, still refused (exit 2), now with the spelling that parses."""
    doc = tmp_path / "input.yaml"
    doc.write_text(_EXPONENTS.format(**{"amplitude": "1.0", "t": "0.5", **written}))
    assert main(["run", str(doc)]) == 2
    err = capsys.readouterr().err
    assert f"{where}: expected a number" in err
    assert err.rstrip().endswith("write 1.0e-3 or 1.0e+5")
    doc.write_text(_EXPONENTS.format(**{"amplitude": "1.0", "t": "0.5", **fixed}))
    assert main(["run", str(doc)]) == 0
    doc.write_text(_EXPONENTS.format(amplitude="1.0", t="soon"))
    assert main(["run", str(doc)]) == 2
    assert "1.0e+5" not in capsys.readouterr().err


def _outcome(text: str) -> str:
    try:
        return emit_report(run(parse_scenario(text)), "structured")
    except RelaqmError as exc:
        return f"{type(exc).__name__}: {exc}"


@needs_libyaml
@pytest.mark.parametrize("name", YAML_FIXTURES)
def test_fixtures_give_the_same_outcome_without_libyaml(monkeypatch, name):
    text = fixture_path(name).read_text()
    with_libyaml = _outcome(text)
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert _outcome(text) == with_libyaml


# ---------------------------------------------------------------------------
# input boundary: arbitrary trees in a valid document

_H = 0.7071067811865476
_SCENARIO_SKELETON = {
    "name": "fuzz",
    "seed": 3,
    "systems": [{"name": "S", "dim": 2}, {"name": "O", "dim": 2}, {"name": "P", "dim": 2}],
    "observers": ["O", "P"],
    "families": {"h": [[_H, _H], [_H, -_H]]},
    "preparations": {"S": [[_H, 0.0], [0.0, _H]], "O": [1.0, 0.0], "P": [[1.0, 0.0], 0.0]},
    "events": [
        {"measure": {"observer": "O", "target": "S", "family": "h"}},
        {"evolve": {"target": "S", "hamiltonian": "pauli_x", "t": 0.5}},
        {"evolve": {"target": "O", "hamiltonian": [[1, [0, 1]], [[0, -1], -1]], "t": 2}},
        {"query": {"kind": "state", "of": ["S", "O"], "relative_to": "P"}},
        {"query": {"kind": "marginal", "target": "S", "family": "hadamard",
                   "relative_to": "P"}},
        {"query": {"kind": "completion", "system": "S", "pointer": "O",
                   "family": "h", "relative_to": "P"}},
        {"query": {"kind": "kernel", "target": "S", "family_a": "h", "family_b": "fourier"}},
        {"query": {"kind": "interference", "target": "S", "family_a": "computational",
                   "family_b": "h", "i": 1, "j": 1, "k": 2}},
        {"measure": {"observer": "P", "target": "O"}},
    ],
}
_KERNEL_SKELETON = {
    "dim": 2,
    "families": {"h": [[_H, _H], [_H, -_H]]},
    "pairs": [["computational", "h"], ["h", "fourier"]],
}
# Integers are small or far past any size a run could allocate: a dimension
# of 2**31 - 1 fails at once, one of 10**4 would take gigabytes.
_FUZZ_LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-3, 8),
    st.sampled_from([2**31 - 1, 2**63, 10**30, -10**30]),
    st.sampled_from(["", "S", "O", "P", "h", "computational", "hadamard", "fourier",
                     "pauli_x", "state", "completion", "kernel", "measure", "query"]),
    st.text(max_size=3),
)
_FUZZ_KEYS = st.one_of(st.sampled_from(["name", "dim", "kind", "target", "of", "t"]),
                       st.text(max_size=3), st.integers(-2, 2), st.booleans())
_FUZZ_TREES = st.recursive(
    _FUZZ_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_FUZZ_KEYS, children, max_size=3)),
    max_leaves=10)


def _places(node, path=()):
    """Every (path, key) in a tree at which a value can be put."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return []
    places = [(path, key) for key in keys]
    for key in keys:
        places += _places(node[key], path + (key,))
    return places


@st.composite
def _grafted(draw, skeleton):
    """The skeleton as YAML, with one value replaced by a tree or one tree
    added under a new key."""
    doc = copy.deepcopy(skeleton)
    path, key = draw(st.sampled_from(_places(doc)))
    parent = doc
    for step in path:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        key = draw(_FUZZ_KEYS)
    parent[key] = draw(_FUZZ_TREES)
    return yaml.safe_dump(doc, sort_keys=False)


def _cli_exit(command: str, text: str, tmp_path) -> int:
    doc = tmp_path / "fuzz.yaml"
    doc.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([command, str(doc)])


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_grafted(_SCENARIO_SKELETON))
def test_arbitrary_trees_in_a_scenario_end_in_a_named_error(tmp_path, text):
    """Only a RelaqmError escapes parse and run; `relaqm run` exits 0, 2 or 3."""
    try:
        report = run(parse_scenario(text))
        emit_report(report, "table")
        emit_report(report, "structured")
    except RelaqmError:
        pass
    assert _cli_exit("run", text, tmp_path) in (0, 2, 3)


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_grafted(_KERNEL_SKELETON))
def test_arbitrary_trees_in_a_kernel_request_end_in_a_named_error(tmp_path, text):
    assert _cli_exit("kernel", text, tmp_path) in (0, 2, 3)
