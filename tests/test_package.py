import ast
import pickle
from pathlib import Path

import pytest

import markoff
from markoff import (
    AConfig,
    Cubic04,
    DescentResult,
    Markoff11,
    MoveWord,
    OrbitReport,
    ParabolicLine,
    class_number,
    enumerate_points,
    equivalent,
    is_exceptional,
    make_cubic04,
    orbit_bfs,
    parabolic_lines_11,
    reduce_compact,
)
from markoff.descent import INTEGER_STAR, REDUCED
from markoff.moves import Move
from markoff.orbits import Caps, EquivalenceResult, ExceptionalSearch, LineReport, OrbitRun
from markoff.surfaces import Point3, cubic04_coefficients
from markoff.trace_algebra import Mat2, Pair, Quad

PACKAGE = Path(markoff.__file__).parent


def _references(tree) -> list:
    """Every name a tree reads, as a bare name, an attribute or an import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names


def _unreferenced(private: bool) -> list:
    """module:name of each module-level function or class, private or
    public as asked, that nothing in the package names but its own body;
    __init__'s imports name what it re-exports."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    every = [name for tree in trees.values() for name in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name.startswith("_") != private:
                continue
            if every.count(name) == _references(node).count(name):  # only itself
                unused.append(f"{module}:{name}")
    return unused


def test_every_private_definition_is_referenced():
    # a private module-level function or class that nothing else in the
    # package names is dead code: its caller was switched and it stayed
    assert _unreferenced(private=True) == []


def test_every_public_definition_is_used():
    # a public one that the package neither calls nor re-exports serves
    # only the tests, which can build what it builds themselves
    assert _unreferenced(private=False) == []


def _imported(tree) -> list:
    """(line, name) of every name a module's imports bind, but __future__'s."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    return bound


def test_every_import_is_read():
    # a module that imports a name it never reads kept it from a deleted
    # caller; __init__ imports to re-export
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line}:{name}" for line, name in _imported(tree)
                   if name not in read]
    assert unread == []



_SPHERE = make_cubic04(0, 1, 2, 3)


def _off_locus(surface, B):
    """The first box point with no coordinate +-2."""
    return next(p for p in enumerate_points(surface, B) if 2 not in p and -2 not in p)


# each value type: its fields in order, and a call that builds one, of
# which a second call builds an equal value apart from the first
_VALUE_TYPES = {
    Markoff11: ("k", lambda: Markoff11(-2)),
    Cubic04: ("k1 k2 k3 k4 a b c d", lambda: make_cubic04(0, 1, 2, 3)),
    AConfig: ("mode", lambda: AConfig(INTEGER_STAR)),
    DescentResult: (
        "reduced word steps status exceptional_axis exceptional_value terminal_condition bound",
        lambda: reduce_compact(Markoff11(-2), AConfig(INTEGER_STAR), (3, 6, 15))),
    OrbitRun: ("surface start parents caps_hit quotient",
               lambda: orbit_bfs(_SPHERE, "gamma_prime", (4, 0, 1), 20)),
    EquivalenceResult: ("equivalent word exhausted pruned",
                        lambda: equivalent(Markoff11(-2), "gamma_prime", (3, 3, 3), (3, 6, 15))),
    ExceptionalSearch: ("found word exhausted pruned",
                        lambda: is_exceptional(Markoff11(6), _off_locus(Markoff11(6), 10))),
    OrbitReport: ("surface generators box representatives exceptional class_number_star caps_hit",
                  lambda: class_number(Markoff11(-2), "gamma_prime", 20)),
    ParabolicLine: ("axis value origin direction integral", lambda: parabolic_lines_11(6).lines[0]),
    LineReport: ("k square_root lines note", lambda: parabolic_lines_11(6)),
}


@pytest.mark.parametrize("cls", _VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    # the value types keep the frozen dataclasses' contract: fields in
    # order, positional and keyword construction, equality and hashing by
    # value with their own type only, no assignment, pickling, and repr
    names, build = _VALUE_TYPES[cls]
    value, twin = build(), build()
    fields = vars(value)
    assert type(value) is cls and list(fields) == names.split()
    assert cls(*fields.values()) == cls(**fields) == twin == value
    assert value != tuple(fields.values()) and value._replace() == value
    if cls is OrbitRun:  # parents is a dict, so no hash, as with the dataclass
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value)
    first = names.split()[0]
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert vars(value) == vars(twin)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in fields.items())})"


# each tuple value type: its fields, and one value
_TUPLE_TYPES = {
    Point3: ("x y z", Point3(1, -2, 3)),
    Move: ("kind arg power", Move("V", 2)),
    MoveWord: ("surface_kind moves", MoveWord("04", (Move("T04", 1, -1),))),
    Caps: ("height count", Caps(50)),
    Mat2: ("m11 m12 m21 m22", Mat2(1, 1, 0, 1)),
    Pair: ("A B", Pair(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1))),
    Quad: ("C1 C2 C3 C4", Quad(*[Mat2(1, 0, 0, 1)] * 4)),
}


@pytest.mark.parametrize("cls", _TUPLE_TYPES, ids=lambda cls: cls.__name__)
def test_tuple_type_contract(cls):
    # the tuple value types are namedtuple subclasses with no instance
    # dict, which would grow every point; fields, defaults, _replace,
    # pickling (scan --jobs sends them to workers) and repr as before
    names, value = _TUPLE_TYPES[cls]
    assert cls._fields == tuple(names.split()) and not hasattr(value, "__dict__")
    assert value._replace() == value and type(value._replace()) is cls
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and type(copy) is cls
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names.split(), value))
    assert repr(value) == f"{cls.__name__}({fields})"
    assert Move("V", 0).power == 1 and Caps() == (10**6, 10**6)


def test_descent_result_keyword_defaults():
    word = MoveWord("11", ())
    result = DescentResult(reduced=(3, 3, 3), word=word, steps=0, status=REDUCED)
    assert result == DescentResult((3, 3, 3), word, 0, REDUCED, None, None, None, None)
    assert (result.exceptional_axis, result.exceptional_value, result.terminal_condition,
            result.bound) == (None, None, None, None)


def test_aconfig_rejects_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        AConfig("bogus")
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        AConfig(INTEGER_STAR)._replace(mode="bogus")


@pytest.mark.parametrize("surface, start, gens", [
    (Markoff11(-2), (3, 3, 3), "gamma_prime"),  # a G quotient search
    (Markoff11(-2), (3, 3, 3), "gamma_poly"),  # an S3 quotient search
    (_SPHERE, (4, 0, 1), "gamma_prime"),  # a plain search
])
def test_orbit_run_len_is_node_count(surface, start, gens):
    run = orbit_bfs(surface, gens, start, 60)
    points = run.points()
    assert len(run) == len(points) == len(set(points)) > 1


def test_surface_value_fields():
    torus = Markoff11(-2)
    assert (torus.k, torus.kind, torus.params, torus.domain) == (-2, "11", (-2,), "exact")
    assert Markoff11(0.5 + 1j).domain == "approx"
    sphere = make_cubic04(1, 2, 3, 4)
    assert (sphere.kind, sphere.params, sphere.domain) == ("04", (1, 2, 3, 4), "exact")
    assert (sphere.k1, sphere.k2, sphere.k3, sphere.k4) == (1, 2, 3, 4)
    assert (sphere.a, sphere.b, sphere.c, sphere.d) == cubic04_coefficients(1, 2, 3, 4)
    off = sphere._replace(d=sphere.d + 1)
    assert vars(off) == {**vars(sphere), "d": sphere.d + 1} and off != sphere
