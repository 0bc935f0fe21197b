"""The package's public surface: __all__ and the names it binds agree, each
export is listed in its module's __all__, no public function takes a
tolerance, importing the package loads none of its modules, and no module
keeps a private name or an import that nothing uses."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import catoptrix


def test_all_lists_exactly_the_public_names():
    assert len(set(catoptrix.__all__)) == len(catoptrix.__all__)
    missing = [name for name in catoptrix.__all__ if not hasattr(catoptrix, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(catoptrix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(catoptrix.__all__)


def test_exports_are_listed_in_their_modules_all():
    # every name the package exports is in its defining module's __all__
    # (errors declares none)
    unlisted = []
    for module_name, names in catoptrix._EXPORTS.items():
        module = importlib.import_module(f"catoptrix.{module_name}")
        if hasattr(module, "__all__"):
            unlisted += [f"{module_name}.{name}" for name in names if name not in module.__all__]
    assert unlisted == []


def test_dir_lists_every_public_name():
    # the hook itself, whatever __getattr__ has cached in the module so far
    listed = catoptrix.__dir__()
    assert listed == sorted({*vars(catoptrix), *catoptrix.__all__})
    assert set(catoptrix.__all__) <= set(listed) and "__version__" in listed


def test_no_public_callable_takes_tol():
    # the tolerances are the fixed DEFAULT_TOLERANCES, not a per-call option
    takes_tol = []
    for name in catoptrix.__all__:
        value = getattr(catoptrix, name)
        if not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except ValueError:
            continue  # no signature to inspect, as for the exception classes
        if "tol" in params:
            takes_tol.append(name)
    assert takes_tol == []
    assert "Tolerances" not in catoptrix.__all__


def test_import_loads_no_module_and_names_resolve_on_use():
    # a fresh interpreter: this one has loaded every module already
    code = textwrap.dedent(
        """
        import sys
        import catoptrix
        assert [m for m in sys.modules if m.startswith("catoptrix.")] == []
        assert set(catoptrix.__all__) <= set(dir(catoptrix))
        namespace = {}
        exec("from catoptrix import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(catoptrix.__all__)
        assert not hasattr(catoptrix, "no_such_name")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_keeps_a_dead_name():
    # a private top-level name (not a dunder) that no module of the package
    # reads, or an imported name that its own module never reads, is left
    # over from code that is gone
    package = Path(catoptrix.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

    def read_names(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    read_anywhere = set().union(*map(read_names, trees.values()))
    dead = []
    for file, tree in trees.items():
        private = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                private.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                private |= {t.id for t in targets if isinstance(t, ast.Name)}
        dead += [
            f"{file}: {name}"
            for name in sorted(private)
            if name.startswith("_") and not name.endswith("__") and name not in read_anywhere
        ]
        # a string, as in __all__, counts as a read
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        read_here = read_names(tree) | strings
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read_here:
                        dead.append(f"{file}: import {bound}")
    assert dead == []


def _private_defs_and_calls(sources):
    """([(file, def node, receiver)], {name: [call nodes]}) of the private
    functions and methods in sources ({file name: source}) and of every call
    by name or attribute; receiver is 1 for a method, whose first parameter
    a call does not pass."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = []
    for file, tree in trees.items():
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                    if name.startswith("_") and not name.endswith("__"):
                        method = isinstance(parent, ast.ClassDef) and not any(
                            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                        )
                        defs.append((file, node, int(method)))
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return defs, calls


def _unset_private_defaults(sources):
    """'file: function(param)' for each defaulted parameter of a private
    function or method in sources ({file name: source}) that no call in them
    sets, by position or by keyword. A call with *args or **kwargs sets every
    parameter of its kind; a method's first parameter is its receiver."""
    defs, calls = _private_defs_and_calls(sources)
    unset = []
    for file, fn, receiver in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for index, param in defaulted:
            def sets(call, index=index, param=param):
                if any(k.arg is None or k.arg == param for k in call.keywords):
                    return True
                if index is None:
                    return False
                if any(isinstance(a, ast.Starred) for a in call.args):
                    return True
                return receiver + len(call.args) > index

            if not any(sets(call) for call in calls.get(fn.name, [])):
                unset.append(f"{file}: {fn.name}({param})")
    return unset


def _constant_private_arguments(sources):
    """'file: function(param)' for each parameter of a private function or
    method in sources ({file name: source}) to which every call passes the
    same literal constant, by position or by keyword. A parameter that some
    call leaves to its default, or may pass through *args or **kwargs, is
    not counted; a method's first parameter is its receiver."""
    defs, calls = _private_defs_and_calls(sources)
    constant = []
    for file, fn, receiver in defs:
        sites = calls.get(fn.name, [])
        args = fn.args
        params = [(i, a.arg) for i, a in enumerate(args.posonlyargs + args.args) if i >= receiver]
        params += [(None, a.arg) for a in args.kwonlyargs]
        for index, param in params:
            passed = []
            for call in sites:
                by_keyword = [k.value for k in call.keywords if k.arg == param]
                if by_keyword:
                    passed.append(by_keyword[0])
                elif (
                    index is not None
                    and not any(isinstance(a, ast.Starred) for a in call.args)
                    and index - receiver < len(call.args)
                ):
                    passed.append(call.args[index - receiver])
                else:
                    break
            else:
                try:
                    [ast.literal_eval(value) for value in passed]
                except ValueError:
                    continue
                if passed and len({ast.dump(value) for value in passed}) == 1:
                    constant.append(f"{file}: {fn.name}({param})")
    return constant


def test_no_private_function_keeps_a_default_that_no_call_sets():
    # a default that no caller overrides is a knob that nothing turns: its
    # value is the only one the code runs, so it belongs in the body
    package = Path(catoptrix.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unset_private_defaults(sources) == []


def test_unset_private_default_check_sees_positions_keywords_and_methods():
    source = (
        "def _f(a, b=1, *, c=2):\n    return a\n"
        "def _g(a, b=1):\n    return a\n"
        "def public(a, b=1):\n    return a\n"
        "class K:\n"
        "    def _m(self, a, b=1):\n        return a\n"
        "    def _n(self, a=1):\n        return a\n"
        "_f(0, 1)\n_g(0)\nK()._m(0, b=1)\nK()._n()\n"
    )
    assert _unset_private_defaults({"m.py": source}) == ["m.py: _f(c)", "m.py: _g(b)", "m.py: _n(a)"]


def test_no_private_function_takes_the_same_constant_from_every_call():
    # a parameter to which every call passes the same literal is a knob that
    # nothing turns, as a default that no call sets is: its value belongs in
    # the body
    package = Path(catoptrix.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _constant_private_arguments(sources) == []


def test_constant_private_argument_check_sees_positions_keywords_and_methods():
    source = (
        "def _f(a, b, *, c=2):\n    return a\n"
        "def _g(a, b=1):\n    return a\n"
        "def _h(a, b):\n    return a\n"
        "def public(a):\n    return a\n"
        "class K:\n"
        "    def _m(self, a, b):\n        return a\n"
        "_f(0, -1.5, c=3)\n_f(x, b=-1.5, c=3)\n"
        "_g(0)\n_g(1, 1)\n"
        "_h(0, 'k')\n_h(*args)\n"
        "public(0)\npublic(0)\n"
        "K()._m(0, (1, 2))\nK()._m(a=1, b=(1, 2))\n"
    )
    assert _constant_private_arguments({"m.py": source}) == ["m.py: _f(b)", "m.py: _f(c)", "m.py: _m(b)"]


def _non_finite_cases():
    """(name, callable, valid arguments, indices of its numeric arguments)
    for every public function and validating constructor that takes points
    or reals."""
    from catoptrix import (
        LineCoeffs, ObserverPolar, QuarticCoeffs, directrix, e1_isolated_point,
        ellipse_params, envelope_implicit, envelope_param, exterior_reflection,
        infinity_real_coeffs, interior_quartic_coeffs, limacon_residual,
        minimizing_root, mirror_point, on_unit_circle, oracle_quartic_discriminant,
        oracle_smetric, point_line_distance, polished_roots, real_quartic_invariants,
        s_metric, tangency_point, tangent_line, unit_from_angle, valid_arc,
    )

    def polished_roots_of(c2, c1, c0):
        return polished_roots((c2, c1, c0))

    line = tangent_line(1.0)
    cases = [
        (directrix, (2.0, 1j), (0, 1)),
        (e1_isolated_point, (2.0,), (0,)),
        (envelope_implicit, (2.0, 0.5 + 0.5j), (0, 1)),
        (envelope_param, (2.0, 0.3), (0, 1)),
        (limacon_residual, (2.0, 0.5, 0.5), (0, 1, 2)),
        (mirror_point, (2.0, 1j), (0, 1)),
        (point_line_distance, (0.5 + 0.5j, line), (0,)),
        (tangency_point, (2.0, 1j), (0, 1)),
        (tangent_line, (1j,), (0,)),
        (valid_arc, (2.0,), (0,)),
        (ellipse_params, (0.3 + 0.1j, -0.2 + 0.4j), (0, 1)),
        (exterior_reflection, (2.0 + 0j, 0.5 + 3j), (0, 1)),
        (interior_quartic_coeffs, (0.3 + 0.1j, -0.2 + 0.4j), (0, 1)),
        (minimizing_root, (0.3 + 0.1j, -0.2 + 0.4j), (0, 1)),
        (s_metric, (0.3 + 0.1j, -0.2 + 0.4j), (0, 1)),
        (on_unit_circle, (1j,), (0,)),
        (unit_from_angle, (0.3,), (0,)),
        (oracle_quartic_discriminant, (1.0, 0.0, -5.0, 0.0, 4.0), (0, 1, 2, 3, 4)),
        (oracle_smetric, (0.3 + 0.1j, -0.2 + 0.4j), (0, 1)),
        (infinity_real_coeffs, (2.0, 0.3), (0, 1)),
        (real_quartic_invariants, (1.0, 0.0, -5.0, 0.0, 4.0), (0, 1, 2, 3, 4)),
        (ObserverPolar, (2.0, 0.3), (0, 1)),
        (QuarticCoeffs, (1, 0, -5, 0, 4), (0, 1, 2, 3, 4)),
        (LineCoeffs, (1.0, 1.0, -2.0), (0, 1, 2)),
        (polished_roots_of, (1.0, 0.0, -1.0), (0, 1, 2)),
    ]
    for fn, args, numeric in cases:
        fn(*args)  # the valid arguments are valid
    return [(fn.__name__, fn, args, numeric) for fn, args, numeric in cases]


def test_non_finite_numbers_raise_non_finite_point():
    # NaN or inf in any numeric argument, of every public function and
    # validating constructor that takes points or reals, raises
    # NonFinitePoint rather than flowing into a result, and its message
    # starts with the argument's name: the argument is validated, not only
    # the result it would have led to
    from catoptrix.errors import NonFinitePoint

    nan, inf = float("nan"), float("inf")
    returned = []
    for name, fn, args, numeric in _non_finite_cases():
        params = list(inspect.signature(fn).parameters)
        for k in numeric:
            bad_values = (nan, inf, -inf)
            if isinstance(args[k], complex):
                bad_values += (complex(nan, 0.0), complex(0.5, inf), complex(-inf, 0.5))
            for bad in bad_values:
                try:
                    fn(*args[:k], bad, *args[k + 1:])
                except NonFinitePoint as exc:
                    if str(exc).startswith(params[k] + " "):
                        continue
                    returned.append(f"{name}(argument {k} = {bad!r}): {exc}")
                    continue
                returned.append(f"{name}(argument {k} = {bad!r})")
    assert returned == []


def _records():
    """(record, its constructor arguments, another record of its class, the
    repr it had as a frozen dataclass) for each value type that is not a
    dataclass."""
    from catoptrix import (
        DEFAULT_TOLERANCES, EllipseParams, InfinityResult, LineCoeffs, ObserverPolar,
        QuarticCoeffs, RealQuarticNature, RootNature, RootSet,
    )

    four, degenerate = RootNature.FOUR_REAL_DISTINCT, RootNature.DEGENERATE
    table = [
        (QuarticCoeffs, (2, -1, 0, 1j, -2), (2, -1, 0, 1j, -3),
         "QuarticCoeffs(c4=(2+0j), c3=(-1+0j), c2=0j, c1=1j, c0=(-2+0j))"),
        (RootSet, ((1 + 0j, -1 + 0j), (0.0, 1e-17), (0, 1), 2.0), ((1 + 0j, -1 + 0j), (0.0, 1e-17), (0, 2), 2.0),
         "RootSet(roots=((1+0j), (-1+0j)), residuals=(0.0, 1e-17), polish_iterations=(0, 1), "
         "min_separation=2.0)"),
        (RealQuarticNature, (5184.0, -40.0, -144.0, four), (5184.0, -40.0, -144.0, degenerate),
         "RealQuarticNature(delta=5184.0, p=-40.0, d=-144.0, "
         "classification=<RootNature.FOUR_REAL_DISTINCT: 'FourRealDistinct'>)"),
        (type(DEFAULT_TOLERANCES), (1e-9, 1e-10, 1e-6), (1e-9, 1e-11, 1e-6),
         "Tolerances(unit_circle_tol=1e-09, residual_tol=1e-10, oracle_agreement_tol=1e-06)"),
        (ObserverPolar, (2.0, 0.5), (2.0, -0.5), "ObserverPolar(r=2.0, theta=0.5)"),
        (InfinityResult, (1 + 0j, 0.0, 0.0, 0.0, True, ObserverPolar(2.0, 0.0)),
         (1 + 0j, 0.0, 0.0, 0.0, True, ObserverPolar(3.0, 0.0)),
         "InfinityResult(w=(1+0j), phi=0.0, path_defect=0.0, reality_residual=0.0, degenerate_axis=True, "
         "_observer=ObserverPolar(r=2.0, theta=0.0))"),
        (LineCoeffs, (1 + 0j, 1 + 0j, -2 + 0j), (1, 1, 2), "LineCoeffs(alpha=(1+0j), beta=(1+0j), gamma=(-2+0j))"),
        (EllipseParams, (1.0, 0.5, 0.25, 0.5), (1.0, 0.5, 0.25, 0.25),
         "EllipseParams(focal_sum=1.0, major=0.5, minor=0.25, eccentricity=0.5)"),
    ]
    return [(cls(*args), args, cls(*other), text) for cls, args, other, text in table]


def test_value_types_are_immutable_records():
    import copy
    import pickle

    for record, args, other, text in _records():
        cls = type(record)
        assert repr(record) == text
        # equal only to a record of the same class with equal fields
        twin = cls(*args)
        assert record == twin and not record != twin and hash(record) == hash(twin)
        assert record != other and other != record
        assert record != args and args != record
        field = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == text
        for clone in [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]:
            assert type(clone) is cls and clone == record and hash(clone) == hash(record)
            assert repr(clone) == text


def test_infinity_result_compares_and_hashes_without_solving(monkeypatch):
    import catoptrix.infinity as infinity

    def refuse(q):
        raise AssertionError("solved a quartic")

    obs = infinity.ObserverPolar(2.0, 0.7)
    a, b = infinity.infinity_reflection(obs), infinity.infinity_reflection(obs)
    monkeypatch.setattr(infinity, "solve_quartic", refuse)
    assert a == b and hash(a) == hash(b)
    repr(a)
    assert "all_roots" not in vars(a) and "mobius_images" not in vars(a)
    monkeypatch.undo()
    # a picture read on one side leaves equality and hash as they were
    a.mobius_images
    assert "all_roots" in vars(a) and a == b and hash(a) == hash(b)


def test_every_bench_record_parses_and_names_its_pr():
    # the perf trajectory is read by file name: BENCH_n.json records PR n
    root = Path(__file__).resolve().parents[1]
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        n = int(path.stem.split("_", 1)[1])
        assert json.loads(path.read_text())["pr"] == n, path.name
