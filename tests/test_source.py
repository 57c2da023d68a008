"""Static guards on the package source: module boundaries and size."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "levylab"

#: Line budget of ``src/levylab/*.py``: the package may shrink, never grow past it.
MAX_LINES = 4000


def _package_imports(nodes) -> set[str]:
    """Package modules the import statements among ``nodes`` load, relatively or as ``levylab.<name>``.

    ``from . import name`` loads module ``name`` when there is one, else ``__init__``.
    """
    modules = {path.stem for path in SRC.glob("*.py")}
    names = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names |= {node.module} if node.module else {a.name if a.name in modules else "__init__"
                                                            for a in node.names}
            elif node.module and node.module.split(".")[0] == "levylab":
                names |= {node.module.partition(".")[2] or "__init__"}
        elif isinstance(node, ast.Import):
            names |= {a.name.partition(".")[2] or "__init__" for a in node.names if a.name.split(".")[0] == "levylab"}
    return names


def test_config_imports_only_errors_and_runner():
    # the grammar knows no domain module; what a section builds is declared in the registry
    assert _package_imports(ast.walk(ast.parse((SRC / "config.py").read_text()))) == {"errors", "runner"}


def test_runner_imports_at_module_level():
    # every run loads what runner imports at its top; grid and the domain modules
    # are imported inside the builder or kind that uses them.  levy (and with it
    # montecarlo) stays: perfbench/selfcheck.py reads levylab.runner.sample_ensemble
    # as soon as the runner is imported
    top = ast.parse((SRC / "runner.py").read_text()).body
    assert _package_imports(top) == {"__init__", "errors", "levy", "montecarlo", "rng"}


def test_package_imports_no_scipy():
    # scipy is a test dependency only: the package's numerics are numpy
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else [])
            assert all(name.split(".")[0] != "scipy" for name in names), f"{path.name}:{node.lineno} imports scipy"


def test_spread_is_estimated_only_by_mc_stats():
    # a mean's standard error has one implementation, montecarlo.mc_stats: no
    # other code in the package takes a variance or standard deviation
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.stem == "montecarlo" and getattr(top, "name", None) == "mc_stats":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("var", "std"):
                    raise AssertionError(f"{path.name}:{node.lineno} computes a spread outside mc_stats")


def test_states_are_normalized_only_in_grid():
    # a state is a unit vector checked by grid.WaveFunction, and gaussian_state is the
    # one constructor that normalizes: no other module calls .norm() (numpy's matrix
    # norm aside), and no code defines or calls a renormalizing unit() or normalized()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in ("unit", "normalized"), f"{path.name}:{node.lineno} defines {node.name}"
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert name not in ("unit", "normalized"), f"{path.name}:{node.lineno} calls {name}"
                if name == "norm" and path.stem != "grid":
                    assert ast.unparse(node.func.value) == "np.linalg", f"{path.name}:{node.lineno} calls .norm()"


def test_levy_takes_only_run_chunks_from_montecarlo():
    # levy holds laws, exponents and the sampler; it estimates nothing
    imported = {f"{node.module}.{alias.name}" for node in ast.walk(ast.parse((SRC / "levy.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if "montecarlo" in name} == {"montecarlo.run_chunks"}


def test_maps_enter_as_matrices():
    # complete positivity has one route: a map reaches the package as its superoperator
    # or Choi matrix, never as a Python callable; the black-box Choi assembly and its
    # linearity spot check are test oracles (tests/oracles.py)
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{path.stem}.{node.name}"] = node
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                maps = [a.arg for a in args if a.arg == "map_fn" or (
                    path.stem == "generators" and a.annotation is not None and "Callable" in ast.unparse(a.annotation))]
                assert not maps, f"{path.name}:{node.lineno} takes a map as a callable: {maps}"
    assert [a.arg for a in functions["generators.choi_matrix"].args.args] == ["S", "d"]
    assert [a.arg for a in functions["generators.is_completely_positive"].args.args] == ["C"]
    gone = {"choi_of_superop", "_check_linear", "_linear_probe"}
    assert not {name for name in functions if name.partition(".")[2] in gone}


def test_feller_decides_from_its_table():
    # Feller's test has one closed form per named drift, in feller.DRIFTS: the runner
    # spells no drift name, and feller does no quadrature (the shell classifier is
    # the test oracle tests/oracles.py::shell_feller_test)
    from levylab.feller import DRIFTS

    words = {word for node in ast.walk(ast.parse((SRC / "runner.py").read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for word in re.findall(r"[\w-]+", node.value)}
    assert not words & set(DRIFTS), sorted(words & set(DRIFTS))
    used = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(ast.parse((SRC / "feller.py").read_text()))}
    assert not used & {"geomspace", "lstsq", "logaddexp"}, sorted(used & {"geomspace", "lstsq", "logaddexp"})


def test_eigenvalues_only_where_the_cp_rule_needs_them():
    # the CP rule is certified by a Cholesky factorization; generators.py solves an
    # eigenvalue problem only in the witness helper, where that fails, and in raw_build's
    # dissipativity check
    callers = {fn.name for fn in ast.walk(ast.parse((SRC / "generators.py").read_text()))
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg.eigvalsh"}
    assert callers == {"raw_build", "_cp_witness"}, sorted(callers)


def test_only_the_gauge_action_validates_raw_parts():
    # a random draw is dissipative by construction and builds once; only apply_gauge's
    # transformed (K, L) pair goes through raw_build's dissipativity check
    callers = {fn.name for path in SRC.glob("*.py") for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "raw_build"}
    assert callers == {"apply_gauge"}, sorted(callers)


def test_package_within_line_budget():
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total <= MAX_LINES, f"src/levylab/*.py has {total} lines, above the budget of {MAX_LINES}"


def _relative_imports(tree, modules: set[str]) -> dict[str, str]:
    """Each name a module binds by a relative import, anywhere in it, as ``module.name`` or a package module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module:
                    target = f"{node.module}.{alias.name}"
                else:  # ``from . import x``: a package module, or a name of ``__init__``
                    target = alias.name if alias.name in modules else f"__init__.{alias.name}"
                imported[alias.asname or alias.name] = target
    return imported


def _definitions() -> dict[str, tuple[ast.stmt, set[str]]]:
    """Each top-level definition of ``src/levylab`` as ``module.name``: its node and the package names it refers to.

    A reference is a bare name (resolved through the module's relative imports,
    or to the module itself), a relative import inside the definition, or an
    attribute of an imported package module (``rng.stream``).
    """
    modules = {path.stem for path in SRC.glob("*.py")}
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        imported = _relative_imports(tree, modules)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(imported.get(sub.id, f"{mod}.{sub.id}"))
                elif isinstance(sub, ast.ImportFrom) and sub.level and sub.module:
                    refs |= {f"{sub.module}.{alias.name}" for alias in sub.names}
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and imported.get(sub.value.id) in modules):
                    refs.add(f"{imported[sub.value.id]}.{sub.attr}")
            defs.update((f"{mod}.{name}", (node, refs)) for name in names)
    return defs


def _registers_a_kind(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_experiment"
               for d in getattr(node, "decorator_list", ()))


def test_every_definition_is_reached_from_the_cli():
    # the package is what the CLI runs: every top-level name, private helpers
    # included, is reached from cli.main or a registered kind, directly or
    # through other src/ definitions; test-only code belongs in tests/oracles.py
    defs = _definitions()
    todo = ["cli.main"] + [name for name, (node, _) in defs.items()
                           if name.startswith("runner.") and _registers_a_kind(node)]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(defs[name][1])
    unreached = sorted(set(defs) - reached)
    assert not unreached, f"src/levylab defines names no CLI path reaches: {unreached}"


#: Options no call in ``src/`` passes, each with the reason it stays.
UNSET_OPTIONS = {
    "cli.main(argv)": "the console entry point calls main() to parse sys.argv; tests pass an argv",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _signatures() -> dict[str, tuple[list[str], dict[str, str]]]:
    """Every callable of ``src/levylab``: the names positional arguments bind to, and its options.

    A function or method is ``module.name`` or ``module.Class.name`` (its
    ``self``/``cls`` dropped); a class is ``module.Class``, taking its
    ``__init__`` parameters or its dataclass fields (``ClassVar`` excluded).
    An option is a defaulted parameter or field other than ``out``, named
    ``module.func(param)`` or ``module.Class.field``.
    """
    sigs = {}

    def function(key, node, method):
        a = node.args
        pos = a.posonlyargs + a.args
        defaulted = pos[len(pos) - len(a.defaults):] + [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        params = [arg.arg for arg in pos[1 if method and not static else 0:]]
        return params, {arg.arg: f"{key}({arg.arg})" for arg in defaulted if arg.arg != "out"}

    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        methods = set()
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    methods.add(node)
                    sigs[f"{mod}.{cls.name}.{node.name}"] = function(f"{mod}.{cls.name}.{node.name}", node, True)
            if f"{mod}.{cls.name}.__init__" in sigs:
                sigs[f"{mod}.{cls.name}"] = sigs[f"{mod}.{cls.name}.__init__"]
            elif _is_dataclass(cls):
                fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and "ClassVar" not in ast.unparse(n.annotation)]
                sigs[f"{mod}.{cls.name}"] = ([f.target.id for f in fields], {
                    f.target.id: f"{mod}.{cls.name}.{f.target.id}" for f in fields if f.value is not None})
        for node in ast.walk(tree):  # nested functions too, by their bare name
            if isinstance(node, ast.FunctionDef) and node not in methods:
                sigs[f"{mod}.{node.name}"] = function(f"{mod}.{node.name}", node, False)
    return sigs


def _callees(call: ast.Call, resolve, aliases: dict, cls: str | None, sigs: dict) -> set[str]:
    """The callables ``call`` may reach: by name or alias, ``cls``, a module or class attribute, a dict of callables."""
    func = call.func
    if isinstance(func, ast.Name):
        return {cls} if func.id == "cls" and cls else aliases.get(resolve(func.id), {resolve(func.id)})
    if isinstance(func, ast.Attribute):
        owner = resolve(func.value.id) if isinstance(func.value, ast.Name) else None
        if f"{owner}.{func.attr}" in sigs:
            return {f"{owner}.{func.attr}"}
        # a method called on an instance: every method of that name
        return {key for key in sigs if key.count(".") == 2 and key.endswith(f".{func.attr}")}
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return aliases.get(resolve(func.value.id), set())
    return set()


def _options_set_in_src(sigs: dict) -> set[str]:
    """Options some call in ``src/levylab`` passes, by position or by keyword.

    An alias maps a name to the callables it may hold: a top-level dict of
    callables (``CANONICAL_DRIFTS[...](...)``) or, inside a function,
    ``sim = A if ... else B``.
    """
    modules = {path.stem for path in SRC.glob("*.py")}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    imports = {mod: _relative_imports(tree, modules) for mod, tree in trees.items()}
    dicts = {f"{mod}.{t.id}": {imports[mod].get(v.id, f"{mod}.{v.id}") for v in node.value.values
                               if isinstance(v, ast.Name)}
             for mod, tree in trees.items() for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
             for t in node.targets if isinstance(t, ast.Name)}
    passed = set()
    for mod, tree in trees.items():
        def resolve(name, mod=mod):
            return imports[mod].get(name, f"{mod}.{name}")

        def visit(node, cls, aliases):
            if isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                aliases = dict(aliases)
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.IfExp)
                    and all(isinstance(v, ast.Name) for v in (node.value.body, node.value.orelse))):
                aliases[resolve(node.targets[0].id)] = {resolve(v.id) for v in (node.value.body, node.value.orelse)}
            if isinstance(node, ast.Call):
                for key in _callees(node, resolve, aliases, cls, sigs) & set(sigs):
                    params, options = sigs[key]
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    bound = set(params if starred else params[:len(node.args)])
                    bound |= {kw.arg for kw in node.keywords} if all(kw.arg for kw in node.keywords) else set(params)
                    passed.update(options[p] for p in bound if p in options)
            for child in ast.iter_child_nodes(node):
                visit(child, cls, aliases)

        visit(tree, None, dicts)
    return passed


def test_every_option_is_set_by_a_cli_path():
    # an option no call in src/ passes takes one value on every CLI path: a
    # test-only knob, which belongs in the test that wants it
    sigs = _signatures()
    options = {option for _, opts in sigs.values() for option in opts.values()}
    assert set(UNSET_OPTIONS) <= options, sorted(set(UNSET_OPTIONS) - options)
    unset = sorted(options - _options_set_in_src(sigs) - set(UNSET_OPTIONS))
    assert not unset, f"options no call in src/levylab sets: {unset}"


def _integer_constants(tree) -> set[str]:
    """Module-level names bound once, by a plain assignment, to an integer literal."""
    bound = [t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
    return {node.targets[0].id for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            and bound.count(node.targets[0].id) == 1}


def test_stream_partitions_are_fixed_constants():
    # the chunk size of run_chunks picks the random streams, so it must be a
    # named integer literal, never an expression in a memory knob
    calls = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = _integer_constants(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "run_chunks"
                                                    or getattr(node.func, "attr", None) == "run_chunks")):
                continue
            calls += 1
            where = f"{path.name}:{node.lineno}"
            assert len(node.args) <= 3 and all(kw.arg for kw in node.keywords), (
                f"{where}: chunk passed by position or **kwargs")
            chunk = [kw.value for kw in node.keywords if kw.arg == "chunk"]
            assert not chunk or (isinstance(chunk[0], ast.Name) and chunk[0].id in constants), (
                f"{where}: chunk={ast.unparse(chunk[0])} is not a module-level integer literal")
    assert calls == 3


def test_result_constants_are_integer_literals():
    # each sets bits of some run: STATE_BATCH the row count of the shift
    # estimator's BLAS product, the other two the stream partition; rng.CHUNK
    # reaches run_chunks only as a default, which the test above does not see
    for module, name in (("grid", "STATE_BATCH"), ("galilean", "DILATION_CHUNK"), ("rng", "CHUNK")):
        assert name in _integer_constants(ast.parse((SRC / f"{module}.py").read_text())), (
            f"{module}.{name} is not a module-level integer literal")


def test_lag_tail_is_a_fixed_constant():
    # semigroup.LAG_TAIL picks which lags the shift estimator sums, so it sets
    # result bits too: one module-level assignment of number literals and
    # arithmetic (no setting or computed value can move it), at 2**-53
    from levylab.semigroup import LAG_TAIL

    tree = ast.parse((SRC / "semigroup.py").read_text())
    bound = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
             for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(t, ast.Name) and t.id == "LAG_TAIL"]
    assert len(bound) == 1 and isinstance(bound[0], ast.Assign), "LAG_TAIL is not bound once by a plain assignment"
    assert all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               for n in ast.walk(bound[0].value)), f"LAG_TAIL = {ast.unparse(bound[0].value)} is not a literal"
    assert LAG_TAIL == 2.0**-53
