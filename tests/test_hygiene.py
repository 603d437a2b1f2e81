"""Source hygiene: every import in the package is used in its module, every
module-level private name has a reader in the package, no module relies on
an `assert` statement, no condition in the package or the tests is a
constant, the defaulted parameters of public functions and the defaulted
fields of public dataclasses are an audited list, a scenario parameter's
default lives in its shipped config alone, and every check states a
relation that `Verdict.add` knows."""

import ast
import configparser
from pathlib import Path

import besselweights
from besselweights.experiments.verdict import RELATIONS

PACKAGE = Path(besselweights.__file__).parent


def _bound_names(node):
    """(name bound in the module, line) for each name an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each import whose bound name the module never reads.
    Names listed in __all__ count as read."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    bound = [b for node in ast.walk(tree) for b in _bound_names(node)]
    return [(name, line) for name, line in bound if name not in used]


def test_scan_flags_an_unused_import():
    src = "import os\nimport math\nfrom x import y as z\n__all__ = ['z']\nmath.pi\n"
    assert unused_imports(src) == [("os", 1)]


def test_no_unused_imports_in_the_package():
    hits = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def _private_definitions(tree):
    """(name, line, node) of each private function, class or constant bound at
    module level; dunder names such as __all__ are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in bound if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno, node


def unreferenced_privates(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each module-level private name that no module
    of sources reads outside the name's own definition: code with no caller."""
    trees = {key: ast.parse(src) for key, src in sources.items()}
    reads = {}  # name -> the nodes that read it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                reads.setdefault(n.attr, []).append(n)
    hits = []
    for key, tree in trees.items():
        for name, line, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in reads.get(name, [])):
                hits.append((key, name, line))
    return hits


def test_scan_flags_a_private_name_with_no_caller():
    sources = {
        "a": "_LIMIT = 3\n_DEAD: int = 4\ndef _loop(n):\n    return _loop(n - 1)\n"
             "class _Unused:\n    pass\ndef _helper():\n    return _LIMIT\n__all__ = []\n",
        "b": "from a import _helper\nimport a\nx = _helper() + a._other\ndef _other():\n    pass\n",
    }
    assert unreferenced_privates(sources) == [("a", "_DEAD", 2), ("a", "_loop", 3), ("a", "_Unused", 5)]


def test_every_private_name_in_the_package_has_a_caller():
    hits = unreferenced_privates({
        str(path.relative_to(PACKAGE.parent)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    })
    assert hits == []


def assert_lines(source: str) -> list[int]:
    """Lines of the `assert` statements in the source; `python -O` strips them."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_scan_flags_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x > 0, 'msg'\n") == [3]


def test_no_assert_statements_in_the_package():
    """Checks must raise a package error, so that they still run under -O."""
    hits = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in assert_lines(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def constant_condition_lines(source: str) -> list[int]:
    """Lines of each `if` statement or conditional expression whose test is a
    literal constant: one branch is dead, and the code or the assert it guards
    checks nothing."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.If, ast.IfExp)) and isinstance(n.test, ast.Constant)
    ]


def test_scan_flags_a_constant_condition():
    src = "if x:\n    y = 1\nif False:\n    y = 2\nz = 1 if True else 2\nw = 1 if x else 2\n"
    assert constant_condition_lines(src) == [3, 5]


def test_no_constant_conditions_in_the_package_or_the_tests():
    hits = [
        f"{path.relative_to(root.parent)}:{line}"
        for root in (PACKAGE, Path(__file__).parent)
        for path in sorted(root.rglob("*.py"))
        for line in constant_condition_lines(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


# Each entry is an option a caller may leave at its default.  A new one must be
# added here, so it shows in review; one that every caller leaves alone
# belongs in a module constant instead.
OPTIONS = [
    "bmo.rearrangement(hull)",
    "dyadic.random_subtree(keep_prob)",
    "experiments.config.parse_config_text(seed_override)",
    "experiments.config.load_config(seed_override)",
    "experiments.config.load_default_config(seed_override)",
    "experiments.config.ScenarioConfig(params)",
    "experiments.verdict.Verdict(checks)",
    "experiments.verdict.Verdict(artifacts)",
    "measure.FuncExpr.indicator(value)",
    "measure.monotone_inverse(increasing)",
    "measure.integrate_callable(kind)",
    "measure.integrate_callable(rel_tol)",
    "orlicz.llogl(eps)",
    "orlicz.exp_m1(rate)",
    "orlicz.YoungFunction(gamma_doubling)",
    "orlicz.YoungFunction(_validate)",
    "orlicz.YoungFunction(_tails)",
    "orlicz.YoungFunction(_slope)",
    "riesz.RieszKernelEvaluator(nodes)",
    "riesz.SeparatedBallPair.build(direction)",
    "riesz.lower_bound_check(samples)",
    "weights.Weight(description)",
    "weights.Weight.power(coef)",
    "weights.PowerRange(upper_inclusive)",
    "weights.IntervalFamily.random(lo_exp)",
    "weights.IntervalFamily.random(hi_exp)",
    "weights.IntervalFamily.standard(seed)",
    "weights.IntervalFamily.standard(n_random)",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def defaulted_parameters(source: str, module: str) -> list[str]:
    """"module.function(param)" for each defaulted parameter of a public
    function, or of a public method of a public class, at module level, and
    "module.Class(field)" for each defaulted field of a public dataclass: a
    constructor parameter as well."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    out.extend(
                        f"{module}.{prefix}{node.name}({f.target.id})"
                        for f in node.body
                        if isinstance(f, ast.AnnAssign) and f.value is not None
                    )
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                params = positional[len(positional) - len(a.defaults):] if a.defaults else []
                params += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.extend(f"{module}.{prefix}{node.name}({p.arg})" for p in params)

    visit(ast.parse(source).body, "")
    return out


def test_scan_lists_defaulted_parameters():
    src = (
        "def f(a, b=1, *, c=2, d):\n    def inner(e=3): pass\n"
        "def _g(h=4): pass\n"
        "class K:\n    def m(self, i=5): pass\n    def _n(self, j=6): pass\n    x: int = 0\n"
        "class _L:\n    def m(self, k=7): pass\n"
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 1\n    _c: int = field(default=2)\n"
        "@dataclass\nclass _E:\n    d: int = 3\n"
    )
    assert defaulted_parameters(src, "mod") == [
        "mod.f(b)", "mod.f(c)", "mod.K.m(i)", "mod.D(b)", "mod.D(_c)"
    ]


def test_options_audit():
    found = [
        entry
        for path in sorted(PACKAGE.rglob("*.py"))
        for entry in defaulted_parameters(
            path.read_text(encoding="utf-8"),
            ".".join(path.relative_to(PACKAGE).with_suffix("").parts),
        )
    ]
    assert sorted(found) == sorted(OPTIONS)


ACCESSORS = {"get", "get_float", "get_int", "get_count", "get_floats"}


def config_reads(source: str) -> tuple[set[str], list[int]]:
    """The keys that `cfg.<accessor>("key")` or `self.<accessor>(key)` calls
    read, and the lines of the calls that pass more than the key: a default
    kept in code next to the shipped one."""
    keys, extra = set(), []
    for n in ast.walk(ast.parse(source)):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ACCESSORS
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("cfg", "self")
        ):
            if len(n.args) + len(n.keywords) != 1:
                extra.append(n.lineno)
            if n.args and isinstance(n.args[0], ast.Constant):
                keys.add(n.args[0].value)
    return keys, extra


def test_scan_flags_an_accessor_default():
    src = (
        'lam = cfg.get_float("lam")\nps = cfg.get_floats("ps", "2 3")\n'
        'n = cfg.get_count(key="n")\nx = d.get("x", 1)\nv = self.get(key)\n'
    )
    assert config_reads(src) == ({"lam", "ps"}, [2])


def test_scenario_parameters_default_in_the_shipped_config_alone():
    """No accessor call passes a default, and every shipped key is read."""
    read, hits = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        keys, extra = config_reads(path.read_text(encoding="utf-8"))
        read |= keys
        hits += [f"{path.relative_to(PACKAGE.parent)}:{line}" for line in extra]
    assert hits == []
    shipped = set()
    for path in sorted((PACKAGE / "experiments" / "configs").glob("*.cfg")):
        cp = configparser.ConfigParser()
        cp.read_string(path.read_text(encoding="utf-8"))
        shipped |= {key for title in cp.sections() for key in cp[title]}
    assert len(shipped) > 30 and shipped - {"name", "seed"} - read == set()


def verdict_add_misuses(source: str) -> list[int]:
    """Lines of the `verdict.add(...)` calls that do not pass exactly name,
    measured, relation and bound positionally, with the relation a string
    literal that `Verdict.add` knows; a misspelt relation would otherwise
    raise only when a config reaches its check."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "add"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "verdict"
        and not (
            len(n.args) == 4
            and isinstance(n.args[2], ast.Constant)
            and n.args[2].value in RELATIONS
        )
    ]


def test_scan_flags_a_verdict_add_without_a_known_relation():
    src = (
        'verdict.add("a", x, "<=", 1.0, note="")\nverdict.add("b", x, "=<", 1.0, note="")\n'
        'verdict.add("c", x, rel, 1.0, note="")\nverdict.add("d", x, 1.0, True, relation=">=", note="")\n'
        'verdict.add("e", x, "finite", inf, "")\nseen.add(x)\n'
    )
    assert verdict_add_misuses(src) == [2, 3, 4, 5]


def test_every_verdict_add_in_the_package_states_a_known_relation():
    calls = hits = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        calls += source.count("verdict.add(")
        hits += len(verdict_add_misuses(source))
    assert calls > 20 and hits == 0
