"""Source hygiene: every import in the package is used in its module, no
module relies on an `assert` statement, no condition in the package or the
tests is a constant, and the defaulted parameters of public functions are an
audited list."""

import ast
from pathlib import Path

import besselweights

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
    "experiments.config.ScenarioConfig.get(default)",
    "experiments.config.ScenarioConfig.get_float(default)",
    "experiments.config.ScenarioConfig.get_int(default)",
    "experiments.config.ScenarioConfig.get_floats(default)",
    "experiments.config.parse_config_text(seed_override)",
    "experiments.config.load_config(seed_override)",
    "experiments.config.load_default_config(seed_override)",
    "experiments.sparse_scaling.run_sparse_scaling(apply_op)",
    "experiments.sparse_scaling.run_sparse_scaling(budget_factor)",
    "experiments.sparse_scaling.run_sparse_scaling(label)",
    "measure.FuncExpr.indicator(value)",
    "measure.monotone_inverse(increasing)",
    "measure.integrate_callable(kind)",
    "measure.integrate_callable(points)",
    "measure.integrate_callable(rel_tol)",
    "operators.lp_norm(domain)",
    "orlicz.llogl(eps)",
    "orlicz.exp_m1(rate)",
    "riesz.SeparatedBallPair.build(direction)",
    "riesz.lower_bound_check(samples)",
    "weights.Weight.power(coef)",
    "weights.IntervalFamily.random(lo_exp)",
    "weights.IntervalFamily.random(hi_exp)",
    "weights.IntervalFamily.standard(seed)",
    "weights.IntervalFamily.standard(n_random)",
    "weights.power_dichotomy(seed)",
    "weights.power_dichotomy(n_random)",
    "weights.power_dichotomy(stabilization_band)",
]


def defaulted_parameters(source: str, module: str) -> list[str]:
    """"module.function(param)" for each defaulted parameter of a public
    function, or of a public method of a public class, at module level."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
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
        "class K:\n    def m(self, i=5): pass\n    def _n(self, j=6): pass\n"
        "class _L:\n    def m(self, k=7): pass\n"
    )
    assert defaulted_parameters(src, "mod") == ["mod.f(b)", "mod.f(c)", "mod.K.m(i)"]


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
