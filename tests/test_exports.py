"""The public surface: each module lists the names it defines once, in its
__all__, and the package re-exports exactly those."""

import ast
import inspect
import pkgutil

import zetasums
from zetasums import catalog, closed, errors, special, sums, transforms

_MODULES = (errors, special, sums, closed, transforms, catalog)

_PUBLIC = {
    "ALIASES", "DEFAULT_IDENTITY_TOL", "DEFAULT_TERM_BUDGET", "DomainError", "Family",
    "IDENTITY_KEYS", "IdentityReport", "MIN_EXPLICIT", "Method", "NoClosedFormError", "Sign",
    "StopRule", "SumResult", "SumSpec", "TermBudgetError", "Tolerance", "TransformReport",
    "UnattainableError", "ZetaCombination", "ZetaSumsError", "ZetaTerm", "bernoulli_fraction",
    "bernoulli_numbers", "check_identity", "choose_method", "combination_split",
    "compare_methods", "convergence_threshold", "corollary_b_equals_a", "default_grid",
    "dirichlet_eta", "eulerian_polynomial", "eval_direct", "evaluate", "even_arg_moment_closed",
    "even_arg_moment_combination", "faulhaber_coeffs", "floor_crossing_arg", "gamma_fn",
    "hurwitz_tail_bound", "hurwitz_zeta", "kappa_ab_alt_transformed", "kappa_ab_transformed",
    "kappa_alt_closed", "kappa_alt_combination", "kappa_closed", "kappa_combination",
    "lerch_phi", "moment_alt_closed", "moment_alt_combination", "moment_closed",
    "moment_combination", "pochhammer", "resolve_key", "riemann_zeta", "s_pm_transformed",
    "shifted_alt_closed", "shifted_alt_combination", "shifted_closed", "shifted_combination",
    "term_budget", "term_count_estimate",
}


def _top_level_bindings(module):
    """(names a module's top level defines, names it imports), from its source."""
    defined, imported = set(), set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name for alias in node.names)
    return defined, imported


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from zetasums import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(zetasums.__all__)
    assert len(zetasums.__all__) == len(set(zetasums.__all__))
    submodules = {m.name for m in pkgutil.iter_modules(zetasums.__path__)}
    assert not submodules & set(zetasums.__all__)


def test_public_names_are_pinned():
    assert set(zetasums.__all__) == _PUBLIC


def test_each_name_is_defined_by_the_one_module_that_lists_it():
    owners = {}
    for module in _MODULES:
        defined, imported = _top_level_bindings(module)
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__
            assert name in defined and name not in imported, (name, module.__name__)
            assert getattr(zetasums, name) is getattr(module, name), name
    assert set(owners) == set(zetasums.__all__)
