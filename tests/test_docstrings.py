"""Docstring presence is enforced on the public serving/API surface.

The docs system (`docs/`, `python -m repro.docgen`) renders first
docstring paragraphs straight into the checked-in API reference, so a
missing docstring is not a style nit — it is a hole in the generated
documentation.  This test walks every module under :mod:`repro.api`, :mod:`repro.serve`
and :mod:`repro.stream` (plus :mod:`repro.docgen` itself) and requires a
docstring on the module, on every public class and function defined
there, and on every public method of those classes.
"""

import importlib
import inspect
import pkgutil

import pytest

DOCUMENTED_PACKAGES = ("repro.api", "repro.serve", "repro.net",
                       "repro.stream", "repro.store", "repro.backend",
                       "repro.obs")
EXTRA_MODULES = ("repro.docgen", "repro._clock")


def iter_documented_modules():
    """Every module whose public surface must be documented."""
    for pkg_name in DOCUMENTED_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            yield importlib.import_module(f"{pkg_name}.{info.name}")
    for name in EXTRA_MODULES:
        yield importlib.import_module(name)


MODULES = sorted(iter_documented_modules(), key=lambda m: m.__name__)


def public_members(module):
    """(name, obj) pairs for classes/functions defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are checked where they are defined
        yield name, obj


def missing_docstrings(module) -> list[str]:
    problems = []
    if not (module.__doc__ or "").strip():
        problems.append(f"{module.__name__}: module docstring")
    for name, obj in public_members(module):
        if not (inspect.getdoc(obj) or "").strip():
            problems.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if not inspect.isfunction(member):
                    continue
                if not (inspect.getdoc(member) or "").strip():
                    problems.append(f"{module.__name__}.{name}.{mname}")
    return problems


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_public_surface_is_documented(module):
    problems = missing_docstrings(module)
    assert not problems, (
        "missing docstrings (these render as '(undocumented)' in "
        "docs/api.md):\n  " + "\n  ".join(problems))


def test_all_exports_resolve():
    """Every name in a documented package's __all__ actually exists."""
    for pkg_name in DOCUMENTED_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists {name}"
