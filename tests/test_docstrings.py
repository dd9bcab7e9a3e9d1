"""Public-API docstring coverage gate for the documented packages.

``repro.datacenter`` (including the ``controlplane`` and ``journal``
subpackages) ships with a documented public API (module, class, and
public-method/function level); CI runs this
walker so a PR cannot silently regress that coverage.  The walker uses
``inspect.getdoc``, so overriding a *documented* base-class method
without restating its docstring still counts as documented
(inheritance is documentation), while brand-new public surface without
a docstring fails with the offending dotted names listed.
"""

import importlib
import inspect
import pkgutil

import pytest

DOCUMENTED_PACKAGES = (
    "repro.datacenter",
    "repro.datacenter.controlplane",
    "repro.datacenter.journal",
)


def _iter_modules(package_name):
    """Yield (dotted_name, module) for a package and its submodules."""
    package = importlib.import_module(package_name)
    yield package_name, package
    for info in pkgutil.iter_modules(package.__path__):
        name = f"{package_name}.{info.name}"
        yield name, importlib.import_module(name)


def _class_members(cls):
    """Public methods/properties defined by ``cls`` itself."""
    for attr_name in vars(cls):
        if attr_name.startswith("_"):
            continue
        member = getattr(cls, attr_name)
        if callable(member) or isinstance(
            inspect.getattr_static(cls, attr_name), property
        ):
            yield attr_name, member


def iter_public_api(package_name):
    """Yield ``(dotted_name, object)`` for the package's public surface.

    Covers the package module, every submodule, every public class and
    function *defined* there (re-exports are the defining module's
    responsibility), and every public method/property those classes
    define.
    """
    for module_name, module in _iter_modules(package_name):
        yield module_name, module
        for attr_name, obj in vars(module).items():
            if attr_name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            dotted = f"{module_name}.{attr_name}"
            yield dotted, obj
            if inspect.isclass(obj):
                for member_name, member in _class_members(obj):
                    yield f"{dotted}.{member_name}", member


@pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
def test_public_api_is_fully_documented(package_name):
    missing = sorted(
        dotted
        for dotted, obj in iter_public_api(package_name)
        if not inspect.getdoc(obj)
    )
    assert not missing, (
        f"{package_name} public API lost docstring coverage; undocumented: "
        + ", ".join(missing)
    )


@pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
def test_walker_sees_a_real_api_surface(package_name):
    """Guard against the walker silently matching nothing."""
    surface = list(iter_public_api(package_name))
    assert len(surface) > 10
    kinds = {inspect.isclass(obj) for _, obj in surface}
    assert kinds == {True, False}
