"""The package's public names are its modules' ``__all__``, re-exported.

``entrobound/__init__.py`` star-imports each module below, so a name in
two modules' ``__all__`` would be silently shadowed by the later import.
"""

import entrobound
from entrobound import bounds, certify, distributions, errors, montecarlo

REEXPORTED = (distributions, certify, bounds, montecarlo, errors)


def test_every_exported_name_resolves_to_its_module_object():
    assert entrobound.__all__.count("__version__") == 1
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(entrobound, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert all(hasattr(entrobound, name) for name in entrobound.__all__)


def test_no_name_is_exported_twice():
    assert len(set(entrobound.__all__)) == len(entrobound.__all__)
    owners: dict[str, list[str]] = {}
    for module in REEXPORTED:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: homes for name, homes in owners.items() if len(homes) > 1} == {}
